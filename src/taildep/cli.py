"""Command-line entry point.

Exit codes, uniformly across subcommands:

  0  success (including FEASIBLE / realizable answers)
  3  structured negative answer (INFEASIBLE, not realizable, not a line
     metric); a machine-readable witness goes to stdout or --out
  2  malformed input (bad file, bad matrix, bad flags)
  1  internal error

File formats (all exact artifacts use "num/den" rational strings and
sorted 1-based index arrays for subsets):

  coefficient systems  {"p": int, "kind": "beta|lambda|theta",
                        "entries": [{"set": [1,3], "value": "1/2"}, ...]}
  models               {"p": int, "beta": [{"set": ..., "value": ...}]}
  matrices             CSV (one row per line, rational or decimal cells)
                       or JSON {"p": int, "lam"/"d": [[...]]}
  cut decompositions   {"p": int, "cuts": [...], "slack_full": "1/2"},
                       written by `spectral cuts` and `realize sdr`, never read
  simulation reports   JSON with decimal floats (--precision digits)
  sample streams       16-byte header (magic TDSIM1, uint16 p, uint64 n),
                       then row-major little-endian float64
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from pathlib import Path

from . import io as tio
from .coeffs import (
    beta_from_lambda,
    beta_from_theta,
    lambda_from_beta,
    lambda_from_theta,
    sdr_rows,
    tdr_rows,
    theta_from_beta,
    theta_from_lambda,
)
from .errors import (
    CertificateRejected, DomainError, InternalError, TaildepError, UnboundedObjective,
)
from .rationals import rat, rat_str
from .realize import DEFAULT_MAX_P, Status, decide_sdr, decide_tdr, verify_certificate
from .spectral import (
    NotLine,
    NotRealizableAtTheseMarginals,
    cut_decomposition,
    detect_line_metric,
    distance_from_td,
    line_tm_model,
    validate,
)
from .subsets import labels_of, set_str
from .simulate import (
    _CHUNK_ROWS,
    DEFAULT_BLOCK_SIZE,
    estimation_report,
    exceedance_set_histogram,
    sample,
    tv_distance,
)
from .coeffs import td_matrix
from .tm import RealizabilityFailure, TmModel, exceedance_set_dist, synthesize

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MALFORMED = 2
EXIT_NEGATIVE = 3

_INVERSIONS = {
    ("beta", "lambda"): lambda_from_beta,
    ("beta", "theta"): theta_from_beta,
    ("lambda", "beta"): beta_from_lambda,
    ("theta", "beta"): beta_from_theta,
    ("lambda", "theta"): theta_from_lambda,
    ("theta", "lambda"): lambda_from_theta,
}


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _round_sig(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")


# ---------------------------------------------------------------------------
# Subcommand handlers.
# ---------------------------------------------------------------------------


def _cmd_invert(args: argparse.Namespace) -> int:
    fn = tio.subsetfn_from_json(tio.read_json(args.infile))
    op = _INVERSIONS.get((fn.kind.value, args.dst))
    if op is None:
        print(f"error: no inversion {fn.kind.value} -> {args.dst}", file=sys.stderr)
        return EXIT_MALFORMED
    result = op(fn)
    _emit(tio.subsetfn_to_json(result), args.out)
    return EXIT_OK


def _cmd_tm_synth(args: argparse.Namespace) -> int:
    fn = tio.subsetfn_from_json(tio.read_json(args.infile))
    result = synthesize(fn)
    if isinstance(result, RealizabilityFailure):
        payload = {
            "realizable": False,
            "negative_beta": tio._entries_to_json(result.negative),
        }
        _emit(payload, args.out)
        return EXIT_NEGATIVE
    _emit(tio.tm_model_to_json(result), args.out)
    return EXIT_OK


def _cmd_spectral_dist(args: argparse.Namespace) -> int:
    L = tio.load_td_matrix(args.infile)
    d = distance_from_td(L)
    if args.out:
        tio.save_matrix(args.out, d.d, "d")
    else:
        print(tio.matrix_rows_to_csv(d.d), end="")
    return EXIT_OK


def _cmd_spectral_cuts(args: argparse.Namespace) -> int:
    model = tio.tm_model_from_json(tio.read_json(args.model))
    _emit(tio.cuts_to_json(cut_decomposition(model)), args.out)
    return EXIT_OK


def _cmd_linemetric(args: argparse.Namespace) -> int:
    d = tio.load_semimetric(args.infile)
    report = validate(d)
    if not report.is_semimetric:
        i, j, k = report.violations[0]
        print(
            f"error: not a semimetric; triangle ({i + 1},{j + 1},{k + 1}) violated",
            file=sys.stderr,
        )
        return EXIT_MALFORMED
    cert = detect_line_metric(d)
    if isinstance(cert, NotLine):
        i, j = cert.failing_pair
        _emit({"line": False, "failing_pair": [i + 1, j + 1]}, args.out)
        return EXIT_NEGATIVE
    payload = {
        "line": True,
        "order": [i + 1 for i in cert.order],
        "weights": [rat_str(w) for w in cert.weights],
    }
    if not args.marginals:
        _emit(payload, args.out)
        return EXIT_OK
    marginals = [rat(tok) for tok in args.marginals.split(",")]
    built = line_tm_model(cert, marginals)
    if isinstance(built, NotRealizableAtTheseMarginals):
        payload["realizable"] = False
        payload["negative_beta"] = tio._entries_to_json(built.negative)
        _emit(payload, args.out)
        return EXIT_NEGATIVE
    payload["realizable"] = True
    payload["model"] = tio.tm_model_to_json(built.model)
    _emit(payload, args.out)
    return EXIT_OK


def _outcome_payload(outcome) -> dict:
    rows = tdr_rows if outcome.problem == "tdr" else sdr_rows
    payload: dict = {
        "problem": outcome.problem,
        "status": outcome.status.value,
        "p": outcome.p,
        "rows": [[i + 1, j + 1] for i, j in rows(outcome.p)],
    }
    if outcome.status is Status.FEASIBLE:
        payload["witness"] = tio.tm_model_to_json(outcome.model)
        if outcome.problem == "sdr":  # both read off the one witness
            payload["cuts"] = tio.cuts_to_json(cut_decomposition(outcome.model))
            payload["scale"] = rat_str(outcome.model.lambda_of(1))
    else:
        payload["farkas"] = [rat_str(y) for y in outcome.farkas]
    return payload


def _cmd_realize_td(args: argparse.Namespace) -> int:
    L = tio.load_td_matrix(args.infile)
    outcome = decide_tdr(L, max_p=args.max_p)
    verify_certificate(outcome, L)
    _emit(_outcome_payload(outcome), args.witness)
    return EXIT_OK if outcome.feasible else EXIT_NEGATIVE


def _cmd_realize_sdr(args: argparse.Namespace) -> int:
    d = tio.load_semimetric(args.infile)
    scale = "auto" if args.scale == "auto" else rat(args.scale)
    outcome = decide_sdr(d, scale=scale, max_p=args.max_p)
    verify_certificate(outcome, d)
    _emit(_outcome_payload(outcome), args.witness)
    return EXIT_OK if outcome.feasible else EXIT_NEGATIVE


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = tio.tm_model_from_json(tio.read_json(args.model))
    # settings and targets are checked before any warning, draw or file write
    if args.n < 1 or not 0 < args.u < math.inf or args.block_size < 1 or args.precision < 0:
        raise DomainError(f"--n, --u and --block-size must be positive and --precision "
                          f">= 0 (--u also finite), got {args.n}, {args.u}, "
                          f"{args.block_size}, {args.precision}")
    if args.targets:
        lam_t, th_t = tio.targets_from_json(tio.read_json(args.targets), model.p)
    elif model.p <= 6:
        lam_t = list(range(1, 1 << model.p))
        th_t = list(range(1, 1 << model.p))
    else:
        lam_t = [1 << i for i in range(model.p)] + [(1 << model.p) - 1]
        th_t = [(1 << model.p) - 1]
    if args.block_size < _CHUNK_ROWS:
        print(f"warning: --block-size {args.block_size} is below {_CHUNK_ROWS}; "
              "per-block set-up will dominate the run time", file=sys.stderr)
    xs = sample(model, args.n, args.seed, args.block_size)
    # The sample file is written on a second thread (tofile releases the
    # GIL) while this one builds the histogram and the report; the writer is
    # joined before anything is emitted, and its error wins over theirs, so
    # the files, stdout, stderr and exit code are those of writing first.
    # Imported here, as in sample(): concurrent.futures loads logging.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as pool:
        written = (pool.submit(tio.write_samples_binary, args.samples_out, xs)
                   if args.samples_out else None)
        try:
            hist = exceedance_set_histogram(xs, args.u)
            rep = estimation_report(model, hist, lam_t, th_t)
            # sample() has refused a degenerate model, so the limit exists
            tv = tv_distance(hist, exceedance_set_dist(model))
        finally:
            if written is not None:
                written.result()
    digits = args.precision
    payload = {
        "n": args.n,
        "u": args.u,
        "seed": args.seed,
        "targets": [
            {
                "kind": row.kind,
                "set": list(labels_of(row.subset)),
                "empirical": _round_sig(row.empirical, digits),
                "exact_finite_u": _round_sig(row.exact_finite_u, digits),
                "asymptotic": _round_sig(row.asymptotic, digits),
                "std_error": _round_sig(row.std_error, digits),
            }
            for row in rep.rows
        ],
        "exceedance_histogram": {
            "n_nonempty": hist.n_nonempty,
            "sets": [
                {
                    "set": list(labels_of(m)),
                    "count": c,
                    "empirical": _round_sig(c / hist.n_nonempty, digits),
                }
                for m, c in hist.counts
            ],
            "tv_distance_to_limit": _round_sig(tv, digits),
        },
    }
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    p, entries = tio._model_entries(tio.read_json(args.model))
    if p > 6:  # refused before any 2**p array is built
        print(f"error: report enumerates all 2**p - 1 subsets; p={p} > 6", file=sys.stderr)
        return EXIT_MALFORMED
    model = TmModel.from_entries(p, entries)
    lam = model.lambdas()
    th = model.thetas()
    dist = exceedance_set_dist(model) if not model.is_degenerate else None
    print(f"model: p={model.p}, atoms={len(model.support())}, "
          f"theta_total={rat_str(model.theta_total())}")
    print(f"marginal scales: {', '.join(rat_str(s) for s in model.marginal_scales())}")
    print()
    print(f"{'subset':<14}{'theta':>12}{'lambda':>12}{'theta pmf':>12}")
    for mask in range(1, 1 << model.p):
        pmf = dist.probability(mask) if dist is not None else None
        pmf_s = rat_str(pmf) if pmf else "-"
        print(
            f"{set_str(mask):<14}{rat_str(th[mask]):>12}"
            f"{rat_str(lam[mask]):>12}{pmf_s:>12}"
        )
    print()
    print("spectral distance d(i,j):")
    d = distance_from_td(td_matrix(lam))
    for row in d.d:
        print("  " + "  ".join(f"{rat_str(v):>8}" for v in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


@cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taildep",
        description="Exact tail-dependence calculus: coefficient algebra, "
        "max-stable model synthesis, spectral-distance geometry, "
        "realizability deciders, and Monte-Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("invert", help="convert a beta/lambda/theta system to another kind")
    q.add_argument("--to", dest="dst", required=True, choices=["beta", "lambda", "theta"])
    q.add_argument("--in", dest="infile", required=True, help="coefficient JSON file")
    q.add_argument("--out", help="output JSON path (default: stdout)")
    q.set_defaults(func=_cmd_invert)

    t = sub.add_parser("tm", help="max-stable model operations")
    tsub = t.add_subparsers(dest="tm_command", required=True)
    ts = tsub.add_parser("synth", help="synthesize a model from lambda or theta")
    ts.add_argument("--in", dest="infile", required=True)
    ts.add_argument("--out", help="model JSON path (default: stdout)")
    ts.set_defaults(func=_cmd_tm_synth)

    s = sub.add_parser("spectral", help="spectral-distance operations")
    ssub = s.add_subparsers(dest="spectral_command", required=True)
    sd = ssub.add_parser("dist", help="spectral distance of a bivariate matrix")
    sd.add_argument("--in", dest="infile", required=True, help="TD matrix (CSV or JSON)")
    sd.add_argument("--out", help="output matrix path (CSV or .json)")
    sd.set_defaults(func=_cmd_spectral_dist)
    sc = ssub.add_parser("cuts", help="cut decomposition of a model")
    sc.add_argument("--model", required=True)
    sc.add_argument("--out")
    sc.set_defaults(func=_cmd_spectral_cuts)

    lm = sub.add_parser("linemetric", help="detect a line metric; optionally build its model")
    lm.add_argument("--in", dest="infile", required=True, help="semimetric (CSV or JSON)")
    lm.add_argument("--marginals", help='comma-separated marginal scales, e.g. "2,2,2"')
    lm.add_argument("--out")
    lm.set_defaults(func=_cmd_linemetric)

    r = sub.add_parser("realize", help="exact realizability deciders")
    rsub = r.add_subparsers(dest="realize_command", required=True)
    rt = rsub.add_parser("td", help="tail-dependence matrix realizability")
    rt.add_argument("--in", dest="infile", required=True)
    rt.add_argument("--witness", help="write the outcome JSON here instead of stdout")
    rt.add_argument("--max-p", type=int, default=DEFAULT_MAX_P,
                    help=f"decider guard on p (default {DEFAULT_MAX_P})")
    rt.set_defaults(func=_cmd_realize_td)
    rs = rsub.add_parser("sdr", help="spectral-distance realizability")
    rs.add_argument("--in", dest="infile", required=True)
    rs.add_argument("--scale", default="auto", help='"auto" or a rational like "35/2"')
    rs.add_argument("--witness")
    rs.add_argument("--max-p", type=int, default=DEFAULT_MAX_P,
                    help=f"decider guard on p (default {DEFAULT_MAX_P})")
    rs.set_defaults(func=_cmd_realize_sdr)

    sim = sub.add_parser("simulate", help="Monte-Carlo sampling and estimation report")
    sim.add_argument("--model", required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--u", type=float, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--targets", help="JSON with lambda/theta target sets")
    sim.add_argument("--out", help="report JSON path (default: stdout)")
    sim.add_argument("--samples-out", help="binary sample stream path")
    sim.add_argument("--block-size", type=int, default=DEFAULT_BLOCK_SIZE,
                     help=f"rows per random block; below {_CHUNK_ROWS}, set-up "
                     "dominates and a warning goes to stderr")
    sim.add_argument("--precision", type=int, default=6, help="significant digits")
    sim.set_defaults(func=_cmd_simulate)

    rep = sub.add_parser("report", help="full coefficient table of a model (p <= 6)")
    rep.add_argument("--model", required=True)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CertificateRejected, InternalError, UnboundedObjective) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TaildepError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
