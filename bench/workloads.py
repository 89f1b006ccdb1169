"""The benchmark's workloads: inputs made from the seed, rounds of operations, checks.

Each workload builds its inputs once (that is part of ``setup_s``), then hands
out rounds: lists of operations, each with the check its output must pass.
An operation is timed from the call into taildep to its return; checks run
after, untimed, and compare against computations made here, apart from the
program (``certcheck`` for realizability answers, plain ``Fraction`` sums for
the lattice and line results, 50-digit ``mpmath`` for the exact laws).

Every operation is one of three kinds.  ``primary`` and ``secondary`` ones
give the two timing metrics of the workload; ``other`` ones are only counted.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import struct
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import mpmath
import numpy as np

import certcheck


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


@dataclass
class Op:
    kind: str  # "primary", "secondary" or "other"
    name: str  # span name of the operation's root, "bench.<name>"
    run: Callable[[], Any]
    # True: succeeded.  False: failed (counted in ``failed``).  Raises
    # CheckFailed when the output is wrong.
    check: Callable[[Any], bool]


def F(v) -> Fraction:
    """Exact value as a Fraction, whichever rational type taildep uses."""
    return Fraction(int(v.numerator), int(v.denominator))


def _ratio(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _write(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload) + "\n")
    return path


def _read_and_remove(path: Path) -> dict:
    """Read an answer the CLI wrote, and remove it so no later round reads it stale."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    finally:
        path.unlink(missing_ok=True)


def _labels(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _mask(labels) -> int:
    return sum(1 << (k - 1) for k in labels)


def _submasks(mask: int):
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


class Workload:
    name = ""
    why = ""
    # names under which the run also prints its primary and secondary timings
    primary_name = ""
    secondary_name = ""

    def ops(self, k: int) -> list[Op]:
        """Operations of round k."""
        raise NotImplementedError

    def named(self, times: dict[str, list[float]]) -> dict[str, tuple[float, str]]:
        return {
            self.primary_name: (statistics.median(times["primary"]), "s"),
            self.secondary_name: (statistics.median(times["secondary"]), "s"),
        }


# ---------------------------------------------------------------------------
# realize: certified TDR and SDR answers through the CLI.
# ---------------------------------------------------------------------------

TDR_P = 6
SDR_P = 7
REALIZE_POOL = 64  # rounds of distinct instances; later rounds reuse them


def k23_copy(p: int, rng: random.Random, k23) -> list[list[Fraction]]:
    """A p-point metric holding a scaled K_{2,3} metric on five random points.

    The other points hang off K_{2,3} vertices at random lengths (a 1-sum, so
    the result is a metric).  Restricting a cut-cone member to a subset of
    points stays in the cut cone and K_{2,3} is outside it, so every copy is
    infeasible by construction.
    """
    scale = Fraction(rng.randint(1, 8), 4)
    points = rng.sample(range(p), p)
    where = {v: (k, Fraction(0)) for k, v in enumerate(points[:5])}
    for v in points[5:]:
        where[v] = (rng.randrange(5), Fraction(rng.randint(1, 8), 4))
    base = [[scale * F(x) for x in row] for row in k23.d]
    return [
        [
            Fraction(0) if i == j
            else where[i][1] + where[j][1] + base[where[i][0]][where[j][0]]
            for j in range(p)
        ]
        for i in range(p)
    ]


class Realize(Workload):
    name = "realize"
    why = ("exact LP phase one: TDR at p=6 and SDR at p=7 through the CLI, "
           "feasible and infeasible, every certificate re-checked")
    primary_name = "tdr_s"
    secondary_name = "sdr_s"

    def __init__(self, seed: int, work: Path) -> None:
        from taildep import cli, instances

        self.cli = cli
        self.work = work
        rng = random.Random(seed)
        self.pool = []
        for k in range(REALIZE_POOL):
            L = instances.pair_matrix_from_beta(instances.random_unit_margin_beta(TDR_P, rng))
            twin = instances.violate_triangle(L, rng)
            cases = [
                ("td", L.lam, "feasible"),
                ("td", twin.lam, "infeasible"),
                ("sdr", instances.random_cut_metric(SDR_P, rng).d, "feasible"),
                ("sdr", instances.random_graph_metric(SDR_P, rng).d, None),
                ("sdr", k23_copy(SDR_P, rng, instances.k23_metric()), "infeasible"),
            ]
            row = []
            for i, (problem, rows, truth) in enumerate(cases):
                exact = [[F(v) for v in r] for r in rows]
                key = "lam" if problem == "td" else "d"
                payload = {"p": len(exact), key: [[_ratio(v) for v in r] for r in exact]}
                row.append((problem, _write(work / f"in-{k}-{i}.json", payload), exact, truth))
            self.pool.append(row)
        self.answers = 0

    def ops(self, k: int) -> list[Op]:
        out = []
        for problem, path, exact, truth in self.pool[k % REALIZE_POOL]:
            self.answers += 1
            answer = self.work / f"answer-{self.answers}.json"
            argv = ["realize", problem, "--in", str(path), "--witness", str(answer)]
            checker = certcheck.check_tdr if problem == "td" else certcheck.check_sdr

            def check(code, answer=answer, exact=exact, truth=truth, checker=checker):
                try:
                    checker(_read_and_remove(answer), exact, code, truth)
                except (certcheck.Rejected, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                    raise CheckFailed(f"{answer.name}: {exc}") from exc
                return True

            out.append(Op(
                "primary" if problem == "td" else "secondary",
                "tdr" if problem == "td" else "sdr",
                lambda argv=argv: self.cli.main(argv),
                check,
            ))
        return out


# ---------------------------------------------------------------------------
# line_rigidity: detection, model, higher-order collapse and the probe.
# ---------------------------------------------------------------------------

LINE_P = 7
LINE_SMALL_P = 6
LINE_SMALL_PER_ROUND = 2
LINE_POOL = 64
PROBE_TRIALS = 20


@dataclass
class LineInstance:
    order: list[int]  # component at each line position, as generated
    gaps: list[Fraction]
    marginals: list[Fraction]  # per component
    d: Any  # taildep SemiMetric
    marginals_rat: list  # per component, taildep rationals
    probe_seed: int


class LineRigidity(Workload):
    name = "line_rigidity"
    why = ("line metrics at p=7 and p=6 from detection to the 20-objective rigidity "
           "probe: one LP phase one, then many warm-started phase-two solves")
    primary_name = "line_pipeline_s"
    secondary_name = "line_pipeline_p6_s"

    def __init__(self, seed: int, work: Path) -> None:
        from taildep import instances, spectral

        self.spectral = spectral
        rng = random.Random(seed)
        self.pool = []
        for _ in range(LINE_POOL):
            sizes = [LINE_P] + [LINE_SMALL_P] * LINE_SMALL_PER_ROUND
            self.pool.append([self._instance(p, rng, instances) for p in sizes])

    @staticmethod
    def _instance(p: int, rng: random.Random, instances) -> LineInstance:
        gaps, marg_line = instances.random_line_instance(p, rng)
        order = rng.sample(range(p), p)
        by_comp = [None] * p
        for pos, comp in enumerate(order):
            by_comp[comp] = marg_line[pos]
        return LineInstance(
            order,
            [F(g) for g in gaps],
            [F(m) for m in by_comp],
            instances.line_metric_from_weights(gaps, order),
            by_comp,
            rng.randrange(1 << 31),
        )

    def _pipeline(self, inst: LineInstance):
        sp = self.spectral
        cert = sp.detect_line_metric(inst.d)
        built = sp.line_tm_model(cert, inst.marginals_rat)
        p = len(inst.order)
        collapse = [sp.higher_order_from_line(built, m) for m in range(1, 1 << p)]
        probe = sp.rigidity_probe(inst.d, trials=PROBE_TRIALS, seed=inst.probe_seed)
        return cert, built, collapse, probe

    @staticmethod
    def _check(inst: LineInstance, result) -> bool:
        cert, built, collapse, probe = result
        p = len(inst.order)
        full = (1 << p) - 1
        at_pos = [Fraction(0)]
        for g in inst.gaps:
            at_pos.append(at_pos[-1] + g)
        pos = {c: k for k, c in enumerate(inst.order)}
        d = [[abs(at_pos[pos[i]] - at_pos[pos[j]]) for j in range(p)] for i in range(p)]
        # the detected order and gaps reproduce d
        order, w = list(cert.order), [F(v) for v in cert.weights]
        if sorted(order) != list(range(p)):
            raise CheckFailed("detected order is not a permutation")
        for a in range(p):
            for b in range(a + 1, p):
                if d[order[a]][order[b]] != sum(w[a:b], Fraction(0)):
                    raise CheckFailed("detected line does not reproduce d")
        # prefix/suffix/full-set weight formulas, in the generated order
        m = [inst.marginals[c] for c in inst.order]
        expected: dict[int, Fraction] = {}
        prefix = 0
        prefixes = []
        for k in range(p - 1):
            prefix |= 1 << inst.order[k]
            prefixes.append(prefix)
            pair = (m[k] + m[k + 1] - inst.gaps[k]) / 2
            expected[prefix] = expected.get(prefix, Fraction(0)) + m[k] - pair
            expected[full ^ prefix] = expected.get(full ^ prefix, Fraction(0)) + m[k + 1] - pair
        expected[full] = expected.get(full, Fraction(0)) + (m[0] + m[-1] - sum(inst.gaps)) / 2
        beta = {mask: F(v) for mask, v in built.model.support()}
        if beta != {k: v for k, v in expected.items() if v != 0}:
            raise CheckFailed("model weights differ from the prefix/suffix/full-set formulas")
        # lambda(J) = the superset sum at J = the superset sum at J's extreme pair

        def superset_sum(mask: int) -> Fraction:
            return sum((v for j, v in beta.items() if j & mask == mask), Fraction(0))

        for mask in range(1, full + 1):
            at = [pos[i] for i in range(p) if mask >> i & 1]
            ends = (1 << inst.order[min(at)]) | (1 << inst.order[max(at)])
            value = F(collapse[mask - 1])
            if value != superset_sum(mask) or value != superset_sum(ends):
                raise CheckFailed(f"lambda of subset {mask} is not its extreme pair's")
        # the cut reconstruction of the model reproduces d
        for i in range(p):
            for j in range(i + 1, p):
                sep = sum((v for J, v in beta.items() if (J >> i & 1) != (J >> j & 1)), Fraction(0))
                if sep != d[i][j]:
                    raise CheckFailed(f"cut reconstruction differs from d at ({i + 1},{j + 1})")
        # line metrics are rigid: every range is one point, the gap weight of its cut
        gap = {}
        for k, pre in enumerate(prefixes):
            canon = pre if pre & 1 else full ^ pre
            gap[canon] = gap.get(canon, Fraction(0)) + inst.gaps[k]
        if probe.objectives_used != PROBE_TRIALS or not probe.rigid_consistent:
            raise CheckFailed("probe did not report a rigid decomposition")
        for mask, lo, hi in probe.ranges:
            if F(lo) != F(hi) or F(lo) != gap.get(mask, Fraction(0)):
                raise CheckFailed(f"probe range of cut {mask} is [{lo}, {hi}]")
        return True

    def ops(self, k: int) -> list[Op]:
        return [
            Op(
                "primary" if i == 0 else "secondary",
                "line",
                lambda inst=inst: self._pipeline(inst),
                lambda result, inst=inst: self._check(inst, result),
            )
            for i, inst in enumerate(self.pool[k % LINE_POOL])
        ]


# ---------------------------------------------------------------------------
# lattice: dense transforms at p=16 and many small round trips.
# ---------------------------------------------------------------------------

BIG_P = 16
SMALL_PS = range(2, 11)
SMALL_PER_P = 20
BRUTE_FORCE_SUBSETS = 4


def _random_beta_values(p: int, rng: random.Random) -> list[Fraction]:
    """Dense weights, 70% nonzero, with small power-of-two denominators."""
    return [
        Fraction(rng.randrange(0, 48), 1 << rng.randrange(0, 5)) if rng.random() < 0.7
        else Fraction(0)
        for _ in range((1 << p) - 1)
    ]


class Lattice(Workload):
    name = "lattice"
    why = ("exact subset-lattice transforms: a dense p=16 set plus synthesize, and "
           "180 small round trips at p=2..10; never touches the LP")
    primary_name = "lattice_p16_s"
    secondary_name = "lattice_small_per_s"

    def __init__(self, seed: int, work: Path) -> None:
        from taildep import coeffs, tm
        from taildep.rationals import Rat

        self.coeffs, self.tm = coeffs, tm
        rng = random.Random(seed)

        def system(p: int) -> tuple[Any, list[Fraction]]:
            values = _random_beta_values(p, rng)
            rats = tuple(Rat(v.numerator, v.denominator) for v in values)
            return coeffs.SubsetFn(p, rats, coeffs.Kind.BETA), values

        self.big, self.big_values = system(BIG_P)
        self.small = [system(p)[0] for p in SMALL_PS for _ in range(SMALL_PER_P)]
        self.subsets = [rng.randrange(1, 1 << BIG_P) for _ in range(BRUTE_FORCE_SUBSETS)]
        self._sums: dict[int, tuple[Fraction, Fraction]] = {}

    def named(self, times):
        return {
            self.primary_name: (statistics.median(times["primary"]), "s"),
            self.secondary_name: (len(times["secondary"]) / sum(times["secondary"]), "1/s"),
        }

    def _big_set(self):
        c = self.coeffs
        lam = c.lambda_from_beta(self.big)
        theta = c.theta_from_beta(self.big)
        return (lam, theta, c.beta_from_lambda(lam), c.beta_from_theta(theta),
                c.theta_from_lambda(lam), self.tm.synthesize(lam))

    def _defining_sums(self, mask: int) -> tuple[Fraction, Fraction]:
        """lambda and theta at one subset, summed straight from the definitions."""
        if mask not in self._sums:
            lam = theta = Fraction(0)
            for j, v in enumerate(self.big_values, start=1):
                if v:
                    if j & mask == mask:
                        lam += v
                    if j & mask:
                        theta += v
            self._sums[mask] = (lam, theta)
        return self._sums[mask]

    def _check_big(self, result) -> bool:
        lam, theta, b_lam, b_theta, theta_lam, model = result
        beta = self.big.values
        if b_lam.values != beta or b_theta.values != beta:
            raise CheckFailed("p=16 round trip is not exact")
        if theta_lam.values != theta.values:
            raise CheckFailed("theta from lambda differs from theta from beta")
        if getattr(model, "beta", None) is None or model.beta.values != beta:
            raise CheckFailed("synthesize did not recover the weights")
        for mask in self.subsets:
            if (F(lam.values[mask - 1]), F(theta.values[mask - 1])) != self._defining_sums(mask):
                raise CheckFailed(f"p=16 transform differs from the defining sums at {mask}")
        return True

    def _round_trip(self, beta):
        c = self.coeffs
        return c.beta_from_lambda(c.lambda_from_beta(beta)), c.beta_from_theta(c.theta_from_beta(beta))

    @staticmethod
    def _check_small(beta, result) -> bool:
        if result[0].values != beta.values or result[1].values != beta.values:
            raise CheckFailed(f"p={beta.p} round trip is not exact")
        return True

    def ops(self, k: int) -> list[Op]:
        out = [Op("primary", "lattice_p16", self._big_set, self._check_big)]
        out += [
            Op("secondary", "lattice_small",
               lambda b=b: self._round_trip(b),
               lambda result, b=b: self._check_small(b, result))
            for b in self.small
        ]
        return out


# ---------------------------------------------------------------------------
# simulate: the CLI's sampler and estimators, plus exact laws against mpmath.
# ---------------------------------------------------------------------------

SIM_N = 1_000_000
SIM_U = 100.0
P8_ATOMS = 60
# Atom-component incidences of the p=8 model: sampling work is proportional
# to it, so every seed gets the same amount.
P8_INCIDENCES = 240
ESTIMATE_SE = 4.0  # estimates must lie within this many standard errors
CELL_SE = 5.0  # exceedance-set histogram cells, against the exact finite-u law
FIXTURE_US = (1e2, 1e4, 1e6, 1e8, 1e10, 1e12)
MODEL_US = (1e2, 1e3, 1e4)
LAW_RTOL = 1e-6
REPORT_RTOL = 1e-5  # the CLI rounds report values to six significant digits
SAMPLES_HEADER = struct.Struct("<6sHQ")


class ExactLaws:
    """Exceedance probabilities of one model, in 50-digit arithmetic."""

    def __init__(self, p: int, support: list[tuple[int, Fraction]]) -> None:
        self.p = p
        self.support = support
        self._cache: dict = {}

    def theta(self, mask: int) -> Fraction:
        return sum((v for m, v in self.support if m & mask), Fraction(0))

    def lam(self, mask: int) -> Fraction:
        return sum((v for m, v in self.support if m & mask == mask), Fraction(0))

    def _none_exceeds(self, mask: int, u: float):
        th = self.theta(mask)
        return mpmath.exp(-mpmath.mpf(th.numerator) / th.denominator / mpmath.mpf(u))

    def joint(self, mask: int, u: float):
        """P[X_i > u for every i in mask]."""
        key = ("joint", mask, u)
        if key not in self._cache:
            with mpmath.workdps(50):
                self._cache[key] = mpmath.fsum(
                    (-1) ** bin(s).count("1") * self._none_exceeds(s, u) for s in _submasks(mask)
                )
        return self._cache[key]

    def union(self, mask: int, u: float):
        """P[X_i > u for some i in mask]."""
        with mpmath.workdps(50):
            return 1 - self._none_exceeds(mask, u)

    def set_law(self, u: float) -> dict[int, float]:
        """P[{i : X_i > u} = J | it is nonempty], for every nonempty J."""
        key = ("law", u)
        if key not in self._cache:
            full = (1 << self.p) - 1
            with mpmath.workdps(50):
                law = {
                    J: mpmath.fsum(
                        (-1) ** bin(s).count("1") * self._none_exceeds((full ^ J) | s, u)
                        for s in _submasks(J)
                    )
                    for J in range(1, full + 1)
                }
                total = 1 - self._none_exceeds(full, u)
                self._cache[key] = {J: float(v / total) for J, v in law.items()}
        return self._cache[key]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b) + 1e-300


class Simulate(Workload):
    name = "simulate"
    why = ("the float path: CLI sampling of 1e6 rows at p=3 and p=8, estimators, "
           "histogram and sample file, plus exact laws against mpmath; no LP")
    primary_name = "simulate_p8_s"
    secondary_name = "simulate_p3_s"

    def __init__(self, seed: int, work: Path) -> None:
        from taildep import cli, instances, tm
        from taildep.rationals import Rat

        self.cli, self.tm, self.work = cli, tm, work
        rng = random.Random(seed)
        full8 = (1 << 8) - 1
        masks: set[int] = set()
        while sum(m.bit_count() for m in masks) != P8_INCIDENCES:
            masks = {full8}
            while len(masks) < P8_ATOMS:
                masks.add(rng.randrange(1, full8))
        entries = {m: Rat(rng.randint(1, 16), 16) for m in sorted(masks)}
        self.models = {
            "p3": instances.line_fixture_model(),
            "p8": tm.TmModel.from_entries(8, entries),
        }
        self.laws = {}
        self.paths = {}
        for key, model in self.models.items():
            support = [(m, F(v)) for m, v in model.support()]
            self.laws[key] = ExactLaws(model.p, support)
            payload = {"p": model.p, "beta": [
                {"set": _labels(m), "value": _ratio(v)} for m, v in support
            ]}
            self.paths[key] = _write(work / f"model-{key}.json", payload)
        self.sim_seed = rng.randrange(1 << 31)
        self._first_report: dict[str, str] = {}
        # (model, subset, u): the fixture's grid is fixed, the p=8 model's
        # subsets are its singletons and its full set (whose weight is > 0)
        self.law_grid = [("p3", m, u) for u in FIXTURE_US for m in range(1, 8)]
        self.law_grid += [
            ("p8", m, u) for u in MODEL_US for m in [1 << i for i in range(8)] + [full8]
        ]

    def _simulate(self, key: str, report: Path, samples: Path) -> int:
        return self.cli.main([
            "simulate", "--model", str(self.paths[key]), "--n", str(SIM_N),
            "--u", repr(SIM_U), "--seed", str(self.sim_seed),
            "--out", str(report), "--samples-out", str(samples),
        ])

    def _check_report(self, key: str, report: dict) -> None:
        laws = self.laws[key]
        if report["n"] != SIM_N or report["u"] != SIM_U:
            raise CheckFailed("report echoes the wrong n or u")
        for row in report["targets"]:
            mask = _mask(row["set"])
            if row["kind"] == "lambda":
                exact, limit = SIM_U * float(laws.joint(mask, SIM_U)), float(laws.lam(mask))
            else:
                exact, limit = SIM_U * float(laws.union(mask, SIM_U)), float(laws.theta(mask))
            if not _close(row["exact_finite_u"], exact, REPORT_RTOL):
                raise CheckFailed(f"{key} {row['kind']}{row['set']}: exact_finite_u "
                                  f"{row['exact_finite_u']} but mpmath gives {exact}")
            if not _close(row["asymptotic"], limit, REPORT_RTOL):
                raise CheckFailed(f"{key} {row['kind']}{row['set']}: wrong limit")
            if abs(row["empirical"] - exact) > ESTIMATE_SE * row["std_error"] * (1 + REPORT_RTOL):
                raise CheckFailed(f"{key} {row['kind']}{row['set']}: estimate "
                                  f"{row['empirical']} is over {ESTIMATE_SE} SE from {exact}")
        hist = report["exceedance_histogram"]
        n_ne = hist["n_nonempty"]
        counts = {_mask(c["set"]): c["count"] for c in hist["sets"]}
        if sum(counts.values()) != n_ne or not 0 < n_ne <= SIM_N:
            raise CheckFailed(f"{key}: histogram counts do not add up")
        law = laws.set_law(SIM_U)
        for J, q in law.items():
            se = math.sqrt(q * (1 - q) / n_ne)
            if abs(counts.get(J, 0) / n_ne - q) > CELL_SE * se + 2 / n_ne:
                raise CheckFailed(f"{key}: exceedance set {_labels(J)} is off its exact law")
        total = laws.theta((1 << laws.p) - 1)
        limit = {m: v / total for m, v in laws.support}
        tv = sum(abs(counts.get(J, 0) / n_ne - float(limit.get(J, 0)))
                 for J in set(counts) | set(limit)) / 2
        if not _close(hist["tv_distance_to_limit"], tv, REPORT_RTOL):
            raise CheckFailed(f"{key}: reported TV {hist['tv_distance_to_limit']}, recomputed {tv}")

    def _check_samples(self, key: str, report: dict, samples: Path) -> None:
        """Parse the sample stream and recompute the report's counts from it."""
        p = self.models[key].p
        raw = samples.read_bytes()
        magic, p_file, n_file = SAMPLES_HEADER.unpack_from(raw)
        if (magic, p_file, n_file) != (b"TDSIM1", p, SIM_N) or len(raw) != 16 + 8 * p * SIM_N:
            raise CheckFailed(f"{key}: sample stream header or length is wrong")
        xs = np.frombuffer(raw, dtype="<f8", offset=16).reshape(SIM_N, p)
        for row in report["targets"]:
            cols = [k - 1 for k in row["set"]]
            pick = xs[:, cols].min(axis=1) if row["kind"] == "lambda" else xs[:, cols].max(axis=1)
            empirical = SIM_U * float((pick > SIM_U).mean())
            if not _close(row["empirical"], empirical, REPORT_RTOL):
                raise CheckFailed(f"{key}: estimate differs from the sample stream")
        masks = (xs > SIM_U).astype(np.int64) @ (1 << np.arange(p))
        values, counts = np.unique(masks[masks > 0], return_counts=True)
        hist = {_mask(c["set"]): c["count"] for c in report["exceedance_histogram"]["sets"]}
        if hist != dict(zip(values.tolist(), counts.tolist())):
            raise CheckFailed(f"{key}: histogram differs from the sample stream")

    def _check_simulate(self, key: str, code: int, report_path: Path, samples: Path) -> bool:
        try:
            if code != 0:
                raise CheckFailed(f"simulate {key} exited with {code}")
            text = report_path.read_text()
            report = json.loads(text)
            first = self._first_report.get(key)
            if first is None:
                self._check_report(key, report)
                self._check_samples(key, report, samples)
                self._first_report[key] = text
            elif text != first or samples.stat().st_size != 16 + 8 * self.models[key].p * SIM_N:
                raise CheckFailed(f"simulate {key} is not reproducible across rounds")
        except (OSError, KeyError, TypeError, ValueError, struct.error) as exc:
            raise CheckFailed(f"simulate {key}: {exc}") from exc
        finally:
            report_path.unlink(missing_ok=True)
            samples.unlink(missing_ok=True)
        return True

    def _check_law(self, key: str, mask: int, u: float, value: float) -> bool:
        """False (a failed operation) when off the 50-digit value by more than LAW_RTOL."""
        exact = float(self.laws[key].joint(mask, u))
        return abs(value - exact) <= LAW_RTOL * exact

    def ops(self, k: int) -> list[Op]:
        out = []
        for key, kind in (("p8", "primary"), ("p3", "secondary")):
            report = self.work / f"report-{key}.json"
            samples = self.work / f"samples-{key}.bin"
            out.append(Op(
                kind, f"simulate_{key}",
                lambda key=key, r=report, s=samples: self._simulate(key, r, s),
                lambda code, key=key, r=report, s=samples: self._check_simulate(key, code, r, s),
            ))
        for key, mask, u in self.law_grid:
            out.append(Op(
                "other", "exact_law",
                lambda key=key, mask=mask, u=u: self.tm.exact_joint_exceedance(
                    self.models[key], mask, u),
                lambda value, key=key, mask=mask, u=u: self._check_law(key, mask, u, value),
            ))
        return out


WORKLOADS = {w.name: w for w in (Realize, LineRigidity, Lattice, Simulate)}
