#!/usr/bin/env python3
"""Median seconds of each stage of `taildep simulate` at one p and n.

Builds a random model on p components (the full set plus --atoms - 1 other
random atoms, weights k/16), then times, --repeats times each, in wall
seconds and in the process's CPU seconds (all threads; CPU over wall shows
how well a stage runs on several cores):

  sample           drawing n rows (also printed as rows per wall second)
  samples_write    writing them as a binary sample stream (to a temp dir)
  histogram        exceedance_set_histogram at --u
  report           estimation_report on that histogram
  exact_laws       the exact finite-u laws of the report's targets alone
  cli              the whole `taildep simulate`, in process, with --out and
                   --samples-out in the temp dir

The CLI writes the sample file on a second thread while it builds the
histogram and the report, so cli minus sample is that overlapped tail, to
be read next to samples_write and histogram + report.

The targets are the CLI's defaults: every subset as a lambda and a theta
target at p <= 6, else the singletons and the full set as lambda targets
and the full set as a theta target.  The report includes the exact laws,
so report minus exact_laws is the time spent summing the histogram.

Example:
    PYTHONPATH=src python scripts/simulate_timings.py --p 8 --n 1000000 --repeats 5
"""

import argparse
import json
import random
import statistics
import tempfile
import time
from pathlib import Path

from taildep import io as tio
from taildep.cli import main as cli_main
from taildep.rationals import rat
from taildep.simulate import estimation_report, exceedance_set_histogram, sample
from taildep.tm import TmModel, exact_joint_exceedance, exact_union_exceedance


def random_model(p: int, atoms: int, rng: random.Random) -> TmModel:
    full = (1 << p) - 1
    masks = {full}
    while len(masks) < min(atoms, full):
        masks.add(rng.randrange(1, full))
    return TmModel.from_entries(p, {m: rat(rng.randint(1, 16), 16) for m in sorted(masks)})


def default_targets(p: int) -> tuple[list[int], list[int]]:
    full = (1 << p) - 1
    if p <= 6:
        return list(range(1, full + 1)), list(range(1, full + 1))
    return [1 << i for i in range(p)] + [full], [full]


def median_seconds(fn, repeats: int):
    """(median wall seconds, median process CPU seconds), and fn's last result."""
    wall, cpu = [], []
    for _ in range(repeats):
        start, start_cpu = time.perf_counter(), time.process_time()
        out = fn()
        cpu.append(time.process_time() - start_cpu)
        wall.append(time.perf_counter() - start)
    return (statistics.median(wall), statistics.median(cpu)), out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=8)
    ap.add_argument("--n", type=int, default=10**6)
    ap.add_argument("--u", type=float, default=100.0)
    ap.add_argument("--atoms", type=int, default=60, help="atoms of the random model")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--json", action="store_true", help="print the medians as one JSON object")
    args = ap.parse_args()

    model = random_model(args.p, args.atoms, random.Random(args.seed))
    lam_t, th_t = default_targets(args.p)
    medians = {}
    medians["sample"], xs = median_seconds(lambda: sample(model, args.n, args.seed), args.repeats)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        medians["samples_write"], _ = median_seconds(
            lambda: tio.write_samples_binary(tmp / "samples.bin", xs), args.repeats)
        medians["histogram"], hist = median_seconds(
            lambda: exceedance_set_histogram(xs, args.u), args.repeats)
        medians["report"], _ = median_seconds(
            lambda: estimation_report(model, hist, lam_t, th_t), args.repeats)
        medians["exact_laws"], _ = median_seconds(
            lambda: ([exact_joint_exceedance(model, s, args.u) for s in lam_t],
                     [exact_union_exceedance(model, s, args.u) for s in th_t]),
            args.repeats)
        (tmp / "model.json").write_text(json.dumps(tio.tm_model_to_json(model)))
        argv = ["simulate", "--model", str(tmp / "model.json"), "--n", str(args.n),
                "--u", repr(args.u), "--seed", str(args.seed),
                "--out", str(tmp / "report.json"), "--samples-out", str(tmp / "samples.bin")]
        medians["cli"], code = median_seconds(lambda: cli_main(argv), args.repeats)
        if code != 0:
            raise SystemExit(f"taildep simulate exited with {code}")
    rows_per_s = args.n / medians["sample"][0]
    if args.json:
        print(json.dumps({"p": args.p, "n": args.n, "u": args.u, "atoms": len(model.support()),
                          "targets": len(lam_t) + len(th_t),
                          "median_s": {k: wall for k, (wall, _) in medians.items()},
                          "median_cpu_s": {k: cpu for k, (_, cpu) in medians.items()},
                          "sample_rows_per_s": rows_per_s}))
        return
    print(f"p={args.p} n={args.n} u={args.u} atoms={len(model.support())} "
          f"targets={len(lam_t) + len(th_t)} observed sets={len(hist.counts)}")
    print(f"{'stage':>14} {'wall s':>10} {'cpu s':>10}")
    for stage, (wall, cpu) in medians.items():
        print(f"{stage:>14} {wall:10.6f} {cpu:10.6f}")
    print(f"sample: {rows_per_s:,.0f} rows/s, cpu/wall {medians['sample'][1] / medians['sample'][0]:.2f}")


if __name__ == "__main__":
    main()
