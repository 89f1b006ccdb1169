#!/usr/bin/env python3
"""Wall time, pivots and D bit lengths of the exact deciders at one p.

For each seed, decides three instances: the pair matrix of a
random_unit_margin_beta system (decide_tdr, realizable), a random_cut_metric
(decide_sdr, in the cut cone) and a random_graph_metric (decide_sdr, either
answer).  Each decision runs --repeats times; the table gives the median
seconds and, from the outcome's solver stats, the phase-one pivots, the
degenerate ones and the largest bit length of the basis determinant D.
The size guard is raised to --p, so any p runs (p = 13 takes minutes).

Example:
    PYTHONPATH=src python scripts/decider_timings.py --p 11 --seeds 1 2 --repeats 3
"""

import argparse
import json
import random
import statistics
import time

from taildep import decide_sdr, decide_tdr
from taildep.instances import (
    pair_matrix_from_beta,
    random_cut_metric,
    random_graph_metric,
    random_unit_margin_beta,
)

FAMILIES = {
    "unit_margin": lambda p, rng: pair_matrix_from_beta(random_unit_margin_beta(p, rng)),
    "cut_metric": random_cut_metric,
    "graph_metric": random_graph_metric,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=11)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--json", action="store_true", help="print the records as one JSON list")
    args = ap.parse_args()

    records = []
    for seed in args.seeds:
        for family, make in FAMILIES.items():
            instance = make(args.p, random.Random(seed))
            decide = decide_tdr if family == "unit_margin" else decide_sdr
            seconds = []
            for _ in range(args.repeats):
                start = time.perf_counter()
                outcome = decide(instance, max_p=args.p)
                seconds.append(time.perf_counter() - start)
            stats = outcome.stats
            records.append({
                "op": decide.__name__, "family": family, "p": args.p, "seed": seed,
                "status": outcome.status.value, "median_s": statistics.median(seconds),
                "seconds": seconds, "pivots": stats.phase_one_pivots,
                "degenerate": stats.degenerate_pivots, "d_bits": stats.d_bits,
            })
            if not args.json:
                r = records[-1]
                print(f"{r['op']:>10} {family:>12} p={args.p} seed={seed} {r['status']:>10} "
                      f"{r['median_s']:9.4f} s  pivots {r['pivots']:5d}  "
                      f"degenerate {r['degenerate']:5d}  d_bits {r['d_bits']:4d}", flush=True)
    if args.json:
        print(json.dumps(records))


if __name__ == "__main__":
    main()
