#!/usr/bin/env python3
"""Study a line metric end to end: detection, model, uniqueness proof.

Example:
    python scripts/line_metric_study.py --weights 1,2 --marginals 2,2,2
    python scripts/line_metric_study.py --random-p 6 --seed 3
"""

import argparse
import random
import sys

from taildep import (
    detect_line_metric,
    higher_order_from_line,
    labels_of,
    line_tm_model,
    rat,
    rat_str,
    rigidity_probe,
)
from taildep.instances import line_metric_from_weights, random_line_instance
from taildep.spectral import LineMetricCert, LineTmModel


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weights", help="comma-separated consecutive gaps, e.g. 1,2")
    ap.add_argument("--marginals", help="comma-separated marginal scales")
    ap.add_argument("--random-p", type=int, help="draw a random instance of this size")
    ap.add_argument("--seed", type=int, default=0, help="seed of --random-p")
    args = ap.parse_args()

    if args.random_p:
        rng = random.Random(args.seed)
        weights, marginals = random_line_instance(args.random_p, rng)
    elif args.weights:
        weights = [rat(tok) for tok in args.weights.split(",")]
        if args.marginals:
            marginals = [rat(tok) for tok in args.marginals.split(",")]
        else:
            # generous default: every marginal covers the whole line
            marginals = [sum(weights, rat(0))] * (len(weights) + 1)
    else:
        ap.error("need --weights or --random-p")

    d = line_metric_from_weights(weights)
    print(f"gaps: {[rat_str(w) for w in weights]}")
    print(f"marginals: {[rat_str(m) for m in marginals]}")

    cert = detect_line_metric(d)
    if not isinstance(cert, LineMetricCert):
        print(f"internal error: generated metric not detected as a line: {cert.describe()}")
        sys.exit(1)
    built = line_tm_model(cert, marginals)
    if not isinstance(built, LineTmModel):
        print(f"not realizable at these marginals: {built.describe()}")
        return

    print("\natom weights (prefixes, suffixes, full set only):")
    for mask, w in built.model.support():
        print(f"  beta({set(labels_of(mask))}) = {rat_str(w)}")

    print("\nhigher-order coefficients collapse to their extreme pair:")
    p = cert.p
    for mask in range(1, 1 << p):
        lam = higher_order_from_line(built, mask)
        print(f"  lambda({set(labels_of(mask))}) = {rat_str(lam)}")

    print("\ncut weights over all decompositions:")
    report = rigidity_probe(d)
    for mask, lo, hi in report.ranges:
        tag = "" if lo == hi else "   <-- non-unique!"
        print(f"  cut {set(labels_of(mask))}: [{rat_str(lo)}, {rat_str(hi)}]{tag}")
    if report.certificate is not None:
        print(f"uniqueness proved: dual certificate of length {len(report.certificate)}")
    else:
        print("uniqueness disproved: two different decompositions found")


if __name__ == "__main__":
    main()
