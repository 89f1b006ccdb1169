#!/usr/bin/env python3
"""Median microseconds of the lattice transforms and of each butterfly level
at one p.

Builds a dense random weight system on p components (70% of the subsets
carry an integer weight in 1..47, the rest 0), then times, --repeats times
each:

  levels      each level of one in-place superset-sum butterfly
              (`coeffs._butterfly`, int64): the level's ufunc call alone,
              timed by a stand-in for np.add, under whatever ufunc buffer
              the butterfly sets for that level
  transforms  the six conversions between beta, lambda and theta, and
              `tm.synthesize` of the lambda system, each with the median
              number of minor page faults it takes (`resource.getrusage`)

With --object the weights are scaled by 2**70 + 1, so every array is an
object array of Python ints.

Example:
    PYTHONPATH=src python scripts/lattice_timings.py --p 16 --repeats 40
"""

import argparse
import json
import random
import resource
import statistics
import time

import numpy as np

from taildep import coeffs, tm
from taildep.coeffs import Kind, SubsetFn


def random_beta(p: int, rng: random.Random) -> SubsetFn:
    values = [rng.randrange(1, 48) if rng.random() < 0.7 else 0 for _ in range((1 << p) - 1)]
    return SubsetFn.from_values(p, values, Kind.BETA)


def level_medians(beta: SubsetFn, repeats: int) -> list[float]:
    """Median seconds of each level's ufunc call in a superset-sum butterfly."""
    seconds: list[list[float]] = [[] for _ in range(beta.p)]
    nums, _ = beta._numerators()

    for _ in range(repeats):
        level = iter(seconds)

        def timed_add(*args, **kwargs):
            start = time.perf_counter()
            np.add(*args, **kwargs)
            next(level).append(time.perf_counter() - start)

        coeffs._butterfly(coeffs._full(nums), beta.p, timed_add, superset=True)
    return [statistics.median(s) for s in seconds]


def transform_medians(beta: SubsetFn, repeats: int) -> dict[str, tuple[float, float]]:
    """{name: (median seconds, median minor faults)} of each transform."""
    lam, theta = coeffs.lambda_from_beta(beta), coeffs.theta_from_beta(beta)
    calls = {
        "lambda_from_beta": lambda: coeffs.lambda_from_beta(beta),
        "theta_from_beta": lambda: coeffs.theta_from_beta(beta),
        "beta_from_lambda": lambda: coeffs.beta_from_lambda(lam),
        "beta_from_theta": lambda: coeffs.beta_from_theta(theta),
        "theta_from_lambda": lambda: coeffs.theta_from_lambda(lam),
        "lambda_from_theta": lambda: coeffs.lambda_from_theta(theta),
        "synthesize": lambda: tm.synthesize(lam),
    }
    medians = {}
    for name, call in calls.items():
        seconds, faults = [], []
        for _ in range(repeats):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            call()
            seconds.append(time.perf_counter() - start)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        medians[name] = (statistics.median(seconds), statistics.median(faults))
    return medians


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=16)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=20)
    ap.add_argument("--object", action="store_true", help="scale the weights past int64")
    ap.add_argument("--json", action="store_true", help="print the medians as one JSON object")
    args = ap.parse_args()

    beta = random_beta(args.p, random.Random(args.seed))
    if args.object:
        beta = beta.scaled((1 << 70) + 1)
    dtype = str(beta._numerators()[0].dtype)
    levels = level_medians(beta, args.repeats)
    transforms = transform_medians(beta, args.repeats)
    if args.json:
        print(json.dumps({"p": args.p, "dtype": dtype, "repeats": args.repeats,
                          "level_us": [s * 1e6 for s in levels],
                          "butterfly_levels_us": sum(levels) * 1e6,
                          "transform_us": {k: s * 1e6 for k, (s, _) in transforms.items()},
                          "transform_minflt": {k: f for k, (_, f) in transforms.items()}}))
        return
    print(f"p={args.p} dtype={dtype} repeats={args.repeats}")
    print(f"{'level':>5} {'run':>7} {'us':>9}")
    for i, s in enumerate(levels):
        print(f"{i:>5} {1 << i:>7} {s * 1e6:9.1f}")
    print(f"{'all':>5} {'':>7} {sum(levels) * 1e6:9.1f}")
    print(f"{'transform':>17} {'us':>10} {'minflt':>7}")
    for name, (s, faults) in transforms.items():
        print(f"{name:>17} {s * 1e6:10.1f} {faults:7.0f}")


if __name__ == "__main__":
    main()
