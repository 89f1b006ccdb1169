#!/usr/bin/env python3
"""taildep benchmark: one workload per run, one client in a closed loop.

    python3 bench/run.py --workload realize --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up its inputs from ``--seed`` (several times, to
time set-up), then runs whole rounds of operations for about ``--seconds``
seconds, checking every output.  It prints each metric by name and unit, and
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A traced run alternates untraced and traced
rounds on the same inputs, so it also measures the tracing overhead.

Results (with the numeric backend) go to ``bench/out/results/``;
``--write-manifest`` rewrites ``BENCHMARK.json`` from the definitions here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import PER_LAYER, Tracer, summarize
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_SECONDS = 30
SETUPS = 5  # set-ups per run; setup_s is their median

END_TO_END = (
    # name, unit, better, bound
    ("primary_s", "s", "lower", 0.25),
    ("secondary_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def _taildep_modules() -> list[str]:
    return [m for m in sys.modules if m == "taildep" or m.startswith("taildep.")]


def set_up(workload: type, seed: int, work: Path, keep: bool = True):
    """Import taildep afresh and build the workload's inputs; returns (seconds, workload).

    With ``keep=False`` the set-up is only timed: its modules and files are
    dropped and the run's own modules put back.
    """
    previous = {name: sys.modules.pop(name) for name in _taildep_modules()}
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    start = time.perf_counter()
    importlib.import_module("taildep")
    importlib.import_module("taildep.cli")
    built = workload(seed, work)
    seconds = time.perf_counter() - start
    if not keep:
        for name in _taildep_modules():
            del sys.modules[name]
        sys.modules.update(previous)
        shutil.rmtree(work)
    return seconds, built


class Loop:
    """Runs rounds of operations and keeps their times and outcomes."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.times: dict[str, list[float]] = {"primary": [], "secondary": [], "other": []}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []

    def round(self, k: int, traced: bool) -> float:
        """Run round k; returns the seconds its operations took."""
        busy = 0.0
        for op in self.workload.ops(k):
            self.attempted += 1
            start = time.perf_counter()
            try:
                if traced:
                    result = self.tracer.call(f"bench.{op.name}", op.run)
                else:
                    result = op.run()
            except Exception as exc:  # a crashing operation is a failed one
                self.failed += 1
                self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            busy += elapsed
            if not traced:
                self.times[op.kind].append(elapsed)
            try:
                if not op.check(result):
                    self.failed += 1
            except CheckFailed as exc:
                self.wrong.append(f"{op.name}: {exc}")
        return busy


def machine() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "nproc": os.cpu_count(), "python": platform.python_version()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true",
                    help="rewrite BENCHMARK.json at the checkout root and exit")
    args = ap.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "taildep" / "__init__.py").is_file():
        print(f"error: no taildep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / "work" / args.workload
    seconds, workload = set_up(WORKLOADS[args.workload], args.seed, work)
    setups = [seconds]
    from taildep.rationals import Rat

    def time_set_up() -> None:
        scratch = OUT / "work" / f"{args.workload}-setup"
        setups.append(set_up(WORKLOADS[args.workload], args.seed, scratch, keep=False)[0])

    tracer = Tracer() if args.trace else None
    loop = Loop(workload, tracer)
    begin = time.perf_counter()
    deadline = begin + args.seconds
    walls: list[float] = []
    untraced_s = 0.0
    k = 0
    # Whole rounds until the next one would likely overrun; a traced run
    # pairs each untraced round with a traced one on the same inputs.  An
    # untraced run times its other set-ups between rounds, spread over the
    # run, so that setup_s sees the same machine as the operations.
    while True:
        start = time.perf_counter()
        busy = loop.round(k, traced=False)
        if tracer is not None:
            untraced_s += busy
            tracer.install()
            try:
                loop.round(k, traced=True)
            finally:
                tracer.uninstall()
        walls.append(time.perf_counter() - start)
        k += 1
        due = begin + len(setups) * args.seconds / SETUPS
        if tracer is None and len(setups) < SETUPS and time.perf_counter() >= due:
            time_set_up()
        if time.perf_counter() + statistics.mean(walls) > deadline:
            break
    while tracer is None and len(setups) < SETUPS:
        time_set_up()

    correct = not loop.wrong
    if tracer is None:
        metrics = {
            "primary_s": (statistics.median(loop.times["primary"]), "s"),
            "secondary_s": (statistics.median(loop.times["secondary"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        shown = {**metrics, **workload.named(loop.times)}
    else:
        summary = summarize(tracer.spans, k, untraced_s)
        metrics = {name: (summary[name], unit) for name, unit, _ in PER_LAYER}
        shown = metrics

    backend = f"{Rat.__module__}.{Rat.__name__}"
    print(f"workload {args.workload}  seed {args.seed}  rounds {k}  backend {backend}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(f"  attempted {loop.attempted}  failed {loop.failed}  correct {correct}")
    for line in (loop.wrong + loop.errors)[:10]:
        print(f"  ! {line}", file=sys.stderr)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend, "machine": machine(), "rounds": k,
        "attempted": loop.attempted, "failed": loop.failed, "correct": correct,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in shown.items()},
        "setups_s": setups, "op_times_s": loop.times,
        "wrong": loop.wrong, "errors": loop.errors,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
