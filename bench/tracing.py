"""Spans around calls into taildep's layers, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module, plus
the ``ExactSimplex`` methods, with a timing wrapper.  The wrapper goes into
every taildep module that holds a reference to the function, so a call
recorded from ``cli`` into ``realize`` and one from ``realize`` into ``lp``
look alike.  Nothing inside ``src/taildep`` changes, and ``uninstall``
restores the originals.  Spans are kept in memory as
``[name, start, end, parent, info]`` lists and summarised at the end.

A layer's self time is its spans' durations minus the time their child
spans cover; the benchmark wraps each operation in a ``bench.*`` root span,
so the self times of one traced operation add up to its traced duration.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from typing import Any, Callable

LAYERS = ("io", "cli", "realize", "lp", "spectral", "tm", "coeffs", "rationals", "simulate")

# Per-value helpers called thousands of times per operation: a span each
# would cost more than the work it measures, so their time stays with the
# caller's layer.
UNTRACED = {
    "rationals.rat",
    "rationals.rat_str",
    "rationals.as_fraction",
    "spectral.canonical_cut",
    "coeffs.check_dimension",
    "coeffs.soft_max_p",
    "coeffs.spectral_distance_entry",
}

TRANSFORMS = (
    "lambda_from_beta",
    "theta_from_beta",
    "beta_from_lambda",
    "beta_from_theta",
    "theta_from_lambda",
)

# name, unit, better; every traced run reports all of them (0 where the
# workload does not reach the layer).  Times are seconds per traced round.
PER_LAYER = (
    ("io.load_s", "s", "lower"),
    ("io.emit_s", "s", "lower"),
    ("io.samples_write_s", "s", "lower"),
    ("io.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("realize.build_s", "s", "lower"),
    ("realize.verify_s", "s", "lower"),
    ("realize.self_s", "s", "lower"),
    ("lp.phase_one_s", "s", "lower"),
    ("lp.phase_two_s", "s", "lower"),
    ("lp.objectives", "count", "lower"),
    ("lp.witness_s", "s", "lower"),
    ("lp.rows", "count", "lower"),
    ("lp.columns", "count", "lower"),
    ("lp.witness_support", "count", "lower"),
    ("lp.cert_max_bits", "bits", "lower"),
    ("lp.self_s", "s", "lower"),
    ("tm.synthesize_check_s", "s", "lower"),
    ("tm.synthesize_s", "s", "lower"),
    ("tm.exact_law_s", "s", "lower"),
    ("tm.self_s", "s", "lower"),
    ("spectral.detect_s", "s", "lower"),
    ("spectral.line_model_s", "s", "lower"),
    ("spectral.collapse_s", "s", "lower"),
    ("spectral.probe_s", "s", "lower"),
    ("spectral.self_s", "s", "lower"),
    *((f"coeffs.{t}_s", "s", "lower") for t in TRANSFORMS),
    ("coeffs.values_per_s", "values/s", "higher"),
    ("coeffs.self_s", "s", "lower"),
    ("rationals.to_common_s", "s", "lower"),
    ("rationals.from_common_s", "s", "lower"),
    ("rationals.self_s", "s", "lower"),
    ("simulate.sample_s", "s", "lower"),
    ("simulate.rows_per_s", "rows/s", "higher"),
    ("simulate.blocks", "count", "lower"),
    ("simulate.estimate_s", "s", "lower"),
    ("simulate.histogram_s", "s", "lower"),
    ("simulate.tv_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)


def _bits(values) -> int:
    return max(
        (max(abs(int(v.numerator)).bit_length(), int(v.denominator).bit_length()) for v in values),
        default=0,
    )


def _simplex_info(args, kwargs, out) -> dict:
    lp = args[0]
    return {"rows": len(args[1]), "cols": lp.n, "bits": _bits(lp.farkas or ())}


def _witness_info(args, kwargs, out) -> dict:
    return {"support": sum(1 for v in out if v), "bits": _bits(out)}


def _sample_info(default_block: int, args, kwargs, out) -> dict:
    n = kwargs.get("n", args[1] if len(args) > 1 else 0)
    block = kwargs.get("block_size", args[3] if len(args) > 3 else default_block)
    return {"rows": n, "blocks": math.ceil(n / block)}


def _transform_info(args, kwargs, out) -> dict:
    return {"values": (1 << args[0].p) - 1}


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[4] = info(args, kwargs, out)
            return out

        return traced

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` under a root span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "taildep" or k.startswith("taildep.")]
        for layer in LAYERS:
            mod = sys.modules[f"taildep.{layer}"]
            for attr, fn in list(vars(mod).items()):
                # cli._emit writes every CLI answer; it feeds io.emit_s
                public = not attr.startswith("_") or (layer, attr) == ("cli", "_emit")
                if not (public and inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                info = None
                if name == "simulate.sample":
                    default_block = inspect.signature(fn).parameters["block_size"].default
                    info = functools.partial(_sample_info, default_block)
                elif layer == "coeffs" and attr in TRANSFORMS:
                    info = _transform_info
                wrapper = self.wrap(name, fn, info)
                for holder in modules:
                    for held, value in list(vars(holder).items()):
                        if value is fn:
                            self._undo.append((holder, held, fn))
                            setattr(holder, held, wrapper)
        simplex = sys.modules["taildep.lp"].ExactSimplex
        for attr, info in (("__init__", _simplex_info), ("minimize", None),
                           ("maximize", None), ("witness", _witness_info)):
            fn = simplex.__dict__[attr]
            self._undo.append((simplex, attr, fn))
            setattr(simplex, attr, self.wrap(f"lp.{attr.strip('_')}", fn, info))

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# Summary.
# ---------------------------------------------------------------------------


def summarize(spans: list[list], rounds: int, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    ``untraced_s`` is the operation time of the same rounds run untraced;
    the self times of all spans add up to the traced operation time, and
    ``trace.overhead`` is how much longer that took.
    """
    rounds = max(rounds, 1)
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]

    # Names of each span's ancestors; a parent is always recorded first.
    ancestors: list[frozenset] = []
    for s in spans:
        parent = s[3]
        ancestors.append(
            ancestors[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
        )

    def total(names, *, outermost=True, within=None, outside=None) -> float:
        names = set(names)
        acc = 0.0
        for s, anc in zip(spans, ancestors):
            if s[0] not in names:
                continue
            if outermost and not anc.isdisjoint(names):
                continue
            if within is not None and anc.isdisjoint(within):
                continue
            if outside is not None and not anc.isdisjoint(outside):
                continue
            acc += s[2] - s[1]
        return acc

    def infos(name: str) -> list[dict]:
        return [s[4] for s in spans if s[0] == name and s[4] is not None]

    def per_round(x: float) -> float:
        return x / rounds

    io_fns = {s[0] for s in spans if s[0].startswith("io.")}
    loads = {n for n in io_fns if n.startswith(("io.read_", "io.load_")) or "_from_" in n}
    emits = {n for n in io_fns if "_to_" in n or n in ("io.write_json", "io.save_matrix")}
    phase_two = {"lp.minimize", "lp.maximize"}
    simplex = infos("lp.init")
    witnesses = infos("lp.witness")
    samples = infos("simulate.sample")
    transforms = [f"coeffs.{t}" for t in TRANSFORMS]
    transform_values = sum(
        s[4]["values"] for s in spans if s[0] in transforms and s[4] is not None
    )
    transform_s = total(transforms, outermost=False)
    sample_s = total({"simulate.sample"})
    traced_s = sum(s[2] - s[1] for s in spans if s[3] < 0)

    out = {
        "io.load_s": per_round(total(loads)),
        "io.emit_s": per_round(total(emits | {"cli._emit"})),
        "io.samples_write_s": per_round(total({"io.write_samples_binary"})),
        "realize.build_s": per_round(total({"realize.tdr_system", "realize.cut_system"})),
        "realize.verify_s": per_round(total({"realize.verify_certificate"})),
        "lp.phase_one_s": per_round(total({"lp.init"})),
        "lp.phase_two_s": per_round(total(phase_two)),
        "lp.objectives": per_round(sum(
            1 for s, anc in zip(spans, ancestors)
            if s[0] in phase_two and anc.isdisjoint(phase_two)
        )),
        "lp.witness_s": per_round(total({"lp.witness"}, outside=phase_two)),
        "lp.rows": statistics.median([x["rows"] for x in simplex]) if simplex else 0,
        "lp.columns": statistics.median([x["cols"] for x in simplex]) if simplex else 0,
        "lp.witness_support": (
            statistics.median([x["support"] for x in witnesses]) if witnesses else 0
        ),
        "lp.cert_max_bits": max((x["bits"] for x in simplex + witnesses), default=0),
        "tm.synthesize_check_s": per_round(
            total({"tm.synthesize"}, within={"realize.decide_tdr"})
        ),
        "tm.synthesize_s": per_round(
            total({"tm.synthesize"}, outside={"realize.decide_tdr"})
        ),
        "tm.exact_law_s": per_round(
            total({"tm.exact_joint_exceedance", "tm.exact_union_exceedance"})
        ),
        "spectral.detect_s": per_round(total({"spectral.detect_line_metric"})),
        "spectral.line_model_s": per_round(total({"spectral.line_tm_model"})),
        "spectral.collapse_s": per_round(total({"spectral.higher_order_from_line"})),
        "spectral.probe_s": per_round(total({"spectral.rigidity_probe"})),
        "coeffs.values_per_s": transform_values / transform_s if transform_s else 0.0,
        "rationals.to_common_s": per_round(total({"rationals.to_common_numerators"})),
        "rationals.from_common_s": per_round(total({"rationals.from_common_numerators"})),
        "simulate.sample_s": per_round(sample_s),
        "simulate.rows_per_s": sum(x["rows"] for x in samples) / sample_s if sample_s else 0.0,
        "simulate.blocks": per_round(sum(x["blocks"] for x in samples)),
        "simulate.estimate_s": per_round(total({"simulate.estimation_report"})),
        "simulate.histogram_s": per_round(total({"simulate.exceedance_set_histogram"})),
        "simulate.tv_s": per_round(total({"simulate.tv_distance"})),
        "trace.untraced_s": per_round(untraced_s),
        "trace.traced_s": per_round(traced_s),
        "trace.overhead": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
        "trace.spans": per_round(len(spans)),
    }
    for t in TRANSFORMS:
        out[f"coeffs.{t}_s"] = per_round(total({f"coeffs.{t}"}))
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = per_round(
            sum(st for s, st in zip(spans, self_time) if s[0].split(".", 1)[0] == layer)
        )
    return out
