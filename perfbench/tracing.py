"""Layer tracing from outside the program.

``instrument`` replaces every public function of the measured modules with a
wrapper that records a span (name, start, end, parent span) and, for a few
functions, counts read from their arguments or result.  Only public names are
wrapped, so private helpers can change freely without breaking the trace.
Spans stay in memory; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

# The modules whose public functions get spans.  cogmodel is not measured:
# neither the harness nor the CLI calls it, and no performance work targets it.
TRACED_MODULES = ("cli", "harness", "netgrowth", "abm", "dynamics")

# name, unit, better, which end-to-end metric (and workload) it should move
LAYER_METRICS = (
    ("cli.import_s", "s", "lower", "setup_s on every workload"),
    ("cli.main.self_s", "s", "lower", "wall_s, predicted flat"),
    ("harness.load_config.s", "s", "lower", "setup_s on abm_graph"),
    ("harness.run_scenario.self_s", "s", "lower", "wall_s on netgrowth_io"),
    ("harness.write_outputs.s", "s", "lower", "wall_s on netgrowth_io, flat on cusp_sweeps"),
    ("harness.write.bytes", "B", "lower", "wall_s on netgrowth_io, flat on cusp_sweeps"),
    ("harness.write.files", "count", "lower", "wall_s on netgrowth_io, flat on cusp_sweeps"),
    ("harness.write.mb_per_s", "MB/s", "higher", "wall_s on netgrowth_io, flat on cusp_sweeps"),
    ("harness.aggregate.s", "s", "lower", "wall_s, predicted flat"),
    ("harness.held_traces_mb", "MB", "lower", "peak_rss_mb on netgrowth_io"),
    ("netgrowth.grow.calls", "count", "lower", "wall_s on lockin_lib, a little on netgrowth_io"),
    ("netgrowth.grow.s", "s", "lower", "wall_s on lockin_lib, a little on netgrowth_io"),
    ("netgrowth.grow.p50_s", "s", "lower", "wall_s on lockin_lib, a little on netgrowth_io"),
    ("netgrowth.grow.p95_s", "s", "lower", "wall_s on lockin_lib, a little on netgrowth_io"),
    ("netgrowth.arrivals", "count", "lower", "wall_s on lockin_lib, a little on netgrowth_io"),
    ("netgrowth.urn.ns_per_arrival", "ns", "lower", "wall_s on lockin_lib"),
    ("netgrowth.degree_pa.ns_per_arrival", "ns", "lower", "wall_s on lockin_lib"),
    ("netgrowth.intervention_cost.s", "s", "lower", "wall_s on lockin_lib"),
    ("netgrowth.estimate_lockin.s", "s", "lower", "wall_s on lockin_lib"),
    ("abm.load_edge_list.calls", "count", "lower", "wall_s on abm_graph"),
    ("abm.load_edge_list.s", "s", "lower", "wall_s on abm_graph"),
    ("abm.run.self_s", "s", "lower", "wall_s on abm_graph"),
    ("abm.step.calls", "count", "lower", "wall_s on abm_graph"),
    ("abm.step.imported.ns_per_agent", "ns", "lower", "wall_s on abm_graph"),
    ("abm.step.ring.ns_per_agent", "ns", "lower", "wall_s on abm_graph, predicted flat"),
    ("dynamics.hysteresis_loop.s", "s", "lower", "wall_s on cusp_sweeps"),
    ("dynamics.hysteresis.us_per_point", "us", "lower", "wall_s on cusp_sweeps"),
    ("dynamics.hysteresis.non_equilibrated", "count", "lower", "correctness of cusp_sweeps"),
    ("dynamics.sweep_bifurcation.self_s", "s", "lower", "wall_s on cusp_sweeps"),
    ("dynamics.find_fixed_points.calls", "count", "lower", "wall_s on cusp_sweeps"),
    ("dynamics.find_fixed_points.us_per_call", "us", "lower", "wall_s on cusp_sweeps"),
    ("tracing.overhead_s", "s", "lower", "trust in the layer numbers"),
)

TAIL_QUANTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: int  # perf_counter_ns
    end: int
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """In-memory span recorder for a single thread of calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, name, 0, 0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                self._stack.pop()
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return traced


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def held_bytes(obj) -> int:
    """Payload bytes held by a result: array nbytes, 8 per number, recursively."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, dict):
        return sum(held_bytes(k) + held_bytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(held_bytes(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(held_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _topology_kind(population) -> str:
    name = type(population.topology).__name__.lower()
    if "ring" in name:
        return "ring"
    if "import" in name:
        return "imported"
    return "well_mixed"


ANNOTATORS = {
    "netgrowth.grow": lambda a, k, r: {
        "mode": _arg(a, k, 0, "config").mode,
        "arrivals": _arg(a, k, 0, "config").n_nodes,
    },
    "abm.step": lambda a, k, r: {
        "topology": _topology_kind(_arg(a, k, 0, "population")),
        "agents": _arg(a, k, 0, "population").n,
    },
    "harness.write_outputs": lambda a, k, r: {
        "bytes": sum(os.path.getsize(p) for p in r),
        "files": len(r),
    },
    "harness.run_scenario": lambda a, k, r: {"held_bytes": held_bytes(r[0])},
    "dynamics.hysteresis_loop": lambda a, k, r: {
        "points": len(r.up_branch) + len(r.down_branch),
        "non_equilibrated": len(r.non_equilibrated),
    },
}


@contextmanager
def instrument(tracer: Tracer, modules):
    """Wrap each public function defined in ``modules`` wherever those
    modules bind it (``cli`` imports harness functions by name)."""
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                span = f"{short}.{name}"
                wrappers[obj] = tracer.wrap(span, obj, ANNOTATORS.get(span))
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patched.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    try:
        yield tracer
    finally:
        for mod, name, obj in patched:
            setattr(mod, name, obj)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for start, end in sorted(children[span.id]):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = (span.end - span.start - covered) / 1e9
    return out


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values) -> tuple[float, float, int] | None:
    """(q, value) of the highest percentile with at least ten samples beyond
    it, with the sample count; None when even the median has fewer."""
    best = None
    for q in TAIL_QUANTILES:
        value, beyond = percentile(values, q)
        if beyond >= MIN_BEYOND:
            best = (q, value, len(values))
    return best


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values (0 where a workload skips the layer), plus
    report lines for the per-call timings and the largest self times."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    own = self_times(spans)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def self_total(name):
        return sum(own[s.id] for s in by_name[name])

    def median(values):
        return statistics.median(values) if values else 0

    def rate(selected, key, scale):
        work = sum(s.attrs[key] for s in selected)
        return sum(s.seconds for s in selected) * scale / work if work else 0

    grows = by_name["netgrowth.grow"]
    grow_s = [s.seconds for s in grows]
    steps = by_name["abm.step"]
    writes = by_name["harness.write_outputs"]
    hyst = by_name["dynamics.hysteresis_loop"]
    ffp_us = [s.seconds * 1e6 for s in by_name["dynamics.find_fixed_points"]]
    write_bytes = sum(s.attrs["bytes"] for s in writes)
    write_s = total("harness.write_outputs")

    m = {
        "cli.main.self_s": self_total("cli.main"),
        "harness.load_config.s": total("harness.load_config"),
        "harness.run_scenario.self_s": self_total("harness.run_scenario"),
        "harness.write_outputs.s": write_s,
        "harness.write.bytes": write_bytes,
        "harness.write.files": sum(s.attrs["files"] for s in writes),
        "harness.write.mb_per_s": write_bytes / 1e6 / write_s if write_s else 0,
        "harness.aggregate.s": total("harness.aggregate"),
        "harness.held_traces_mb": max(
            (s.attrs["held_bytes"] / 1e6 for s in by_name["harness.run_scenario"]), default=0),
        "netgrowth.grow.calls": len(grows),
        "netgrowth.grow.s": sum(grow_s),
        "netgrowth.grow.p50_s": median(grow_s),
        "netgrowth.grow.p95_s": percentile(grow_s, 95.0)[0] if grow_s else 0,
        "netgrowth.arrivals": sum(s.attrs["arrivals"] for s in grows),
        "netgrowth.urn.ns_per_arrival": rate(
            [s for s in grows if s.attrs["mode"] == "urn"], "arrivals", 1e9),
        "netgrowth.degree_pa.ns_per_arrival": rate(
            [s for s in grows if s.attrs["mode"] == "degree_pa"], "arrivals", 1e9),
        "netgrowth.intervention_cost.s": total("netgrowth.intervention_cost"),
        "netgrowth.estimate_lockin.s": total("netgrowth.estimate_lockin"),
        "abm.load_edge_list.calls": len(by_name["abm.load_edge_list"]),
        "abm.load_edge_list.s": total("abm.load_edge_list"),
        "abm.run.self_s": self_total("abm.run"),
        "abm.step.calls": len(steps),
        "abm.step.imported.ns_per_agent": rate(
            [s for s in steps if s.attrs["topology"] == "imported"], "agents", 1e9),
        "abm.step.ring.ns_per_agent": rate(
            [s for s in steps if s.attrs["topology"] == "ring"], "agents", 1e9),
        "dynamics.hysteresis_loop.s": total("dynamics.hysteresis_loop"),
        "dynamics.hysteresis.us_per_point": rate(hyst, "points", 1e6),
        "dynamics.hysteresis.non_equilibrated": sum(s.attrs["non_equilibrated"] for s in hyst),
        "dynamics.sweep_bifurcation.self_s": self_total("dynamics.sweep_bifurcation"),
        "dynamics.find_fixed_points.calls": len(ffp_us),
        "dynamics.find_fixed_points.us_per_call": median(ffp_us),
    }

    lines = []
    for label, values, unit in (("netgrowth.grow", grow_s, "s"),
                                ("dynamics.find_fixed_points", ffp_us, "us"),
                                ("abm.step", [s.seconds for s in steps], "s")):
        if not values:
            continue
        line = f"per-call {label}: median {median(values)!r} {unit}"
        t = tail(values)
        if t is not None and t[0] > 50.0:
            line += f", p{t[0]:g} {t[1]!r} {unit}"
        lines.append(line + f", n={len(values)}")
    selfs = defaultdict(float)
    for span in spans:
        selfs[span.name] += own[span.id]
    ranked = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
    lines.append("largest self time: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked))
    return m, lines
