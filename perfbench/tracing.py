"""Spans around the public entry point of each planner layer.

The wrappers live here, not in ``src/``: :func:`install` rebinds each entry
point (in its defining module and in every ``repro`` module that imported
the same object by name) to a wrapper that records a span, and the returned
callable restores the originals.  Only the traced run installs them, so the
untraced run times the program exactly as shipped.

A span records its layer, the op key it ran for, its duration and the time
its direct child spans cover; a layer's self time is its duration minus
that.  Spans nest per thread.  A call into a layer already open on the
thread's stack (``verify_plan`` reaching ``verify_document``) is counted
once, as the outer span.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span layers, in pipeline order.
SPAN_LAYERS = (
    "cost.tables",
    "layouts.dt_graph",
    "cost.store",
    "core.selector",
    "pbqp.solver",
    "core.legalize",
    "multiobj.frontier",
    "analysis.plan_verifier",
    "cost.serialize",
    "service.app",
    "runtime.executor",
)

#: Primitive families reported from ``ExecutionReport.layers``.
FAMILIES = ("direct", "im2", "kn2", "winograd", "fft")


def _per_layer_spec() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []

    def add(name, unit, better="lower"):
        spec.append((name, unit, better))

    def span_metrics(layer, calls="calls", busy="busy_ms"):
        add(f"{layer}.{calls}", "1/op")
        add(f"{layer}.{busy}", "ms/op")
        add(f"{layer}.self_ms", "ms/op")

    span_metrics("cost.tables")
    add("cost.tables.entries", "count")
    span_metrics("layouts.dt_graph")
    span_metrics("cost.store")
    add("cost.store.hits", "1/op", "higher")
    add("cost.store.misses", "1/op")
    add("api.session.context_hits", "1/op", "higher")
    add("api.session.context_misses", "1/op")
    span_metrics("core.selector")
    for count in ("pbqp_nodes", "pbqp_edges", "aux_nodes", "aux_alternatives"):
        add(f"core.selector.{count}", "count")
    span_metrics("pbqp.solver", calls="solves")
    for count in ("r0", "r1", "r2", "rn", "core_nodes"):
        add(f"pbqp.solver.{count}", "count")
    span_metrics("core.legalize")
    span_metrics("multiobj.frontier", calls="builds")
    add("multiobj.frontier.solves_per_build", "count")
    add("multiobj.frontier.encodes_per_build", "count")
    add("multiobj.frontier.points", "count", "higher")
    add("multiobj.frontier.points_per_solve", "ratio", "higher")
    span_metrics("analysis.plan_verifier")
    span_metrics("cost.serialize")
    add("cost.serialize.bytes", "B")
    span_metrics("service.app", calls="requests", busy="handle_busy_ms")
    add("service.app.doc_hits", "1/op", "higher")
    add("service.app.doc_misses", "1/op")
    add("service.app.doc_hit_ratio", "ratio", "higher")
    add("service.app.plan_disk_hits", "1/op", "higher")
    add("service.app.wire_wait_ms", "ms/op")
    span_metrics("runtime.executor", calls="runs")
    add("runtime.executor.conversion_ms", "ms/run")
    add("runtime.executor.conversions", "count")
    for family in FAMILIES:
        add(f"primitives.{family}.measured_ms", "ms/run")
        add(f"primitives.{family}.predicted_ms", "ms/run")
        add(f"primitives.{family}.ratio", "ratio")
    add("trace.unattributed_pct", "%")
    add("trace.overhead_pct", "%")
    return spec


PER_LAYER = _per_layer_spec()


class Span:
    __slots__ = ("layer", "op", "inside", "duration", "child", "counts")

    def __init__(self, layer: str, op: str, inside: Tuple[str, ...]) -> None:
        self.layer = layer
        self.op = op
        #: Layers open on the thread when this span began, outermost first.
        self.inside = inside
        self.duration = 0.0
        self.child = 0.0
        self.counts: Dict[str, float] = {}


class Recorder:
    """In-memory span store shared by every thread of one traced run."""

    def __init__(self, label_request: Callable[[str, str, object], str]) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: List[Span] = []
        #: Seconds per op key spent on tracing bookkeeping inside ops.
        self.excluded: Dict[str, float] = defaultdict(float)
        #: Maps a service request (method, path, body) to its op key, so
        #: server-side spans land on the key the client timed.
        self.label_request = label_request

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = "-"
            local.paused = 0
        return local

    @contextlib.contextmanager
    def op(self, label: str):
        """Attribute every span opened on this thread to op key ``label``."""
        state = self._state()
        previous, state.op = state.op, label
        try:
            yield
        finally:
            state.op = previous

    @contextlib.contextmanager
    def paused(self):
        """Record nothing on this thread (the benchmark's own checks)."""
        state = self._state()
        state.paused += 1
        try:
            yield
        finally:
            state.paused -= 1

    def call(self, layer: str, fn: Callable, args, kwargs, after=None):
        """Run ``fn`` in a ``layer`` span; ``after(span, args, result)`` adds counts."""
        state = self._state()
        stack = state.stack
        if state.paused or any(span.layer == layer for span in stack):
            return fn(*args, **kwargs)
        span = Span(layer, state.op, tuple(open_span.layer for open_span in stack))
        stack.append(span)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1].child += span.duration
        if after is not None:
            begin = time.perf_counter()
            after(span, args, result)
            bookkeeping = time.perf_counter() - begin
            if stack:
                # The enclosing span's clock ran through the bookkeeping;
                # keep it out of that layer's self time.
                stack[-1].child += bookkeeping
            else:
                with self._lock:
                    self.excluded[span.op] += bookkeeping
        with self._lock:
            self.spans.append(span)
        return result


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _rebind_function(module_name: str, name: str, wrap, undo: list) -> None:
    """Replace a function in its module and wherever it was imported by name."""
    original = getattr(sys.modules[module_name], name)
    wrapper = wrap(original)
    for loaded_name, module in list(sys.modules.items()):
        if module is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))


def _rebind_method(cls, name: str, wrap, undo: list) -> None:
    original = cls.__dict__[name]
    setattr(cls, name, wrap(original))
    undo.append((cls, name, original))


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry point; returns the function that unwraps them."""
    import repro.analysis.plan_verifier  # noqa: F401 - loaded so its names rebind
    import repro.multiobj.frontier  # noqa: F401
    from repro.api import Plan
    from repro.core.selector import PBQPSelector
    from repro.cost.store import CostStore
    from repro.layouts.dt_graph import DTGraph
    from repro.pbqp.solver import PBQPSolver
    from repro.service.app import PlannerApp

    undo: list = []

    def traced(layer: str, after=None):
        def wrap(fn):
            def wrapper(*args, **kwargs):
                return recorder.call(layer, fn, args, kwargs, after)

            wrapper.__wrapped__ = fn
            return wrapper

        return wrap

    def table_counts(span, args, tables):
        span.counts["entries"] = tables.table_entries()

    def pbqp_counts(span, args, result):
        graph, id_to_layer = result
        aux = [node for node in graph.node_ids if node not in id_to_layer]
        span.counts["pbqp_nodes"] = graph.num_nodes
        span.counts["pbqp_edges"] = graph.num_edges
        span.counts["aux_nodes"] = len(aux)
        span.counts["aux_alternatives"] = sum(
            graph.node(node).degree_of_freedom for node in aux
        )

    def solver_counts(span, args, solution):
        stats = args[0].last_stats
        span.counts.update(
            r0=stats.r0_count,
            r1=stats.r1_count,
            r2=stats.r2_count,
            rn=stats.rn_count,
            core_nodes=stats.core_nodes,
        )

    def frontier_counts(span, args, frontier):
        span.counts["points"] = len(frontier.points)

    def serialize_counts(span, args, document):
        span.counts["bytes"] = len(json.dumps(document, sort_keys=True))

    def execution_counts(span, args, report):
        library = args[0].library
        counts = span.counts
        counts["conversion_ms"] = report.measured_conversion_ms
        counts["conversions"] = report.conversions_executed
        for layer in report.layers:
            if layer.primitive is None:
                continue
            family = library.get(layer.primitive).family.value
            for field in ("measured_ms", "predicted_ms"):
                name = f"{family}.{field}"
                counts[name] = counts.get(name, 0.0) + getattr(layer, field)

    def wrap_handle(fn):
        def handle(self, method, path, body=None):
            with recorder.op(recorder.label_request(method, path, body)):
                return recorder.call("service.app", fn, (self, method, path, body), {})

        return handle

    _rebind_function(
        "repro.cost.tables", "build_cost_tables", traced("cost.tables", table_counts), undo
    )
    _rebind_method(DTGraph, "all_pairs_shortest_paths", traced("layouts.dt_graph"), undo)
    _rebind_method(CostStore, "tables", traced("cost.store"), undo)
    _rebind_method(PBQPSelector, "build_pbqp", traced("core.selector", pbqp_counts), undo)
    _rebind_method(PBQPSolver, "solve", traced("pbqp.solver", solver_counts), undo)
    _rebind_function("repro.core.legalize", "finalize_plan", traced("core.legalize"), undo)
    _rebind_function(
        "repro.multiobj.frontier",
        "build_frontier",
        traced("multiobj.frontier", frontier_counts),
        undo,
    )
    for name in ("verify_plan", "verify_document"):
        _rebind_function(
            "repro.analysis.plan_verifier", name, traced("analysis.plan_verifier"), undo
        )
    _rebind_function(
        "repro.cost.serialize", "plan_to_dict", traced("cost.serialize", serialize_counts), undo
    )
    _rebind_method(Plan, "execute", traced("runtime.executor", execution_counts), undo)
    _rebind_method(PlannerApp, "handle", wrap_handle, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def layer_counts(recorder: Recorder) -> Dict[str, int]:
    """Number of spans recorded per layer (0 for layers that never fired)."""
    counts = {layer: 0 for layer in SPAN_LAYERS}
    for span in recorder.spans:
        counts[span.layer] += 1
    return counts


def per_layer_metrics(
    recorder: Recorder, op_seconds: Dict[str, List[float]], extra: Dict[str, float]
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value for one traced phase.

    ``op_seconds`` holds the traced op times per op key; ``extra`` carries
    the counts read at layer boundaries outside any span (session, store and
    service counters, tracing overhead).
    """
    ops = max(1, sum(len(times) for times in op_seconds.values()))
    # Spans outside the timed ops (the benchmark's own /v1/metrics reads)
    # carry no op key of the workload and are left out.
    spans = [span for span in recorder.spans if span.op in op_seconds]
    by_layer: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_layer[span.layer].append(span)

    def mean_count(layer, name):
        spans = by_layer[layer]
        return sum(span.counts.get(name, 0.0) for span in spans) / len(spans) if spans else 0.0

    values: Dict[str, float] = {}
    calls_name = {
        "pbqp.solver": "solves",
        "multiobj.frontier": "builds",
        "service.app": "requests",
        "runtime.executor": "runs",
    }
    for layer in SPAN_LAYERS:
        layer_spans = by_layer[layer]
        busy = "handle_busy_ms" if layer == "service.app" else "busy_ms"
        values[f"{layer}.{calls_name.get(layer, 'calls')}"] = len(layer_spans) / ops
        values[f"{layer}.{busy}"] = 1e3 * sum(span.duration for span in layer_spans) / ops
        values[f"{layer}.self_ms"] = (
            1e3 * sum(span.duration - span.child for span in layer_spans) / ops
        )
    values["cost.tables.entries"] = mean_count("cost.tables", "entries")
    for name in ("pbqp_nodes", "pbqp_edges", "aux_nodes", "aux_alternatives"):
        values[f"core.selector.{name}"] = mean_count("core.selector", name)
    for name in ("r0", "r1", "r2", "rn", "core_nodes"):
        values[f"pbqp.solver.{name}"] = mean_count("pbqp.solver", name)
    builds = len(by_layer["multiobj.frontier"])
    frontier_solves = sum(
        1 for span in by_layer["pbqp.solver"] if "multiobj.frontier" in span.inside
    )
    frontier_encodes = sum(
        1 for span in by_layer["core.selector"] if "multiobj.frontier" in span.inside
    )
    points = sum(span.counts["points"] for span in by_layer["multiobj.frontier"])
    values["multiobj.frontier.solves_per_build"] = frontier_solves / builds if builds else 0.0
    values["multiobj.frontier.encodes_per_build"] = frontier_encodes / builds if builds else 0.0
    values["multiobj.frontier.points"] = points / builds if builds else 0.0
    values["multiobj.frontier.points_per_solve"] = (
        points / frontier_solves if frontier_solves else 0.0
    )
    values["cost.serialize.bytes"] = mean_count("cost.serialize", "bytes")
    values["runtime.executor.conversion_ms"] = mean_count("runtime.executor", "conversion_ms")
    values["runtime.executor.conversions"] = mean_count("runtime.executor", "conversions")
    for family in FAMILIES:
        measured = mean_count("runtime.executor", f"{family}.measured_ms")
        predicted = mean_count("runtime.executor", f"{family}.predicted_ms")
        values[f"primitives.{family}.measured_ms"] = measured
        values[f"primitives.{family}.predicted_ms"] = predicted
        values[f"primitives.{family}.ratio"] = measured / predicted if predicted else 0.0

    total = sum(sum(times) for times in op_seconds.values())
    covered = sum(span.duration for span in spans if not span.inside)
    covered += sum(recorder.excluded.get(key, 0.0) for key in op_seconds)
    handle_s = sum(span.duration for span in by_layer["service.app"])
    requests = len(by_layer["service.app"])
    values["service.app.wire_wait_ms"] = (
        1e3 * (total - handle_s) / requests if requests else 0.0
    )
    values["trace.unattributed_pct"] = 100.0 * (total - covered) / total if total else 0.0
    for name, value in extra.items():
        values[name] = value
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}


def key_shares(
    recorder: Recorder, op_seconds: Dict[str, List[float]]
) -> Dict[str, Dict[str, float]]:
    """Per op key: each layer's self-time share and the unattributed remainder.

    Shares are of the key's summed op time.  ``unattributed`` is the part no
    top-level span covered (the benchmark's loop, Python glue between
    layers, and on the service the HTTP round trip outside ``handle``).
    """
    self_time: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    covered: Dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        self_time[span.op][span.layer] += span.duration - span.child
        if not span.inside:
            covered[span.op] += span.duration
    shares: Dict[str, Dict[str, float]] = {}
    for key, times in op_seconds.items():
        total = sum(times)
        if not total:
            continue
        row = {
            layer: seconds / total
            for layer, seconds in self_time[key].items()
            if seconds > 0
        }
        row["unattributed"] = (total - covered[key] - recorder.excluded.get(key, 0.0)) / total
        shares[key] = row
    return shares
