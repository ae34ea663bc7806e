"""Spans and counters recorded around geoent's public entry points.

The program itself carries no tracing. ``Tracer.install`` replaces each
entry point below with a timing wrapper in every geoent module that binds it
by name (``hierarchy`` and ``reports`` import ``best_overlap``,
``set_partitions``, ``shapes`` and ``permute_qubits`` directly), so the
wrapper sits where the caller looks the function up. ``uninstall`` puts the
originals back. Each layer is one module; a span's layer is the module that
defines the wrapped function.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

LAYERS = ("states", "partitions", "closedform", "optimizer", "hierarchy", "reports")

ENTRY_POINTS = {
    "states": ("random_state", "superpose", "permute_qubits", "ghz", "w", "magnon",
               "cluster4", "w_tilde3", "asym_w"),
    "partitions": ("set_partitions", "shapes", "representative_partition"),
    "closedform": ("wghz_bisep_reduced", "asym_w_bisep", "w_ksep_reduced",
                   "asym_w_ksep_reduced", "w_full_separable", "w_bisep", "w_trisep",
                   "magnon2_bisep", "ghz_egk"),
    "optimizer": ("best_overlap",),
    "hierarchy": ("full_hierarchy", "egk_absolute", "is_symmetric", "sweep_eta"),
    "reports": ("compute_table", "compute_curve"),
}

# Entry points that return a generator: the span times each next(), so the
# work is charged when the caller consumes it, not when the generator is made.
GENERATORS = {"set_partitions"}

OP_SPAN = "bench.op"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``spans[i].parent`` is an index into ``spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while span {popped} was open")

    # -- wrapping -----------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap every entry point wherever one of ``modules`` binds it by name."""
        wrappers = {}
        for layer, names in ENTRY_POINTS.items():
            home = sys.modules[f"geoent.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrappers[id(original)] = self._wrap(f"{layer}.{name}", original,
                                                    name in GENERATORS)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn, generator):
        tracer = self
        record = _RECORDERS.get(name)

        if generator:
            def traced_generator(*args, **kwargs):
                return _TracedIterator(tracer, name, fn(*args, **kwargs))
            return traced_generator

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if record is not None:
                record(tracer, tracer.spans[sid], args, kwargs, result)
            return result

        return traced


class _TracedIterator:
    def __init__(self, tracer, name, iterator):
        self.tracer, self.name, self.iterator = tracer, name, iterator

    def __iter__(self):
        return self

    def __next__(self):
        sid = self.tracer.open(self.name)
        try:
            item = next(self.iterator)
        finally:
            self.tracer.close(sid)
        self.tracer.counters[f"{self.name}.yielded"] += 1
        return item


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _record_best_overlap(tracer, span, args, kwargs, result):
    psi = _arg(args, kwargs, 0, "psi")
    partition = result.partition
    span.attrs = {"n": psi.num_qubits, "k": partition.k, "shape": partition.shape.text}
    c = tracer.counters
    c["optimizer.best_overlap.winner_sweeps"] += result.iterations
    c["optimizer.best_overlap.unconverged"] += not result.converged
    c["optimizer.best_overlap.reinjections"] += result.reinjections


def _record_full_hierarchy(tracer, span, args, kwargs, report):
    c = tracer.counters
    for entry in report.entries:
        c["hierarchy.partitions_scanned"] += len(entry.relative)
        c["hierarchy.argmin_partitions"] += len(entry.argmin_partitions)
        c["hierarchy.reran_levels"] += entry.reran


_RECORDERS = {
    "optimizer.best_overlap": _record_best_overlap,
    "hierarchy.full_hierarchy": _record_full_hierarchy,
}


# ---------------------------------------------------------------------------
# derived numbers
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def summarize(spans, counters) -> tuple[dict, dict]:
    """Per-layer metrics (name -> (value, unit)) and the per-(N, K, shape) table."""
    selfs = self_times(spans)
    busy = defaultdict(float)
    own = defaultdict(float)
    durations = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    breakdown = defaultdict(lambda: {"calls": 0, "busy_s": 0.0})
    k2_busy = 0.0
    for span, own_time in zip(spans, selfs):
        busy[span.name] += span.duration
        own[span.name] += own_time
        durations[span.name].append(span.duration)
        layer = span.name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own_time
        if span.name == "optimizer.best_overlap":
            a = span.attrs
            row = breakdown[f"N={a['n']} K={a['k']} {a['shape']}"]
            row["calls"] += 1
            row["busy_s"] += span.duration
            if a["k"] == 2:
                k2_busy += span.duration

    def calls(name):
        return len(durations[name])

    def p50_ms(name):
        return 1e3 * statistics.median(durations[name]) if durations[name] else 0.0

    def max_ms(name):
        return 1e3 * max(durations[name], default=0.0)

    bo = "optimizer.best_overlap"
    scanned = counters["hierarchy.partitions_scanned"]
    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    m.update({
        f"{bo}.calls": (calls(bo), "count"),
        f"{bo}.busy_s": (busy[bo], "s"),
        f"{bo}.call_p50_ms": (p50_ms(bo), "ms"),
        f"{bo}.call_max_ms": (max_ms(bo), "ms"),
        f"{bo}.k2_busy_s": (k2_busy, "s"),
        f"{bo}.winner_sweeps": (counters[f"{bo}.winner_sweeps"], "count"),
        f"{bo}.unconverged": (counters[f"{bo}.unconverged"], "count"),
        f"{bo}.reinjections": (counters[f"{bo}.reinjections"], "count"),
        "hierarchy.full_hierarchy.self_s": (own["hierarchy.full_hierarchy"], "s"),
        "hierarchy.partitions_scanned": (scanned, "count"),
        "hierarchy.reran_levels": (counters["hierarchy.reran_levels"], "count"),
        "hierarchy.argmin_share": (
            counters["hierarchy.argmin_partitions"] / scanned if scanned else 0.0, "ratio"),
        "hierarchy.is_symmetric.busy_s": (busy["hierarchy.is_symmetric"], "s"),
        "states.permute_qubits.busy_s": (busy["states.permute_qubits"], "s"),
        "hierarchy.sweep_eta.self_s": (own["hierarchy.sweep_eta"], "s"),
        "reports.compute_curve.self_s": (own["reports.compute_curve"], "s"),
        "reports.compute_table.self_s": (own["reports.compute_table"], "s"),
        "partitions.set_partitions.busy_s": (busy["partitions.set_partitions"], "s"),
        "partitions.set_partitions.yielded": (
            counters["partitions.set_partitions.yielded"], "count"),
        "partitions.shapes.busy_s": (busy["partitions.shapes"], "s"),
        "states.random_state.busy_s": (busy["states.random_state"], "s"),
        "states.superpose.busy_s": (busy["states.superpose"], "s"),
    })
    for name in ("wghz_bisep_reduced", "asym_w_bisep", "w_ksep_reduced"):
        full = f"closedform.{name}"
        m[f"{full}.calls"] = (calls(full), "count")
        m[f"{full}.busy_s"] = (busy[full], "s")
        m[f"{full}.call_max_ms"] = (max_ms(full), "ms")
    return m, dict(sorted(breakdown.items()))
