"""Self-time arithmetic and the wrapping of geoent's entry points."""

import sys
from collections import Counter

import pytest

from perfbench.tracing import LAYERS, Span, Tracer, self_times, summarize
from perfbench.worker import import_geoent

ge = import_geoent()


def _span(name, start, end, parent=None, **attrs):
    return Span(name, start, end, parent, 0, attrs)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("hierarchy.full_hierarchy", 0.0, 10.0),
        _span("optimizer.best_overlap", 1.0, 4.0, parent=0, n=4, k=2, shape="2|2"),
        _span("optimizer.best_overlap", 5.0, 9.0, parent=0, n=4, k=3, shape="1|1|2"),
        _span("states.permute_qubits", 2.0, 3.5, parent=1),
        _span("partitions.set_partitions", 9.0, 9.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 1.5, 4.0, 1.5, 0.5])
    metrics, by_shape = summarize(spans, Counter())
    assert metrics["hierarchy.self_s"][0] == pytest.approx(2.5)
    assert metrics["optimizer.self_s"][0] == pytest.approx(5.5)
    assert metrics["states.self_s"][0] == pytest.approx(1.5)
    assert metrics["partitions.self_s"][0] == pytest.approx(0.5)
    assert metrics["optimizer.best_overlap.busy_s"][0] == pytest.approx(7.0)
    assert metrics["optimizer.best_overlap.k2_busy_s"][0] == pytest.approx(3.0)
    assert by_shape == {"N=4 K=2 2|2": {"calls": 1, "busy_s": 3.0},
                        "N=4 K=3 1|1|2": {"calls": 1, "busy_s": 4.0}}
    # the layers' self times add up to the root span's duration
    assert sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) == pytest.approx(10.0)


def _geoent_modules():
    return [m for name, m in sys.modules.items() if name == "geoent" or name.startswith("geoent.")]


def test_install_wraps_where_callers_look_up_and_uninstall_restores():
    import geoent.hierarchy as hierarchy

    original = hierarchy.best_overlap
    tracer = Tracer()
    tracer.install(_geoent_modules())
    try:
        assert hierarchy.best_overlap is not original
        assert ge.optimizer.best_overlap is hierarchy.best_overlap
        report = ge.full_hierarchy(ge.random_state(3, 1), ge.OptimizerConfig(restarts=4))
    finally:
        tracer.uninstall()
    assert hierarchy.best_overlap is original
    names = [s.name for s in tracer.spans]
    assert names.count("optimizer.best_overlap") == 4 == sum(len(e.relative) for e in report.entries)
    root = names.index("hierarchy.full_hierarchy")
    assert all(s.parent == root for s in tracer.spans if s.name == "optimizer.best_overlap")
    assert tracer.counters["partitions.set_partitions.yielded"] == 4
    assert tracer.counters["hierarchy.partitions_scanned"] == 4


def test_generator_is_timed_when_consumed_not_when_created():
    tracer = Tracer()
    tracer.install(_geoent_modules())
    try:
        gen = ge.set_partitions(4, 2)
        assert tracer.spans == []
        assert len(list(gen)) == 7
    finally:
        tracer.uninstall()
    # seven items plus the call that ends the iteration
    assert [s.name for s in tracer.spans] == ["partitions.set_partitions"] * 8
    assert tracer.counters["partitions.set_partitions.yielded"] == 7
