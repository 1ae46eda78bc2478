"""Span self time, trace ids, and install/restore leaving no trace."""

import threading

import pytest

import layers
import tracing
from tracing import Span, Target, Tracer


def test_self_time_with_nested_and_sibling_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 1, 1),
        Span("child_a", 1.0, 4.0, 0, 1, 1),
        Span("grandchild", 2.0, 3.0, 1, 1, 1),
        Span("child_b", 5.0, 7.0, 0, 1, 1),
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    totals = tracing.aggregate(spans)
    assert totals["root"] == {"calls": 1, "self_s": 5.0, "busy_s": 10.0}
    assert tracing.root_seconds(spans) == 10.0
    # self times of a tree add up to its root
    assert sum(tracing.self_times(spans)) == 10.0


def test_children_overlapping_on_two_threads_are_covered_once():
    spans = [
        Span("root", 0.0, 10.0, -1, 1, 1),
        Span("worker", 2.0, 6.0, 0, 1, 2),
        Span("worker", 4.0, 8.0, 0, 1, 3),      # overlaps the first by 2 s
        Span("late", 9.0, 12.0, 0, 1, 2),       # clipped to the parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrapped_calls_nest_per_thread_and_root_spans_start_traces():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    traced_leaf = tracer.wrap(leaf, "leaf")

    def outer():
        clock.now += 0.5
        traced_leaf()
        traced_leaf()

    traced_outer = tracer.wrap(outer, "outer")
    traced_outer()
    traced_outer()
    thread = threading.Thread(target=traced_leaf)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()

    spans = tracer.spans()
    assert [span.name for span in spans] == [
        "outer", "leaf", "leaf", "outer", "leaf", "leaf", "leaf"]
    assert [span.parent for span in spans] == [-1, 0, 0, -1, 3, 3, -1]
    # one trace id per root call, shared by everything beneath it
    traces = [span.trace for span in spans]
    assert traces[0] == traces[1] == traces[2]
    assert traces[3] == traces[4] == traces[5]
    assert len({traces[0], traces[3], traces[6]}) == 3
    assert spans[6].thread != spans[0].thread
    totals = tracing.aggregate(spans)
    assert totals["outer"]["self_s"] == pytest.approx(1.0)
    assert totals["leaf"]["calls"] == 5


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom")()
    assert [span.name for span in tracer.spans()] == ["boom"]


def test_install_and_restore_leave_every_binding_identical():
    counts = layers.Counts()
    targets = layers.trace_targets(counts) + [layers.result_tap(counts)]
    before = tracing.originals(targets)
    assert tracing.left_installed(targets) == []
    with Tracer() as tracer:
        tracer.install(targets)
        patched = tracing.originals(targets)
        assert all(patched[key] is not before[key] for key in before)
        assert tracing.left_installed(targets)
    after = tracing.originals(targets)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracing.left_installed(targets) == []


def test_wrapping_keeps_classmethods_and_reaches_every_subclass():
    from repro.partition import partitioners
    from repro.pigraph.pi_graph import PIGraph

    owners = {owner.__name__ for owner, _ in tracing._resolve(
        Target("repro.partition.partitioners", "Partitioner.assign", "x",
               subclasses=True))}
    assert {"ContiguousPartitioner", "HashPartitioner"} <= owners
    assert "Partitioner" not in owners          # abstract: nothing to time
    target = Target("repro.pigraph.pi_graph", "PIGraph.from_tuple_table", "x")
    with Tracer() as tracer:
        tracer.install([target])
        assert isinstance(vars(PIGraph)["from_tuple_table"], classmethod)
    assert partitioners.ContiguousPartitioner.assign.__name__ == "assign"


def test_a_target_that_names_nothing_is_an_error():
    with pytest.raises((LookupError, AttributeError)):
        Tracer().install([Target("repro.core.iteration", "no_such_function", "x")])


def test_every_per_layer_metric_is_named_once():
    names = layers.per_layer_names()
    assert len(names) == len(set(names)) <= 128
    timings = [name for name in names if name.endswith(("self_s", "busy_s"))]
    assert all(name.rsplit(".", 1)[0] + ".calls" in names for name in timings)
