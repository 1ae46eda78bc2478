"""The prepared-front wall: phases 1–3 made ahead change nothing.

Phases 1–3 read only the graph, so the serving loop makes the next
iteration's *front* — partition, ``H`` advanced by the edge delta, the PI
graph and its plan, the carried slab moved along ``H`` — while it is idle
(:meth:`KNNEngine.prepare_front`), and the iteration consumes it when it
was made for the very graph it runs on.  What reads the batch stays in the
iteration: the partition files are sized from the profiles after phase 5,
and the touched mask and the dirty plan read the store's deltas.

An engine that prepares the front before every iteration must match one
that never does, iteration for iteration — fingerprints, evaluations,
reused scores, skipped steps, rebuilt candidates, load/unload operations,
I/O bytes and simulated seconds, and the resident bytes every partition
load reserves — dense and sparse, in the paper's and the serving order, on
the crash matrix's three schedules.  The sparse batches grow and shrink the
profiles, so a partition file sized before phase 5 shows.  A front made for
a graph the iteration does not run on is never consumed, and phases 1–3
report their seconds either way.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import PHASE_NAMES, OutOfCoreIteration
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.partition_store import PartitionStore
from test_crash_matrix import SCHEDULES

NUM_USERS = 120
NUM_ITEMS = 150
ITERATIONS = 10
WARMUP = 5          # iterations with no batch: G(t) settles and H advances
ORDERS = {"paper-order": False, "serving-order": True}


def _profiles(kind):
    if kind == "dense":
        return generate_dense_profiles(NUM_USERS, dim=8, num_communities=3,
                                       seed=11)
    return generate_sparse_profiles(NUM_USERS, NUM_ITEMS, items_per_user=6,
                                    num_communities=3, seed=11)


def _changes(kind, iteration):
    """Dense: a few rows set.  Sparse: every other batch adds many items,
    the rest remove some, so the average profile size moves."""
    if iteration < WARMUP:
        return []
    rng = np.random.default_rng(70 + iteration)
    if kind == "dense":
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(8))
                for u in rng.choice(NUM_USERS, size=5, replace=False)]
    kind_of = "add" if iteration % 2 == 0 else "remove"
    count = 60 if kind_of == "add" else 25
    return [ProfileChange(user=int(u), kind=kind_of,
                          item=int(rng.integers(0, NUM_ITEMS)))
            for u in rng.choice(NUM_USERS, size=count)]


def _config(kind, schedule):
    return EngineConfig(k=5, num_partitions=4, seed=13,
                        measure="cosine" if kind == "dense" else "jaccard",
                        **SCHEDULES[schedule])


class _Spies:
    """The resident bytes each partition load reserves, and which fronts
    the runner made inline (for the graph it was running on)."""

    def __init__(self):
        self.reserved = []
        self.inline = 0
        self._running = False
        self._patches = []

    def __enter__(self):
        read = PartitionStore.read_partition
        run, front = OutOfCoreIteration.run, OutOfCoreIteration.front

        def reading(store, pid):
            size = read(store, pid)
            self.reserved.append(size)
            return size

        def running(runner, *args, **kwargs):
            self._running = True
            try:
                return run(runner, *args, **kwargs)
            finally:
                self._running = False

        def fronting(runner, graph):
            self.inline += self._running
            return front(runner, graph)

        self._patches = [mock.patch.object(PartitionStore, "read_partition", reading),
                         mock.patch.object(OutOfCoreIteration, "run", running),
                         mock.patch.object(OutOfCoreIteration, "front", fronting)]
        for patch in self._patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self._patches):
            patch.stop()


def _observe(kind, order, schedule, prepare):
    """Per-iteration observations of one churned run, and how many fronts
    its iterations computed themselves."""
    observed = []
    with KNNEngine(_profiles(kind), _config(kind, schedule)) as engine, \
            _Spies() as spies:
        for iteration in range(ITERATIONS):
            if prepare:
                engine.prepare_front()
            engine.enqueue_profile_changes(_changes(kind, iteration))
            spies.reserved.clear()
            result = engine.run_iteration(updates_first=ORDERS[order])
            io = result.io_stats
            phases = result.summary()["phase_seconds"]
            assert all(phases[name] > 0 for name in PHASE_NAMES[:3]), phases
            observed.append(dict(
                fingerprint=result.graph.edge_fingerprint(),
                evaluations=result.similarity_evaluations,
                reused=result.reused_scores,
                skipped=result.steps_skipped,
                rebuilt=result.candidates_rebuilt,
                full_rescore=result.full_rescore,
                load_unload=result.load_unload_operations,
                bytes_read=io.bytes_read,
                bytes_written=io.bytes_written,
                simulated_seconds=io.simulated_io_seconds,
                reserved=list(spies.reserved),
                bytes_per_user=engine.profile_store.estimated_bytes_per_user()))
    return observed, spies.inline


@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("order", list(ORDERS))
@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_a_prepared_front_matches_an_inline_one(kind, order, schedule):
    inline, computed = _observe(kind, order, schedule, prepare=False)
    prepared, computed_prepared = _observe(kind, order, schedule, prepare=True)
    assert computed == ITERATIONS
    assert computed_prepared == 0           # every iteration consumed its front
    for index, (got, want) in enumerate(zip(prepared, inline)):
        assert got == want, index
    # the run has teeth: the cache answered and H advanced on both paths
    assert any(step["reused"] for step in inline)
    assert not all(step["rebuilt"] for step in inline)
    if kind == "sparse":
        # and the profile sizes moved, so the partition files' sizing did
        assert len({step["bytes_per_user"] for step in inline}) > 1


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_a_front_made_for_another_graph_is_never_consumed(kind):
    """A front made for ``G(t)`` is left for a twin of it: the iteration
    computes its own, with the same outcome as an engine that was never
    handed one."""
    outcomes = []
    for hand_over in (False, True):
        with KNNEngine(_profiles(kind), _config(kind, "paper")) as engine:
            for _ in range(WARMUP):
                engine.run_iteration()
            runner = engine._iteration_runner
            stale = runner.front(engine.graph)
            assert stale.patch is not None and stale.slab is not None
            twin = engine.graph.copy().freeze()
            engine.enqueue_profile_changes(_changes(kind, WARMUP))
            result = runner.run(WARMUP, twin, engine.update_queue,
                                front=stale if hand_over else None)
            assert runner.score_cache.table is not stale.table
            outcomes.append((result.graph.edge_fingerprint(),
                             result.similarity_evaluations,
                             result.reused_scores, result.candidates_rebuilt,
                             result.load_unload_operations,
                             result.io_stats.bytes_read))
    assert outcomes[0] == outcomes[1]


def test_preparing_twice_keeps_one_front_and_an_iteration_consumes_it():
    with KNNEngine(_profiles("dense"), _config("dense", "paper")) as engine:
        engine.run_iteration()
        engine.prepare_front()
        front = engine._front
        engine.prepare_front()
        assert engine._front is front and front.graph is engine.graph
        engine.run_iteration()
        assert engine._front is None
        assert engine._iteration_runner.score_cache.table is front.table
