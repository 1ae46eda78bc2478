"""The residual-gather wall: phase 4's clean steps with a small residue are
scored off one shared gather a flush.

``_score_residual`` queues an accepted step instead of scoring it, and
``_flush_residual`` scores the queue: one ``load_users`` of the queued
steps' endpoints, one ``score_tuples`` call, one scatter into the slab.
These tests pin:

* the grouped load's charge — each group's own contiguous runs, random
  unless there is one — equals the per-step ``load_users`` calls it
  replaces to the picosecond, on dense, segmented-sparse and
  journaled-sparse stores, for one-run and many-run groups, and its slice
  is the plain load of the groups' union;
* the flush threshold ``_SCORED_FLUSH_ROWS`` at 1 (a flush a step), at a
  mid value and at its default gives the same slab bits, evaluations,
  ``steps_skipped``, ``IOStats``, fingerprints and read charges, in any
  order, on a cold build whose gathered steps interleave with executed
  ones and on churned dense and sparse runs whose gathers queue up;
* one flush makes one ``score_tuples`` call, and a gathered step acquires
  no partition;
* the distinct-endpoint count that settles for a lower bound once the
  distinct sources pass a quarter of a step's span decides every step as
  the full count does, and the source rows it reads ascend along every PI
  edge's run, as that bound assumes.
"""

from __future__ import annotations

import hashlib

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.iteration as iteration_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.partition.model import partition_layout
from repro.pigraph.pi_graph import PIEdge
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.io_stats import IOStats
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 90

#: groups of sorted, duplicate-free ids, laid end to end by the grouped load;
#: some groups start one past where the group before them ends
GROUPS = {
    "one-run": [np.arange(3, 10), np.arange(10, 20), np.arange(20, 45),
                np.arange(0, 1), np.arange(60, 90), np.arange(5, 8)],
    "many-run": [np.array([1, 2, 3, 9, 20, 21, 40, 88]),
                 np.array([0, 4, 30, 31, 32, 59, 60]),
                 np.array([7, 29, 61, 62, 63, 89])],
    "mixed": [np.arange(10, 20), np.array([17]), np.array([2, 4, 6, 8]),
              np.array([9, 12]), np.arange(28, 62), np.array([17]),
              np.array([0, 1, 2, 50, 89])],
}


@pytest.fixture(scope="module", params=["dense", "sparse-segmented",
                                        "sparse-journaled"])
def store(request, tmp_path_factory):
    base = tmp_path_factory.mktemp(request.param)
    if request.param == "dense":
        profiles = generate_dense_profiles(NUM_USERS, dim=6, seed=5)
        return OnDiskProfileStore.create(base, profiles, disk_model="hdd")
    profiles = generate_sparse_profiles(NUM_USERS, 120, items_per_user=9, seed=5)
    store = OnDiskProfileStore.create(base, profiles, disk_model="hdd",
                                      segment_bounds=[0, 30, 60, NUM_USERS],
                                      journal_limit=1000)
    if request.param == "sparse-journaled":
        store.apply_changes([ProfileChange(user=21, kind="add", item=999),
                             ProfileChange(user=40, kind="add", item=998),
                             ProfileChange(user=62, kind="add", item=997)])
    return store


def _charged(store, loads):
    """The store's ``(read_ops, bytes_read, simulated picoseconds)`` after
    ``loads`` ran from a start whose picoseconds are not round; the last
    load's slice."""
    store.io_stats.reset()
    store.io_stats.simulated_io_ps = 123_456_789_012
    piece = None
    for load in loads:
        piece = load()
    stats = store.io_stats
    return (stats.read_ops, stats.bytes_read, stats.simulated_io_ps), piece


@pytest.mark.parametrize("shape", sorted(GROUPS))
def test_a_grouped_load_charges_each_group_as_its_own_call(store, shape):
    groups = [group.astype(np.int64) for group in GROUPS[shape]]
    per_step, _ = _charged(store, [lambda group=group: store.load_users(group)
                                   for group in groups])
    starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
    grouped, piece = _charged(store, [lambda: store.load_users(
        np.concatenate(groups), group_starts=starts)])
    assert grouped == per_step
    # a list of ids is taken as the same groups, neither sorted nor merged
    assert _charged(store, [lambda: store.load_users(
        np.concatenate(groups).tolist(), group_starts=starts)])[0] == per_step
    # a group of several runs charges several reads
    assert (grouped[0] > len(groups)) == (shape != "one-run")
    union = np.unique(np.concatenate(groups))
    plain = store.load_users(union)
    np.testing.assert_array_equal(piece.user_ids, union)
    if store.kind == "dense":
        np.testing.assert_array_equal(piece.matrix, plain.matrix)
    else:
        np.testing.assert_array_equal(piece._csr.indptr, plain._csr.indptr)
        np.testing.assert_array_equal(piece._csr.codes, plain._csr.codes)


def test_one_group_is_the_plain_load(store):
    for ids in (np.arange(30, 60), np.array([1, 2, 3, 9, 20, 21, 40, 88])):
        plain, _ = _charged(store, [lambda: store.load_users(ids)])
        grouped, _ = _charged(store, [lambda: store.load_users(
            ids, group_starts=np.zeros(1, dtype=np.int64))])
        assert grouped == plain


def test_a_grouped_load_checks_its_groups(store):
    with pytest.raises(ValueError, match="not sorted and duplicate-free"):
        store.load_users(np.array([3, 5, 4, 4], dtype=np.int64),
                         group_starts=np.array([0, 2]))
    with pytest.raises(IndexError, match=f"user {NUM_USERS} out of range"):
        store.load_users(np.array([3, NUM_USERS, 2, 4], dtype=np.int64),
                         group_starts=np.array([0, 2]))


# -- the walk ----------------------------------------------------------------------

def _drift_run(kind):
    """A converged graph, then churn inside the first partition: clean steps
    miss a few tuples each, and their gathers queue up."""
    profiles = (generate_dense_profiles(300, dim=6, num_communities=4, seed=2)
                if kind == "dense" else
                generate_sparse_profiles(300, 200, items_per_user=10,
                                         num_communities=4, seed=2))
    rng = np.random.default_rng(4)

    def feed(iteration):
        if iteration < 4:
            return []
        users = rng.choice(50, size=4, replace=False)
        if kind == "dense":
            return [ProfileChange(user=int(user), kind="set", vector=rng.random(6))
                    for user in users]
        return [ProfileChange(user=int(user), kind="add",
                              item=int(rng.integers(0, 200))) for user in users]

    with KNNEngine(profiles, EngineConfig(k=5, num_partitions=6,
                                          seed=2)) as engine:
        return engine.run(num_iterations=8, profile_change_feed=feed).iterations


def _cold_run(kind):
    """A cold build whose gathered steps interleave with executed ones."""
    profiles = generate_dense_profiles(1000, dim=8, num_communities=5, seed=11)
    config = EngineConfig(k=8, num_partitions=20, heuristic="degree-low-high",
                          measure="cosine", seed=11)
    with KNNEngine(profiles, config) as engine:
        return engine.run(5).iterations


RUNS = {"cold-dense": lambda: _cold_run("dense"),
        "drift-dense": lambda: _drift_run("dense"),
        "drift-sparse": lambda: _drift_run("sparse")}


def _observed(name, rows):
    """What a run computes and charges: per iteration the fingerprint,
    evaluations, steps skipped, I/O and committed slab bits; every read
    charge, sorted; the flushes' queue lengths — with the flush threshold
    at ``rows``."""
    reads, slabs, flushes = [], [], []
    record_reads = IOStats.record_reads
    merge = iteration_module.Phase4ScoreCache.merge
    flush = iteration_module.OutOfCoreIteration._flush_residual

    def recorded(stats, num_bytes, seconds):
        reads.extend(zip(num_bytes, seconds))
        record_reads(stats, num_bytes, seconds)

    def committed(cache, keys, values, *args, **kwargs):
        slabs.append(hashlib.sha256(values.tobytes()).hexdigest())
        return merge(cache, keys, values, *args, **kwargs)

    def flushed(runner, run, measure):
        if run.queued:
            flushes.append(len(run.queued))
        return flush(runner, run, measure)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iteration_module, "_SCORED_FLUSH_ROWS", rows)
        patch.setattr(IOStats, "record_reads", recorded)
        patch.setattr(iteration_module.Phase4ScoreCache, "merge", committed)
        patch.setattr(iteration_module.OutOfCoreIteration, "_flush_residual",
                      flushed)
        results = RUNS[name]()
    iterations = [(r.graph.edge_fingerprint(), r.similarity_evaluations,
                   r.steps_skipped, r.io_stats.as_dict()) for r in results]
    return iterations, slabs, sorted(reads), flushes


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_flush_threshold_moves_no_bit(name):
    default = iteration_module._SCORED_FLUSH_ROWS
    observed = {rows: _observed(name, rows) for rows in (default, 24, 1)}
    for rows in (24, 1):
        assert observed[rows][:3] == observed[default][:3]
    flushes = {rows: observed[rows][3] for rows in observed}
    # a flush a step at 1; the default queues steps up where the walk lets it
    assert set(flushes[1]) == {1}
    assert sum(flushes[1]) == sum(flushes[24]) == sum(flushes[default]) > 0
    if name.startswith("drift"):
        assert len(flushes[1]) > len(flushes[24]) > len(flushes[default])


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_one_flush_is_one_kernel_call_and_acquires_nothing(monkeypatch, kind):
    """Every flush reaches ``score_tuples`` once for all its queued steps'
    tuples, and no step it settled acquires a partition."""
    calls, queued, gathered, acquired = [], [], [], []
    score = iteration_module.score_tuples
    flush = iteration_module.OutOfCoreIteration._flush_residual
    residual = iteration_module.OutOfCoreIteration._score_residual
    acquire = iteration_module._StepResidency.acquire

    def counted(left, left_rows, right, right_rows, measure):
        calls.append(len(left_rows))
        return score(left, left_rows, right, right_rows, measure)

    def flushed(runner, run, measure):
        if not run.queued:
            return flush(runner, run, measure)
        before, tuples = len(calls), run.queued_tuples
        queued.append(len(run.queued))
        flush(runner, run, measure)
        assert calls[before:] == [tuples]

    def settled(runner, run, step, batches, measure):
        accepted = residual(runner, run, step, batches, measure)
        if accepted:
            gathered.append(step)
        return accepted

    def spied_acquire(residency, step, batches):
        acquired.append(step)
        return acquire(residency, step, batches)

    monkeypatch.setattr(iteration_module, "score_tuples", counted)
    monkeypatch.setattr(iteration_module.OutOfCoreIteration, "_flush_residual",
                        flushed)
    monkeypatch.setattr(iteration_module.OutOfCoreIteration, "_score_residual",
                        settled)
    monkeypatch.setattr(iteration_module._StepResidency, "acquire",
                        spied_acquire)
    results = _drift_run(kind)
    assert sum(calls) == sum(r.similarity_evaluations for r in results)
    assert max(queued) > 1 and sum(queued) == len(gathered)
    # the lists hold every step, so no two of them share an id
    assert not {id(step) for step in gathered} & {id(step) for step in acquired}


# -- the bounded residue count -------------------------------------------------------

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_the_bounded_residue_count_decides_as_the_full_count(data):
    """Every step of random partitions, each PI edge's tuples drawn from a
    pool of rows narrow (repeated endpoints) or wide, source rows ascending
    as in a PI edge's key-ordered run: the count is a lower bound only past
    a quarter of the span, exact below it, and ``classify_step`` decides on
    it as on the full distinct count — with the marking bound at 1 tuple,
    a few, or its default."""
    sizes = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    layout = partition_layout(np.repeat(np.arange(len(sizes)), sizes),
                              len(sizes))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    left, right, steps, expected, spans = [], [], [], {}, {}
    for first in range(len(sizes)):
        for second in range(first, len(sizes)):
            edges, batches, ends = [], [], set()
            for src, dst in dict.fromkeys([(first, second), (second, first)]):
                length = data.draw(st.integers(0, 90))
                edge = PIEdge(src, dst, max(length, 1))
                edges.append(edge)
                if not length:
                    continue
                rows = [rng.integers(0, data.draw(st.integers(1, sizes[side])),
                                     length) for side in (src, dst)]
                rows[0].sort()
                spans[src, dst] = (sum(map(len, left)),
                                   sum(map(len, left)) + length)
                batches.append((edge, *spans[src, dst]))
                left.append(rows[0])
                right.append(rows[1])
                ends |= {(src, row) for row in rows[0].tolist()}
                ends |= {(dst, row) for row in rows[1].tolist()}
            steps.append(((first, second, edges), batches))
            expected[first, second] = len(ends)
    dtype = layout.local_row.dtype
    run = iteration_module._Phase4Run(
        keys=np.empty(0, dtype=np.int64), scores=np.empty(0),
        full_rescore=False, steps=steps, layout=layout,
        positions=np.empty(0, dtype=np.int64),
        left_rows=np.concatenate(left + [[]]).astype(dtype),
        right_rows=np.concatenate(right + [[]]).astype(dtype),
        edge_spans=spans, store_generation=0, reused=0, deleted=None)
    rows = data.draw(st.sampled_from([1, 7, iteration_module._SCORED_FLUSH_ROWS]))
    with mock.patch.object(iteration_module, "_SCORED_FLUSH_ROWS", rows):
        run.count_residue()
    classify = iteration_module.classify_step
    for pair, distinct in expected.items():
        tuples, counted, span = run.residue[pair]
        assert classify(tuples, counted, span) == classify(tuples, distinct, span)
        assert counted <= distinct
        if 8 * tuples > span and 4 * distinct <= span:
            assert counted == distinct


@pytest.mark.parametrize("name", sorted(RUNS))
def test_source_rows_ascend_along_every_pi_edge(name):
    """The lower bound counts a PI edge's distinct sources as the changes
    in its run of source rows: those rows must ascend, in every run the
    count reads, on cold builds and on churned dense and sparse runs."""
    checked = []
    count = iteration_module._Phase4Run.count_residue

    def checked_count(run):
        for _, batches in run.steps:
            for _, lo, hi in batches:
                assert (np.diff(run.left_rows[lo:hi]) >= 0).all()
                checked.append(hi - lo)
        count(run)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(iteration_module._Phase4Run, "count_residue",
                      checked_count)
        RUNS[name]()
    assert len(checked) > 10 and max(checked) > 1
