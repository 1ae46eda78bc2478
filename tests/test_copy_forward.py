"""The copy-forward wall.

When phase 4's input *is* the graph it produced last and ``H`` was advanced
on the positional join, ``G(t+1)`` re-merges only the sources whose
candidates changed and copies every other row of ``G(t)`` forward; the next
edge delta reads only the rows re-merged.  A row's top-K is a pure function
of its candidates' keys and scores, so the result must be byte-identical to
the full merge: here against twins with ``_COPY_FORWARD_FRACTION`` patched
to 0 (never copy forward) and to 1 (always), across the fallbacks that must
take the full merge, at the constant's edge, through an aborted phase 4, and
with the row-restricted edge delta against the full one.  Every case checks
which path ran: ``score_cache.merged_rows`` is ``None`` after a full merge
and the re-merged rows after a copy-forward.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import iteration as iteration_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import Phase4ScoreCache
from repro.graph.digraph import CSRDiGraph
from repro.graph.knn_graph import KNNGraph
from repro.partition.model import build_partitions
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.testing import FaultPlan, InjectedCrash
from repro.tuples.generator import generate_candidate_tuples

USERS, ITEMS, DIM = 200, 240, 8
FRACTION = iteration_module._COPY_FORWARD_FRACTION
#: iterations after which the default engines below have converged far
#: enough that phase 2 advances ``H`` and phase 4 may copy forward
WARM = 7


def _profiles(kind, seed=7):
    if kind == "dense":
        return generate_dense_profiles(USERS, dim=DIM, num_communities=4, seed=seed)
    return generate_sparse_profiles(USERS, ITEMS, items_per_user=10,
                                    num_communities=4, seed=seed)


def _feed(kind, profiles, churn, seed):
    """``churn`` changed users an iteration from the third on."""
    rng = np.random.default_rng(seed)

    def feed(iteration):
        if iteration < 2:
            return []
        users = rng.choice(USERS, size=churn, replace=False)
        if kind == "dense":
            return [ProfileChange(user=int(u), kind="set",
                                  vector=profiles.matrix[u]
                                  + rng.normal(0.0, 0.05, DIM)) for u in users]
        return [ProfileChange(user=int(u), kind="add",
                              item=int(rng.integers(0, ITEMS))) for u in users]

    return feed


def _config(**overrides):
    return EngineConfig(**dict(dict(k=5, num_partitions=4, seed=17,
                                    heuristic="degree-low-high"), **overrides))


def _rows(graph):
    """Every row of ``graph`` as ranked neighbour ids, and the score bits."""
    ranked = [graph.ranked(v) for v in range(graph.num_vertices)]
    return ([[u for u, _ in row] for row in ranked],
            np.asarray([s for row in ranked for _, s in row]).tobytes())


def _merged(engine):
    rows = engine._iteration_runner.score_cache.merged_rows
    return None if rows is None else rows.tolist()


def _warm(engine, feed, iterations=WARM):
    """Run ``iterations`` fed iterations and queue the next one's changes."""
    for iteration in range(iterations):
        engine.enqueue_profile_changes(feed(iteration))
        result = engine.run_iteration()
    engine.enqueue_profile_changes(feed(iterations))
    return result


def _run(fraction, kind="dense", iterations=10, churn=4, seed=3,
         serving=False, initial_graph=None,
         rebuild=iteration_module._DELTA_REBUILD_FRACTION, **overrides):
    """Per iteration: the graph's rows, the rows re-merged (``None``: a full
    merge) and whether the iteration could copy forward at all (``H``
    advanced on the positional join of the graph produced last).  Phase 2
    advances ``H`` while at most ``rebuild · n·k`` edges moved."""
    profiles = _profiles(kind)
    feed = _feed(kind, profiles, churn, seed)
    observed = []
    with mock.patch.multiple(iteration_module, _COPY_FORWARD_FRACTION=fraction,
                             _DELTA_REBUILD_FRACTION=rebuild), \
            KNNEngine(profiles, _config(**overrides),
                      initial_graph=initial_graph) as engine:
        for iteration in range(iterations):
            engine.enqueue_profile_changes(feed(iteration))
            result = engine.run_iteration(updates_first=serving)
            observed.append((_rows(engine.graph), _merged(engine),
                             iteration > 0 and not result.candidates_rebuilt
                             and not result.full_rescore))
    return observed


def _assert_paths(observed, fraction, always):
    """``observed`` took the path ``fraction`` picks for the changed rows
    the always-copy twin ``always`` reports, and produced its graphs."""
    for (rows, merged, _), (expected, changed, eligible) in zip(observed, always):
        assert rows == expected
        assert (changed is not None) == eligible
        copies = changed is not None and len(changed) <= fraction * USERS
        assert (merged is not None) == copies
        if copies:
            assert merged == changed


class TestTwins:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["dense", "sparse"]), serving=st.booleans(),
           direct=st.booleans(), churn=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_never_and_always_copying_forward_agree(self, kind, serving, direct,
                                                    churn, seed):
        # without G(t)'s own edges as candidates ~40 % of the edges move
        # every iteration, over the rebuild threshold: advance H anyway
        same = dict(kind=kind, churn=churn, seed=seed, serving=serving,
                    include_direct_edges=direct,
                    rebuild=iteration_module._DELTA_REBUILD_FRACTION if direct else 1.0)
        always = _run(1.0, **same)
        assert any(eligible for _, _, eligible in always)
        for fraction in (0.0, FRACTION):
            _assert_paths(_run(fraction, **same), fraction, always)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_the_constant_takes_both_paths(self, kind):
        """Light churn copies forward at the fitted constant, heavy churn
        falls back to the full merge, and both match the never-copy twin."""
        for churn in (2, 80):
            always = _run(1.0, kind, churn=churn)
            fitted = _run(FRACTION, kind, churn=churn)
            _assert_paths(fitted, FRACTION, always)
            _assert_paths(_run(0.0, kind, churn=churn), 0.0, always)
            copied = [merged is not None for _, merged, _ in fitted]
            assert any(copied) == (churn == 2)


class TestFallbacks:
    """An input that is not the graph phase 4 produced, or an ``H`` not
    advanced on the positional join, takes the full merge."""

    def test_an_initial_graph(self):
        initial = KNNGraph.random(USERS, 5, seed=99)
        always = _run(1.0, initial_graph=initial)
        assert always[0][1] is None
        assert any(merged is not None for _, merged, _ in always)
        _assert_paths(_run(0.0, initial_graph=initial), 0.0, always)

    @pytest.mark.parametrize("how", ["checkpoint", "recover"])
    def test_the_first_iteration_after_a_resume(self, how, tmp_path):
        more = 3
        expected = _run(1.0, iterations=WARM + more)
        feed = _feed("dense", _profiles("dense"), 4, 3)
        with mock.patch.object(iteration_module, "_COPY_FORWARD_FRACTION", 1.0):
            with KNNEngine(_profiles("dense"), _config(durable=True),
                           workdir=tmp_path / "run") as engine:
                _warm(engine, feed)
                assert _merged(engine) is not None
                engine.save_checkpoint(tmp_path / "checkpoint")
            resumed = (KNNEngine.from_checkpoint(tmp_path / "checkpoint",
                                                 workdir=tmp_path / "resumed")
                       if how == "checkpoint" else KNNEngine.recover(tmp_path / "run"))
            with resumed:
                merged = []
                for iteration in range(WARM, WARM + more):
                    if iteration > WARM:    # the next batch came back queued
                        resumed.enqueue_profile_changes(feed(iteration))
                    resumed.run_iteration()
                    assert _rows(resumed.graph) == expected[iteration][0]
                    merged.append(_merged(resumed))
        assert merged[0] is None
        assert merged[1:] == [row[1] for row in expected[WARM + 1:]]
        assert None not in merged[1:]

    def test_a_graph_the_caller_hands_the_runner(self):
        """Equal to the produced graph or one row edited, a graph that is
        not the produced object is merged in full — the equal one into
        exactly what copying forward from the produced object gives."""
        feeds, engines = [], []
        with mock.patch.object(iteration_module, "_COPY_FORWARD_FRACTION", 1.0):
            for _ in range(2):
                profiles = _profiles("dense")
                feeds.append(_feed("dense", profiles, 4, 3))
                engines.append(KNNEngine(profiles, _config()))
            try:
                for engine, feed in zip(engines, feeds):
                    _warm(engine, feed)
                    engine.run_iteration()      # the queued batch: applied
                own, caller = engines

                def run(engine, iteration, graph):
                    engine.profile_store.apply_changes(
                        feeds[engines.index(engine)](iteration))
                    result = engine._iteration_runner.run(iteration, graph)
                    return result.graph, _merged(engine)

                by_identity, copied = run(own, WARM + 1, own.graph)
                by_value, merged = run(caller, WARM + 1, caller.graph.copy())
                assert copied is not None and merged is None
                assert _rows(by_value) == _rows(by_identity)
                # one row edited: merged in full, as the never-copy twin does
                edited, twin = by_identity.copy(), by_value.copy()
                for graph in (edited, twin):
                    graph.set_neighbors(0, [(1, 0.0), (2, 0.0)])
                result, merged = run(own, WARM + 2, edited)
                with mock.patch.object(iteration_module, "_COPY_FORWARD_FRACTION", 0.0):
                    reference, never = run(caller, WARM + 2, twin)
                assert merged is None and never is None
                assert _rows(result) == _rows(reference)
            finally:
                for engine in engines:
                    engine.close()

    @pytest.mark.parametrize("overrides", [{"max_pairs_per_bridge": 3},
                                           {"score_cache_entries": 10}],
                             ids=["bridge-cap", "over-capacity"])
    def test_no_positional_join_no_copy(self, overrides):
        observed = _run(1.0, **overrides)
        assert [merged for _, merged, _ in observed] == [None] * len(observed)
        if "max_pairs_per_bridge" in overrides:
            # the truncation is not additive: H is rebuilt every iteration
            assert observed == _run(0.0, **overrides)
            return
        # the same graphs as an uncapped engine, which copies forward
        uncapped = _run(1.0)
        assert any(merged is not None for _, merged, _ in uncapped)
        assert [rows for rows, _, _ in observed] == [rows for rows, _, _ in uncapped]


class TestEdges:
    def test_a_share_at_the_constant_copies_and_one_row_over_does_not(self):
        always = _run(1.0)
        at, changed = next((index, changed) for index, (_, changed, _)
                           in enumerate(always)
                           if changed is not None and len(changed) >= 2)
        exactly, under = len(changed) / USERS, (len(changed) - 1) / USERS
        assert exactly * USERS == len(changed)
        at_the_constant, one_row_over = _run(exactly), _run(under)
        assert at_the_constant[at][1] == changed and one_row_over[at][1] is None
        _assert_paths(at_the_constant, exactly, always)
        _assert_paths(one_row_over, under, always)

    def test_an_aborted_phase4_leaves_the_produced_graph_and_its_retry_is_identical(self):
        with mock.patch.object(iteration_module, "_COPY_FORWARD_FRACTION", 1.0):
            profiles = _profiles("dense")
            with KNNEngine(profiles, _config()) as twin:
                _warm(twin, _feed("dense", profiles, 4, 3))
                expected = twin.run_iteration()
                expected_rows = _merged(twin)
            assert expected_rows is not None
            profiles = _profiles("dense")
            with KNNEngine(profiles, _config()) as engine:
                _warm(engine, _feed("dense", profiles, 4, 3))
                carried = engine._iteration_runner.score_cache
                produced, merged = carried.produced, carried.merged_rows
                assert merged is not None and engine.graph is produced
                before = (_rows(produced), merged.tobytes())
                engine._iteration_runner._fault = FaultPlan().crash_at(
                    "phase4.step", occurrence=1)
                with pytest.raises(InjectedCrash):
                    engine.run_iteration()
                engine._iteration_runner._fault = None
                assert carried.produced is produced and carried.merged_rows is merged
                assert engine.graph is produced
                assert (_rows(produced), merged.tobytes()) == before
                retried = engine.run_iteration()
                assert _merged(engine) == expected_rows
        assert _rows(retried.graph) == _rows(expected.graph)
        assert retried.similarity_evaluations == expected.similarity_evaluations

    def test_the_produced_graph_cannot_be_written(self):
        with mock.patch.object(iteration_module, "_COPY_FORWARD_FRACTION", 1.0), \
                KNNEngine(_profiles("dense"), _config()) as engine:
            graphs = [engine.graph]
            graphs.append(_warm(engine, _feed("dense", _profiles("dense"), 4, 3)).graph)
            carried = engine._iteration_runner.score_cache
            assert carried.produced is engine.graph is graphs[-1]
            assert carried.merged_rows is not None
            for graph in graphs:
                with pytest.raises(ValueError):
                    graph.add_candidate(0, 1, 9.0)
                with pytest.raises(ValueError):
                    graph.set_neighbors(0, [(1, 9.0)])
                with pytest.raises(ValueError):
                    graph.add_candidates_batch([0], [1], [9.0])
            with pytest.raises(ValueError):
                carried.merged_rows[0] = 1
            # a copy is the caller's to edit
            graphs[-1].copy().add_candidate(0, 1, 9.0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0], ids=["full", "copy"])
    def test_a_nan_score_is_refused_on_both_paths(self, fraction, monkeypatch):
        cleared = []
        original = KNNGraph.cleared

        def spied(graph, rows):
            cleared.append(len(rows))
            return original(graph, rows)

        def poisoned(*args):
            scores = score(*args)
            scores[:1] = np.nan
            return scores

        score = iteration_module.score_tuples
        monkeypatch.setattr(KNNGraph, "cleared", spied)
        monkeypatch.setattr(iteration_module, "_COPY_FORWARD_FRACTION", fraction)
        profiles = _profiles("dense")
        with KNNEngine(profiles, _config()) as engine:
            _warm(engine, _feed("dense", profiles, 4, 3))
            cleared.clear()
            monkeypatch.setattr(iteration_module, "score_tuples", poisoned)
            with pytest.raises(ValueError, match="NaN-free"):
                engine.run_iteration()
        assert bool(cleared) == (fraction == 1.0)


class TestRowRestrictedEdgeDelta:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_full_edge_delta(self, data):
        """``advance(rows=...)`` reads only those sources' edges: with every
        other row unchanged, the table and patch are the full delta's."""
        n = data.draw(st.integers(min_value=3, max_value=10))
        k = data.draw(st.integers(min_value=1, max_value=3))
        direct = data.draw(st.booleans())

        def row(v):
            return data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)
                                     .filter(lambda u: u != v), max_size=k))

        old_rows = [row(v) for v in range(n)]
        moved = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
        new_rows = [row(v) if v in moved else old_rows[v] for v in range(n)]
        old, new = ([s * n + d for s, ds in enumerate(rows) for d in sorted(ds)]
                    for rows in (old_rows, new_rows))
        old, new = (np.asarray(keys, dtype=np.int64) for keys in (old, new))
        assignment = np.arange(n) % 2
        csr = CSRDiGraph.from_sorted_keys(n, old)
        table = generate_candidate_tuples(csr, build_partitions(csr, assignment, 2),
                                          assignment, include_direct_edges=direct)
        carried = Phase4ScoreCache()
        carried.merge(table.keys, np.zeros(len(table)), "cosine", 0, n,
                      graph=(csr, old, table))
        new_csr = CSRDiGraph.from_sorted_keys(n, new)
        (table, patch), (full_table, full_patch) = (
            carried.advance(new_csr, new, assignment, direct,
                            max_moved=float("inf"), rows=rows)
            for rows in (np.asarray(moved, dtype=np.int64), None))
        np.testing.assert_array_equal(table.keys, full_table.keys)
        np.testing.assert_array_equal(table.multiplicities, full_table.multiplicities)
        for got, want in zip(patch, full_patch):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_advancing_over_the_merged_rows_equals_advancing_over_all(self, kind):
        with mock.patch.object(iteration_module, "_COPY_FORWARD_FRACTION", 1.0), \
                KNNEngine(_profiles(kind), _config()) as engine:
            result = _warm(engine, _feed(kind, _profiles(kind), 4, 3))
            carried = engine._iteration_runner.score_cache
            assert carried.merged_rows is not None
            assert len(carried.merged_rows) < USERS
            keys = engine.graph.edge_keys()
            csr = engine.graph.to_csr(keys)
            both = [carried.advance(csr, keys, result.assignment, True,
                                    max_moved=float("inf"), rows=rows)
                    for rows in (carried.merged_rows, None)]
        (table, patch), (full_table, full_patch) = both
        np.testing.assert_array_equal(table.keys, full_table.keys)
        np.testing.assert_array_equal(table.multiplicities, full_table.multiplicities)
        assert table.bucket_sizes() == full_table.bucket_sizes()
        for got, want in zip(patch, full_patch):
            np.testing.assert_array_equal(got, want)
