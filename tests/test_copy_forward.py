"""The copy-forward wall.

When phase 4's input *is* the graph it produced last and ``H`` was advanced
on the positional join, ``G(t+1)`` re-merges only the sources whose ranked
top-K the iteration's fresh scores and deleted keys can move
(:meth:`KNNGraph.movable_rows`) and copies every other row of ``G(t)``
forward; the next edge delta reads only the rows re-merged.  A row's top-K
is a pure function of its candidates' keys and scores, so the result must
be byte-identical to the full merge: here against twins with
``_COPY_FORWARD_FRACTION`` patched to 0 (never copy forward) and to 1
(always), across the fallbacks that must take the full merge, at the
constant's edge, through an aborted phase 4, in named threshold cases that
rewrite fresh scores just before the merge, and with the row-restricted
edge delta against the full one.  Every case checks which path ran:
``score_cache.merged_rows`` is ``None`` after a full merge and the
re-merged rows after a copy-forward — always among the sources with a
changed candidate, which the harness reads off the key arrays and the
store's delta history rather than phase 4's own decode.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import iteration as iteration_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import OutOfCoreIteration, Phase4ScoreCache
from repro.graph.digraph import CSRDiGraph
from repro.graph.knn_graph import KNNGraph
from repro.partition.model import build_partitions
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.testing import FaultPlan, InjectedCrash
from repro.tuples.generator import generate_candidate_tuples
from legacy_graph import legacy_random_graph

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


def _recording_changes(seen):
    """Patch phase 4's back end to append, each iteration, the sources with
    a changed candidate: a key of ``H`` that arrived or left since the
    carried scores, or one with an endpoint the store reports touched since
    their generation (``None`` when nothing is carried)."""
    original = OutOfCoreIteration._finish_phase4

    def recording(self, run, graph, table):
        cache, changed = self.score_cache, None
        touched = (None if cache.keys is None
                   else self._profile_store.touched_rows_since(cache.generation))
        if touched is not None:
            sources, destinations = np.divmod(table.keys, USERS)
            moved = np.setxor1d(cache.keys, table.keys, assume_unique=True)
            hit = np.isin(sources, touched) | np.isin(destinations, touched)
            changed = np.union1d(moved // USERS, sources[hit]).tolist()
        seen.append(changed)
        return original(self, run, graph, table)

    return mock.patch.object(OutOfCoreIteration, "_finish_phase4", recording)


def _run(fraction, kind="dense", iterations=10, churn=4, seed=3,
         serving=False, initial_graph=None,
         rebuild=iteration_module._DELTA_REBUILD_FRACTION, **overrides):
    """Per iteration: the graph's rows, the rows re-merged (``None``: a full
    merge), whether the iteration could copy forward at all (``H`` advanced
    on the positional join of the graph produced last) and the sources with
    a changed candidate.  Phase 2 advances ``H`` while at most
    ``rebuild · n·k`` edges moved."""
    profiles = _profiles(kind)
    feed = _feed(kind, profiles, churn, seed)
    observed, changed = [], []
    with mock.patch.multiple(iteration_module, _COPY_FORWARD_FRACTION=fraction,
                             _DELTA_REBUILD_FRACTION=rebuild), \
            _recording_changes(changed), \
            KNNEngine(profiles, _config(**overrides),
                      initial_graph=initial_graph) as engine:
        for iteration in range(iterations):
            engine.enqueue_profile_changes(feed(iteration))
            result = engine.run_iteration(updates_first=serving)
            observed.append((_rows(engine.graph), _merged(engine),
                             iteration > 0 and not result.candidates_rebuilt
                             and not result.full_rescore, changed[-1]))
    return observed


def _assert_paths(observed, fraction, always):
    """``observed`` produced the graphs of the always-copy twin ``always``
    and took the path ``fraction`` picks for the movable rows that twin
    re-merged, each among the sources with a changed candidate."""
    for (rows, merged, _, _), (expected, movable, eligible, changed) in zip(
            observed, always):
        assert rows == expected
        assert (movable is not None) == eligible
        copies = movable is not None and len(movable) <= fraction * USERS
        assert (merged is not None) == copies
        if copies:
            assert merged == movable
        if movable is not None:
            assert set(movable) <= set(changed)


class TestTwins:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kind=st.sampled_from(["dense", "sparse"]), serving=st.booleans(),
           direct=st.booleans(), churn=st.integers(min_value=1, max_value=24),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_never_and_always_copying_forward_agree(self, kind, serving, direct,
                                                    churn, seed):
        """The threshold wall: dense / sparse × paper / serving order ×
        ``include_direct_edges``, byte-identical at fractions 0, the fitted
        constant and 1, re-merging only sources with a changed candidate."""
        # without G(t)'s own edges as candidates ~40 % of the edges move
        # every iteration, over the rebuild threshold: advance H anyway
        same = dict(kind=kind, churn=churn, seed=seed, serving=serving,
                    include_direct_edges=direct,
                    rebuild=iteration_module._DELTA_REBUILD_FRACTION if direct else 1.0)
        always = _run(1.0, **same)
        # a draw whose every iteration rebuilds H has nothing to copy: all
        # three twins take the full merge.  Skip it rather than fail; a
        # regression that made nothing eligible trips hypothesis's filter
        # health check, and test_the_constant_takes_both_paths pins that
        # copy-forward engages
        assume(any(eligible for _, _, eligible, _ in always))
        for fraction in (0.0, FRACTION):
            _assert_paths(_run(fraction, **same), fraction, always)

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_the_constant_takes_both_paths(self, kind):
        """Light churn copies forward at the fitted constant, heavy churn
        falls back to the full merge, and both match the never-copy twin.
        In between, sources with a changed candidate pass the constant on
        every iteration but the rows that can move stay under it: the share
        that counts is theirs.  Churn 16 lands in between on the per-vertex
        G(0) draw of the config's seed, so the runs start from that graph."""
        initial = legacy_random_graph(USERS, 5, 17)
        for churn in (2, 16, 80):
            always = _run(1.0, kind, churn=churn, initial_graph=initial)
            fitted = _run(FRACTION, kind, churn=churn, initial_graph=initial)
            _assert_paths(fitted, FRACTION, always)
            _assert_paths(_run(0.0, kind, churn=churn, initial_graph=initial),
                          0.0, always)
            copied = [merged is not None for _, merged, _, _ in fitted]
            assert any(copied) == (churn < 80)
            if churn == 16:
                eligible = [(merged, changed) for _, merged, eligible, changed
                            in fitted if eligible]
                assert eligible and all(
                    merged is not None and len(changed) > FRACTION * USERS
                    for merged, changed in eligible)


class TestFallbacks:
    """An input that is not the graph phase 4 produced, or an ``H`` not
    advanced on the positional join, takes the full merge."""

    def test_an_initial_graph(self):
        initial = KNNGraph.random(USERS, 5, seed=99)
        always = _run(1.0, initial_graph=initial)
        assert always[0][1] is None
        assert any(merged is not None for _, merged, _, _ in always)
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
        assert [merged for _, merged, _, _ in observed] == [None] * len(observed)
        if "max_pairs_per_bridge" in overrides:
            # the truncation is not additive: H is rebuilt every iteration
            assert observed == _run(0.0, **overrides)
            return
        # the same graphs as an uncapped engine, which copies forward
        uncapped = _run(1.0)
        assert any(merged is not None for _, merged, _, _ in uncapped)
        assert ([rows for rows, _, _, _ in observed]
                == [rows for rows, _, _, _ in uncapped])


class TestEdges:
    def test_a_share_at_the_constant_copies_and_one_row_over_does_not(self):
        """The constant bounds the movable rows' share, not the share of
        sources with a changed candidate, which is larger here."""
        always = _run(1.0)
        at, movable = next((index, movable) for index, (_, movable, _, changed)
                           in enumerate(always)
                           if movable is not None and len(movable) >= 2
                           and len(changed) > len(movable))
        exactly, under = len(movable) / USERS, (len(movable) - 1) / USERS
        assert exactly * USERS == len(movable)
        at_the_constant, one_row_over = _run(exactly), _run(under)
        assert at_the_constant[at][1] == movable and one_row_over[at][1] is None
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


def _ranked_bits(graph, v):
    """Row ``v`` as ``(neighbour, score bits)``: ``-0.0`` is not ``+0.0``."""
    return [(u, np.float64(s).view(np.uint64)) for u, s in graph.ranked(v)]


def _top_k(n, k, candidates):
    """The graph a full merge makes of ``{key: score}`` (``src * n + dst``)."""
    keys = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
    graph = KNNGraph(n, k)
    graph.add_candidates_batch(keys // n, keys % n,
                               np.fromiter(candidates.values(), dtype=np.float64,
                                           count=len(candidates)),
                               assume_unique=True)
    return graph


#: few distinct values, so ties at the K-th entry, both zeros and -inf
#: (an entry, yet never above an under-full row's empty slot) are common
_SCORES = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0])


class TestMovableRows:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_a_row_it_does_not_name_is_the_full_merges(self, data):
        """``KNNGraph.movable_rows`` against a full merge of the changed
        multiset: every row it leaves out is byte-identical there, it names
        only sources with a changed candidate, and a NaN's row always."""
        n = data.draw(st.integers(min_value=2, max_value=7))
        k = data.draw(st.integers(min_value=1, max_value=4))
        pairs = st.integers(min_value=0, max_value=n * n - 1).filter(
            lambda key: key // n != key % n)
        before = data.draw(st.dictionaries(pairs, _SCORES))
        graph = _top_k(n, k, before)
        deleted = data.draw(st.sets(st.sampled_from(sorted(before)))
                            if before else st.just(set()))
        offered = data.draw(st.dictionaries(
            pairs.filter(lambda key: key not in deleted),
            _SCORES | st.just(np.nan)))
        after = {key: score for key, score in before.items() if key not in deleted}
        after.update(offered)

        keys = np.fromiter(offered, dtype=np.int64, count=len(offered))
        gone = np.fromiter(deleted, dtype=np.int64, count=len(deleted))
        movable = set(graph.movable_rows(
            keys // n, keys % n,
            np.fromiter(offered.values(), dtype=np.float64, count=len(offered)),
            (gone // n, gone % n)).tolist())
        assert movable <= {key // n for key in list(offered) + list(deleted)}
        refused = {key // n for key, score in offered.items() if np.isnan(score)}
        assert refused <= movable
        merged = _top_k(n, k, {key: score for key, score in after.items()
                               if key // n not in refused})
        for v in set(range(n)) - movable:
            assert _ranked_bits(merged, v) == _ranked_bits(graph, v)


class _Slots:
    """One phase 4's unanswered slots, seen from the rows of ``G(t)``: what
    the named cases rewrite just before ``G(t+1)`` is merged."""

    def __init__(self, graph, keys, scores, positions, carried):
        self.graph, self.scores, self.positions = graph, scores, positions
        self.sources, self.destinations = np.divmod(keys[positions], USERS)
        self.deleted = np.setdiff1d(carried, keys, assume_unique=True)
        self.before = _rows(graph)[0]

    def entries(self, v):
        return dict(self.graph.ranked(v))

    def kth(self, v):
        """``(neighbour, score)`` of row ``v``'s K-th entry."""
        return self.graph.ranked(v)[-1]

    def fresh(self, v, u):
        return self.scores[self._at(v, u)]

    def offer(self, v, u, score):
        self.scores[self._at(v, u)] = score

    def quiet(self, v):
        """Offer ``v``'s unanswered slots nothing that can move its row:
        every entry its own score bits, every other candidate less than
        the K-th entry's score."""
        entries, (_, weakest) = self.entries(v), self.kth(v)
        for u in self.destinations[self.sources == v].tolist():
            self.offer(v, u, entries.get(u, weakest - 1.0))

    def find(self, wanted, exclude=()):
        """The first unanswered ``(v, u)`` with a full row ``v`` that lost
        no key, and ``wanted(v, u)``."""
        lost = set((self.deleted // USERS).tolist()) | set(exclude)
        for v, u in zip(self.sources.tolist(), self.destinations.tolist()):
            if (v not in lost and len(self.before[v]) == self.graph.k
                    and wanted(v, u)):
                return v, u
        raise AssertionError("no unanswered slot of that kind")

    def _at(self, v, u):
        at, = self.positions[(self.sources == v) & (self.destinations == u)]
        return at


def _edited(edit, fraction=1.0, kind="dense", profiles=None, churn=4,
            initial_graph=None, touch=(),
            rebuild=iteration_module._DELTA_REBUILD_FRACTION, **overrides):
    """Warm an engine, apply the changes ``touch``, then run one more
    iteration in which ``edit`` rewrites unanswered fresh scores through a
    :class:`_Slots` just before ``G(t+1)`` is merged.  Returns the neighbour
    lists of ``G(t)``, ``G(t+1)`` itself, the rows re-merged and what
    ``edit`` returned."""
    profiles = _profiles(kind) if profiles is None else profiles
    chosen, before = {}, []
    original = OutOfCoreIteration._finish_phase4

    def editing(self, run, graph, table):
        slots = _Slots(graph, table.keys, run.scores, run.positions,
                       self.score_cache.keys)
        before.append(slots.before)
        chosen.update(edit(slots))
        return original(self, run, graph, table)

    with mock.patch.multiple(iteration_module, _COPY_FORWARD_FRACTION=fraction,
                             _DELTA_REBUILD_FRACTION=rebuild), \
            KNNEngine(profiles, _config(**overrides),
                      initial_graph=initial_graph) as engine:
        _warm(engine, _feed(kind, profiles, churn, 3))
        engine.profile_store.apply_changes(list(touch))
        with mock.patch.object(OutOfCoreIteration, "_finish_phase4", editing):
            result = engine.run_iteration()
        assert not (result.candidates_rebuilt or result.full_rescore)
        return before[0], engine.graph, _merged(engine), chosen


def _assert_twins(edit, **same):
    """The edited iteration copies forward at fraction 1, merges in full at
    0, and both make the same ``G(t+1)``.  Returns the copying run's
    ``(G(t) rows, G(t+1), rows re-merged, what edit returned)``."""
    before, graph, merged, chosen = _edited(edit, 1.0, **same)
    _, never, full, _ = _edited(edit, 0.0, **same)
    assert merged is not None and full is None
    assert _rows(graph) == _rows(never)
    return before, graph, merged, chosen


class TestNamedThresholdCases:
    """One row each, its unanswered slots rewritten so that exactly one of
    the conditions of :meth:`KNNGraph.movable_rows` decides it."""

    def test_a_tie_at_the_kth_entry(self):
        """Offered the K-th entry's score, a lower destination ranks above
        it and takes its slot; a higher one ranks below and changes
        nothing."""
        def edit(slots):
            def non_entry(side):
                return lambda v, u: (u not in slots.entries(v)
                                     and side(u, slots.kth(v)[0]))
            low = slots.find(non_entry(lambda u, last: u < last))
            high = slots.find(non_entry(lambda u, last: u > last),
                              exclude=[low[0]])
            for v, u in (low, high):
                slots.quiet(v)
                slots.offer(v, u, slots.kth(v)[1])
            return {"low": low, "high": high}

        before, graph, merged, chosen = _assert_twins(edit)
        (low, entering), (high, _) = chosen["low"], chosen["high"]
        assert low in merged and high not in merged
        assert set(graph.neighbors(low)) == set(before[low][:-1]) | {entering}
        assert graph.neighbors(high) == before[high]

    def test_an_under_full_row(self):
        """Users 0 and 1 hold only each other and no one holds them, so
        their rows stay under K.  Touched, each is rescored to the very bits
        it holds: the under-full rows re-merge, a full row rescored alike is
        copied."""
        rng = np.random.default_rng(5)
        lists = [[(1, 0.0)], [(0, 0.0)]] + [
            [(int(u), 0.0) for u in rng.choice(
                np.setdiff1d(np.arange(2, USERS), [v]), size=5, replace=False)]
            for v in range(2, USERS)]
        touch = [ProfileChange(user=0, kind="set", vector=np.ones(DIM))]

        def edit(slots):
            for v, u in ((0, 1), (1, 0)):
                slots.offer(v, u, slots.entries(v)[u])
            full, _ = slots.find(lambda v, u: u in slots.entries(v))
            slots.quiet(full)
            return {"full": full}

        before, graph, merged, chosen = _assert_twins(
            edit, initial_graph=KNNGraph.from_neighbor_lists(lists, 5),
            touch=touch)
        assert before[:2] == [[1], [0]]
        assert {0, 1} <= set(merged) and chosen["full"] not in merged
        assert [graph.neighbors(0), graph.neighbors(1)] == [[1], [0]]

    def test_an_entry_rescored_to_the_same_bits_is_copied(self):
        def edit(slots):
            v, _ = slots.find(lambda v, u: u in slots.entries(v))
            slots.quiet(v)
            return {"row": v}

        before, graph, merged, chosen = _assert_twins(edit)
        assert chosen["row"] not in merged
        assert graph.neighbors(chosen["row"]) == before[chosen["row"]]

    def test_an_entry_rescored_from_plus_to_minus_zero_re_merges(self):
        """``-0.0 == +0.0`` and the two rank alike, but the row stores the
        bits: compared by ``==``, the row would be copied with the stale
        ``+0.0``, and ``G(t+1)`` would differ from the full merge's."""
        # three items of 3,000 a user: many candidates share none, and a
        # few rows hold a Jaccard score of +0.0
        profiles = generate_sparse_profiles(USERS, 3000, items_per_user=3,
                                            num_communities=4, seed=7)

        def edit(slots):
            v, u = slots.find(lambda v, u: slots.entries(v).get(u) == 0.0
                              and not np.signbit(slots.entries(v)[u]))
            slots.quiet(v)
            slots.offer(v, u, -0.0)
            return {"row": v, "entry": u}

        before, graph, merged, chosen = _assert_twins(
            edit, kind="sparse", profiles=profiles)
        row, entry = chosen["row"], chosen["entry"]
        assert row in merged
        assert graph.neighbors(row) == before[row]
        assert np.signbit(graph.neighbor_scores(row)[entry])

    def test_a_deleted_entry_re_merges_and_a_deleted_non_entry_does_not(self):
        """Without ``G(t)``'s own edges among the candidates an entry can
        leave ``H``; with them it cannot, so only this shape has the case."""
        def edit(slots):
            lost = {}
            for key in slots.deleted.tolist():
                v, u = divmod(key, USERS)
                lost.setdefault(v, []).append(u in slots.entries(v))
            entry = next(v for v, kinds in lost.items()
                         if any(kinds) and len(slots.before[v]) == 5)
            other = next(v for v, kinds in lost.items()
                         if not any(kinds) and len(slots.before[v]) == 5)
            for v in (entry, other):
                slots.quiet(v)
            return {"entry": entry, "other": other}

        before, graph, merged, chosen = _assert_twins(
            edit, include_direct_edges=False, rebuild=1.0)
        assert chosen["entry"] in merged and chosen["other"] not in merged
        assert graph.neighbors(chosen["other"]) == before[chosen["other"]]

    def test_a_nan_on_a_non_entry_that_would_not_rank_is_refused(self, monkeypatch):
        cleared, chosen = [], {}
        original = KNNGraph.cleared

        def spied(graph, rows):
            cleared.append(rows.tolist())
            return original(graph, rows)

        def edit(slots):
            v, u = slots.find(lambda v, u: u not in slots.entries(v)
                              and slots.fresh(v, u) < slots.kth(v)[1])
            slots.quiet(v)
            slots.offer(v, u, np.nan)
            cleared.clear()
            chosen["row"] = v
            return {}

        monkeypatch.setattr(KNNGraph, "cleared", spied)
        for fraction in (1.0, 0.0):
            with pytest.raises(ValueError, match="NaN-free"):
                _edited(edit, fraction)
            assert bool(cleared) == (fraction == 1.0)
            if cleared:
                assert chosen["row"] in cleared[0]


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
