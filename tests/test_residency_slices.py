"""The residency-slice wall: a partition's profile slice is the residency's.

Phase 4's residency model (``_StepResidency``) loads a resident partition's
slice through the engine's own store the first time a step with tuples to
score needs it — that load is the read's one charge — and lets it go when
the partition cache evicts the partition or the walk ends; the kernel only
borrows the slices.  These tests pin, on budgeted engines with many
partitions, dense and sparse:

* ``load_users`` runs exactly once per partition residency that scores
  tuples, for that partition's vertices, and never for a step with nothing
  to score;
* no slice is held past its partition's eviction, or past phase 4;
* the engine opens exactly one ``OnDiskProfileStore`` per run.

Then the classification wall: a step the dirty plan expects the score cache
to answer, but which missed a few tuples, is settled off a row-level gather
when its distinct endpoints are at most a quarter of its pair's rows.  The
distinct endpoints are counted on a row mask, with no sort; a reference
copy of the rule they replaced (one ``np.unique`` of the endpoints' global
ids a step) must settle exactly the same steps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.iteration as iteration_module
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.pigraph.traversal import HEURISTICS
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore

Residency = iteration_module._StepResidency


def _profiles(kind, num_users, seed=3):
    if kind == "dense":
        return generate_dense_profiles(num_users, dim=8, num_communities=4,
                                       seed=seed)
    return generate_sparse_profiles(num_users, 200, items_per_user=10,
                                    num_communities=4, seed=seed)


def _changes(kind, rng, users):
    if kind == "dense":
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(8))
                for u in users]
    return [ProfileChange(user=int(u), kind="add", item=int(rng.integers(0, 200)))
            for u in users]


def _churned_run(kind, config, churn_sizes, seed, pool, serving=False):
    """An engine iterated once per churn size, each iteration after queueing
    that many changes to users drawn from ``range(pool)``; the results."""
    rng = np.random.default_rng(seed)
    results = []
    with KNNEngine(_profiles(kind, config.num_partitions * 50), config) as engine:
        for size in churn_sizes:
            users = rng.choice(pool, size=min(size, pool), replace=False)
            engine.enqueue_profile_changes(_changes(kind, rng, users))
            results.append(engine.run_iteration(updates_first=serving))
    return results


# -- the residency holds the slices ---------------------------------------------

class _Ledger:
    """Spies on every ``acquire`` and ``schedule`` of every residency, and
    checks each against a model of partition residencies kept from the
    partition cache's resident set alone."""

    def __init__(self, monkeypatch):
        self.residency = None
        self.scored = set()      # partitions whose current residency loaded
        self.loading = None      # the ids load_users got inside one acquire
        self.loads = self.empty_steps = self.flushes = 0
        acquire, schedule = Residency.acquire, Residency.schedule
        load_users = OnDiskProfileStore.load_users

        def spied_load(store, user_ids, **grouped):
            if self.loading is not None:
                self.loading.append(np.asarray(user_ids))
            return load_users(store, user_ids, **grouped)

        def spied_acquire(residency, step, batches):
            if residency is not self.residency:
                self.residency, self.scored = residency, set()
            before = set(residency._cache.resident_ids)
            self.loading = []
            try:
                slices = acquire(residency, step, batches)
            finally:
                loaded, self.loading = self.loading, None
            self._check(residency, step, batches, before, loaded, slices)
            return slices

        def spied_schedule(residency):
            executed = schedule(residency)
            assert residency._slices == {}, "a slice outlived phase 4"
            self.flushes += 1
            return executed

        monkeypatch.setattr(OnDiskProfileStore, "load_users", spied_load)
        monkeypatch.setattr(Residency, "acquire", spied_acquire)
        monkeypatch.setattr(Residency, "schedule", spied_schedule)

    def _check(self, residency, step, batches, before, loaded, slices):
        first, second, _ = step
        after = set(residency._cache.resident_ids)
        pair = (first,) if second == first else (first, second)
        # a partition evicted by this acquire, or loaded by it, starts a
        # residency that has not scored yet
        self.scored &= before & after
        expected = [pid for pid in pair if batches and pid not in self.scored]
        if batches:
            self.scored.update(pair)
        else:
            self.empty_steps += 1
        layout = residency._layout
        assert len(loaded) == len(expected)
        for ids, pid in zip(loaded, expected):
            np.testing.assert_array_equal(ids, layout.vertices(pid))
        self.loads += len(loaded)
        # the residency holds exactly the slices its residencies loaded
        assert set(residency._slices) == self.scored <= after
        assert len(slices) == (len(pair) if batches else 0)
        for piece, pid in zip(slices, pair):
            assert piece is residency._slices[pid]
            np.testing.assert_array_equal(piece.user_ids, layout.vertices(pid))


#: Twelve partitions, two or three resident, under a budget the walk fits.
BUDGETED = dict(k=6, num_partitions=12, heuristic="degree-low-high", seed=5,
                memory_budget_bytes=2_000_000)


class TestResidencySlices:

    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    @pytest.mark.parametrize("slots", [2, 3])
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_one_load_per_residency_that_scores(self, kind, slots, heuristic,
                                                monkeypatch):
        """Whichever order the heuristic walks the steps in."""
        ledger = _Ledger(monkeypatch)
        config = EngineConfig(**dict(BUDGETED, max_resident_partitions=slots,
                                     heuristic=heuristic))
        results = _churned_run(kind, config, [0, 6, 6, 6, 6, 6], seed=11,
                               pool=50)
        assert ledger.flushes == len(results)
        assert ledger.loads > 0
        # the charged reads: the partition files' plus one per slice load
        assert sum(r.io_stats.read_ops for r in results) >= ledger.loads

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_a_step_with_nothing_to_score_loads_no_slice(self, kind,
                                                         monkeypatch,
                                                         full_schedule):
        """On the full schedule every step is acquired, also those whose
        tuples the score cache answered in full: they load nothing."""
        ledger = _Ledger(monkeypatch)
        with full_schedule():
            results = _churned_run(kind, EngineConfig(**BUDGETED),
                                   [0, 4, 4, 4, 4, 4, 4], seed=13, pool=50)
        assert ledger.empty_steps > 0 and ledger.loads > 0
        assert ledger.flushes == len(results)

    def test_the_engine_opens_one_profile_store(self, monkeypatch):
        opened = []
        init = OnDiskProfileStore.__init__

        def counted(store, *args, **kwargs):
            opened.append(store)
            init(store, *args, **kwargs)

        monkeypatch.setattr(OnDiskProfileStore, "__init__", counted)
        config = EngineConfig(**BUDGETED)
        for kind in ("dense", "sparse"):
            opened.clear()
            _churned_run(kind, config, [0, 5, 5, 5], seed=17, pool=600)
            assert len(opened) == 1


# -- the sort-free classification ------------------------------------------------

def _reference_score_residual(self, run, step, batches, measure):
    """``_score_residual`` as it classified before the row mask: the
    distinct endpoints counted by one ``np.unique`` of their global ids."""
    first, second, _ = step
    layout = run.layout
    endpoints = np.concatenate(
        [layout.vertices(edge.src)[run.left_rows[lo:hi]]
         for edge, lo, hi in batches]
        + [layout.vertices(edge.dst)[run.right_rows[lo:hi]]
           for edge, lo, hi in batches])
    residual_users, rows = np.unique(endpoints, return_inverse=True)
    pair_span = layout.size(first) + (layout.size(second)
                                      if second != first else 0)
    if len(residual_users) * 4 > pair_span:
        return False
    residual_slice = self._profile_store.load_users(residual_users)
    half = len(rows) // 2
    fresh = iteration_module.score_tuples(residual_slice, rows[:half],
                                          residual_slice, rows[half:], measure)
    run.resolve(batches, fresh)
    run.steps_skipped += 1
    return True


def _classified(kind, churn_sizes, seed, pool, serving, reference):
    """The residual decisions ``(first, second, settled, crowded)`` — crowded:
    more endpoint rows than an eighth of the pair's rows, so only repeated
    endpoints can settle it — the steps that reached ``acquire``, and per
    iteration ``steps_skipped`` and the graph."""
    decisions, acquired = [], []
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            patch.setattr(iteration_module.OutOfCoreIteration,
                          "_score_residual", _reference_score_residual)
        classify = iteration_module.OutOfCoreIteration._score_residual
        acquire = Residency.acquire

        def spied_classify(self, run, step, batches, measure):
            first, second, _ = step
            rows = sum(hi - lo for _, lo, hi in batches)
            span = run.layout.size(first) + (run.layout.size(second)
                                             if second != first else 0)
            settled = classify(self, run, step, batches, measure)
            decisions.append((first, second, settled, 8 * rows > span))
            return settled

        def spied_acquire(residency, step, batches):
            acquired.append((step[0], step[1], len(batches)))
            return acquire(residency, step, batches)

        patch.setattr(iteration_module.OutOfCoreIteration, "_score_residual",
                      spied_classify)
        patch.setattr(Residency, "acquire", spied_acquire)
        results = _churned_run(kind, EngineConfig(
            k=6, num_partitions=6, heuristic="degree-low-high", seed=3),
            churn_sizes, seed, pool, serving)
    return (decisions, acquired, [r.steps_skipped for r in results],
            [r.graph.edge_fingerprint() for r in results])


class TestResidualClassification:

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(["dense", "sparse"]),
           serving=st.booleans(),
           churn_sizes=st.lists(st.integers(0, 8), min_size=6, max_size=9),
           seed=st.integers(0, 2**16),
           pool=st.sampled_from([50, 300]))
    def test_the_row_mask_settles_what_the_unique_rule_settled(
            self, kind, serving, churn_sizes, seed, pool):
        """Dense and sparse, the paper's order and the serving order, churn
        confined to one partition's users or spread over all: the same
        steps settle, the same steps reach ``acquire``, the same graphs."""
        assert (_classified(kind, churn_sizes, seed, pool, serving, False)
                == _classified(kind, churn_sizes, seed, pool, serving, True))

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    def test_both_outcomes_on_both_step_shapes(self, kind):
        """The wall's engines reach the rule both ways on steps inside one
        partition (``first == second``) and across two, and settle crowded
        steps whose endpoints repeat as well as sparse ones."""
        decisions, _, skipped, _ = _classified(kind, [0, 3, 3, 3, 3, 3, 3, 3],
                                               seed=5, pool=50, serving=False,
                                               reference=False)
        outcomes = {(first == second, settled)
                    for first, second, settled, _ in decisions}
        assert outcomes == {(True, True), (True, False), (False, True),
                            (False, False)}
        assert {(settled, crowded) for *_, settled, crowded in decisions} == {
            (True, True), (True, False), (False, True)}
        assert sum(skipped) >= sum(settled for _, _, settled, _ in decisions)
