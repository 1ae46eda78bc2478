"""Tests for repro.pigraph.scheduler."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.datasets import small_dataset
from repro.graph.digraph import CSRDiGraph
from repro.partition.model import partition_layout
from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.scheduler import (
    compare_heuristics,
    count_load_unload_operations,
    plan_dirty_schedule,
    plan_schedule,
    simulate_schedule,
)
from repro.pigraph.traversal import HEURISTICS, PAPER_HEURISTICS, get_heuristic
from repro.storage.memory_manager import MemoryBudget, PartitionCache
from repro.storage.partition_store import PartitionStore


@pytest.fixture
def dataset_pi():
    return PIGraph.from_digraph(small_dataset(200, 1200, seed=31))


class TestSimulateSchedule:
    def test_loads_equal_unloads_when_flushed(self, dataset_pi):
        steps = plan_schedule(dataset_pi, "sequential")
        result = simulate_schedule(steps, "sequential", dataset_pi.num_partitions)
        assert result.loads == result.unloads
        assert result.load_unload_operations == result.loads + result.unloads

    def test_no_final_flush(self, dataset_pi):
        steps = plan_schedule(dataset_pi, "sequential")
        result = simulate_schedule(steps, unload_at_end=False)
        assert result.unloads < result.loads
        assert len(result.final_resident) <= 2

    def test_tuples_scheduled_matches_total_weight(self, dataset_pi):
        steps = plan_schedule(dataset_pi, "degree-low-high")
        result = simulate_schedule(steps)
        assert result.tuples_scheduled == dataset_pi.total_weight

    def test_cache_hits_counted(self):
        pi = PIGraph(3)
        pi.add_edge(0, 1)
        pi.add_edge(1, 0)
        steps = plan_schedule(pi, "sequential")
        result = simulate_schedule(steps)
        # both directions between 0 and 1 are grouped in one step, so only 2 loads
        assert result.loads == 2

    def test_step_larger_than_cache_rejected(self, dataset_pi):
        steps = plan_schedule(dataset_pi, "sequential")
        with pytest.raises(ValueError):
            simulate_schedule(steps, cache_slots=1)

    def test_self_edge_needs_single_partition(self):
        pi = PIGraph(2)
        pi.add_edge(0, 0, 3)
        steps = plan_schedule(pi, "sequential")
        result = simulate_schedule(steps, cache_slots=2)
        assert result.loads == 1
        assert result.unloads == 1

    def test_as_dict_keys(self, dataset_pi):
        result = count_load_unload_operations(dataset_pi, "sequential")
        data = result.as_dict()
        assert data["load_unload_operations"] == result.load_unload_operations
        assert data["heuristic"] == "sequential"


class TestHeuristicComparison:
    def test_degree_heuristics_beat_sequential(self, dataset_pi):
        results = compare_heuristics(dataset_pi, list(PAPER_HEURISTICS))
        seq = results["sequential"].load_unload_operations
        assert results["degree-high-low"].load_unload_operations < seq
        assert results["degree-low-high"].load_unload_operations < seq

    def test_greedy_resident_extension_is_best(self, dataset_pi):
        results = compare_heuristics(
            dataset_pi, ["sequential", "degree-low-high", "greedy-resident"])
        assert (results["greedy-resident"].load_unload_operations
                <= results["degree-low-high"].load_unload_operations)

    def test_all_heuristics_schedule_all_tuples(self, dataset_pi):
        results = compare_heuristics(dataset_pi, list(PAPER_HEURISTICS))
        for result in results.values():
            assert result.tuples_scheduled == dataset_pi.total_weight

    def test_more_cache_slots_never_hurt(self, dataset_pi):
        two = count_load_unload_operations(dataset_pi, "sequential", cache_slots=2)
        four = count_load_unload_operations(dataset_pi, "sequential", cache_slots=4)
        assert four.load_unload_operations <= two.load_unload_operations

    def test_accepts_heuristic_instance(self, dataset_pi):
        result = count_load_unload_operations(dataset_pi, get_heuristic("sequential"))
        assert result.heuristic == "sequential"


class TestPlanDirtySchedule:
    """``plan_dirty_schedule`` is a pure function of its two inputs.

    The dirty planner feeds phase 4's step skipping, so any hidden state —
    wall clock, iteration order of a set, ambient randomness — would make
    re-plans or resumed runs disagree about *which* steps skip.  The
    property suite pins: executed + cached is always a permutation of the
    input with the dirty steps first, a step is executed exactly when one
    of its partitions is dirty, relative order is preserved within each
    class, replanning (with the dirty set presented in any order)
    reproduces the plan verbatim, and ``None`` executes every step in
    input order.
    """

    @staticmethod
    def _steps(pairs):
        # plan_dirty_schedule only unpacks (first, second, _); the edge
        # payload rides along untouched, so a sentinel per step lets the
        # permutation check track identity
        return [(first, second, (f"edges-{index}",))
                for index, (first, second) in enumerate(pairs)]

    @settings(max_examples=120, deadline=None)
    @given(
        num_partitions=st.integers(min_value=1, max_value=8),
        pair_seed=st.integers(min_value=0, max_value=2**16),
        num_steps=st.integers(min_value=0, max_value=24),
        dirty_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_plan_is_a_pure_classification(self, num_partitions, pair_seed,
                                           num_steps, dirty_fraction):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(rng.integers(0, num_partitions, size=2))
                 for _ in range(num_steps)]
        steps = self._steps(pairs)
        dirty = [p for p in range(num_partitions)
                 if rng.random() < dirty_fraction]

        plan = plan_dirty_schedule(steps, dirty)
        # permutation: every input step appears exactly once, by identity
        assert sorted(map(id, plan.executed + plan.cached)) == sorted(
            map(id, steps))
        # dirty steps first: a step executes exactly when it is dirty
        dirty_set = set(dirty)
        flags = [first in dirty_set or second in dirty_set
                 for first, second, _ in plan.executed + plan.cached]
        assert flags == [True] * len(plan.executed) + [False] * len(plan.cached)
        # relative order within each class follows the input order
        order = {id(step): index for index, step in enumerate(steps)}
        for sequence in (plan.executed, plan.cached):
            positions = [order[id(step)] for step in sequence]
            assert positions == sorted(positions)
        # deterministic replan, regardless of how the dirty set is presented
        replan = plan_dirty_schedule(steps, reversed(dirty))
        assert replan.executed == plan.executed
        assert replan.cached == plan.cached

    @settings(max_examples=40, deadline=None)
    @given(pair_seed=st.integers(min_value=0, max_value=2**16))
    def test_unknown_inputs_assume_all_dirty_in_input_order(self, pair_seed):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(sorted(rng.integers(0, 4, size=2))) for _ in range(10)]
        steps = self._steps(pairs)
        plan = plan_dirty_schedule(iter(steps), None)
        assert plan.executed == steps          # original order, untouched
        assert plan.cached == []

    def test_every_clean_step_is_cached_in_plan_order(self):
        """No third class: a clean pair goes to ``cached`` whatever the
        score cache holds for it — phase 4's join decides what it scores."""
        steps = self._steps([(0, 1), (2, 3), (2, 2), (0, 3)])
        plan = plan_dirty_schedule(steps, [0])
        assert plan.executed == [steps[0], steps[3]]
        assert plan.cached == [steps[1], steps[2]]


def _sentinel_steps(pairs):
    # empty edge payloads keep simulate_schedule's weight sum happy; each
    # step is still a distinct tuple object, so the permutation checks can
    # track identity through id()
    return [(first, second, ()) for first, second in pairs]


class TestSimulateVersusPartitionCache:
    """``simulate_schedule`` against the executor it claims to predict.

    The module docstring promises "the simulated and executed counts
    agree"; the executor is :class:`PartitionCache` as phase 4 drives it —
    priced by a store, drawing on a budget, ``acquire_pair`` over the same
    step sequence.  The simulator walks a bare cache of its own, so these
    tests pin that charging never changes the walk, with the
    exact-``cache_slots``-boundary regression pinned explicitly: a step's
    load must not evict the step's *own* resident partner (which
    ``acquire_pair`` pre-touches), inventing one spurious load+unload per
    occurrence.
    """

    @staticmethod
    def _drive_real_cache(pairs, cache_slots, unload_at_end):
        """Loads, unloads and step hits of a charging PartitionCache over
        ``pairs``: partition ``p`` holds vertex ``p`` and its one out-edge."""
        num_partitions = 1 + max((p for pair in pairs for p in pair), default=0)
        graph = CSRDiGraph.from_edges(
            num_partitions,
            [(v, (v + 1) % num_partitions) for v in range(num_partitions)])
        store = PartitionStore(disk_model="ssd")
        store.replace_all(
            graph, partition_layout(np.arange(num_partitions), num_partitions),
            profile_bytes_per_user=64)
        cache = PartitionCache(store, max_resident=cache_slots,
                               memory_budget=MemoryBudget(1 << 20))
        hits = sum(cache.acquire_pair(first, second) for first, second in pairs)
        if unload_at_end:
            cache.flush()
        return (cache.io_stats.partition_loads,
                cache.io_stats.partition_unloads, hits)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_partitions=st.integers(min_value=1, max_value=6),
        cache_slots=st.integers(min_value=2, max_value=4),
        num_steps=st.integers(min_value=0, max_value=20),
        pair_seed=st.integers(min_value=0, max_value=2**16),
        unload_at_end=st.booleans(),
    )
    def test_simulated_counts_match_executed_counts(self, num_partitions,
                                                    cache_slots, num_steps,
                                                    pair_seed, unload_at_end):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(int(p) for p in rng.integers(0, num_partitions, size=2))
                 for _ in range(num_steps)]
        result = simulate_schedule(_sentinel_steps(pairs),
                                   cache_slots=cache_slots,
                                   unload_at_end=unload_at_end)
        loads, unloads, hits = self._drive_real_cache(pairs, cache_slots,
                                                      unload_at_end)
        assert result.loads == loads
        assert result.unloads == unloads
        assert result.cache_hits == hits

    def test_partner_eviction_regression_pinned(self):
        """(0,1),(0,2),(3,0) at exactly two slots: after (0,2) leaves
        [0, 2] resident with 0 at the LRU position, step (3, 0)'s load of
        3 must evict 2 — not the step's own partner 0."""
        steps = _sentinel_steps([(0, 1), (0, 2), (3, 0)])
        result = simulate_schedule(steps, cache_slots=2, unload_at_end=False)
        assert result.loads == 4       # 0, 1, 2, 3 — each loaded once
        assert result.unloads == 2     # 1 then 2 evicted; never partner 0
        assert set(result.final_resident) == {0, 3}
        loads, unloads, hits = self._drive_real_cache(
            [(0, 1), (0, 2), (3, 0)], cache_slots=2, unload_at_end=False)
        assert (loads, unloads, hits) == (4, 2, 0)

    def test_boundary_final_flush_accounting(self):
        """With the final flush every load is eventually unloaded."""
        steps = _sentinel_steps([(0, 1), (0, 2), (3, 0)])
        result = simulate_schedule(steps, cache_slots=2, unload_at_end=True)
        assert result.loads == result.unloads == 4
        # snapshot before the flush, LRU-first (0 was touched last)
        assert result.final_resident == (3, 0)

    def test_repeated_pair_is_all_hits_at_boundary(self):
        steps = _sentinel_steps([(0, 1)] * 5)
        result = simulate_schedule(steps, cache_slots=2, unload_at_end=False)
        assert result.loads == 2
        assert result.unloads == 0
        assert result.cache_hits == 4


class TestStepAtATimeWalk:
    """Phase 4 walks the plan one step at a time through the two-slot cache.

    The properties that walk leans on: a step's pair is resident while it
    runs and nothing else is, a budget of two residencies is all it ever
    needs, the plan it walks is the same on every re-plan, and the edge
    shapes — one partition, no step — cost what they should.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        num_partitions=st.integers(min_value=1, max_value=8),
        num_steps=st.integers(min_value=0, max_value=30),
        pair_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_each_step_runs_with_its_pair_resident_and_no_third(
            self, num_partitions, num_steps, pair_seed):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(int(p) for p in rng.integers(0, num_partitions, size=2))
                 for _ in range(num_steps)]
        cache = PartitionCache(max_resident=2)
        for first, second in pairs:
            cache.acquire_pair(first, second)
            resident = cache.resident_ids
            assert {first, second} <= set(resident)
            assert len(resident) <= 2
        assert (cache.io_stats.partition_loads
                == simulate_schedule(_sentinel_steps(pairs)).loads)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        num_partitions=st.integers(min_value=2, max_value=6),
        num_steps=st.integers(min_value=1, max_value=20),
        pair_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_two_residencies_are_exactly_the_budget_the_walk_needs(
            self, num_partitions, num_steps, pair_seed):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(int(p) for p in rng.choice(num_partitions, size=2,
                                                  replace=False))
                 for _ in range(num_steps)]
        # partition p holds vertex p and its one out-edge: equal sizes
        graph = CSRDiGraph.from_edges(
            num_partitions,
            [(v, (v + 1) % num_partitions) for v in range(num_partitions)])
        store = PartitionStore(disk_model="instant")
        store.replace_all(
            graph, partition_layout(np.arange(num_partitions), num_partitions),
            profile_bytes_per_user=64)
        one = store.read_partition(0)
        fits = MemoryBudget(2 * one)
        cache = PartitionCache(store, memory_budget=fits)
        for first, second in pairs:
            cache.acquire_pair(first, second)
        cache.flush()
        assert fits.peak_bytes == 2 * one
        assert fits.available_bytes == fits.capacity_bytes
        short = PartitionCache(store, memory_budget=MemoryBudget(2 * one - 1))
        with pytest.raises(MemoryError):
            short.acquire_pair(*pairs[0])

    @pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
    def test_replanning_walks_the_same_steps(self, dataset_pi, heuristic):
        """The plan is a function of the PI graph alone, not of the order
        its edges were added in."""
        rebuilt = PIGraph(dataset_pi.num_partitions)
        for edge in reversed(dataset_pi.edges()):
            rebuilt.add_edge(edge.src, edge.dst, edge.weight)
        first = plan_schedule(dataset_pi, heuristic)
        assert plan_schedule(dataset_pi, heuristic) == first
        assert plan_schedule(rebuilt, heuristic) == first

    def test_one_partition_is_loaded_once(self):
        """Every step (p, p): one load, the rest hits, one final unload."""
        result = simulate_schedule(_sentinel_steps([(0, 0)] * 5))
        assert (result.loads, result.unloads, result.cache_hits) == (1, 1, 4)
        assert result.final_resident == (0,)

    def test_no_step_costs_nothing(self):
        result = simulate_schedule([])
        assert result.num_steps == 0
        assert result.load_unload_operations == 0
        assert result.cache_hits == 0
        assert result.final_resident == ()
