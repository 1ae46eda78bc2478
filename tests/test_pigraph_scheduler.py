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
    plan_shard_schedule,
    simulate_schedule,
)
from repro.pigraph.traversal import PAPER_HEURISTICS, get_heuristic
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
    """``plan_dirty_schedule`` is a pure function of its four inputs.

    The dirty planner feeds phase 4's step skipping, so any hidden state —
    wall clock, iteration order of a set, ambient randomness — would make
    backends or resumed runs disagree about *which* steps skip.  The
    property suite pins: executed + cached is always a permutation of the
    input, classification follows the (dirty set, pair generations,
    cache generation) contract exactly, relative order is preserved within
    each class with dirty steps first, and replanning (with the dirty set
    presented in any order) reproduces the plan verbatim.
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
        scored_fraction=st.floats(min_value=0.0, max_value=1.0),
        cache_generation=st.integers(min_value=0, max_value=5),
        stale_generation=st.integers(min_value=0, max_value=5),
    )
    def test_plan_is_a_pure_classification(self, num_partitions, pair_seed,
                                           num_steps, dirty_fraction,
                                           scored_fraction, cache_generation,
                                           stale_generation):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(rng.integers(0, num_partitions, size=2))
                 for _ in range(num_steps)]
        steps = self._steps(pairs)
        dirty = [p for p in range(num_partitions)
                 if rng.random() < dirty_fraction]
        pair_generations = {}
        for first, second in pairs:
            key = (first, second) if first <= second else (second, first)
            pair_generations[key] = (cache_generation
                                     if rng.random() < scored_fraction
                                     else stale_generation)

        plan = plan_dirty_schedule(steps, dirty, pair_generations,
                                   cache_generation)
        assert not plan.assume_all_dirty
        # permutation: every input step appears exactly once, by identity
        assert sorted(map(id, plan.executed + plan.cached)) == sorted(
            map(id, steps))
        dirty_set = set(dirty)
        for step in plan.cached:
            first, second, _ = step
            key = (first, second) if first <= second else (second, first)
            assert first not in dirty_set and second not in dirty_set
            assert pair_generations[key] == cache_generation
        # dirty-first: once the executed list goes clean it stays clean
        flags = [first in dirty_set or second in dirty_set
                 for first, second, _ in plan.executed]
        assert flags == sorted(flags, reverse=True)
        # relative order within each class follows the input order
        order = {id(step): index for index, step in enumerate(steps)}
        dirty_part = [s for s in plan.executed
                      if s[0] in dirty_set or s[1] in dirty_set]
        clean_part = [s for s in plan.executed
                      if s[0] not in dirty_set and s[1] not in dirty_set]
        for sequence in (dirty_part, clean_part, plan.cached):
            positions = [order[id(step)] for step in sequence]
            assert positions == sorted(positions)
        # deterministic replan, regardless of how the dirty set is presented
        replan = plan_dirty_schedule(steps, reversed(dirty), pair_generations,
                                     cache_generation)
        assert replan.executed == plan.executed
        assert replan.cached == plan.cached
        assert replan.dirty_partitions == plan.dirty_partitions
        assert plan.dirty_partitions == tuple(sorted(dirty_set))
        assert plan.num_steps == len(steps)

    @settings(max_examples=40, deadline=None)
    @given(pair_seed=st.integers(min_value=0, max_value=2**16),
           missing_generation=st.sampled_from(["dirty", "cache"]))
    def test_unknown_inputs_assume_all_dirty_in_input_order(self, pair_seed,
                                                            missing_generation):
        rng = np.random.default_rng(pair_seed)
        steps = self._steps([tuple(rng.integers(0, 4, size=2))
                             for _ in range(10)])
        dirty = None if missing_generation == "dirty" else [0, 1]
        generation = None if missing_generation == "cache" else 3
        plan = plan_dirty_schedule(steps, dirty, {}, generation)
        assert plan.assume_all_dirty
        assert plan.executed == steps          # original order, untouched
        assert plan.cached == []
        assert plan.dirty_partitions is None

    def test_unscored_clean_pairs_execute_after_dirty(self):
        steps = self._steps([(0, 1), (2, 3), (2, 2), (0, 3)])
        plan = plan_dirty_schedule(
            steps, [0], {(2, 3): 7, (2, 2): 5}, cache_generation=7)
        assert plan.executed == [steps[0], steps[3], steps[2]]
        assert plan.cached == [steps[1]]


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


class TestPlanShardSchedule:
    """``plan_shard_schedule`` is a pure function with four load-bearing
    properties: flattened waves are a permutation of the input, no two
    steps of one wave share a partition, each partition's steps keep their
    input order across waves, and replanning reproduces the coloring
    verbatim — the properties the shard coordinator's exclusive-ownership
    story and the serial-parity wall both lean on.
    """

    @settings(max_examples=120, deadline=None)
    @given(
        num_partitions=st.integers(min_value=1, max_value=8),
        num_steps=st.integers(min_value=0, max_value=30),
        pair_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_coloring_properties(self, num_partitions, num_steps, pair_seed):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(int(p) for p in rng.integers(0, num_partitions, size=2))
                 for _ in range(num_steps)]
        steps = _sentinel_steps(pairs)
        schedule = plan_shard_schedule(steps)

        # flattened waves are a permutation of the input, by identity
        flattened = [step for wave in schedule.waves for step in wave]
        assert sorted(map(id, flattened)) == sorted(map(id, steps))
        assert schedule.num_steps == len(steps)
        assert schedule.num_waves == len(schedule.waves)
        assert all(wave for wave in schedule.waves)  # no empty waves

        # wave-disjointness: no partition appears in two steps of one wave
        for wave in schedule.waves:
            owned = [p for first, second, _ in wave
                     for p in ({first} | {second})]
            assert len(owned) == len(set(owned))

        # per-partition step order is the input order (monotone wave index)
        position = {id(step): index for index, step in enumerate(steps)}
        for partition in range(num_partitions):
            mine = [step for step in flattened
                    if partition in (step[0], step[1])]
            assert ([position[id(step)] for step in mine]
                    == sorted(position[id(step)] for step in mine))

        # wave_of mirrors the wave structure
        for index, step in enumerate(steps):
            assert step in schedule.waves[schedule.wave_of[index]]

        # greedy tightness: every step past wave 0 is blocked by a step
        # sharing one of its partitions in the immediately preceding wave
        for wave_index in range(1, schedule.num_waves):
            previous = {p for first, second, _ in schedule.waves[wave_index - 1]
                        for p in (first, second)}
            for first, second, _ in schedule.waves[wave_index]:
                assert first in previous or second in previous

        # derived accounting is self-consistent
        assert schedule.max_wave_width == max(
            (len(wave) for wave in schedule.waves), default=0)
        residencies = sum(len(schedule.wave_partitions(i))
                          for i in range(schedule.num_waves))
        assert schedule.total_partition_residencies == residencies
        assert residencies <= 2 * len(steps)

    @settings(max_examples=40, deadline=None)
    @given(
        num_steps=st.integers(min_value=0, max_value=20),
        pair_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_replanning_is_deterministic(self, num_steps, pair_seed):
        rng = np.random.default_rng(pair_seed)
        pairs = [tuple(int(p) for p in rng.integers(0, 6, size=2))
                 for _ in range(num_steps)]
        steps = _sentinel_steps(pairs)
        first = plan_shard_schedule(steps)
        second = plan_shard_schedule(steps)
        assert first.wave_of == second.wave_of
        assert first.waves == second.waves

    def test_degenerate_single_partition_serialises(self):
        """Every step (p, p): no two can share a wave — one step per wave,
        in input order."""
        steps = _sentinel_steps([(0, 0)] * 5)
        schedule = plan_shard_schedule(steps)
        assert schedule.num_waves == 5
        assert schedule.waves == [[step] for step in steps]
        assert schedule.wave_of == (0, 1, 2, 3, 4)
        assert schedule.max_wave_width == 1
        assert schedule.total_partition_residencies == 5

    def test_empty_input_yields_zero_waves(self):
        schedule = plan_shard_schedule([])
        assert schedule.num_waves == 0
        assert schedule.num_steps == 0
        assert schedule.max_wave_width == 0
        assert schedule.total_partition_residencies == 0

    def test_disjoint_pairs_share_the_first_wave(self):
        steps = _sentinel_steps([(0, 1), (2, 3), (0, 2), (1, 3)])
        schedule = plan_shard_schedule(steps)
        assert schedule.wave_of == (0, 0, 1, 1)
        assert schedule.wave_partitions(0) == [0, 1, 2, 3]
