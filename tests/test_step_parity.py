"""The step-at-a-time parity wall.

Phase 4 executes its plan one residency step at a time — two partitions
resident, each of the step's PI edges scored by one ``score_tuples`` call
on the calling thread and the scores put in their slots of the score slab.
These tests check that the two reference paths (the full schedule, the
full rescore) and a partition-cache budget change no graph, no profile
byte and no load/unload count they should not; that every charged
residency is released; and score one step through ``score_tuples``
against a first-principles oracle that shares no slice code with it.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import score_tuples
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.memory_manager import MemoryBudget
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 120
DIM = 8


def _profiles(seed: int = 7):
    return generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=4,
                                   seed=seed)


def _config(**overrides):
    base = dict(k=5, num_partitions=4, heuristic="degree-low-high", seed=17)
    base.update(overrides)
    return EngineConfig(**base)


def _churn_feed(per_iteration, rng_seed: int, users_pool: int = NUM_USERS):
    rng = np.random.default_rng(rng_seed)

    def feed(iteration: int):
        count = per_iteration[iteration] if iteration < len(per_iteration) else 0
        if count == 0:
            return []
        users = rng.choice(users_pool, size=count, replace=False)
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(DIM))
                for u in users]

    return feed


def _observe(churn, context=contextlib.nullcontext, iterations: int = 4,
             **overrides):
    """Per-iteration fingerprints and load/unload counts, and the final
    profile bytes, of one churned run inside a fresh ``context()``."""
    with context(), KNNEngine(_profiles(), _config(**overrides)) as engine:
        run = engine.run(num_iterations=iterations, profile_change_feed=churn)
        dense = (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()
    for result in run.iterations:
        # the reported schedule describes the walk that ran
        assert (result.load_unload_operations
                == result.schedule.load_unload_operations)
    return ([result.graph.edge_fingerprint() for result in run.iterations],
            [result.load_unload_operations for result in run.iterations], dense)


class TestStepParityWall:
    """The reference paths and a budget against the classified walk."""

    def test_the_full_schedule_builds_the_same_graphs(self, full_schedule):
        """Every step classified as executed: more loads, the classified
        walk's graphs and profiles."""
        dirty = _observe(_churn_feed([10, 5, 0, 8], 29))
        graphs, counts, dense = _observe(_churn_feed([10, 5, 0, 8], 29),
                                         context=full_schedule)
        assert (graphs, dense) == (dirty[0], dirty[2])
        assert all(full >= walked for full, walked in zip(counts, dirty[1]))

    def test_a_full_rescore_builds_the_same_graphs(self, full_rescore):
        """No reusable score at all: every tuple reaches the kernel."""
        reused = _observe(_churn_feed([6, 6, 6, 6], 31))
        graphs, _, dense = _observe(_churn_feed([6, 6, 6, 6], 31),
                                    context=full_rescore)
        assert (graphs, dense) == (reused[0], reused[2])

    def test_a_partition_cache_budget_changes_no_result(self):
        """A budget the walk fits in changes accounting, not results — not
        even the load/unload count."""
        uncapped = _observe(_churn_feed([10, 0, 10, 0], 37))
        assert _observe(_churn_feed([10, 0, 10, 0], 37),
                        memory_budget_bytes=50_000_000) == uncapped

    def test_every_charged_residency_is_released(self, monkeypatch):
        """Each iteration's walk ends in a flush: every byte the budget
        granted is given back, and no residency outgrows two partitions."""
        granted, returned, peaks = [], [], []
        allocate, release = MemoryBudget.allocate, MemoryBudget.release

        def spied_allocate(budget, num_bytes):
            allocate(budget, num_bytes)
            granted.append(num_bytes)
            peaks.append(budget.peak_bytes)

        def spied_release(budget, num_bytes):
            release(budget, num_bytes)
            returned.append(num_bytes)

        monkeypatch.setattr(MemoryBudget, "allocate", spied_allocate)
        monkeypatch.setattr(MemoryBudget, "release", spied_release)
        _observe(_churn_feed([10, 0, 10, 0], 37),
                 memory_budget_bytes=50_000_000)
        assert granted and sum(granted) == sum(returned)
        assert len(granted) == len(returned)
        assert max(peaks) <= 2 * max(granted)


class TestStepOracle:
    """One step through ``score_tuples`` against first-principles direct
    scoring."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        sparse = generate_sparse_profiles(NUM_USERS, 300, items_per_user=15,
                                          num_communities=4, seed=7)
        return {
            "dense": OnDiskProfileStore.create(
                tmp_path_factory.mktemp("dense"), _profiles(),
                disk_model="instant"),
            "sparse": OnDiskProfileStore.create(
                tmp_path_factory.mktemp("sparse"), sparse,
                disk_model="instant"),
        }

    @pytest.mark.parametrize("kind, measure",
                             [("dense", "cosine"), ("sparse", "jaccard")])
    def test_step_scores_match_direct_scoring(self, stores, kind, measure):
        """Partitions (1, 3) of four, their PI edges (1→3), (3→1), (1→1) as
        partition-local row batches; the oracle scores the same tuples by
        global id on one slice of the whole store."""
        store = stores[kind]
        rng = np.random.default_rng(5)
        quarter = NUM_USERS // 4
        starts = (quarter, 3 * quarter)
        batches, tuples = [], []
        for left, right in ((0, 1), (1, 0), (0, 0)):
            left_rows = rng.integers(0, quarter, size=400)
            right_rows = rng.integers(0, quarter, size=400)
            batches.append((left, right, left_rows, right_rows))
            tuples.append(np.stack([starts[left] + left_rows,
                                    starts[right] + right_rows], axis=1))
        slices = [store.load_users(np.arange(start, start + quarter))
                  for start in starts]
        scores = np.concatenate([
            score_tuples(slices[left], left_rows, slices[right], right_rows,
                         measure)
            for left, right, left_rows, right_rows in batches])
        whole = store.load_users(np.arange(NUM_USERS))
        np.testing.assert_array_equal(
            scores, whole.similarity_pairs(np.concatenate(tuples), measure))
