"""The step-at-a-time parity wall: both transports walk the same steps.

Phase 4 executes its plan one residency step at a time — two partitions
resident, each step's tuples scored across ``ScoringWorkers.execute`` and
their scores put in their slots of the score slab.  Which transport scored
them must not show: these tests drive hypothesis-generated churn through
engines scoring on the calling thread and on thread pools of three and of
two that cut every step, and compare per-iteration fingerprints, final profile bytes and
load/unload counts; check that the two reference paths (the full schedule,
the full rescore) and a partition-cache budget change no graph on either
transport; and score one step across the seam against
a first-principles oracle that shares no slice code with it.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import ScoringWorkers
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.memory_manager import MemoryBudget
from repro.storage.profile_store import OnDiskProfileStore

NUM_USERS = 120
DIM = 8
#: The phase-4 transports by test id, as the ``num_workers`` each runs:
#: ``serial`` scores on the calling thread, ``thread`` on a pool of three
#: and ``thread2`` on a pool of two.
WIDTHS = {"serial": 1, "thread": 3, "thread2": 2}
BACKENDS = list(WIDTHS)


def _profiles(seed: int = 7):
    return generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=4,
                                   seed=seed)


def _config(backend: str = "serial", **overrides):
    base = dict(k=5, num_partitions=4, heuristic="degree-low-high", seed=17,
                num_workers=WIDTHS[backend])
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


def _observe(churn, backend="serial", context=contextlib.nullcontext,
             iterations: int = 4, **overrides):
    """Per-iteration fingerprints and load/unload counts, and the final
    profile bytes, of one churned run inside a fresh ``context()``."""
    with context(), KNNEngine(_profiles(), _config(backend, **overrides)) as engine:
        run = engine.run(num_iterations=iterations, profile_change_feed=churn)
        dense = (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()
    for result in run.iterations:
        # the reported schedule describes the walk that ran
        assert (result.load_unload_operations
                == result.schedule.load_unload_operations)
    return ([result.graph.edge_fingerprint() for result in run.iterations],
            [result.load_unload_operations for result in run.iterations], dense)


class TestStepParityWall:
    """The thread pools' graphs, counts and profile bytes are serial's, with
    every step cut across their threads (``cut_everything``)."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(
        backend=st.sampled_from(BACKENDS[1:]),
        churn_sizes=st.lists(st.integers(min_value=0, max_value=25),
                             min_size=4, max_size=4),
        churn_seed=st.integers(min_value=0, max_value=2**16),
        users_pool=st.sampled_from([NUM_USERS, 30]),
    )
    def test_backends_bit_identical_to_serial(self, backend, churn_sizes,
                                              churn_seed, users_pool,
                                              cut_everything):
        serial = _observe(_churn_feed(churn_sizes, churn_seed, users_pool))
        assert _observe(_churn_feed(churn_sizes, churn_seed, users_pool),
                        backend) == serial

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_full_schedule_builds_the_same_graphs(self, backend,
                                                      full_schedule,
                                                      cut_everything):
        """A store that cannot vouch for its partition deltas executes every
        step: more loads, the dirty-first walk's graphs and profiles."""
        dirty = _observe(_churn_feed([10, 5, 0, 8], 29))
        graphs, counts, dense = _observe(_churn_feed([10, 5, 0, 8], 29),
                                         backend, context=full_schedule)
        assert (graphs, dense) == (dirty[0], dirty[2])
        assert all(full >= walked for full, walked in zip(counts, dirty[1]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_full_rescore_builds_the_same_graphs(self, backend,
                                                   full_rescore,
                                                   cut_everything):
        """No reusable score at all: every tuple crosses the seam."""
        reused = _observe(_churn_feed([6, 6, 6, 6], 31))
        graphs, _, dense = _observe(_churn_feed([6, 6, 6, 6], 31), backend,
                                    context=full_rescore)
        assert (graphs, dense) == (reused[0], reused[2])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_partition_cache_budget_changes_no_result(self, backend,
                                                        cut_everything):
        """A budget the walk fits in changes accounting, not results — not
        even the load/unload count."""
        uncapped = _observe(_churn_feed([10, 0, 10, 0], 37))
        assert _observe(_churn_feed([10, 0, 10, 0], 37), backend,
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
    """One step across the seam against first-principles direct scoring."""

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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_step_scores_match_direct_scoring(self, stores, backend, kind,
                                              measure, cut_everything):
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
        with ScoringWorkers(num_workers=WIDTHS[backend]) as workers:
            scores = workers.execute(slices, batches, measure)
        whole = store.load_users(np.arange(NUM_USERS))
        np.testing.assert_array_equal(
            scores, whole.similarity_pairs(np.concatenate(tuples), measure))
