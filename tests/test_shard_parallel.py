"""The shard-parallel execution correctness wall.

Shard parallelism promises that executing whole residency steps
concurrently — waves of partition-disjoint steps, each worker exclusively
owning its step's partitions — produces graphs **bit-identical** to the
one-step-at-a-time serial path: every score lands in the same slot of
phase 4's score slab whichever wave produced it, and the G(t+1) merge is a
pure function of the scored candidate multiset.  These
tests drive hypothesis-generated churn through engines with the toggle on
and off across all three backends and compare fingerprint-for-fingerprint
plus final profile bytes; exercise a wave across the worker seam directly
against a first-principles scoring oracle; pin the per-worker memory-budget
accounting (hard ``MemoryError``, never a silent spill); and walk the
supervision ladder — dead worker respawn, hung shard timeout, and the
terminal degrade to inline — asserting parity survives every rung.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.parallel import (ScoringWorkers, ShardStepTask,
                                 fork_available)
from repro.similarity.workloads import ProfileChange, generate_dense_profiles
from repro.testing import FaultPlan

NUM_USERS = 120
DIM = 8
BACKENDS = ["serial", "thread", "process"]


def _profiles(seed: int = 7):
    return generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=4,
                                   seed=seed)


def _config(**overrides):
    base = dict(k=5, num_partitions=4, heuristic="degree-low-high", seed=17)
    base.update(overrides)
    return EngineConfig(**base)


def _backend_overrides(backend: str) -> dict:
    overrides = {"backend": backend}
    if backend == "thread":
        overrides["num_workers"] = 3
    elif backend == "process":
        overrides["num_workers"] = 2
    return overrides


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


def _final_profile_bytes(engine: KNNEngine) -> bytes:
    return (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()


def _run_pair(churn_factory, iterations: int = 4,
              context=contextlib.nullcontext, **overrides):
    """The same run twice — shard parallelism on and off — for comparison,
    each inside a fresh ``context()``."""
    runs = {}
    for sharded in (True, False):
        config = _config(shard_parallel=sharded, **overrides)
        with context(), KNNEngine(_profiles(), config) as engine:
            run = engine.run(num_iterations=iterations,
                             profile_change_feed=churn_factory())
            runs[sharded] = (run, _final_profile_bytes(engine))
    return runs


class TestShardParityWall:
    """Sharded fingerprints must equal one-step-at-a-time ones, always."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        backend=st.sampled_from(BACKENDS),
        churn_sizes=st.lists(st.integers(min_value=0, max_value=25),
                             min_size=4, max_size=4),
        churn_seed=st.integers(min_value=0, max_value=2**16),
        users_pool=st.sampled_from([NUM_USERS, 30]),
    )
    def test_sharded_bit_identical_to_serial_steps(self, backend, churn_sizes,
                                                   churn_seed, users_pool):
        if backend == "process" and not fork_available():
            backend = "thread"
        runs = _run_pair(lambda: _churn_feed(churn_sizes, churn_seed,
                                             users_pool),
                         **_backend_overrides(backend))
        (sharded_run, sharded_bytes) = runs[True]
        (step_run, step_bytes) = runs[False]
        assert ([r.graph.edge_fingerprint() for r in sharded_run.iterations]
                == [r.graph.edge_fingerprint() for r in step_run.iterations])
        # phase 5 applied the identical churn: final profiles byte-equal
        assert sharded_bytes == step_bytes
        for result in sharded_run.iterations:
            # the reported schedule describes what the waves actually did
            assert (result.load_unload_operations
                    == result.schedule.load_unload_operations)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_parity_with_dirty_scheduling_off(self, backend, full_schedule):
        """The full (undirtied) schedule — a store that cannot vouch for its
        partition deltas — shards identically too."""
        if backend == "process" and not fork_available():
            pytest.skip("process backend needs fork")
        runs = _run_pair(lambda: _churn_feed([10, 5, 0, 8], 29),
                         context=full_schedule,
                         **_backend_overrides(backend))
        assert ([r.graph.edge_fingerprint() for r in runs[True][0].iterations]
                == [r.graph.edge_fingerprint()
                    for r in runs[False][0].iterations])
        assert runs[True][1] == runs[False][1]

    def test_parity_without_incremental_phase4(self, full_rescore):
        """No reusable score at all — a store that cannot vouch for its row
        deltas: every tuple crosses the worker boundary."""
        runs = _run_pair(lambda: _churn_feed([6, 6, 6, 6], 31),
                         context=full_rescore)
        assert ([r.graph.edge_fingerprint() for r in runs[True][0].iterations]
                == [r.graph.edge_fingerprint()
                    for r in runs[False][0].iterations])
        assert runs[True][1] == runs[False][1]

    def test_parity_under_memory_budget(self):
        """A generous per-worker budget changes accounting, not results."""
        runs = _run_pair(lambda: _churn_feed([10, 0, 10, 0], 37),
                         memory_budget_bytes=50_000_000)
        assert ([r.graph.edge_fingerprint() for r in runs[True][0].iterations]
                == [r.graph.edge_fingerprint()
                    for r in runs[False][0].iterations])

    def test_budget_watermark_reported_and_bounded(self):
        config = _config(shard_parallel=True,
                         memory_budget_bytes=50_000_000)
        with KNNEngine(_profiles(), config) as engine:
            engine.run_iteration()
            workers = engine._iteration_runner.workers
            assert workers.worker_budget_bytes == 50_000_000
            assert 0 < workers.peak_worker_bytes <= 50_000_000
        # step at a time, the budget is the partition cache's, not a worker's
        with KNNEngine(_profiles(), _config(
                memory_budget_bytes=50_000_000)) as engine:
            engine.run_iteration()
            assert engine._iteration_runner.workers.worker_budget_bytes is None


class TestCoordinatorOracle:
    """A wave across the seam against first-principles direct scoring."""

    def _tasks_and_oracle(self, store):
        rng = np.random.default_rng(5)
        quarter = NUM_USERS // 4
        tasks = []
        expected = []
        whole = store.load_users(np.arange(NUM_USERS))
        # two partition-disjoint steps: (0,1) and (2,3); each carries its
        # three PI edges as partition-local row batches
        for pid in (0, 2):
            lo, hi = pid * quarter, (pid + 2) * quarter
            starts = (lo, lo + quarter)
            batches = []
            tuples = []
            for left, right in ((0, 1), (1, 0), (0, 0)):
                left_rows = rng.integers(0, quarter, size=40)
                right_rows = rng.integers(0, quarter, size=40)
                batches.append((left, right, left_rows, right_rows))
                tuples.append(np.stack([starts[left] + left_rows,
                                        starts[right] + right_rows], axis=1))
            tasks.append(ShardStepTask(
                parts=((pid, range(lo, lo + quarter)),
                       (pid + 1, range(lo + quarter, hi))),
                batches=tuple(batches), measure="cosine", generation=None))
            tuples = np.concatenate(tuples)
            scores = whole.similarity_pairs(tuples, "cosine")
            expected.append((tuples, scores))
        return tasks, expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wave_deltas_match_direct_scoring(self, backend):
        if backend == "process" and not fork_available():
            pytest.skip("process backend needs fork")
        with KNNEngine(_profiles(), _config()) as engine:
            tasks, expected = self._tasks_and_oracle(engine.profile_store)
            with ScoringWorkers(engine.profile_store, backend=backend,
                                num_workers=2) as workers:
                deltas = workers.execute(tasks)
        assert len(deltas) == len(tasks)
        for delta, (_, scores) in zip(deltas, expected):
            np.testing.assert_array_equal(delta, scores)

    def test_empty_wave_is_a_noop(self):
        with KNNEngine(_profiles(), _config()) as engine:
            with ScoringWorkers(engine.profile_store) as workers:
                assert workers.execute([]) == []

    def test_budget_overflow_raises_memory_error(self):
        """One step larger than the per-worker budget must fail loudly."""
        with KNNEngine(_profiles(), _config()) as engine:
            store = engine.profile_store
            tasks, _ = self._tasks_and_oracle(store)
            per_user = store.estimated_bytes_per_user()
            with ScoringWorkers(store, worker_budget_bytes=per_user * 10,
                                bytes_per_user=per_user) as workers:
                with pytest.raises(MemoryError):
                    workers.execute(tasks[:1])

    def test_budget_is_per_worker_not_per_wave(self):
        """Workers drop their slices at the wave barrier: many steps fit
        a budget that holds only one step's partitions at a time."""
        with KNNEngine(_profiles(), _config()) as engine:
            store = engine.profile_store
            tasks, _ = self._tasks_and_oracle(store)
            per_user = store.estimated_bytes_per_user()
            one_step = (NUM_USERS // 2) * per_user
            with ScoringWorkers(store, worker_budget_bytes=one_step,
                                bytes_per_user=per_user) as workers:
                deltas = workers.execute(tasks[:1])
                deltas += workers.execute(tasks[1:])
                assert workers.peak_worker_bytes == one_step
        assert len(deltas) == 2


@pytest.mark.skipif(not fork_available(), reason="process backend needs fork")
class TestShardSupervision:
    """Dead/hung workers: respawn, retry, and the terminal serial degrade."""

    def _clean_fingerprints(self, **overrides):
        config = _config(shard_parallel=True, **overrides)
        with KNNEngine(_profiles(), config) as engine:
            results = [engine.run_iteration() for _ in range(3)]
            return [r.graph.edge_fingerprint() for r in results]

    def test_killed_worker_respawns_and_stays_bit_identical(self):
        clean = self._clean_fingerprints(backend="process", num_workers=2)
        plan = FaultPlan().kill_worker(call=1, shard=0)
        config = _config(shard_parallel=True, backend="process",
                         num_workers=2, fault_plan=plan)
        with KNNEngine(_profiles(), config) as engine:
            results = [engine.run_iteration() for _ in range(3)]
            workers = engine._iteration_runner.workers
            assert workers.transport == "process"
            assert workers.respawns >= 1
        assert [r.graph.edge_fingerprint() for r in results] == clean

    def test_hung_shard_times_out_and_stays_bit_identical(self):
        clean = self._clean_fingerprints(backend="process", num_workers=2)
        plan = FaultPlan().hang_worker(call=1, shard=0, seconds=60.0)
        config = _config(shard_parallel=True, backend="process",
                         num_workers=2, shard_timeout_seconds=1.0,
                         fault_plan=plan)
        with KNNEngine(_profiles(), config) as engine:
            results = [engine.run_iteration() for _ in range(3)]
            assert engine._iteration_runner.workers.respawns >= 1
        assert [r.graph.edge_fingerprint() for r in results] == clean

    def test_persistent_failure_degrades_to_serial_bit_identical(self):
        clean = self._clean_fingerprints(backend="process", num_workers=2)
        plan = FaultPlan()
        for call in range(1, 9):  # outlast max_retries on the first wave
            plan.kill_worker(call=call, shard=0)
        config = _config(shard_parallel=True, backend="process",
                         num_workers=2, fault_plan=plan)
        with KNNEngine(_profiles(), config) as engine:
            results = [engine.run_iteration() for _ in range(3)]
            # the workers gave up on processes and score inline
            assert engine._iteration_runner.workers.transport == "inline"
        assert [r.graph.edge_fingerprint() for r in results] == clean
