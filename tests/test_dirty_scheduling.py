"""The dirty-partition scheduling correctness wall.

Dirty scheduling promises that an engine skipping clean residency steps
produces graphs **bit-identical** to the full schedule: per-tuple cache
validity is still checked against the touched-row mask, and the G(t+1)
merge is a pure function of the scored candidate multiset.  These tests
drive hypothesis-generated churn (uniform and partition-localised)
through runs with the toggle on and off across all three scoring
backends and compare fingerprint-for-fingerprint plus final profile
bytes; pin that skipping actually *engages* on a converged graph under
localised drift churn; and walk every situation where the delta history
cannot vouch for the churn — reload, delta-log rollover (compaction),
crash recovery, checkpoint resume — asserting the engine's only answer
is "run everything" (one unskipped pass) while parity still holds.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine, _scan_commit_epochs
from repro.core.parallel import fork_available
from repro.similarity.workloads import ProfileChange, generate_dense_profiles
from repro.testing import FaultPlan, InjectedCrash

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
    """Deterministic feed; ``users_pool`` < NUM_USERS localises the churn
    to the first partitions (contiguous split), leaving the rest clean."""
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


def _run_pair(churn_factory, iterations: int = 4, **overrides):
    """The same run twice — dirty scheduling on and off — for comparison."""
    runs = {}
    for dirty in (True, False):
        config = _config(dirty_scheduling=dirty, **overrides)
        with KNNEngine(_profiles(), config) as engine:
            run = engine.run(num_iterations=iterations,
                             profile_change_feed=churn_factory())
            runs[dirty] = (run, _final_profile_bytes(engine))
    return runs


class _DriftHarness:
    """Converged graph + partition-localised small-drift churn.

    The regime where dirty scheduling pays: warm-up iterations converge
    the graph with no churn, then each update batch drifts a cohort of
    rows inside the first partition by a small Gaussian step.  Clean
    partitions then hold stable candidate sets whose scores the cache
    still vouches for, so their steps skip.
    """

    def __init__(self, num_users=600, num_partitions=6, dim=12, seed=3,
                 drift_users=30, drift_rows=100, drift_seed=23):
        self.profiles = generate_dense_profiles(
            num_users, dim=dim, num_communities=5, seed=seed)
        self.matrix = self.profiles.matrix.copy()
        self.num_partitions = num_partitions
        self.drift_users = drift_users
        self.drift_rows = drift_rows
        self.rng = np.random.default_rng(drift_seed)
        self.dim = dim

    def config(self, dirty: bool, **overrides):
        return _config(num_partitions=self.num_partitions,
                       dirty_scheduling=dirty, **overrides)

    def drift_batch(self):
        users = self.rng.choice(self.drift_rows, size=self.drift_users,
                                replace=False)
        changes = []
        for user in users:
            self.matrix[user] = (self.matrix[user]
                                 + self.rng.normal(scale=0.05, size=self.dim))
            changes.append(ProfileChange(user=int(user), kind="set",
                                         vector=self.matrix[user].copy()))
        return changes


def _drive_drift(backend: str, dirty: bool, warmup: int = 5, drifts: int = 3,
                 drift_seed: int = 23):
    """Run warm-up + drift iterations; return (results, final bytes)."""
    harness = _DriftHarness(drift_seed=drift_seed)
    config = harness.config(dirty, **_backend_overrides(backend))
    results = []
    with KNNEngine(harness.profiles, config) as engine:
        for _ in range(warmup):
            results.append(engine.run_iteration())
        for _ in range(drifts):
            engine.enqueue_profile_changes(harness.drift_batch())
            results.append(engine.run_iteration())
        return results, _final_profile_bytes(engine)


class TestDirtyParityWall:
    """Dirty-scheduled fingerprints must equal full-schedule ones, always."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        backend=st.sampled_from(BACKENDS),
        churn_sizes=st.lists(st.integers(min_value=0, max_value=25),
                             min_size=4, max_size=4),
        churn_seed=st.integers(min_value=0, max_value=2**16),
        users_pool=st.sampled_from([NUM_USERS, 30]),
    )
    def test_dirty_bit_identical_to_full_schedule(self, backend, churn_sizes,
                                                  churn_seed, users_pool):
        if backend == "process" and not fork_available():
            backend = "thread"
        runs = _run_pair(lambda: _churn_feed(churn_sizes, churn_seed,
                                             users_pool),
                         **_backend_overrides(backend))
        (dirty_run, dirty_bytes) = runs[True]
        (full_run, full_bytes) = runs[False]
        assert ([r.graph.edge_fingerprint() for r in dirty_run.iterations]
                == [r.graph.edge_fingerprint() for r in full_run.iterations])
        # phase 5 applied the identical churn: final profiles byte-equal
        assert dirty_bytes == full_bytes
        # the toggle off never skips, and on-skips never drop steps
        assert all(r.steps_skipped == 0 for r in full_run.iterations)
        for result in dirty_run.iterations:
            assert 0 <= result.steps_skipped <= result.steps_total
            assert result.steps_total == result.schedule.num_steps

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_converged_drift_skips_and_agrees(self, backend):
        """On a converged graph under localised drift, skipping must both
        engage (steps and loads actually saved) and stay bit-identical."""
        if backend == "process" and not fork_available():
            pytest.skip("process backend needs fork")
        dirty_results, dirty_bytes = _drive_drift(backend, dirty=True)
        full_results, full_bytes = _drive_drift(backend, dirty=False)
        assert ([r.graph.edge_fingerprint() for r in dirty_results]
                == [r.graph.edge_fingerprint() for r in full_results])
        assert dirty_bytes == full_bytes
        drift_window = dirty_results[-3:]
        skipped = sum(r.steps_skipped for r in drift_window)
        assert skipped > 0, "dirty scheduling never engaged"
        # skipped steps translate into partition loads not performed
        assert (sum(r.load_unload_operations for r in drift_window)
                < sum(r.load_unload_operations for r in full_results[-3:]))
        for result in drift_window:
            # the re-simulated schedule describes what actually ran
            assert (result.load_unload_operations
                    == result.schedule.load_unload_operations)

    def test_zero_churn_steady_state_skips_most_steps(self):
        """No churn at all: once candidate sets stabilise, almost every
        step is answerable from the cache without touching a partition."""
        harness = _DriftHarness()
        with KNNEngine(harness.profiles, harness.config(True)) as engine:
            results = [engine.run_iteration() for _ in range(7)]
        last = results[-1]
        assert last.steps_skipped > 0
        assert last.steps_skipped >= last.steps_total // 2

    def test_disabling_incremental_disables_skipping(self):
        """Without the score cache there is nothing to serve steps from."""
        harness = _DriftHarness()
        config = harness.config(True, incremental_phase4=False)
        with KNNEngine(harness.profiles, config) as engine:
            results = [engine.run_iteration() for _ in range(4)]
        assert all(r.steps_skipped == 0 for r in results)
        assert all(r.full_rescore for r in results)


class TestRunEverythingEdges:
    """Every invalidation edge must fall back to the full schedule."""

    def _warm_engine(self, harness):
        engine = KNNEngine(harness.profiles, harness.config(True))
        for _ in range(6):
            engine.run_iteration()
        warm = engine.run_iteration()
        assert warm.steps_skipped > 0, "harness failed to reach skip regime"
        return engine

    def test_reload_with_unchanged_generation_is_still_vouched(self):
        """A reload that finds the same generation proves the files are the
        bytes the cache was scored against (the counter bumps on every
        write): "nothing changed" stays the honest answer and skipping
        continues uninterrupted."""
        harness = _DriftHarness()
        with self._warm_engine(harness) as engine:
            engine.profile_store.reload()
            after = engine.run_iteration()
            assert after.steps_skipped > 0

    def test_reload_forces_one_full_pass_then_reengages(self):
        harness = _DriftHarness()
        with self._warm_engine(harness) as engine:
            # phase 5 of this iteration bumps the store past the generation
            # the score cache was tagged with at phase-4 time
            engine.enqueue_profile_changes(harness.drift_batch())
            engine.run_iteration()
            cache_generation = engine._iteration_runner.score_cache.generation
            engine.profile_store.reload()
            # the reloaded delta floor passed the cache's generation: the
            # history no longer vouches for anything the cache holds
            assert engine.profile_store.touched_rows_since(
                cache_generation) is None
            assignment = np.zeros(engine.profile_store.num_users,
                                  dtype=np.int64)
            assert engine.profile_store.touched_partitions_since(
                cache_generation, assignment) is None
            after = engine.run_iteration()
            assert after.steps_skipped == 0
            assert after.steps_total > 0
            # the pass re-established the history: skipping resumes
            again = engine.run_iteration()
            assert again.steps_skipped > 0

    def test_delta_log_rollover_forces_full_pass(self):
        """Enough store writes between iterations push the delta floor past
        the cache's generation (the compaction-rollover case): the honest
        answer is None and every step executes."""
        from repro.storage.profile_store import _DELTA_LOG_LIMIT

        harness = _DriftHarness()
        with self._warm_engine(harness) as engine:
            store = engine.profile_store
            cache_generation = engine._iteration_runner.score_cache.generation
            rng = np.random.default_rng(11)
            for _ in range(_DELTA_LOG_LIMIT + 1):
                store.apply_changes([ProfileChange(
                    user=0, kind="set", vector=rng.random(harness.dim))])
            assert store.touched_rows_since(cache_generation) is None
            after = engine.run_iteration()
            assert after.steps_skipped == 0

    def test_checkpoint_resume_costs_one_unskipped_pass(self, tmp_path):
        """The per-pair scored-generation map is deliberately not part of a
        checkpoint: the resumed engine's first iteration runs the full
        schedule (scores still reuse via the restored cache), then skipping
        re-engages — and the resumed graphs match the uninterrupted run."""
        harness = _DriftHarness()
        with self._warm_engine(harness) as engine:
            engine.save_checkpoint(tmp_path / "ckpt")
            continued = [engine.run_iteration() for _ in range(2)]
        resumed_engine = KNNEngine.from_checkpoint(tmp_path / "ckpt")
        with resumed_engine:
            cache = resumed_engine._iteration_runner.score_cache
            # the restored cache is vouched for: generation matches the
            # resumed store exactly (else from_checkpoint must drop it)
            if cache.generation is not None:
                assert cache.generation == resumed_engine.profile_store.generation
            resumed = [resumed_engine.run_iteration() for _ in range(2)]
        assert resumed[0].steps_skipped == 0
        assert not resumed[0].full_rescore        # cache reuse still on
        assert resumed[1].steps_skipped > 0       # skipping re-engaged
        assert ([r.graph.edge_fingerprint() for r in resumed]
                == [r.graph.edge_fingerprint() for r in continued])

    def test_crash_recovery_never_trusts_an_unvouched_cache(self, tmp_path):
        """Crash mid-run, recover, finish: the restored score cache is
        adopted only at the store's exact generation, the first recovered
        iteration runs the full schedule, and the final graph and profile
        bytes match a never-crashed twin."""
        TOTAL = 7

        def once_feed(harness):
            # drift batches are produced once ever — a crashed consumer
            # cannot ask the producer to replay; recovering them is the
            # WAL's job (same contract as the crash matrix)
            fed = set()

            def feed(iteration):
                if iteration in fed or iteration < 4:
                    return []
                fed.add(iteration)
                return harness.drift_batch()

            return feed

        twin = _DriftHarness()
        with KNNEngine(twin.profiles, twin.config(True)) as clean:
            clean.run(TOTAL, profile_change_feed=once_feed(twin))
            ref_fingerprint = clean.graph.edge_fingerprint()
            ref_bytes = _final_profile_bytes(clean)

        harness = _DriftHarness()
        feed = once_feed(harness)
        plan = FaultPlan().crash_at("phase4.step", occurrence=40)
        workdir = tmp_path / "work"
        engine = KNNEngine(harness.profiles,
                           harness.config(True, durable=True, fault_plan=plan),
                           workdir=workdir)
        try:
            with pytest.raises(InjectedCrash):
                engine.run(TOTAL, profile_change_feed=feed)
        finally:
            engine.close()
        assert "crash" in plan.fired_kinds()

        recovered = KNNEngine.recover(workdir)
        try:
            cache = recovered._iteration_runner.score_cache
            # the cache survives recovery only at the exact generation the
            # restored store vouches for — never against an unvouched one
            if cache.generation is not None:
                assert (cache.generation
                        == recovered.profile_store.generation)
            remaining = TOTAL - recovered.iterations_run
            assert remaining > 0
            run = recovered.run(remaining, profile_change_feed=feed)
            # the pair-generation map died with the crashed process: the
            # first recovered iteration runs the full schedule (per-tuple
            # score reuse may still apply, but no step skips)
            assert run.iterations[0].steps_skipped == 0
            assert recovered.graph.edge_fingerprint() == ref_fingerprint
            assert _final_profile_bytes(recovered) == ref_bytes
        finally:
            recovered.close()


class TestConvergedStopDurability:
    """Early-convergence stop × durability: the final state is sealed."""

    def _run_to_convergence(self, workdir):
        harness = _DriftHarness()
        engine = KNNEngine(harness.profiles,
                           harness.config(True, durable=True),
                           workdir=workdir)
        with engine:
            run = engine.run(num_iterations=20, convergence_threshold=1e-9,
                             profile_change_feed=lambda i: (
                                 harness.drift_batch() if i == 1 else []))
            assert run.convergence.converged
            assert len(run.iterations) < 20, "never converged early"
            fingerprint = engine.graph.edge_fingerprint()
            iterations_run = engine.iterations_run
            oldest_kept = _scan_commit_epochs(engine.commits_dir)[0][1]
            wal_records = engine._update_queue.wal_records()
            applied = KNNEngine._commit_applied_seq(oldest_kept)
        return workdir, fingerprint, iterations_run, wal_records, applied

    def test_final_epoch_sealed_and_wal_collected_before_return(self, tmp_path):
        (workdir, fingerprint, iterations_run,
         wal_records, applied) = self._run_to_convergence(tmp_path / "work")
        epochs = _scan_commit_epochs(workdir / "commits")
        # the very last iteration before the convergence break was committed
        assert epochs[-1][0] == iterations_run
        assert len(epochs) <= KNNEngine.COMMITS_KEPT
        # WAL garbage collection ran on the final commit: nothing at or
        # below the oldest surviving epoch's applied sequence remains
        assert all(int(r["seq"]) > applied for r in wal_records)

    def test_recovering_a_converged_run_resumes_the_sealed_state(self, tmp_path):
        (workdir, fingerprint, iterations_run,
         _, _) = self._run_to_convergence(tmp_path / "work")
        recovered = KNNEngine.recover(workdir)
        try:
            assert recovered.iterations_run == iterations_run
            assert recovered.graph.edge_fingerprint() == fingerprint
            # every WAL record was applied before the stop: none replays
            assert recovered.wal_replayed == 0
        finally:
            recovered.close()
