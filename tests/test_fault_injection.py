"""Tests for repro.testing.faults — the deterministic fault-injection layer.

The plan itself must be exact (a fault fires at the scheduled occurrence and
never again), schedulable from a seed, and safe to embed in an
:class:`EngineConfig` (which is deep-copied by ``dataclasses.asdict``).  The
integration half pins the hook sites: stores and checkpoints consult the
plan around their durability-relevant file operations.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import pytest

from repro.core.checkpoint import clone_profile_files, verify_checkpoint
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.similarity.workloads import generate_dense_profiles
from repro.storage.profile_store import OnDiskProfileStore
from repro.testing import (ITERATION_CRASH_POINTS, SERVICE_CRASH_POINTS,
                           FaultPlan, InjectedCrash, InjectedIOError)
from repro.testing.faults import fault_point


class TestFaultPlanScheduling:
    def test_crash_fires_at_exact_occurrence(self):
        plan = FaultPlan().crash_at("commit.begin", occurrence=3)
        plan.point("commit.begin")
        plan.point("commit.begin")
        with pytest.raises(InjectedCrash) as exc:
            plan.point("commit.begin")
        assert exc.value.point == "commit.begin"
        assert exc.value.occurrence == 3
        # one-shot: the occurrence is consumed
        plan.point("commit.begin")

    def test_unscheduled_points_are_free(self):
        plan = FaultPlan().crash_at("commit.begin", occurrence=1)
        for _ in range(10):
            plan.point("commit.done")
        assert plan.hits("commit.done") == 10

    def test_fired_log_records_what_happened(self):
        plan = FaultPlan().crash_at("commit.begin", occurrence=1)
        with pytest.raises(InjectedCrash):
            plan.point("commit.begin")
        assert "crash" in plan.fired_kinds()

    def test_unregistered_point_names_are_refused(self):
        # every hook passes through point(): a hook whose name the registry
        # lacks fails the first plan-carrying test that walks it
        with pytest.raises(ValueError, match="not registered"):
            FaultPlan().point("nope")
        with pytest.raises(ValueError, match="not registered"):
            FaultPlan().crash_at("nope")
        with pytest.raises(ValueError, match="not registered"):
            FaultPlan(seed=1).crash_at_random(["nope"])

    @pytest.mark.parametrize("name", [
        "",
        "commit",                # a path group, not a point
        "commit.begin ",         # no whitespace folding
        "Commit.begin",          # no case folding
        "commit.begin.retry",    # no prefix matching
        "store.journal",         # a truncated registered name
        "service.swap",          # the two swap points have no common alias
    ])
    def test_near_miss_names_are_refused_by_exact_match(self, name):
        with pytest.raises(ValueError) as exc:
            FaultPlan().point(name)
        assert repr(name) in str(exc.value)
        with pytest.raises(ValueError):
            FaultPlan().crash_at(name)

    def test_a_refused_name_leaves_the_plan_untouched(self):
        plan = FaultPlan().crash_at("commit.begin", occurrence=2)
        with pytest.raises(ValueError):
            plan.crash_at("commit.bogus")
        with pytest.raises(ValueError):
            plan.point("commit.bogus")
        assert plan.scheduled_crashes() == [("commit.begin", 2)]
        assert plan.hits("commit.bogus") == 0
        assert plan.fired == []

    def test_the_registry_is_duplicate_free_and_split_by_layer(self):
        assert len(set(ITERATION_CRASH_POINTS)) == len(ITERATION_CRASH_POINTS)
        assert len(set(SERVICE_CRASH_POINTS)) == len(SERVICE_CRASH_POINTS)
        assert all(name.startswith("service.")
                   for name in SERVICE_CRASH_POINTS)
        assert not any(name.startswith("service.")
                       for name in ITERATION_CRASH_POINTS)
        # every name is "<path>.<event>": one dot, both halves non-empty
        for name in ITERATION_CRASH_POINTS + SERVICE_CRASH_POINTS:
            path, _, event = name.partition(".")
            assert path and event and "." not in event, name

    def test_occurrences_are_one_based(self):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="1-based"):
            plan.crash_at("commit.begin", occurrence=0)
        with pytest.raises(ValueError, match="1-based"):
            plan.fail_file_op("write", occurrence=0)
        with pytest.raises(ValueError, match="1-based"):
            plan.truncate_file("write", occurrence=0)
        assert plan.scheduled_crashes() == []

    def test_without_a_plan_a_hook_checks_nothing(self):
        # the registry is enforced by the plan: a hook that no
        # plan-carrying run walks is not checked (docs/robustness.md)
        fault_point(None, "not.registered")
        with pytest.raises(ValueError, match="not registered"):
            fault_point(FaultPlan(), "not.registered")

    def test_file_op_failure_matches_substring(self):
        plan = FaultPlan().fail_file_op("write", match="dense", occurrence=1)
        plan.file_op("write", "/tmp/other.bin")  # no match, no fault
        with pytest.raises(InjectedIOError) as exc:
            plan.file_op("write", "/tmp/dense.bin")
        assert exc.value.op == "write"
        # OSError subclass: production except-OSError fallbacks engage
        assert isinstance(exc.value, OSError)

    def test_truncation_rewrites_the_file_tail(self, tmp_path):
        victim = tmp_path / "segment.bin"
        victim.write_bytes(b"x" * 100)
        plan = FaultPlan().truncate_file("write", match="segment",
                                         keep_bytes=10, occurrence=1)
        plan.after_file_op("write", victim)
        assert victim.stat().st_size == 10

    def test_seeded_random_points_are_deterministic(self):
        points = ["iteration.begin", "phase4.step", "phase4.done",
                  "commit.begin"]
        first = FaultPlan(seed=5).crash_at_random(points, count=3,
                                                  max_occurrence=4)
        second = FaultPlan(seed=5).crash_at_random(points, count=3,
                                                   max_occurrence=4)
        assert first.scheduled_crashes() == second.scheduled_crashes()

    def test_plan_survives_config_copying(self):
        # EngineConfig round-trips through dataclasses.replace/asdict, both
        # of which deep-copy field values; the plan must stay ONE shared
        # mutable object or hit counters silently fork
        plan = FaultPlan().crash_at("commit.begin", occurrence=1)
        config = EngineConfig(fault_plan=plan)
        clone = replace(config, k=7)
        assert clone.fault_plan is plan
        assert copy.deepcopy(plan) is plan


class TestFaultHooksInStores:
    def test_injected_write_failure_surfaces_from_profile_store(self, tmp_path):
        # the segmented sparse apply path journals through real file
        # appends (the dense path mutates an mmap in place, no file op)
        from repro.similarity.workloads import (ProfileChange,
                                                generate_sparse_profiles)
        profiles = generate_sparse_profiles(30, 60, items_per_user=5, seed=1)
        store = OnDiskProfileStore.create(tmp_path / "s", profiles,
                                          disk_model="instant")
        store.fault_plan = FaultPlan().fail_file_op("write", occurrence=1)
        with pytest.raises(InjectedIOError):
            store.apply_changes([ProfileChange(user=0, kind="add", item=59)])

    def test_injected_link_failure_falls_back_to_copy(self, tmp_path):
        # hard-linking can legitimately fail (cross-filesystem dest); the
        # clone must transparently copy instead — injection proves the
        # fallback path is live, not dead code
        profiles = generate_dense_profiles(30, dim=4, seed=1)
        store = OnDiskProfileStore.create(tmp_path / "src", profiles,
                                          disk_model="instant")
        plan = FaultPlan().fail_file_op("link", occurrence=1)
        stats = clone_profile_files(store.base_dir, tmp_path / "dst",
                                    fault_plan=plan)
        assert stats.copied_files >= 1
        clone = OnDiskProfileStore(tmp_path / "dst", disk_model="instant")
        assert clone.num_users == 30

    def test_engine_wires_the_plan_into_the_profile_store(self, tmp_path):
        # the one store with files: partition traffic is charged, not performed
        plan = FaultPlan()
        profiles = generate_dense_profiles(30, dim=4, seed=1)
        config = EngineConfig(k=4, num_partitions=2, fault_plan=plan)
        with KNNEngine(profiles, config, workdir=tmp_path / "w") as engine:
            assert engine.profile_store.fault_plan is plan

    def test_crash_point_aborts_an_engine_run(self, tmp_path):
        plan = FaultPlan().crash_at("iteration.begin", occurrence=2)
        profiles = generate_dense_profiles(30, dim=4, seed=1)
        config = EngineConfig(k=4, num_partitions=2, fault_plan=plan)
        with KNNEngine(profiles, config, workdir=tmp_path / "w") as engine:
            engine.run_iteration()
            with pytest.raises(InjectedCrash):
                engine.run_iteration()
            assert engine.iterations_run == 1

    def test_an_epoch_torn_after_its_write_is_rejected_and_recovery_falls_back(
            self, tmp_path):
        # the commit seals the CRC the graph writer took from the bytes in
        # hand, so a tear between write and seal fails verification and
        # recovery takes the previous epoch — a seal that re-read the file
        # would verify the torn epoch and fail later, in the loader
        profiles = generate_dense_profiles(30, dim=4, seed=1)
        config = EngineConfig(k=4, num_partitions=2, seed=3)
        with KNNEngine(profiles, config) as twin:
            twin.run(3)
            expected = twin.graph.edge_fingerprint()
        plan = FaultPlan().truncate_file("write", match="knn_graph",
                                         keep_bytes=40, occurrence=3)
        engine = KNNEngine(profiles, config.with_overrides(
            durable=True, fault_plan=plan), workdir=tmp_path / "w")
        try:
            engine.run(2)           # epochs 0, 1, 2: the third graph is torn
        finally:
            engine.close()
        assert "truncate" in plan.fired_kinds()
        assert not verify_checkpoint(tmp_path / "w" / "commits" / "epoch_00002")
        with KNNEngine.recover(tmp_path / "w") as recovered:
            assert recovered.iterations_run == 1
            recovered.run(2)
            assert recovered.graph.edge_fingerprint() == expected
