"""Checksummed stores and checkpoints: corruption must be caught, not served.

Every profile-store file carries a CRC32 in the store meta, maintained
incrementally for append-only files; :meth:`verify_checksums` runs at
durability boundaries (open with ``verify=True``, commit, recovery).
Checkpoint directories are sealed with a ``checksums.json`` written last,
so its presence doubles as the commit-completeness marker.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.checkpoint import (save_portable_checkpoint, verify_checkpoint,
                                   write_checkpoint_checksums)
from repro.graph.knn_graph import KNNGraph
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore, StoreCorruptionError
from repro.testing import FaultPlan


def _dense_store(tmp_path, name="dense"):
    profiles = generate_dense_profiles(40, dim=6, seed=3)
    return OnDiskProfileStore.create(tmp_path / name, profiles,
                                     disk_model="instant")


def _sparse_store(tmp_path, name="sparse"):
    profiles = generate_sparse_profiles(40, 80, items_per_user=6, seed=3)
    return OnDiskProfileStore.create(tmp_path / name, profiles,
                                     disk_model="instant")


class TestProfileStoreChecksums:
    def test_fresh_stores_verify_clean(self, tmp_path):
        assert _dense_store(tmp_path).verify_checksums() == []
        assert _sparse_store(tmp_path).verify_checksums() == []

    def test_checksums_follow_dense_in_place_updates(self, tmp_path):
        store = _dense_store(tmp_path)
        store.apply_changes([ProfileChange(user=1, kind="set",
                                           vector=np.ones(6))])
        assert store.verify_checksums() == []

    def test_checksums_follow_sparse_journal_appends(self, tmp_path):
        store = _sparse_store(tmp_path)
        store.apply_changes([ProfileChange(user=2, kind="add", item=79)])
        assert store.verify_checksums() == []

    def test_flipped_byte_is_detected(self, tmp_path):
        store = _dense_store(tmp_path)
        victim = store.base_dir / "profiles_dense.bin"
        raw = bytearray(victim.read_bytes())
        raw[17] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert "profiles_dense.bin" in store.verify_checksums()
        with pytest.raises(StoreCorruptionError):
            store.verify_checksums(strict=True)

    def test_missing_file_is_detected(self, tmp_path):
        store = _dense_store(tmp_path)
        (store.base_dir / "profiles_norms.bin").unlink()
        assert "profiles_norms.bin" in store.verify_checksums()

    def test_injected_truncation_is_detected(self, tmp_path):
        # a torn journal append (write completes, tail lost) via the fault
        # plan's after-op truncation — exactly the corruption the engine's
        # recovery path must refuse to resume from
        store = _sparse_store(tmp_path)
        store.fault_plan = FaultPlan().truncate_file(
            "write", match="journal_rows", keep_bytes=4, occurrence=1)
        store.apply_changes([ProfileChange(user=2, kind="add", item=79)])
        assert "profiles_journal_rows.bin" in store.verify_checksums()

    def test_open_with_verify_raises_on_corruption(self, tmp_path):
        store = _dense_store(tmp_path)
        base = store.base_dir
        victim = base / "profiles_dense.bin"
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError):
            OnDiskProfileStore(base, disk_model="instant", verify=True)

    def test_open_without_verify_defers_the_check(self, tmp_path):
        store = _dense_store(tmp_path)
        base = store.base_dir
        victim = base / "profiles_dense.bin"
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        reopened = OnDiskProfileStore(base, disk_model="instant")
        assert reopened.verify_checksums() != []


class TestCheckpointChecksums:
    def _checkpoint(self, tmp_path):
        store = _dense_store(tmp_path)
        graph = KNNGraph.random(40, 4, seed=9)
        directory = tmp_path / "ckpt"
        save_portable_checkpoint(directory, graph, 1, profile_store=store)
        write_checkpoint_checksums(directory)
        return directory

    def test_sealed_checkpoint_verifies(self, tmp_path):
        assert verify_checkpoint(self._checkpoint(tmp_path))

    def test_missing_checksums_file_means_never_sealed(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        (directory / "checksums.json").unlink()
        assert not verify_checkpoint(directory)

    def test_tampered_file_fails_verification(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        manifest = directory / "checkpoint.json"
        data = json.loads(manifest.read_text())
        data["iteration"] = 999
        manifest.write_text(json.dumps(data))
        assert not verify_checkpoint(directory)

    def test_deleted_file_fails_verification(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        (directory / "profiles" / "profiles_dense.bin").unlink()
        assert not verify_checkpoint(directory)

    def test_a_graph_torn_after_its_write_is_not_blessed_by_the_seal(self, tmp_path):
        # the sealed CRC is the writer's own, taken from the bytes in hand; a
        # seal that re-read the file would record the torn bytes' CRC and the
        # damage would only surface later, in the loader's size check
        directory = tmp_path / "ckpt"
        plan = FaultPlan().truncate_file("write", match="knn_graph",
                                         keep_bytes=64)
        vouched = {}
        save_portable_checkpoint(directory, KNNGraph.random(40, 4, seed=9), 1,
                                 profile_store=_dense_store(tmp_path),
                                 fault_plan=plan, checksums=vouched)
        write_checkpoint_checksums(directory, vouched)
        assert "truncate" in plan.fired_kinds()
        assert (directory / "knn_graph_00001.bin").stat().st_size == 64
        assert not verify_checkpoint(directory)

    def test_a_profile_file_torn_in_the_store_is_not_blessed_by_the_seal(self, tmp_path):
        # a torn journal append: the store's meta records the CRC of the bytes
        # it appended, the clone carries the torn file, the seal takes the
        # meta's word — so the epoch is rejected instead of verified
        store = _sparse_store(tmp_path)
        store.fault_plan = FaultPlan().truncate_file(
            "write", match="journal_rows", keep_bytes=4)
        store.apply_changes([ProfileChange(user=2, kind="add", item=79)])
        directory = tmp_path / "ckpt"
        vouched = {}
        save_portable_checkpoint(directory, KNNGraph.random(40, 4, seed=9), 1,
                                 profile_store=store, checksums=vouched)
        write_checkpoint_checksums(directory, vouched)
        assert not verify_checkpoint(directory)
        # the un-vouched seal of the same directory is the old behaviour
        write_checkpoint_checksums(directory)
        assert verify_checkpoint(directory)

    def test_unparseable_checksums_rejected(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        (directory / "checksums.json").write_text("{not json")
        assert not verify_checkpoint(directory)
