"""One small case per runtime contract of ``runtime_contracts.py``: what
must be flagged, and what must pass.

A flagged case takes its violations off the session's checker, so the
autouse check that ends every test sees only what a test did not expect.
"""

from __future__ import annotations

import os
import re
import threading
import time
import uuid
from pathlib import Path

import numpy as np
import pytest

from repro.core.checkpoint import write_checkpoint_checksums
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.service.admission import AdmissionController
from repro.service.runtime import ServingRuntime
from repro.similarity.workloads import ProfileChange, generate_dense_profiles
from repro.storage import durable
from runtime_contracts import HOT_LOCKS, LOCKS, RecordingLock

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def run_as(module: str, source: str, **names) -> None:
    """Run ``source`` as code of ``module``: the checker asks a frame's
    module who is calling."""
    exec(source, {"__name__": module, **names})


def flagged(contracts, rule: str) -> list:
    found = contracts.take()
    return [message for message in found if message.startswith(f"({rule})")]


@pytest.fixture
def no_fsync(monkeypatch):
    """The seam with its own ``os.fsync`` calls dropped."""
    class NoFsync:
        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def fsync(fd):
            pass
    monkeypatch.setattr(durable, "os", NoFsync())


@pytest.fixture
def no_directory_fsync(monkeypatch):
    """The seam with its directory fsyncs dropped."""
    real = durable._fsync
    monkeypatch.setattr(durable, "_fsync",
                        lambda path: None if Path(path).is_dir() else real(path))


def sealed_directory(root: Path, seal: bool = True) -> Path:
    directory = root / "epoch_00001.tmp"
    (directory / "profiles").mkdir(parents=True)
    durable.write([(directory / "graph.bin", b"g"),
                   (directory / "profiles" / "meta.json", b"{}")], sealed=True)
    if seal:
        write_checkpoint_checksums(directory, sealed=True)
    return directory


# -- sentinel --------------------------------------------------------------


def test_the_session_fixture_wraps_os_fsync(runtime_contracts, tmp_path):
    path = tmp_path / "f.bin"
    with path.open("wb") as handle:
        handle.write(b"abc")
        handle.flush()
        os.fsync(handle.fileno())
    assert runtime_contracts.fsynced(path)
    with path.open("ab") as handle:
        handle.write(b"d")
    assert not runtime_contracts.fsynced(path)


# -- (a) a renamed file was fsynced in its current state -----------------------


def test_an_atomic_write_without_its_fsync_is_flagged(runtime_contracts, tmp_path,
                                                      no_fsync):
    durable.write([(tmp_path / "meta.json", b"{}")])
    assert flagged(runtime_contracts, "a")


def test_an_atomic_write_passes(runtime_contracts, tmp_path):
    durable.write([(tmp_path / "a.bin", np.arange(4)), (tmp_path / "b.bin", b"")])
    assert runtime_contracts.take() == []


def test_renames_made_by_test_code_are_ignored(runtime_contracts, tmp_path):
    (tmp_path / "a").write_bytes(b"never fsynced")
    os.replace(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b").rename(tmp_path / "c")
    os.link(tmp_path / "c", tmp_path / "d")
    assert runtime_contracts.take() == []


# -- (b) a published directory is sealed ------------------------------------


def test_a_directory_renamed_without_its_seal_is_flagged(runtime_contracts,
                                                         tmp_path):
    # the seam's publish refuses a directory with no seal to fsync, so the
    # rename is made as the seam would make it without that check
    directory = sealed_directory(tmp_path, seal=False)
    with pytest.raises(FileNotFoundError):
        durable.publish([(directory, tmp_path / "epoch_00001")])
    run_as("repro.storage.durable", "durable._fsync(a)\nos.replace(a, b)",
           durable=durable, os=os, a=directory, b=tmp_path / "epoch_00001")
    assert flagged(runtime_contracts, "b")


def test_a_seal_publish_does_not_fsync_is_flagged(runtime_contracts, tmp_path,
                                                  monkeypatch):
    directory = sealed_directory(tmp_path)
    real = durable._fsync
    monkeypatch.setattr(durable, "_fsync", lambda path: None
                        if Path(path).name == durable.SEAL else real(path))
    durable.publish([(directory, tmp_path / "epoch_00001")])
    assert flagged(runtime_contracts, "b")


def test_a_seal_that_misses_a_file_is_flagged(runtime_contracts, tmp_path):
    directory = sealed_directory(tmp_path)
    durable.write([(directory / "late.bin", b"x")], sealed=True)
    durable.publish([(directory, tmp_path / "epoch_00001")])
    assert flagged(runtime_contracts, "b")


@pytest.mark.parametrize("sealed", [True, False])
def test_a_sealed_directory_publishes(runtime_contracts, tmp_path, sealed):
    # a seal written in sealed mode is fsynced by publish; one replaced
    # durably (a re-seal in place) already was
    directory = sealed_directory(tmp_path, seal=False)
    write_checkpoint_checksums(directory, sealed=sealed)
    durable.publish([(directory, tmp_path / "epoch_00001")])
    assert runtime_contracts.take() == []


# -- (c) a durable call returns with its directories fsynced --------------------


def test_a_publish_without_its_directory_fsync_is_flagged(runtime_contracts, tmp_path,
                                                          no_directory_fsync):
    directory = sealed_directory(tmp_path)
    durable.publish([(directory, tmp_path / "epoch_00001")])
    assert flagged(runtime_contracts, "c")


def test_an_append_that_creates_its_file_fsyncs_the_directory(
        runtime_contracts, tmp_path, no_directory_fsync):
    durable.append(tmp_path / "wal.bin", b"created")
    assert flagged(runtime_contracts, "c")
    durable.append(tmp_path / "wal.bin", b"appended")     # the entry exists
    assert runtime_contracts.take() == []


def test_an_append_without_its_fsync_is_flagged(runtime_contracts, tmp_path,
                                                no_fsync):
    (tmp_path / "wal.bin").write_bytes(b"")
    durable.append(tmp_path / "wal.bin", b"record")
    assert flagged(runtime_contracts, "c")


def test_sealed_mode_writes_and_links_fsync_nothing(runtime_contracts, tmp_path,
                                                    no_fsync):
    durable.write([(tmp_path / "graph.bin", b"g")], sealed=True)
    assert durable.link(tmp_path / "graph.bin", tmp_path / "linked.bin")
    assert not durable.link(tmp_path / "graph.bin", tmp_path / "copy.bin", copy=True)
    assert runtime_contracts.take() == []


# -- (d) only the seam renames and links -------------------------------------


@pytest.mark.parametrize("call", ["os.rename(a, b)", "os.replace(a, b)",
                                  "os.link(a, b)", "a.rename(b)"])
def test_repro_code_renaming_outside_the_seam_is_flagged(runtime_contracts,
                                                         tmp_path, call):
    (tmp_path / "a").write_bytes(b"x")
    run_as("repro.core.engine", call, os=os, a=tmp_path / "a", b=tmp_path / "b")
    assert flagged(runtime_contracts, "d")


# -- (e) nothing blocks under a hot lock; no lock-order cycle -----------------


@pytest.mark.parametrize("call", ["os.fsync(fd)", "time.sleep(0)",
                                  "threading.Event().wait(0)", "thread.join()"])
def test_a_blocking_call_under_a_hot_lock_is_flagged(runtime_contracts, tmp_path,
                                                     call):
    thread = threading.Thread(target=lambda: None)
    thread.start()
    lock = RecordingLock(runtime_contracts, "ServingRuntime._view_lock",
                         threading.Lock())
    with (tmp_path / "f").open("wb") as handle, lock:
        run_as("tests", call, os=os, time=time, threading=threading,
               thread=thread, fd=handle.fileno())
    assert flagged(runtime_contracts, "e")


def test_an_fsync_under_the_engine_lock_is_allowed(runtime_contracts, tmp_path):
    lock = RecordingLock(runtime_contracts, "ServingRuntime._engine_lock",
                         threading.Lock())
    with lock:
        durable.append(tmp_path / "wal.bin", b"accepted")
    assert "ServingRuntime._engine_lock" not in HOT_LOCKS
    assert runtime_contracts.take() == []


def test_a_lock_order_cycle_is_flagged(runtime_contracts):
    # fresh names: the order graph lives as long as the session
    first, second = (RecordingLock(runtime_contracts, f"{uuid.uuid4().hex}.{name}",
                                   threading.Lock()) for name in "AB")
    with first, second:
        pass
    with first, second:                  # the same order again is fine
        pass
    assert runtime_contracts.take() == []
    with second, first:
        pass
    assert flagged(runtime_contracts, "e")


def test_every_lock_in_the_tree_is_a_recording_lock(tmp_path):
    declared = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for attr in re.findall(r"self\.(\w+) = threading\.Lock\(\)", text):
            owner = re.findall(r"^class (\w+)", text[:text.index(
                f"self.{attr} = threading.Lock()")], re.M)[-1]
            declared.add((owner, attr))
    assert declared == {(owner, attr) for _, owner, attr in LOCKS}
    runtime = ServingRuntime(None, workdir=tmp_path)
    admission = AdmissionController(1, lambda batch: 0, lambda: 0)
    for lock in (runtime._engine_lock, runtime._view_lock, runtime._stats_lock,
                 runtime.supervisor._state_lock, admission._lock,
                 admission._counts_lock):
        assert isinstance(lock, RecordingLock)
    runtime.close()


# -- (f) writable memmaps stay in repro.storage --------------------------------


@pytest.mark.parametrize("module, mode, broken", [
    ("repro.service.snapshot", "r+", True),
    ("repro.service.snapshot", "r", False),
    ("repro.storage.profile_store", "r+", False),
])
def test_a_writable_memmap_outside_storage_is_flagged(runtime_contracts, tmp_path,
                                                      module, mode, broken):
    path = tmp_path / "rows.bin"
    path.write_bytes(bytes(64))
    run_as(module, "view = np.memmap(path, dtype=np.float64, mode=mode)\ndel view",
           np=np, path=path, mode=mode)
    assert bool(flagged(runtime_contracts, "f")) is broken


# -- (g) a WAL truncation finds the kept epoch on disk ---------------------------


def _durable_run(workdir: Path) -> None:
    """Three durable iterations with updates queued between them: every
    commit truncates the WAL to the oldest kept epoch."""
    profiles = generate_dense_profiles(60, dim=4, num_communities=2, seed=3)
    config = EngineConfig(k=3, num_partitions=2, seed=3, durable=True)
    with KNNEngine(profiles, config, workdir=workdir) as engine:
        for user in (1, 2):
            engine.run_iteration()
            engine.enqueue_profile_changes([ProfileChange(user=user, kind="set",
                                                          vector=np.ones(4))])
        engine.run_iteration()


def test_a_truncation_before_the_kept_epoch_is_fsynced_is_flagged(
        runtime_contracts, tmp_path, monkeypatch):
    monkeypatch.setattr(durable, "settle", lambda directory: None)
    _durable_run(tmp_path / "engine")
    found = flagged(runtime_contracts, "g")
    assert found and all("profiles/" in message for message in found)


def test_a_truncation_after_the_kept_epoch_is_fsynced_passes(runtime_contracts,
                                                             tmp_path):
    _durable_run(tmp_path / "engine")
    assert runtime_contracts.take() == []
