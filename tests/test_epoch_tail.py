"""The epoch tail wall: a refresh's durable tail costs what changed.

A commit epoch is graph + profile snapshot + manifest, sealed with CRCs its
writers took from the bytes in hand, and the refresh swaps in the graph it
just sealed from memory.  This wall pins what that must not cost:

* the seal is the one a from-disk re-read would have written, byte for byte;
* the layout loses ``score_cache.bin`` and gains nothing, and an explicit
  ``save_checkpoint()`` still carries the cache;
* an epoch sealed by the parent commit (cache included, CRCs re-read) still
  recovers, to the never-interrupted twin's graph and profile bytes;
* ``load_checkpoint`` is off the refresh path and still what start-up,
  recovery and the supervisor's republish read the graph with;
* the served graph is the sealed one, row for row, and is read-only — the
  engine's next iteration runs over it regardless;
* and nothing grows: serving clones, commit epochs, WAL bytes, open files.

The refresh loop stays parked (``RefreshSupervisor.start`` patched out), so
every refresh is a ``run_one_refresh()`` the test asked for; the one test of
the supervisor's own recovery path starts the real thread.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.core.checkpoint as checkpoint_module
import repro.service.snapshot as snapshot_module
from repro.core.checkpoint import (load_checkpoint, save_portable_checkpoint,
                                   verify_checkpoint,
                                   write_checkpoint_checksums)
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.service import ServingRuntime
from repro.service.supervisor import RefreshSupervisor
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.testing import FaultPlan

NUM_USERS = 60
DIM = 6
NUM_ITEMS = 90
K = 4
KINDS = ["dense", "sparse"]


def _profiles(kind):
    if kind == "dense":
        return generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=3,
                                       seed=2)
    return generate_sparse_profiles(NUM_USERS, NUM_ITEMS, items_per_user=7,
                                    num_communities=3, seed=2)


def _config(kind, **overrides):
    measure = "cosine" if kind == "dense" else "jaccard"
    # the contiguous split gives a sparse store one segment per partition
    return EngineConfig(k=K, num_partitions=3, seed=5, measure=measure,
                        **overrides)


def _batch(kind, index):
    rng = np.random.default_rng(500 + index)
    users = rng.choice(NUM_USERS, size=3, replace=False)
    if kind == "dense":
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(DIM))
                for u in users]
    return [ProfileChange(user=int(u), kind="add",
                          item=int(rng.integers(0, NUM_ITEMS))) for u in users]


@pytest.fixture
def parked():
    with mock.patch.object(RefreshSupervisor, "start", lambda supervisor: None):
        yield


def _service(kind, workdir, **overrides):
    return ServingRuntime(_profiles(kind), _config(kind, durable=True),
                          workdir=workdir, **overrides).start()


def _refresh(runtime, kind, index):
    assert runtime.submit_updates(_batch(kind, index)).accepted
    runtime.supervisor.run_one_refresh()


def _final_state(engine):
    profile_bytes = {path.name: path.read_bytes()
                     for path in sorted(engine.profile_store.base_dir.glob("profiles_*"))
                     if path.name != "profiles_meta.json"}
    return engine.graph.edge_fingerprint(), profile_bytes


# -- (i) the seal is the re-read's seal ------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_the_seal_equals_a_from_disk_reread(kind, tmp_path, parked):
    with _service(kind, tmp_path / "svc") as runtime:
        for index in range(3):
            _refresh(runtime, kind, index)
            epoch, epoch_dir = runtime.engine.latest_sealed_epoch()
            assert epoch == index + 1
            assert verify_checkpoint(epoch_dir)
            reread = tmp_path / f"reread_{index}"
            shutil.copytree(epoch_dir, reread)
            (reread / "checksums.json").unlink()
            write_checkpoint_checksums(reread)      # nobody vouches: reads all
            assert ((epoch_dir / "checksums.json").read_bytes()
                    == (reread / "checksums.json").read_bytes())
        sealed = json.loads((epoch_dir / "checksums.json").read_text())
        on_disk = {str(path.relative_to(epoch_dir))
                   for path in epoch_dir.rglob("*") if path.is_file()}
        assert set(sealed) == on_disk - {"checksums.json"}
        if kind == "sparse":
            meta = json.loads(
                (epoch_dir / "profiles" / "profiles_meta.json").read_text())
            assert meta["journal_entries"] > 0          # journaled ...
            assert len(meta["segment_bounds"]) > 2      # ... and multi-segment


def test_sealing_reads_no_profile_or_graph_bytes(tmp_path, parked):
    with _service("dense", tmp_path / "svc") as runtime:
        read = []
        real = Path.read_bytes

        def spy(path):
            read.append(path)
            return real(path)

        with mock.patch.object(Path, "read_bytes", spy):
            _refresh(runtime, "dense", 0)
        # of the working store and the epoch, only the store's meta is read
        # (parsed for its crc32 map) — the WAL's own reads are not the seal's
        engine_dir = runtime.workdir / "engine"
        assert {path.name for path in read
                if engine_dir / "profiles" in path.parents
                or engine_dir / "commits" in path.parents} == {"profiles_meta.json"}


# -- (ii) the layout --------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_commit_epoch_loses_the_score_cache_and_gains_nothing(kind, tmp_path,
                                                                 parked):
    with _service(kind, tmp_path / "svc") as runtime:
        _refresh(runtime, kind, 0)
        engine = runtime.engine
        for epoch, epoch_dir in engine.sealed_epochs():
            assert {path.name for path in epoch_dir.iterdir()} == {
                "checkpoint.json", "checksums.json",
                f"knn_graph_{epoch:05d}.bin", "profiles"}
            manifest = json.loads((epoch_dir / "checkpoint.json").read_text())
            assert "score_cache_file" not in manifest
            assert manifest["profiles_dir"] == "profiles"
        live = {path.name for path in engine.profile_store.base_dir.glob("profiles_*")}
        assert {path.name for path in (epoch_dir / "profiles").iterdir()} == live
        # the explicit, portable checkpoint is a separate decision: it keeps it
        explicit = tmp_path / "explicit"
        engine.save_checkpoint(explicit)
        manifest = json.loads((explicit / "checkpoint.json").read_text())
        assert manifest["score_cache_file"] == "score_cache.bin"
        assert (explicit / "score_cache.bin").is_file()
        assert {path.name for path in explicit.iterdir()} == {
            "checkpoint.json", "score_cache.bin",
            f"knn_graph_{engine.iterations_run:05d}.bin", "profiles"}


# -- (iii) an epoch sealed by the parent commit still recovers -------------------


def _reseal_in_the_parent_layout(engine):
    """Rewrite the newest epoch the way the parent commit sealed it: score
    cache included, every CRC taken from a re-read."""
    epoch, epoch_dir = engine.latest_sealed_epoch()
    metadata = json.loads((epoch_dir / "checkpoint.json").read_text())["metadata"]
    shutil.rmtree(epoch_dir)
    save_portable_checkpoint(epoch_dir, engine.graph, epoch,
                             profile_store=engine.profile_store,
                             score_cache=engine._checkpointable_cache(),
                             metadata=metadata)
    write_checkpoint_checksums(epoch_dir)
    assert (epoch_dir / "score_cache.bin").is_file()
    assert verify_checkpoint(epoch_dir)


@pytest.mark.parametrize("kind", KINDS)
def test_engine_recovers_a_parent_layout_epoch_to_the_twin(kind, tmp_path):
    def drive(engine, upto):
        results = []
        while engine.iterations_run < upto:
            engine.enqueue_profile_changes(_batch(kind, engine.iterations_run))
            results.append(engine.run_iteration(updates_first=True))
        return results

    with KNNEngine(_profiles(kind), _config(kind)) as twin:
        drive(twin, 5)
        expected = _final_state(twin)

    engine = KNNEngine(_profiles(kind), _config(kind, durable=True),
                       workdir=tmp_path / "work")
    try:
        drive(engine, 3)
        _reseal_in_the_parent_layout(engine)
    finally:
        engine.close()
    with KNNEngine.recover(tmp_path / "work") as recovered:
        assert recovered.iterations_run == 3
        first, _ = drive(recovered, 5)
        assert not first.full_rescore      # the parent epoch's cache is adopted
        assert _final_state(recovered) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_service_recovers_a_parent_layout_epoch_to_the_twin(kind, tmp_path,
                                                            parked):
    with _service(kind, tmp_path / "twin") as twin:
        for index in range(5):
            _refresh(twin, kind, index)
        expected = _final_state(twin.engine)
        expected_reads = [twin.neighbors(user) for user in range(NUM_USERS)]

    runtime = _service(kind, tmp_path / "svc")
    try:
        for index in range(3):
            _refresh(runtime, kind, index)
        _reseal_in_the_parent_layout(runtime.engine)
    finally:
        runtime.close()
    with ServingRuntime.recover(tmp_path / "svc") as recovered:
        assert recovered.current_epoch == 3
        for index in range(3, 5):
            _refresh(recovered, kind, index)
        assert _final_state(recovered.engine) == expected
        assert [recovered.neighbors(user)
                for user in range(NUM_USERS)] == expected_reads


# -- (iv) + (v) swap from memory --------------------------------------------------


class _LoadSpy:
    """Counts ``load_checkpoint`` calls through both names it is reached by:
    the snapshot module's import (start-up, republish) and the checkpoint
    module's own (``load_portable_checkpoint``, i.e. recovery)."""

    def __init__(self):
        self.snapshot = mock.patch.object(
            snapshot_module, "load_checkpoint", wraps=load_checkpoint)
        self.core = mock.patch.object(
            checkpoint_module, "load_checkpoint", wraps=load_checkpoint)

    def __enter__(self):
        self.snapshot_calls = self.snapshot.start()
        self.core_calls = self.core.start()
        return self

    def __exit__(self, *exc):
        self.snapshot.stop()
        self.core.stop()

    @property
    def counts(self):
        return self.snapshot_calls.call_count, self.core_calls.call_count


@pytest.mark.parametrize("kind", KINDS)
def test_ten_refreshes_serve_the_sealed_graph_from_memory(kind, tmp_path, parked):
    with _LoadSpy() as spy:
        runtime = _service(kind, tmp_path / "svc")
        assert spy.counts == (1, 0)             # start() read epoch 0 from disk
        try:
            for index in range(10):
                _refresh(runtime, kind, index)
                assert spy.counts == (1, 0), f"refresh {index} loaded a graph"
                view = runtime._view
                served = view.graph
                assert view.epoch == index + 1
                # durable before visible: what is served is already sealed
                assert verify_checkpoint(
                    runtime.engine.epoch_dir(view.epoch))
                # this module's own import of load_checkpoint is not spied
                sealed, iteration, _ = load_checkpoint(view.directory)
                assert iteration == view.epoch
                # whatever arrays the graph is made of (neighbours, scores,
                # counts today): equal to the sealed file's, none writeable
                arrays = {name: value for name, value in vars(served).items()
                          if isinstance(value, np.ndarray)}
                assert len(arrays) == 3
                for name, got in arrays.items():
                    assert np.array_equal(got, vars(sealed)[name]), (
                        f"{name} at epoch {view.epoch}")
                    assert got.flags.writeable is False
                    with pytest.raises(ValueError):
                        got[0] = 0
                assert [served.ranked(user) for user in range(NUM_USERS)] == [
                    sealed.ranked(user) for user in range(NUM_USERS)]
                with pytest.raises(ValueError):
                    served.add_candidate(0, 1, 2.0)
                # the engine still holds that very graph as G(t) ...
                assert runtime.engine.graph is served
            # ... and the refreshes above each iterated over a frozen G(t)
            assert runtime.engine.iterations_run == 10
        finally:
            runtime.close()


def test_recovery_and_republish_still_load_from_disk(tmp_path):
    plan = FaultPlan().crash_at("service.before_swap", occurrence=1)
    with _LoadSpy() as spy:
        runtime = ServingRuntime(
            _profiles("dense"), _config("dense", durable=True, fault_plan=plan),
            workdir=tmp_path / "svc", refresh_poll_interval=0.005,
            backoff_base=0.005, backoff_cap=0.05).start()
        try:
            assert spy.counts == (1, 0)
            assert runtime.submit_updates(_batch("dense", 0)).accepted
            deadline = time.time() + 60.0
            while not (runtime.current_epoch == 1 and runtime.restarts == 1):
                assert time.time() < deadline, runtime.supervisor.last_error
                time.sleep(0.005)
            # epoch 1 was sealed, the swap crashed, the supervisor recovered the
            # engine (one load) and published the sealed epoch (another)
            assert "crash" in plan.fired_kinds()
            assert spy.counts == (2, 1)
            assert runtime.neighbors(0, deadline_seconds=10.0)
        finally:
            runtime.close()
        with ServingRuntime.recover(tmp_path / "svc") as recovered:
            assert spy.counts == (3, 2)         # KNNEngine.recover + start()
            assert recovered.current_epoch == 1


# -- nothing grows ----------------------------------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _fixed_width_batch(index):
    """25 changes whose WAL records have one size from refresh 5 to 40: the
    log is JSON, so user ids stay two digits, every float prints in four
    characters and the sequence numbers (100 ... 999) in three — a longer
    log is then a record that was not collected, not a wider number."""
    value = (0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)[index % 9]
    return [ProfileChange(user=10 + (index + 2 * j) % 50, kind="set",
                          vector=np.full(DIM, value)) for j in range(25)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_nothing_grows_over_forty_refreshes(tmp_path, parked):
    """The first piece of the long-run soak: 40 refreshes with churn under a
    reader that pins views across swaps."""
    runtime = _service("dense", tmp_path / "svc")
    pinned = []
    pinned_lock = threading.Lock()
    stop = threading.Event()
    failures = []

    def reader():
        # pin the current view, hold it across at least one swap, let it go
        try:
            while not stop.is_set():
                view = runtime._acquire_view(5.0)
                with pinned_lock:
                    pinned.append(view)
                assert len(view.neighbors(0)) == K
                time.sleep(0.01)
                with pinned_lock:
                    pinned.remove(view)
                view.release()
        except Exception as exc:  # noqa: BLE001 — reported by the main thread
            failures.append(exc)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    engine_dir = runtime.workdir / "engine"
    wal = engine_dir / "wal.bin"
    try:
        wal_ceiling = fds_at_5 = None
        for index in range(40):
            assert runtime.submit_updates(_fixed_width_batch(index)).accepted
            runtime.supervisor.run_one_refresh()
            with pinned_lock:
                held = len(set(map(id, pinned)))
            serving = list(runtime.serving_dir.iterdir())
            # the current view, one being retired, and whatever is pinned
            assert len(serving) <= 2 + held, (index, serving)
            commits = list((engine_dir / "commits").iterdir())
            assert len(commits) <= KNNEngine.COMMITS_KEPT, (index, commits)
            if index == 4:
                wal_ceiling, fds_at_5 = wal.stat().st_size, _open_fds()
            elif index > 4:
                assert wal.stat().st_size <= wal_ceiling, index
        assert abs(_open_fds() - fds_at_5) <= 2
    finally:
        stop.set()
        thread.join(timeout=30.0)
    try:
        assert not thread.is_alive() and not failures, failures
        assert [path.name for path in runtime.serving_dir.iterdir()] == [
            runtime._view.directory.name]
        assert not list(runtime.workdir.rglob("score_cache.bin"))
    finally:
        runtime.close()
