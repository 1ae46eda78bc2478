"""The epoch tail wall: a refresh's durable tail costs what changed.

A commit epoch is graph + profile snapshot + manifest, sealed with CRCs its
writers took from the bytes in hand, and the refresh swaps in the graph it
just sealed from memory.  This wall pins what that must not cost:

* the seal is the one a from-disk re-read would have written, byte for byte;
* the layout loses ``score_cache.bin`` and gains nothing, and an explicit
  ``save_checkpoint()`` is laid out the same way;
* an epoch sealed in an older layout (score cache included, CRCs re-read)
  still recovers, to the never-interrupted twin's graph and profile bytes,
  without reading the cache;
* ``load_checkpoint`` runs once a recovery, in ``KNNEngine.recover``:
  start-up, every refresh and the supervisor's republish serve the epoch
  the engine holds, around its in-memory graph — never a newer sealed
  epoch the engine did not recover, never a second load;
* the served graph is the sealed one, row for row, and is read-only — the
  engine's next iteration runs over it regardless;
* and nothing grows: commit epochs, WAL bytes, open files, mapped files —
  and no ``serving/`` directory of per-refresh clones ever appears.

The refresh loop stays parked (``RefreshSupervisor.start`` patched out), so
every refresh is a ``run_one_refresh()`` the test asked for; the test of
the supervisor's own recovery path and the loop-driven soak (garbage
collected after each swap, fronts prepared while idle) start the real
thread.
"""

from __future__ import annotations

import gc
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
        # the explicit, portable checkpoint is an epoch without its seal
        explicit = tmp_path / "explicit"
        engine.save_checkpoint(explicit)
        manifest = json.loads((explicit / "checkpoint.json").read_text())
        assert "score_cache_file" not in manifest
        assert {path.name for path in explicit.iterdir()} == {
            "checkpoint.json",
            f"knn_graph_{engine.iterations_run:05d}.bin", "profiles"}


# -- (iii) an epoch sealed by the parent commit still recovers -------------------


def _old_score_cache_bytes(cache):
    """``score_cache.bin`` as older commits wrote it into a checkpoint: the
    magic, an int64 header (generation, vertex count, entries, measure
    length, capacity), the measure, the sorted pair keys, their scores."""
    measure = cache.measure.encode("utf-8")
    header = np.asarray([cache.generation, cache.num_vertices, len(cache.keys),
                         len(measure), cache.max_entries], dtype=np.int64)
    return b"".join((b"RPSC0001", header.tobytes(), measure,
                     cache.keys.tobytes(), cache.values.tobytes()))


def _reseal_in_the_parent_layout(engine):
    """Rewrite the newest epoch the way older commits sealed it: score
    cache included, every CRC taken from a re-read."""
    epoch, epoch_dir = engine.latest_sealed_epoch()
    metadata = json.loads((epoch_dir / "checkpoint.json").read_text())["metadata"]
    shutil.rmtree(epoch_dir)
    manifest_path = save_portable_checkpoint(
        epoch_dir, engine.graph, epoch, profile_store=engine.profile_store,
        metadata=metadata)
    (epoch_dir / "score_cache.bin").write_bytes(
        _old_score_cache_bytes(engine._iteration_runner.score_cache))
    manifest = json.loads(manifest_path.read_text())
    manifest["score_cache_file"] = "score_cache.bin"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    write_checkpoint_checksums(epoch_dir)
    assert verify_checkpoint(epoch_dir)
    assert "score_cache.bin" in json.loads(
        (epoch_dir / "checksums.json").read_text())


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
        assert first.full_rescore          # the old epoch's cache is not read
        assert _final_state(recovered) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_an_old_explicit_checkpoint_resumes_without_reading_its_cache(
        kind, tmp_path):
    """An explicit checkpoint older commits wrote carries ``score_cache.bin``
    and a manifest entry naming it; resuming reads neither the file nor
    anything it says, rescores once and continues to the twin's graphs."""
    def drive(engine, upto):
        results = []
        while engine.iterations_run < upto:
            engine.enqueue_profile_changes(_batch(kind, engine.iterations_run))
            results.append(engine.run_iteration())
        return results

    with KNNEngine(_profiles(kind), _config(kind)) as twin:
        expected = [result.graph.edge_fingerprint() for result in drive(twin, 5)]
    with KNNEngine(_profiles(kind), _config(kind)) as engine:
        drive(engine, 3)
        manifest_path = engine.save_checkpoint(tmp_path / "ckpt")
        cache_bytes = _old_score_cache_bytes(engine._iteration_runner.score_cache)
    (tmp_path / "ckpt" / "score_cache.bin").write_bytes(cache_bytes)
    manifest = json.loads(manifest_path.read_text())
    manifest["score_cache_file"] = "score_cache.bin"
    manifest_path.write_text(json.dumps(manifest, indent=2))

    read = []
    real = Path.read_bytes
    with mock.patch.object(Path, "read_bytes",
                           lambda path: read.append(path.name) or real(path)):
        resumed = KNNEngine.from_checkpoint(tmp_path / "ckpt")
    with resumed:
        assert "score_cache.bin" not in read
        results = drive(resumed, 5)
    assert [result.graph.edge_fingerprint() for result in results] == expected[3:]
    assert [result.full_rescore for result in results] == [True, False]
    assert (tmp_path / "ckpt" / "score_cache.bin").read_bytes() == cache_bytes


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
    the snapshot module's import (``SnapshotView.from_commit`` with no graph
    in hand) and the checkpoint module's own (``load_portable_checkpoint``,
    i.e. recovery)."""

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
        assert spy.counts == (0, 0)             # start() served G(0) from memory
        try:
            for index in range(10):
                _refresh(runtime, kind, index)
                assert spy.counts == (0, 0), f"refresh {index} loaded a graph"
                view = runtime._view
                served = view.graph
                assert view.epoch == index + 1
                # durable before visible: what is served is already sealed
                assert verify_checkpoint(
                    runtime.engine.epoch_dir(view.epoch))
                # this module's own import of load_checkpoint is not spied
                sealed, iteration, _ = load_checkpoint(
                    runtime.engine.epoch_dir(view.epoch))
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


def test_recovery_loads_the_graph_once_and_serves_it_from_memory(tmp_path):
    plan = FaultPlan().crash_at("service.before_swap", occurrence=1)
    with _LoadSpy() as spy:
        runtime = ServingRuntime(
            _profiles("dense"), _config("dense", durable=True, fault_plan=plan),
            workdir=tmp_path / "svc", refresh_poll_interval=0.005,
            backoff_base=0.005, backoff_cap=0.05).start()
        try:
            assert spy.counts == (0, 0)
            assert runtime.submit_updates(_batch("dense", 0)).accepted
            deadline = time.time() + 60.0
            while not (runtime.current_epoch == 1 and runtime.restarts == 1):
                assert time.time() < deadline, runtime.supervisor.last_error
                time.sleep(0.005)
            # epoch 1 was sealed, the swap crashed, the supervisor recovered the
            # engine (the one load) and published the graph it recovered
            assert "crash" in plan.fired_kinds()
            assert spy.counts == (0, 1)
            assert runtime._view.graph is runtime.engine.graph
            assert runtime.neighbors(0, deadline_seconds=10.0)
        finally:
            runtime.close()
        with ServingRuntime.recover(tmp_path / "svc") as recovered:
            assert spy.counts == (0, 2)         # KNNEngine.recover, nothing else
            assert recovered.current_epoch == 1
            assert recovered._view.graph is recovered.engine.graph


# -- recovery serves what it recovered ---------------------------------------------


def _flip_a_score_bit(epoch_dir):
    """Flip the lowest mantissa bit of the last score the epoch's graph file
    holds: the epoch no longer verifies."""
    (graph_file,) = epoch_dir.glob("knn_graph_*.bin")
    raw = bytearray(graph_file.read_bytes())
    raw[-8] ^= 0x01
    graph_file.write_bytes(bytes(raw))
    assert not verify_checkpoint(epoch_dir)


def _serves_the_engines_graph(runtime):
    engine = runtime.engine
    assert runtime.current_epoch == engine.iterations_run
    assert [runtime.neighbors(user) for user in range(NUM_USERS)] == [
        engine.graph.ranked(user) for user in range(NUM_USERS)]


@pytest.mark.parametrize("kind", KINDS)
def test_recovery_past_a_corrupt_epoch_serves_the_epoch_it_recovered(
        kind, tmp_path, parked):
    runtime = _service(kind, tmp_path / "svc")
    try:
        for index in range(4):
            _refresh(runtime, kind, index)
    finally:
        runtime.close()
    _flip_a_score_bit(tmp_path / "svc" / "engine" / "commits" / "epoch_00004")
    with ServingRuntime.recover(tmp_path / "svc") as recovered:
        assert recovered.engine.iterations_run == 3     # epoch 4 fails its CRCs
        _serves_the_engines_graph(recovered)
        _refresh(recovered, kind, 4)
        assert recovered.engine.iterations_run == 4
        _serves_the_engines_graph(recovered)


def test_the_supervisors_recovery_past_a_corrupt_epoch_serves_what_it_recovered(
        tmp_path, parked):
    runtime = _service("dense", tmp_path / "svc", backoff_base=0.001)
    try:
        for index in range(4):
            _refresh(runtime, "dense", index)
        assert runtime.current_epoch == 4
        _flip_a_score_bit(runtime.engine.epoch_dir(4))
        assert runtime.supervisor._recover()    # what the loop does after a crash
        assert runtime.engine.iterations_run == 3
        _serves_the_engines_graph(runtime)
        runtime.supervisor.run_one_refresh()    # the WAL tail makes epoch 4 again
        assert runtime.engine.iterations_run == 4
        _serves_the_engines_graph(runtime)
    finally:
        runtime.close()


# -- nothing grows ----------------------------------------------------------------


def _open_fds():
    # the count is process-wide: what earlier tests left to the cyclic
    # collector (a closed engine's profile mappings) is finalised first, or
    # it may close its descriptors in the middle of the measured window
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


def _mapped_under(directory):
    """How many of this process's mappings are of files under ``directory``
    (a pruned epoch's file still mapped reads ``... (deleted)``)."""
    gc.collect()
    prefix = f"{Path(directory).resolve()}{os.sep}"
    with open("/proc/self/maps", encoding="utf-8") as maps:
        return sum(1 for line in maps if prefix in line)


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
    reader that holds views across swaps."""
    runtime = _service("dense", tmp_path / "svc")
    stop = threading.Event()
    failures = []

    def reader():
        # take the current view, hold it across at least one swap, drop it:
        # the reader holds one view (two mapped files) at a time
        try:
            while not stop.is_set():
                view = runtime._current_view(5.0)
                assert len(view.neighbors(0)) == K
                time.sleep(0.01)
                del view
        except Exception as exc:  # noqa: BLE001 — reported by the main thread
            failures.append(exc)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    engine_dir = runtime.workdir / "engine"
    wal = engine_dir / "wal.bin"
    try:
        wal_ceiling = fds_at_5 = maps_at_5 = None
        for index in range(40):
            assert runtime.submit_updates(_fixed_width_batch(index)).accepted
            runtime.supervisor.run_one_refresh()
            assert not (runtime.workdir / "serving").exists(), index
            commits = list((engine_dir / "commits").iterdir())
            assert len(commits) <= KNNEngine.COMMITS_KEPT, (index, commits)
            if index == 4:
                wal_ceiling, fds_at_5 = wal.stat().st_size, _open_fds()
                maps_at_5 = _mapped_under(runtime.workdir)
            elif index > 4:
                assert wal.stat().st_size <= wal_ceiling, index
        assert abs(_open_fds() - fds_at_5) <= 2
        assert _mapped_under(runtime.workdir) <= maps_at_5 + 2
    finally:
        stop.set()
        thread.join(timeout=30.0)
    try:
        assert not thread.is_alive() and not failures, failures
        assert not (runtime.workdir / "serving").exists()
        assert not list(runtime.workdir.rglob("score_cache.bin"))
    finally:
        runtime.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
def test_nothing_grows_over_forty_loop_refreshes(tmp_path):
    """The same soak driven by the refresh loop itself: every refresh
    collects after its swap, and the idle loop prepares the next front —
    after each quiesce at most ``COMMITS_KEPT`` epochs, and a flat WAL."""
    prepared = []
    prepare_front = KNNEngine.prepare_front

    def preparing(engine):
        prepared.append(engine.graph)
        return prepare_front(engine)

    with mock.patch.object(KNNEngine, "prepare_front", preparing):
        runtime = _service("dense", tmp_path / "svc",
                           refresh_poll_interval=0.002)
        engine_dir = runtime.workdir / "engine"
        wal = engine_dir / "wal.bin"
        try:
            wal_ceiling = fds_at_5 = maps_at_5 = None
            for index in range(40):
                epoch = runtime.current_epoch
                assert runtime.submit_updates(_fixed_width_batch(index)).accepted
                deadline = time.time() + 60.0
                while (runtime.current_epoch == epoch or runtime.pending_updates
                       or runtime.refresh_in_flight):
                    assert time.time() < deadline, runtime.supervisor.last_error
                    time.sleep(0.002)
                commits = list((engine_dir / "commits").iterdir())
                assert len(commits) <= KNNEngine.COMMITS_KEPT, (index, commits)
                assert not (runtime.workdir / "serving").exists(), index
                if index == 4:
                    wal_ceiling, fds_at_5 = wal.stat().st_size, _open_fds()
                    maps_at_5 = _mapped_under(runtime.workdir)
                elif index > 4:
                    assert wal.stat().st_size <= wal_ceiling, index
            assert abs(_open_fds() - fds_at_5) <= 2
            assert _mapped_under(runtime.workdir) <= maps_at_5 + 2
            assert runtime.supervisor.refreshes == 40
            assert runtime.restarts == 0 and prepared
        finally:
            runtime.close()
