"""``python -m repro migrate`` over checkpoints, commit epochs and workdirs.

The graph file holds ``G(t)``'s ranked arrays, and the loader refuses the
``RPCK0001`` edge columns every checkpoint and epoch held before, naming
``migrate``.  Migration decodes such a file with the old loader's code,
moved verbatim (bulk placement for a file in its writer's layout, edge by
edge replay for any other edge list), migrates a legacy ``profiles/``
store, and re-seals a sealed epoch:

* the old loader's row assertions hold through the migration;
* a workdir whose epochs were sealed in the old layout migrates, verifies
  and recovers to the uninterrupted run's graph and profile bytes;
* a current directory is left untouched, an interrupted migration is
  simply run again, and a damaged epoch is refused, not re-sealed.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

import repro.storage.migrate as migrate_module
from repro.cli import main
from repro.core.checkpoint import (load_checkpoint, save_knn_graph,
                                   verify_checkpoint,
                                   write_checkpoint_checksums)
from repro.core.engine import KNNEngine
from repro.similarity.profiles import DenseProfileStore
from repro.storage.migrate import migrate, migrate_checkpoint
from repro.storage.profile_store import StoreFormatError
from test_epoch_tail import KINDS, _batch, _config, _final_state, _profiles
from test_graph_knn_arrays import _GOLDEN_FINGERPRINT, _file_bytes, golden_graph
from test_storage_format import _write_v1_dense


def _legacy_checkpoint(directory, n, k, edges):
    """A checkpoint (no seal, no profiles) whose graph file holds ``edges``
    in the ``RPCK0001`` layout."""
    directory.mkdir(parents=True)
    (directory / "knn_graph_00001.bin").write_bytes(_file_bytes(n, k, edges))
    (directory / "checkpoint.json").write_text(json.dumps(
        {"iteration": 1, "graph_file": "knn_graph_00001.bin",
         "num_vertices": n, "k": k, "metadata": {}}))
    return directory


def _migrated_graph(directory):
    with pytest.raises(ValueError, match="python -m repro migrate"):
        load_checkpoint(directory)
    assert migrate_checkpoint(directory) is True
    assert not (directory / "migrate.tmp").exists()
    graph, _, _ = load_checkpoint(directory)
    return graph


def _sealed_in_the_old_layout(epoch_dir):
    """Rewrite a sealed epoch's graph as ``RPCK0001`` edge columns and seal
    it again, every CRC re-read: an epoch as older commits left it."""
    graph, iteration, _ = load_checkpoint(epoch_dir)
    (epoch_dir / f"knn_graph_{iteration:05d}.bin").write_bytes(
        _file_bytes(graph.num_vertices, graph.k, list(graph.edges())))
    write_checkpoint_checksums(epoch_dir)
    assert verify_checkpoint(epoch_dir)


def _mtimes(directory):
    return {str(path): path.stat().st_mtime_ns for path in directory.rglob("*")}


def _drive(engine, upto):
    while engine.iterations_run < upto:
        engine.enqueue_profile_changes(_batch("dense", engine.iterations_run))
        engine.run_iteration(updates_first=True)


# -- the old loader, moved -----------------------------------------------------


def test_shuffled_file_loads_through_the_scalar_path(tmp_path):
    graph = golden_graph()
    edges = list(graph.edges())
    np.random.default_rng(3).shuffle(edges)
    loaded = _migrated_graph(_legacy_checkpoint(tmp_path / "c", 72, 5, edges))
    assert loaded.edge_fingerprint() == _GOLDEN_FINGERPRINT


def test_over_full_file_is_replayed_edge_by_edge(tmp_path):
    """Three edges for a k=2 vertex, in the writer's order: the replay
    evicts the smaller id of the tied pair and keeps ``{2, 3}``; a bulk
    ``(-score, id)`` placement would have kept ``{3, 1}``."""
    edges = [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.6)]
    loaded = _migrated_graph(_legacy_checkpoint(tmp_path / "a", 5, 2, edges))
    assert loaded.ranked(0) == [(3, 0.6), (2, 0.5)]
    # descending ids with tied scores: later ties never enter
    edges = [(0, 3, 0.5), (0, 2, 0.5), (0, 1, 0.5)]
    loaded = _migrated_graph(_legacy_checkpoint(tmp_path / "b", 5, 2, edges))
    assert loaded.ranked(0) == [(2, 0.5), (3, 0.5)]


def test_a_writer_layout_file_becomes_the_graphs_own_file(tmp_path):
    graph = golden_graph()
    directory = _legacy_checkpoint(tmp_path / "c", 72, 5, list(graph.edges()))
    _migrated_graph(directory)
    save_knn_graph(tmp_path / "g.bin", graph)
    assert ((directory / "knn_graph_00001.bin").read_bytes()
            == (tmp_path / "g.bin").read_bytes())


# -- epochs and workdirs ---------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_a_migrated_workdir_recovers_to_the_uninterrupted_run(kind, tmp_path,
                                                              capsys):
    def drive(engine, upto):
        while engine.iterations_run < upto:
            engine.enqueue_profile_changes(_batch(kind, engine.iterations_run))
            engine.run_iteration(updates_first=True)

    with KNNEngine(_profiles(kind), _config(kind)) as twin:
        drive(twin, 5)
        expected = _final_state(twin)
    work = tmp_path / "work"
    engine = KNNEngine(_profiles(kind), _config(kind, durable=True), workdir=work)
    try:
        drive(engine, 3)
    finally:
        engine.close()
    epochs = sorted((work / "commits").glob("epoch_*"))
    assert [epoch.name for epoch in epochs] == ["epoch_00002", "epoch_00003"]
    for epoch in epochs:
        _sealed_in_the_old_layout(epoch)
    with pytest.raises(ValueError, match="python -m repro migrate"):
        KNNEngine.recover(work)

    assert main(["migrate", str(work)]) == 0
    assert "rewritten" in capsys.readouterr().out
    for epoch in epochs:
        assert verify_checkpoint(epoch)
        assert not (epoch / "migrate.tmp").exists()
    before = _mtimes(work)
    assert migrate(work) is False                   # already current
    assert main(["migrate", str(epochs[-1])]) == 0
    assert "already in the current layout" in capsys.readouterr().out
    assert _mtimes(work) == before

    with KNNEngine.recover(work) as recovered:
        assert recovered.iterations_run == 3
        drive(recovered, 5)
        assert _final_state(recovered) == expected


def test_an_interrupted_epoch_migration_is_simply_run_again(tmp_path, monkeypatch):
    with KNNEngine(_profiles("dense"), _config("dense", durable=True),
                   workdir=tmp_path / "work") as engine:
        _drive(engine, 1)
        epoch = engine.epoch_dir(1)
        _sealed_in_the_old_layout(epoch)

        def crash(*args, **kwargs):
            raise OSError("the process died before the seal")

        monkeypatch.setattr(migrate_module, "write_checkpoint_checksums", crash)
        with pytest.raises(OSError):
            migrate_checkpoint(epoch)
        monkeypatch.undo()
        # the graph is current and the old seal no longer matches it: the
        # scratch directory is what says the run did not finish
        assert load_checkpoint(epoch)[1] == 1
        assert not verify_checkpoint(epoch)
        assert (epoch / "migrate.tmp").is_dir()
        assert migrate_checkpoint(epoch) is True
        assert verify_checkpoint(epoch)
        assert not (epoch / "migrate.tmp").exists()
        assert migrate_checkpoint(epoch) is False


def test_a_damaged_epoch_is_refused_not_resealed(tmp_path):
    with KNNEngine(_profiles("dense"), _config("dense", durable=True),
                   workdir=tmp_path / "work") as engine:
        _drive(engine, 1)
        epoch = engine.epoch_dir(1)
    _sealed_in_the_old_layout(epoch)
    dense = epoch / "profiles" / "profiles_dense.bin"
    raw = bytearray(dense.read_bytes())
    raw[3] ^= 0x01
    dense.write_bytes(bytes(raw))
    seal = (epoch / "checksums.json").read_bytes()
    with pytest.raises(ValueError, match="fails its checksums"):
        migrate_checkpoint(epoch)
    assert (epoch / "checksums.json").read_bytes() == seal
    assert not (epoch / "migrate.tmp").exists()
    assert main(["migrate", str(tmp_path / "work")]) == 1


def test_a_checkpoint_with_a_legacy_store_and_graph_migrates(tmp_path):
    profiles = _profiles("dense")
    with KNNEngine(profiles, _config("dense")) as engine:
        _drive(engine, 2)
        engine.save_checkpoint(tmp_path / "ckpt")
        expected = engine.graph.edge_fingerprint()
        matrix = engine.profile_store.load_all().matrix.copy()
    checkpoint = tmp_path / "ckpt"
    graph, iteration, _ = load_checkpoint(checkpoint)
    (checkpoint / f"knn_graph_{iteration:05d}.bin").write_bytes(
        _file_bytes(graph.num_vertices, graph.k, list(graph.edges())))
    shutil.rmtree(checkpoint / "profiles")
    (checkpoint / "profiles").mkdir()
    _write_v1_dense(checkpoint / "profiles", DenseProfileStore(matrix))
    with pytest.raises((ValueError, StoreFormatError), match="repro migrate"):
        KNNEngine.from_checkpoint(checkpoint)

    assert migrate(checkpoint) is True
    assert not (checkpoint / "checksums.json").exists()     # never sealed
    with KNNEngine.from_checkpoint(checkpoint) as resumed:
        assert resumed.iterations_run == 2
        assert resumed.graph.edge_fingerprint() == expected
        np.testing.assert_array_equal(resumed.profile_store.load_all().matrix,
                                      matrix)
