"""The on-disk profile format is a contract: one layout, pinned.

(a) the **layout golden** — ``tests/golden/profile_store_layout.json`` holds
    the sha256 of every ``profiles_*`` file and the sorted meta keys after
    ``create()`` and a fixed update sequence that journals, adds never-seen
    items and compacts (dense: in-place row writes), as *recorded at commit
    e20861c, before the legacy layouts were deleted*.  While it passes, a
    store or a sealed epoch written by that commit opens as is — which is
    why the crash matrix and the service-chaos wall need no "old epoch"
    case of their own: ``KNNEngine.recover`` / ``ServingRuntime.recover``
    over an epoch sealed before the change read exactly these bytes;
(b) **migration** — version-1 and version-2 stores are refused on open
    and, after ``migrate``, are indistinguishable from freshly created ones;
(c) the **open-time gate** — unknown newer versions and kinds are refused,
    by the constructor and by ``reload()`` alike;
(d) the ``python -m repro migrate`` command line.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.similarity.measures import SET_MEASURES, VECTOR_MEASURES
from repro.similarity.profiles import DenseProfileStore, SparseProfileStore
from repro.similarity.workloads import ProfileChange
from repro.storage.migrate import migrate_store
from repro.storage.profile_store import OnDiskProfileStore, StoreFormatError

GOLDEN = json.loads((Path(__file__).parent / "golden"
                     / "profile_store_layout.json").read_text())


# -- (a) the layout golden -----------------------------------------------------

def _state(store: OnDiskProfileStore):
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(store.base_dir.glob("profiles_*"))}
    return [files, sorted(json.loads(
        (store.base_dir / "profiles_meta.json").read_text()))]


def _layout_states(base: Path):
    """Deterministic (no RNG) stores driven through every write path."""
    states = {}
    sparse = SparseProfileStore([{u % 7, (3 * u) % 11 + 7, u + 20}
                                 for u in range(30)])
    store = OnDiskProfileStore.create(base / "s", sparse, disk_model="instant",
                                      segment_bounds=[0, 10, 20, 30],
                                      journal_limit=4)
    states["sparse-created"] = _state(store)
    store.apply_changes([ProfileChange(user=3, kind="add", item=1000),
                         ProfileChange(user=14, kind="remove", item=34),
                         ProfileChange(user=3, kind="add", item=5)])
    store.apply_changes([ProfileChange(user=3, kind="remove", item=1000),
                         ProfileChange(user=29, kind="add", item=999)])
    states["sparse-journaled"] = _state(store)
    store.apply_changes([ProfileChange(user=u, kind="add", item=2000 + u)
                         for u in (1, 12, 13)])         # 7 entries > 4: compacts
    states["sparse-compacted"] = _state(store)
    matrix = (np.arange(12 * 5, dtype=np.float64).reshape(12, 5) % 7) / 4.0
    store = OnDiskProfileStore.create(base / "d", DenseProfileStore(matrix),
                                      disk_model="instant")
    states["dense-created"] = _state(store)
    store.apply_changes([
        ProfileChange(user=2, kind="set", vector=np.full(5, 0.5)),
        ProfileChange(user=9, kind="set", vector=np.arange(5, dtype=np.float64)),
        ProfileChange(user=2, kind="set", vector=np.full(5, 1.5))])
    states["dense-updated"] = _state(store)
    return states


def test_layout_is_byte_for_byte_what_the_parent_commit_wrote(tmp_path):
    states = _layout_states(tmp_path)
    assert sorted(states) == sorted(GOLDEN)
    for name, (files, meta_keys) in states.items():
        assert files == GOLDEN[name][0], name
        assert meta_keys == GOLDEN[name][1], name


# -- (b) migration --------------------------------------------------------------

def _write_v1_sparse(base_dir, profiles):
    """Handcraft a version-1 sparse layout: raw sorted item ids, no version."""
    rows = [np.asarray(sorted(profiles.get(user)), dtype=np.int64)
            for user in range(profiles.num_users)]
    indptr = np.zeros(profiles.num_users + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indptr.tofile(base_dir / "profiles_indptr.bin")
    np.concatenate(rows).tofile(base_dir / "profiles_items.bin")
    (base_dir / "profiles_meta.json").write_text(
        json.dumps({"kind": "sparse", "num_users": profiles.num_users}))


def _write_v1_dense(base_dir, profiles):
    """Handcraft a version-1 dense layout: matrix only, no norms, no version."""
    profiles.matrix.astype(np.float64).tofile(base_dir / "profiles_dense.bin")
    (base_dir / "profiles_meta.json").write_text(
        json.dumps({"kind": "dense", "num_users": profiles.num_users,
                    "dim": profiles.dim}))


def _write_v2_sparse(base_dir, profiles):
    """Handcraft a version-2 sparse layout: one monolithic CSR of item codes
    plus the code→item-id table (the writer itself is gone)."""
    csr = profiles.incidence()
    csr.indptr.tofile(base_dir / "profiles_indptr.bin")
    csr.codes.tofile(base_dir / "profiles_items.bin")
    csr.item_ids.tofile(base_dir / "profiles_item_ids.bin")
    (base_dir / "profiles_meta.json").write_text(json.dumps(
        {"kind": "sparse", "num_users": profiles.num_users,
         "num_items": csr.num_items, "format_version": 2,
         "row_codes_sorted": True, "generation": 4}))


LEGACY_WRITERS = {"v1-sparse": _write_v1_sparse, "v1-dense": _write_v1_dense,
                  "v2-sparse": _write_v2_sparse}


def _mtimes(base: Path):
    return {path.name: path.stat().st_mtime_ns for path in base.iterdir()}


@pytest.mark.parametrize("legacy", sorted(LEGACY_WRITERS))
def test_legacy_store_is_refused_then_migrates_to_a_fresh_store(
        legacy, dense_profiles, sparse_profiles, tmp_path):
    profiles = dense_profiles if legacy.endswith("dense") else sparse_profiles
    base = tmp_path / "legacy"
    base.mkdir()
    LEGACY_WRITERS[legacy](base, profiles)
    with pytest.raises(StoreFormatError, match=r"migrate .*legacy") as refusal:
        OnDiskProfileStore(base)
    assert f"format_version {legacy[1]}" in str(refusal.value)

    assert migrate_store(base) is True
    store = OnDiskProfileStore(base, disk_model="instant", verify=True)
    fresh = OnDiskProfileStore.create(tmp_path / "fresh", profiles,
                                      disk_model="instant")
    assert sorted(p.name for p in base.iterdir()) == sorted(
        p.name for p in fresh.base_dir.iterdir())       # legacy files are gone
    assert store.verify_checksums() == []
    assert store.generation == (5 if legacy == "v2-sparse" else 1)
    users = np.arange(profiles.num_users)
    pairs = np.random.default_rng(3).integers(0, profiles.num_users, size=(200, 2))
    if store.kind == "dense":
        np.testing.assert_array_equal(store.load_all().matrix, profiles.matrix)
        measures = VECTOR_MEASURES
    else:
        assert store.load_all() == profiles
        measures = SET_MEASURES
    for measure in sorted(measures):
        np.testing.assert_array_equal(
            store.load_users(users).similarity_pairs(pairs, measure),
            fresh.load_users(users).similarity_pairs(pairs, measure))
    # the migrated store is an ordinary store: it takes updates
    change = (ProfileChange(user=1, kind="set", vector=np.ones(profiles.dim))
              if store.kind == "dense"
              else ProfileChange(user=1, kind="add", item=9999))
    assert store.apply_changes([change]) == 1

    before = _mtimes(base)
    assert migrate_store(base) is False                  # already current
    assert _mtimes(base) == before


def test_an_interrupted_migration_is_simply_run_again(sparse_profiles, tmp_path):
    _write_v2_sparse(tmp_path, sparse_profiles)
    # what a crash before the first rename leaves: a half-built scratch dir
    (tmp_path / "migrate.tmp").mkdir()
    (tmp_path / "migrate.tmp" / "profiles_seg_00000_codes.bin").write_bytes(b"torn")
    assert migrate_store(tmp_path) is True
    assert not (tmp_path / "migrate.tmp").exists()
    assert OnDiskProfileStore(tmp_path, verify=True).load_all() == sparse_profiles


# -- (c) the open-time gate ------------------------------------------------------

@pytest.mark.parametrize("patch,message", [
    ({"format_version": 4}, r"format_version 4; .* can be opened$"),
    ({"format_version": "3"}, r"format_version '3'; .* can be opened$"),
    ({"kind": "columnar"}, r"kind 'columnar' .* can be opened$"),
])
def test_foreign_metas_are_refused_on_open_and_on_reload(
        patch, message, sparse_profiles, tmp_path):
    store = OnDiskProfileStore.create(tmp_path, sparse_profiles)
    meta_path = tmp_path / "profiles_meta.json"
    meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), **patch}))
    with pytest.raises(StoreFormatError, match=message) as refusal:
        OnDiskProfileStore(tmp_path)
    assert str(tmp_path) in str(refusal.value)
    with pytest.raises(StoreFormatError, match=message):
        store.reload()                      # a worker re-opening by path
    if "format_version" in patch:
        with pytest.raises(StoreFormatError, match="nothing this code can migrate"):
            migrate_store(tmp_path)


# -- (d) the command line ---------------------------------------------------------

def test_migrate_command(dense_profiles, tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "store"
    assert main(["migrate", str(missing)]) == 1
    assert "profiles_meta.json not found" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()               # nothing was created

    _write_v1_dense(tmp_path, dense_profiles)
    assert main(["migrate", str(tmp_path)]) == 0
    assert "rewritten" in capsys.readouterr().out
    assert main(["migrate", str(tmp_path)]) == 0
    assert "already in the current layout" in capsys.readouterr().out
    assert (OnDiskProfileStore(tmp_path, verify=True).estimated_bytes_per_user()
            == dense_profiles.dim * 8)
