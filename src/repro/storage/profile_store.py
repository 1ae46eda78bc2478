"""On-disk user-profile storage.

Profiles are kept on disk between phases and only the rows needed for the
currently-loaded pair of partitions are brought into memory (phase 4 loads
"the profiles of at most two partitions").  Two encodings mirror the
in-memory stores:

* dense — a ``float64`` matrix file plus a precomputed per-row norm file,
  both accessed through ``numpy.memmap``; a contiguous partition's slice is
  served *zero-copy* as a read-only view of the mapped files, and profile
  updates (phase 5) are in-place row writes;
* sparse — the store's CSR incidence arrays split into **row segments**
  (one ``indptr``/``codes`` file pair per segment, segment boundaries
  aligned with the paper's contiguous partition split when the engine
  creates the store) plus a small **row-remap journal**: phase-5 updates
  append the touched rows' new contents to the journal instead of
  rewriting the store, and the journal is folded back into the touched
  segments only when it outgrows a segment.  Update write-bytes therefore
  scale with the touched rows, not the store size.

This is the only layout the store reads or writes (``docs/storage.md``
lists every file and meta key): a meta recording any other
``format_version`` is refused on open with :class:`StoreFormatError`, and
``python -m repro migrate`` rewrites older stores in place.  Every layout
rewrite or incremental update bumps the store's ``generation`` counter,
which worker processes holding the store open by path use to invalidate
their cached slices.
The store also keeps an in-memory log of which rows each applied batch
touched (:meth:`OnDiskProfileStore.touched_rows_since`), the delta feed of
the engine's incremental phase 4; full rewrites, journal compactions and
:meth:`OnDiskProfileStore.reload` truncate that history, answering ``None``
("assume everything changed").  Whole-file replacements go through a temp
file + rename, so hard links taken by a portable checkpoint
(:mod:`repro.core.checkpoint`) keep pointing at the immutable old bytes.

Every operation is charged to the configured disk model and recorded in
:class:`~repro.storage.io_stats.IOStats`.  Mapped reads are charged through
:meth:`~repro.storage.disk_model.DiskModel.mapped_read_cost` (page-granular
demand paging) at slice-load time, which is also exposed as
:meth:`OnDiskProfileStore.charge_slice_read` so a coordinating process can
account for reads its worker processes perform against the same files.
Incremental updates (dense row writes, journal appends) are charged through
the symmetric ``mapped_write_cost``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.similarity import measures as _measures
from repro.similarity.profiles import DenseProfileStore, ProfileStoreBase, SparseProfileStore
from repro.similarity.workloads import ProfileChange
from repro.storage.disk_model import DiskModel, get_disk_model
from repro.storage.io_stats import IOStats
from repro.utils.arrays import ragged_ranges

PathLike = Union[str, os.PathLike]

#: The on-disk layout version this module reads and writes.
FORMAT_VERSION = 3

#: Segment size used when the creator supplies no partition-aligned bounds.
DEFAULT_SEGMENT_ROWS = 4096

#: Entries retained in the in-memory touched-row delta log before the oldest
#: generations are forgotten (callers asking about forgotten generations get
#: ``None`` — "unknown, rescore everything").
_DELTA_LOG_LIMIT = 64


class StoreCorruptionError(RuntimeError):
    """A store file's content does not match its recorded CRC32."""


class StoreFormatError(RuntimeError):
    """A store's meta describes a layout other than the current one."""


def _atomic_tofile(array: np.ndarray, path: Path, fault_plan=None) -> None:
    """Write ``array`` to ``path`` via a temp file + rename.

    Replacing the file atomically gives it a fresh inode, so hard links taken
    by a portable checkpoint keep pointing at the old (immutable) bytes
    instead of being rewritten underneath the checkpoint.

    ``fault_plan`` (see :mod:`repro.testing.faults`) can fail the write or
    the rename, or truncate the published file, to model disk faults.
    """
    tmp = path.with_name(path.name + ".tmp")
    if fault_plan is not None:
        fault_plan.file_op("write", path)
    with tmp.open("wb") as handle:
        array.tofile(handle)
        handle.flush()
        os.fsync(handle.fileno())
    if fault_plan is not None:
        fault_plan.file_op("rename", path)
    os.replace(tmp, path)
    if fault_plan is not None:
        fault_plan.after_file_op("write", path)


def _atomic_write_bytes(data: bytes, path: Path, fault_plan=None) -> None:
    """Byte-level sibling of :func:`_atomic_tofile` (same hard-link contract)."""
    tmp = path.with_name(path.name + ".tmp")
    if fault_plan is not None:
        fault_plan.file_op("write", path)
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if fault_plan is not None:
        fault_plan.file_op("rename", path)
    os.replace(tmp, path)
    if fault_plan is not None:
        fault_plan.after_file_op("write", path)


def partition_aligned_bounds(num_users: int, num_partitions: int) -> List[int]:
    """Sparse-segment boundaries matching the paper's contiguous n/m split.

    The contiguous partitioner assigns vertex ``v`` to partition ``v*m // n``,
    so partition ``i`` spans ``[ceil(i*n/m), ceil((i+1)*n/m))``.  Using these
    boundaries as the segment bounds makes every partition's profile slice a
    pure view of one mapped segment, and phase-5 segment rewrites line up
    with partitions.
    """
    bounds = sorted({(i * num_users + num_partitions - 1) // num_partitions
                     for i in range(num_partitions)} | {num_users})
    if not bounds or bounds[0] != 0:
        bounds = [0] + bounds
    return bounds


class ProfileSlice:
    """Profiles of a subset of users, loaded into memory for similarity scoring.

    Rows are held in ascending user-id order, so a user's **row** is its
    rank among the slice's ids — for a partition's slice, the vertex's rank
    within the partition, which phase 1 fixes once an iteration.  Scoring is
    row-addressed (:meth:`similarity_rows`): each side of a pair batch is
    gathered straight from the slice holding it, so two resident partitions
    are scored against each other without ever being combined.
    :meth:`similarity_pairs` is the id-addressed convenience on top; it
    translates ids to rows on demand (an offset for a contiguous id run, a
    binary search otherwise) and nothing is precomputed for it.

    A slice has one form: the sorted ids plus either a dense matrix with its
    row norms or a CSR incidence matrix under one item coding (the store's
    item table for every slice a store serves), so scoring is pure NumPy
    with no per-pair Python on either profile kind.  Slices served from a
    mapped store hold read-only views of the mapped file; nothing in the
    scoring path writes through them.  A ``profiles`` dict is accepted as a
    constructor convenience and packed into that form at once.

    :meth:`merge` builds the union of two slices, as one gathered copy, for
    callers that want a single id-addressed object.
    """

    def __init__(self, kind: str, profiles: Optional[Dict[int, object]], dim: int = 0,
                 *, user_ids: Optional[np.ndarray] = None,
                 matrix: Optional[np.ndarray] = None,
                 norms: Optional[np.ndarray] = None,
                 csr: Optional[_measures.SetProfileCSR] = None):
        if kind not in ("sparse", "dense"):
            raise ValueError(f"kind must be 'sparse' or 'dense', got {kind!r}")
        self.kind = kind
        if profiles is not None:
            self._user_ids = np.asarray(sorted(profiles), dtype=np.int64)
        elif user_ids is not None and (matrix is not None or csr is not None):
            # rows correspond to the (sorted) ``user_ids``
            self._user_ids = np.asarray(user_ids, dtype=np.int64)
        else:
            raise ValueError("provide a profiles dict, or user_ids plus matrix/csr")
        self._matrix: Optional[np.ndarray] = None
        self._norms: Optional[np.ndarray] = None
        self._csr: Optional[_measures.SetProfileCSR] = None
        if kind == "dense":
            if matrix is not None:
                self._matrix = matrix
            elif profiles:
                self._matrix = np.vstack([profiles[int(user)] for user in self._user_ids])
            else:
                self._matrix = np.zeros((0, dim), dtype=np.float64)
            self._norms = (np.asarray(norms, dtype=np.float64) if norms is not None
                           else np.linalg.norm(self._matrix, axis=1))
        elif csr is not None:
            self._csr = csr
        else:
            self._csr = _measures.SetProfileCSR.from_sets(
                [profiles[int(user)] for user in self._user_ids])

    def _rows_for(self, user_ids: np.ndarray) -> np.ndarray:
        """Map loaded user ids to row indices, raising ``KeyError`` on misses."""
        user_ids = np.asarray(user_ids, dtype=np.int64)
        users = self._user_ids
        if len(users) and int(users[-1]) - int(users[0]) + 1 == len(users):
            # contiguous run: id→row is an offset
            rows = user_ids - users[0]
            bad = (rows < 0) | (rows >= len(users))
        elif len(users):
            rows = np.minimum(np.searchsorted(users, user_ids), len(users) - 1)
            bad = users[rows] != user_ids
        else:
            rows = np.zeros(len(user_ids), dtype=np.int64)
            bad = np.ones(len(user_ids), dtype=bool)
        if bad.any():
            missing = int(user_ids[bad][0])
            raise KeyError(f"user {missing} is not loaded in this profile slice")
        return rows

    def _checked_rows(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as int64, raising ``IndexError`` unless all lie in the slice."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("rows must be a 1-D array")
        # one reduction covers both ends: a negative row reinterpreted as
        # unsigned is larger than any slice
        if len(rows) and int(rows.view(np.uint64).max()) >= len(self._user_ids):
            bad = int(rows[(rows < 0) | (rows >= len(self._user_ids))][0])
            raise IndexError(f"row {bad} out of range for a profile slice of "
                             f"{len(self._user_ids)} rows")
        return rows

    @property
    def users(self) -> Set[int]:
        return set(self._user_ids.tolist())

    @property
    def user_ids(self) -> np.ndarray:
        """The loaded user ids, sorted ascending (do not mutate)."""
        return self._user_ids

    @property
    def matrix(self) -> Optional[np.ndarray]:
        """The dense profile matrix (``None`` for sparse slices)."""
        return self._matrix

    def __len__(self) -> int:
        return len(self._user_ids)

    def __contains__(self, user: int) -> bool:
        users = self._user_ids
        position = int(np.searchsorted(users, user))
        return position < len(users) and int(users[position]) == user

    def get(self, user: int):
        row = int(self._rows_for(np.asarray([user], dtype=np.int64))[0])
        if self.kind == "sparse":
            return set(self._csr.row_items(row).tolist())
        return self._matrix[row]

    def merge(self, other: "ProfileSlice") -> "ProfileSlice":
        """Union of two slices as one gathered copy.

        A user present in both keeps the *other* slice's row
        (``dict.update`` semantics).  Sparse slices must share one item
        coding, which two slices of one store always do.
        """
        users = np.concatenate([self._user_ids, other._user_ids])
        # stable sort keeps other's row after self's for a shared user, so
        # keeping the last occurrence lets the other slice win
        order = np.argsort(users, kind="stable")
        users = users[order]
        last = np.ones(len(users), dtype=bool)
        last[:-1] = users[:-1] != users[1:]
        return self._gathered(other, users[last], order[last])

    def merge_indexed(self, other: "ProfileSlice", user_ids: np.ndarray,
                      order: np.ndarray) -> "ProfileSlice":
        """Union of two disjoint slices using a precomputed merge index.

        ``order`` is the stable argsort of the concatenated
        ``[self.user_ids, other.user_ids]`` and ``user_ids`` the resulting
        sorted ids — what :meth:`merge` computes internally, for a caller
        that already has them.  Overlapping ids are rejected (the index
        encodes no ``dict.update`` winner).
        """
        user_ids = np.asarray(user_ids, dtype=np.int64)
        order = np.asarray(order, dtype=np.int64)
        total = len(self._user_ids) + len(other._user_ids)
        if len(user_ids) != total or len(order) != total:
            raise ValueError(
                f"merge index covers {len(user_ids)} rows but the slices hold "
                f"{total}; the index must describe exactly these two slices")
        if total > 1 and bool((user_ids[1:] == user_ids[:-1]).any()):
            raise ValueError("merge_indexed requires disjoint user sets; "
                             "use merge() for overlapping slices")
        return self._gathered(other, user_ids, order)

    def _gathered(self, other: "ProfileSlice", user_ids: np.ndarray,
                  rows: np.ndarray) -> "ProfileSlice":
        """Rows ``rows`` of the row stack ``[self; other]``, held under ``user_ids``."""
        self._check_combinable(other, "merge")
        if self.kind == "sparse":
            a, b = self._csr, other._csr
            from_b = rows >= a.num_rows
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(np.concatenate([np.diff(a.indptr), np.diff(b.indptr)])[rows],
                      out=indptr[1:])
            codes = np.empty(int(indptr[-1]), dtype=np.int64)
            for csr, mine, first in ((a, ~from_b, 0), (b, from_b, a.num_rows)):
                _fill_rows(codes, indptr, np.flatnonzero(mine), csr.indptr,
                           csr.codes, rows[mine] - first)
            # rows are copied verbatim, so their code order survives
            csr = _measures.SetProfileCSR(
                indptr, codes, a.num_items, item_ids=a.item_ids,
                rows_sorted=a.rows_sorted and b.rows_sorted)
            return ProfileSlice("sparse", None, user_ids=user_ids, csr=csr)
        return ProfileSlice(
            "dense", None, user_ids=user_ids,
            matrix=np.concatenate([self._matrix, other._matrix])[rows],
            norms=np.concatenate([self._norms, other._norms])[rows])

    def _check_combinable(self, other: "ProfileSlice", verb: str) -> None:
        """Raise ``ValueError`` unless both slices are one kind and, when
        sparse, hold their CSRs under one item coding."""
        if other.kind != self.kind:
            raise ValueError(f"cannot {verb} slices of different profile kinds")
        if self.kind == "dense":
            return
        a, b = self._csr.item_ids, other._csr.item_ids
        # slices from one store share the store's single mapped item table,
        # so identity settles the common case without an O(num_items) scan;
        # a raw-code CSR (no decode table) never matches a coded one
        if self._csr.num_items != other._csr.num_items or not (
                a is b or (a is not None and b is not None
                           and np.array_equal(a, b))):
            raise ValueError(f"cannot {verb} sparse slices under different item "
                             "codings; load both from one store")

    def _check_measure(self, measure: str) -> None:
        _measures.get_measure(measure)
        if (measure in _measures.SET_MEASURES) != (self.kind == "sparse"):
            raise ValueError(f"measure {measure!r} needs "
                             f"{'sparse' if self.kind == 'dense' else 'dense'} profiles")

    def similarity_rows(self, left_rows: np.ndarray, other: "ProfileSlice",
                        right_rows: np.ndarray, measure: str) -> np.ndarray:
        """Scores of row ``left_rows[i]`` of this slice against row
        ``right_rows[i]`` of ``other``, for every ``i``.

        ``other`` may be this slice (tuples inside one partition) or the
        slice of another partition; each side is gathered where it lies.
        Rows outside ``[0, len(slice))`` raise ``IndexError``; two sparse
        slices under different item codings raise ``ValueError``.
        """
        self._check_combinable(other, "score")
        left_rows = self._checked_rows(left_rows)
        right_rows = other._checked_rows(right_rows)
        if len(left_rows) != len(right_rows):
            raise ValueError("left_rows and right_rows must have equal length")
        self._check_measure(measure)
        if len(left_rows) == 0:
            return np.zeros(0, dtype=np.float64)
        if self.kind == "sparse":
            return self._csr.measure_pairs(measure, left_rows, right_rows,
                                           other._csr)
        left, right = self._matrix[left_rows], other._matrix[right_rows]
        if measure == "cosine":
            # row norms are precomputed once per slice (or read straight
            # from the store's norm file)
            return _measures.cosine_from_norms(left, right,
                                               self._norms[left_rows],
                                               other._norms[right_rows])
        return _measures.vector_measure_batch(measure, left, right)

    def similarity_pairs(self, pairs: np.ndarray, measure: str) -> np.ndarray:
        """Vectorised similarity for an ``(n, 2)`` array of loaded user ids
        (:meth:`similarity_rows` after an id→row translation)."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (n, 2) array")
        if len(pairs) == 0:
            return np.zeros(0, dtype=np.float64)
        self._check_measure(measure)  # a bad measure is reported before a miss
        return self.similarity_rows(self._rows_for(pairs[:, 0]), self,
                                    self._rows_for(pairs[:, 1]), measure)


@dataclass
class _SparseState:
    """Lazily-opened mapped state of a sparse store."""

    bounds: np.ndarray                 # segment boundaries, len num_segments+1
    seg_indptr: List[np.ndarray]       # per-segment local indptr maps
    seg_codes: List[np.ndarray]        # per-segment code maps
    item_ids: np.ndarray               # shared code→item-id table (append-only)
    j_rows: np.ndarray                 # journal row ids, append order
    j_indptr: np.ndarray               # journal indptr, len len(j_rows)+1
    j_codes: np.ndarray                # journal codes
    j_of: np.ndarray                   # row → latest journal entry (-1 = none)
    row_sizes: np.ndarray              # current size of every row (journal wins)


def _fill_rows(out_codes: np.ndarray, out_indptr: np.ndarray,
               out_rows: np.ndarray, src_indptr: np.ndarray,
               src_codes: np.ndarray, src_rows: np.ndarray) -> None:
    """Copy CSR rows ``src_rows`` into ``out_codes`` at positions ``out_rows``.

    One gather per source array, so assembling a slice from several
    segments plus the journal (or merging two slices) never concatenates
    intermediate arrays.
    """
    src_rows = np.asarray(src_rows, dtype=np.int64)
    starts = np.asarray(src_indptr, dtype=np.int64)[src_rows]
    sizes = np.asarray(src_indptr, dtype=np.int64)[src_rows + 1] - starts
    source = ragged_ranges(starts, sizes)
    if not len(source):
        return
    dest = ragged_ranges(np.asarray(out_indptr, dtype=np.int64)[out_rows], sizes)
    out_codes[dest] = np.asarray(src_codes)[source]


class OnDiskProfileStore:
    """Persistent profile storage with partial (per-partition) loading."""

    _META_NAME = "profiles_meta.json"
    _DENSE_NAME = "profiles_dense.bin"
    _NORMS_NAME = "profiles_norms.bin"
    _SPARSE_ITEM_IDS = "profiles_item_ids.bin"  # code→item-id table
    _SEG_PREFIX = "profiles_seg_"
    _SEG_INDPTR_TMPL = _SEG_PREFIX + "{0:05d}_indptr.bin"
    _SEG_CODES_TMPL = _SEG_PREFIX + "{0:05d}_codes.bin"
    _JOURNAL_ROWS = "profiles_journal_rows.bin"
    _JOURNAL_INDPTR = "profiles_journal_indptr.bin"
    _JOURNAL_CODES = "profiles_journal_codes.bin"

    def __init__(self, base_dir: PathLike, disk_model: Union[str, DiskModel] = "ssd",
                 io_stats: Optional[IOStats] = None,
                 segment_bounds: Optional[Sequence[int]] = None,
                 journal_limit: Optional[int] = None,
                 verify: bool = False):
        # opening is not creating: the directory is made by the first write
        self._base_dir = Path(base_dir)
        self._disk = get_disk_model(disk_model)
        self.io_stats = io_stats if io_stats is not None else IOStats()
        self._segment_bounds_hint = (list(segment_bounds)
                                     if segment_bounds is not None else None)
        self._journal_limit_override = journal_limit
        #: Optional :class:`repro.testing.faults.FaultPlan` consulted around
        #: file writes and at the store's named crash points (engine-wired).
        self.fault_plan = None
        self._verify_on_open = bool(verify)
        self._meta: Optional[dict] = None
        # lazily-opened memory maps shared by every slice this store serves
        # (invalidated when a rewrite replaces the files)
        self._dense_mapped: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._sparse_state: Optional[_SparseState] = None
        self._item_code_cache: Optional[Dict[int, int]] = None
        # touched-row delta log: (generation, sorted touched rows) per applied
        # batch, contiguous back to _delta_floor.  Opening a store by path
        # starts with empty history — whatever happened before is unknown.
        self._delta_log: List[Tuple[int, np.ndarray]] = []
        self._delta_floor = 0
        self.reload()

    def _read_meta(self) -> Optional[dict]:
        """The store's meta (``None`` before ``create()``), behind the format
        gate: anything but the current layout raises :class:`StoreFormatError`.
        A meta without ``format_version`` is a version-1 store (the key did
        not exist yet); versions 1 and 2 are pointed at ``migrate``.
        """
        meta_path = self._base_dir / self._META_NAME
        if not meta_path.exists():
            return None
        meta = json.loads(meta_path.read_text())
        kind, version = meta.get("kind"), meta.get("format_version", 1)
        if kind not in ("dense", "sparse") or version != FORMAT_VERSION:
            remedy = (f"; run `python -m repro migrate {self._base_dir}` to "
                      "rewrite it in place" if version in (1, 2) else "")
            raise StoreFormatError(
                f"profile store under {self._base_dir} has kind {kind!r} and "
                f"format_version {version!r}; only dense and sparse stores of "
                f"format_version {FORMAT_VERSION} can be opened{remedy}")
        return meta

    # -- creation ------------------------------------------------------------

    @classmethod
    def create(cls, base_dir: PathLike, store: ProfileStoreBase,
               disk_model: Union[str, DiskModel] = "ssd",
               io_stats: Optional[IOStats] = None,
               segment_bounds: Optional[Sequence[int]] = None,
               journal_limit: Optional[int] = None) -> "OnDiskProfileStore":
        """Persist an in-memory profile store and return the on-disk handle.

        ``segment_bounds`` aligns the sparse segments with the engine's
        partition split, and ``journal_limit`` caps the row-remap journal
        before it is folded back into the segments (default: about one
        segment's rows).
        """
        on_disk = cls(base_dir, disk_model=disk_model, io_stats=io_stats,
                      segment_bounds=segment_bounds, journal_limit=journal_limit)
        on_disk._write_full(store)
        return on_disk

    def _write_full(self, store: ProfileStoreBase) -> None:
        generation = int(self._meta.get("generation", 0)) + 1 if self._meta else 0
        self._base_dir.mkdir(parents=True, exist_ok=True)
        if isinstance(store, DenseProfileStore):
            matrix = store.matrix.astype(np.float64)
            _atomic_tofile(matrix, self._base_dir / self._DENSE_NAME, self.fault_plan)
            norms = np.linalg.norm(matrix, axis=1)
            _atomic_tofile(norms, self._base_dir / self._NORMS_NAME, self.fault_plan)
            self._meta = {"kind": "dense", "num_users": store.num_users,
                          "dim": store.dim,
                          "format_version": FORMAT_VERSION,
                          "generation": generation}
            self._set_crc(self._DENSE_NAME, matrix)
            self._set_crc(self._NORMS_NAME, norms)
            total = matrix.nbytes + norms.nbytes
            self.io_stats.record_write(total,
                                       self._disk.write_cost(total, sequential=True))
        elif isinstance(store, SparseProfileStore):
            self._write_sparse(store, generation)
        else:
            raise TypeError(f"unsupported profile store type: {type(store).__name__}")
        self._write_meta()
        # the rewrite replaced the files; open maps point at dead data
        self._invalidate_maps()
        # every row may have changed; restart the delta history here
        self._reset_delta_log()

    def _write_sparse(self, store: SparseProfileStore, generation: int) -> None:
        csr = store.incidence()  # from_sets sorts each row's codes
        indptr = np.asarray(csr.indptr, dtype=np.int64)
        codes = np.asarray(csr.codes, dtype=np.int64)
        item_ids = (np.asarray(csr.item_ids, dtype=np.int64)
                    if csr.item_ids is not None else np.empty(0, dtype=np.int64))
        bounds = self._resolve_segment_bounds(store.num_users)
        total = item_ids.nbytes
        crcs: Dict[str, int] = {}
        for index in range(len(bounds) - 1):
            lo, hi = bounds[index], bounds[index + 1]
            local = (indptr[lo:hi + 1] - indptr[lo]).astype(np.int64)
            seg_codes = codes[indptr[lo]:indptr[hi]]
            _atomic_tofile(local, self._base_dir / self._SEG_INDPTR_TMPL.format(index),
                           self.fault_plan)
            _atomic_tofile(seg_codes, self._base_dir / self._SEG_CODES_TMPL.format(index),
                           self.fault_plan)
            crcs[self._SEG_INDPTR_TMPL.format(index)] = zlib.crc32(local.tobytes())
            crcs[self._SEG_CODES_TMPL.format(index)] = zlib.crc32(seg_codes.tobytes())
            total += local.nbytes + seg_codes.nbytes
        _atomic_tofile(item_ids, self._base_dir / self._SPARSE_ITEM_IDS,
                       self.fault_plan)
        crcs[self._SPARSE_ITEM_IDS] = zlib.crc32(item_ids.tobytes())
        for name in (self._JOURNAL_ROWS, self._JOURNAL_INDPTR, self._JOURNAL_CODES):
            _atomic_write_bytes(b"", self._base_dir / name, self.fault_plan)
            crcs[name] = 0  # zlib.crc32(b"")
        # stale segment files of a shrunken segment count
        for path in self._base_dir.glob("profiles_seg_*.bin"):
            index = int(path.stem.split("_")[2])
            if index >= len(bounds) - 1:
                path.unlink()
        self._meta = {"kind": "sparse", "num_users": store.num_users,
                      "num_items": csr.num_items, "format_version": FORMAT_VERSION,
                      "segment_bounds": [int(b) for b in bounds],
                      "journal_entries": 0, "generation": generation,
                      "crc32": crcs}
        self.io_stats.record_write(total, self._disk.write_cost(total, sequential=True))

    def _resolve_segment_bounds(self, num_users: int) -> List[int]:
        if self._segment_bounds_hint is not None:
            bounds = [int(b) for b in self._segment_bounds_hint]
            if (bounds[0] != 0 or bounds[-1] != num_users
                    or any(b >= c for b, c in zip(bounds, bounds[1:]))):
                raise ValueError(
                    "segment_bounds must be strictly increasing from 0 to num_users")
            return bounds
        if num_users == 0:
            return [0, 0]
        bounds = list(range(0, num_users, DEFAULT_SEGMENT_ROWS))
        bounds.append(num_users)
        return bounds

    def _invalidate_maps(self) -> None:
        self._dense_mapped = None
        self._sparse_state = None
        # full rewrites recode items; journal appends extend the cached map
        # in place instead (the item table is append-only between rewrites)
        self._item_code_cache = None

    def reload(self) -> None:
        """Re-read the meta file and drop every cached memory map.

        Worker processes holding this store open by path call this when the
        coordinator reports a newer :attr:`generation`: incremental updates
        replace journal/segment files, so cached maps (and any slices built
        on them) must be re-opened before the next load.
        """
        self._meta = self._read_meta()
        self._invalidate_maps()
        # the files may have been rewritten by another process; any delta
        # history collected through this handle no longer describes them
        self._reset_delta_log()
        if self._verify_on_open and self._meta is not None:
            self.verify_checksums(strict=True)

    # -- queries --------------------------------------------------------------

    @property
    def base_dir(self) -> Path:
        """Directory holding the store's files (worker processes re-open by path)."""
        return self._base_dir

    @staticmethod
    def linkable_snapshot_file(name: str) -> bool:
        """Whether a store file is safe to *hard-link* into a snapshot.

        Lives next to the write paths it describes: segment files are only
        ever replaced atomically via rename (:func:`_atomic_tofile`), so a
        link keeps the old bytes.
        The meta file is rewritten in place, the journal and item table
        are appended in place, and dense matrices/norms are updated
        through a writable memmap — those must be copied.  Any new store
        file defaults to copy until explicitly added here alongside an
        atomic-replace write path.
        """
        return name.startswith(OnDiskProfileStore._SEG_PREFIX)

    @property
    def kind(self) -> str:
        self._require_meta()
        return self._meta["kind"]

    @property
    def num_users(self) -> int:
        self._require_meta()
        return int(self._meta["num_users"])

    @property
    def dim(self) -> int:
        self._require_meta()
        return int(self._meta.get("dim", 0))

    @property
    def generation(self) -> int:
        """Monotone counter bumped by every update or rewrite of the files.

        Coordinators pass this to scoring workers, whose cached slices stay
        valid exactly as long as the generation they were loaded under.
        """
        self._require_meta()
        return int(self._meta.get("generation", 0))

    # -- touched-row deltas ----------------------------------------------------

    def _reset_delta_log(self) -> None:
        """Forget the delta history: everything before *now* is unknown."""
        self._delta_log = []
        self._delta_floor = (int(self._meta.get("generation", 0))
                             if self._meta else 0)

    def _record_delta(self, rows: np.ndarray) -> None:
        """Remember which rows the just-applied batch touched (post-bump)."""
        self._delta_log.append((self.generation,
                                np.unique(np.asarray(rows, dtype=np.int64))))
        while len(self._delta_log) > _DELTA_LOG_LIMIT:
            dropped_generation, _ = self._delta_log.pop(0)
            self._delta_floor = dropped_generation

    def touched_rows_since(self, generation: int) -> Optional[np.ndarray]:
        """Rows whose profile changed after ``generation``, or ``None``.

        ``None`` means the delta history cannot answer — the asked-about
        generation predates the tracked window, the store was fully
        rewritten, compacted, or :meth:`reload`-ed in between, or the
        generation is from the future.  Callers holding results keyed by
        ``generation`` (the phase-4 score cache) must then assume everything
        changed.  An empty array means "nothing changed" and a non-empty one
        is the exact union of rows touched by the intervening
        :meth:`apply_changes` batches.
        """
        self._require_meta()
        generation = int(generation)
        if generation > self.generation or generation < self._delta_floor:
            return None
        rows = [touched for gen, touched in self._delta_log if gen > generation]
        if not rows:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(rows))

    def touched_partitions_since(self, generation: int,
                                 partition_of: np.ndarray) -> Optional[np.ndarray]:
        """Partitions holding a row that changed after ``generation``, or ``None``.

        The partition-level rollup of :meth:`touched_rows_since` that
        dirty-partition scheduling plans against.  ``partition_of`` maps each
        row id to its partition for the *current* iteration — the store knows
        nothing about partitioning, so the caller supplies the assignment it
        is about to schedule with.

        The ``None`` contract is inherited verbatim, never widened: whenever
        the row-level answer is unknown (generation outside the tracked
        window, store rewritten, compacted or reloaded in between) this
        returns ``None`` — assume every partition is dirty.  An empty array
        means no partition changed; a non-empty one is the exact sorted set
        of partitions containing at least one touched row.
        """
        rows = self.touched_rows_since(generation)
        if rows is None:
            return None
        partition_of = np.asarray(partition_of, dtype=np.int64)
        if len(partition_of) != self.num_users:
            raise ValueError(
                f"partition_of maps {len(partition_of)} rows but the store "
                f"holds {self.num_users}"
            )
        if len(rows) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(partition_of[rows])

    def _require_meta(self) -> None:
        if self._meta is None:
            raise RuntimeError(
                f"no profile store has been created under {self._base_dir}; "
                "call OnDiskProfileStore.create() first"
            )

    def estimated_bytes_per_user(self) -> int:
        """Average on-disk profile size per user (memory-budget sizing)."""
        self._require_meta()
        if self._meta["kind"] == "dense":
            return self.dim * 8
        if self.num_users == 0:
            return 0
        total_items = int(self._sparse().row_sizes.sum())
        return max(8, (total_items * 8) // self.num_users)

    # -- slice loading ---------------------------------------------------------

    def _dense_maps(self) -> Tuple[np.ndarray, np.ndarray]:
        """The store's read-only (matrix, norms) maps, opened once.

        Handed out as plain ``ndarray`` views (the mapping stays alive
        through ``.base``): indexing an ``np.memmap`` instance runs its
        Python-level ``__getitem__``/``__array_finalize__`` on every gather.
        """
        if self._dense_mapped is None:
            mm = np.memmap(self._base_dir / self._DENSE_NAME, dtype=np.float64,
                           mode="r", shape=(self.num_users, self.dim))
            norms_mm = np.memmap(self._base_dir / self._NORMS_NAME,
                                 dtype=np.float64, mode="r",
                                 shape=(self.num_users,))
            self._dense_mapped = (np.asarray(mm), np.asarray(norms_mm))
        return self._dense_mapped

    def _map_int64(self, name: str) -> np.ndarray:
        """One int64 store file as a read-only plain-``ndarray`` view of its
        map (an empty file, which cannot be mapped, as an empty array)."""
        path = self._base_dir / name
        if not path.exists() or not path.stat().st_size:
            return np.empty(0, dtype=np.int64)
        return np.asarray(np.memmap(path, dtype=np.int64, mode="r"))

    def _sparse(self) -> _SparseState:
        """The sparse store's mapped segments, journal and derived indexes."""
        if self._sparse_state is None:
            bounds = np.asarray(self._meta["segment_bounds"], dtype=np.int64)
            seg_indptr = [self._map_int64(self._SEG_INDPTR_TMPL.format(index))
                          for index in range(len(bounds) - 1)]
            seg_codes = [self._map_int64(self._SEG_CODES_TMPL.format(index))
                         for index in range(len(bounds) - 1)]
            item_ids = self._map_int64(self._SPARSE_ITEM_IDS)
            # the journal is small by construction; plain reads keep it simple
            j_rows = self._read_int64(self._JOURNAL_ROWS)
            j_indptr = self._read_int64(self._JOURNAL_INDPTR)
            if not len(j_indptr):
                j_indptr = np.zeros(1, dtype=np.int64)
            j_codes = self._read_int64(self._JOURNAL_CODES)
            j_of = np.full(self.num_users, -1, dtype=np.int64)
            if len(j_rows):
                # assignment in append order makes the latest entry win
                j_of[j_rows] = np.arange(len(j_rows), dtype=np.int64)
            if seg_indptr:
                row_sizes = np.concatenate([np.diff(np.asarray(ip))
                                            for ip in seg_indptr])
            else:
                row_sizes = np.zeros(self.num_users, dtype=np.int64)
            if len(j_rows):
                row_sizes = row_sizes.copy()
                row_sizes[j_rows] = np.diff(j_indptr)
            self._sparse_state = _SparseState(
                bounds=bounds, seg_indptr=seg_indptr, seg_codes=seg_codes,
                item_ids=item_ids, j_rows=j_rows, j_indptr=j_indptr,
                j_codes=j_codes, j_of=j_of, row_sizes=row_sizes)
        return self._sparse_state

    def _read_int64(self, name: str) -> np.ndarray:
        path = self._base_dir / name
        if not path.exists() or not path.stat().st_size:
            return np.empty(0, dtype=np.int64)
        return np.fromfile(path, dtype=np.int64)

    def load_users(self, user_ids: Iterable[int]) -> ProfileSlice:
        """Load the profiles of ``user_ids`` into a :class:`ProfileSlice`.

        A single contiguous id run — the shape of one partition under the
        paper's contiguous split — is served *zero-copy*: the slice holds
        read-only views of the mapped profile (and norm / CSR segment)
        files.  Scattered ids, runs spanning several sparse segments and
        journaled rows fall back to one gathered copy.  Either way the read
        is charged through the disk model's mapped-read cost, per contiguous
        range.

        A sorted, duplicate-free ``int64`` array — a partition's vertex
        list — is taken as it is; any other iterable of ids is sorted and
        deduplicated first.

        Because a zero-copy slice reads the live files, it is **not a
        snapshot**: a later :meth:`apply_changes` shows through dense
        mapped views (and invalidates sparse slices entirely, since sparse
        updates replace journal/segment files).  Phase 4 never holds a slice
        across a phase-5 update; callers that do must reload after applying
        changes — worker processes key this off :attr:`generation`.
        """
        ids, ranges = self._validated_ids(user_ids)
        self._charge_ranges(ranges)
        if self._meta["kind"] == "dense":
            return self._load_dense(ids, ranges)
        return self._load_sparse(ids, ranges)

    def _validated_ids(self, user_ids: Iterable[int]
                       ) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
        """``user_ids`` as a sorted unique in-range int64 array, plus its
        contiguous ``(start, stop)`` runs."""
        self._require_meta()
        if (isinstance(user_ids, np.ndarray) and user_ids.dtype == np.int64
                and user_ids.ndim == 1):
            ids = user_ids
        else:
            ids = np.asarray(sorted({int(u) for u in user_ids}), dtype=np.int64)
        if len(ids) > 1 and int(np.diff(ids).min()) <= 0:
            ids = np.unique(ids)   # unsorted or duplicated
        num_users = self.num_users
        if len(ids) and (ids[0] < 0 or ids[-1] >= num_users):
            bad = ids[0] if ids[0] < 0 else ids[np.searchsorted(ids, num_users)]
            raise IndexError(f"user {int(bad)} out of range (store has {num_users})")
        return ids, _contiguous_ranges(ids)

    def charge_slice_read(self, user_ids: Iterable[int]) -> None:
        """Charge (without loading) the I/O of one ``load_users`` call.

        The phase-4 process backend loads slices inside worker processes
        whose stats never reach the coordinating engine; the coordinator
        calls this once per partition load so IOStats stay comparable with
        the in-process backends.  The file page cache is shared between the
        processes, so charging the device once per slice is also the honest
        model.
        """
        self._charge_ranges(self._validated_ids(user_ids)[1])

    def _charge_ranges(self, ranges: List[Tuple[int, int]]) -> None:
        if not ranges:
            return
        sequential = len(ranges) == 1
        if self._meta["kind"] == "dense":
            row_bytes = self.dim * 8 + 8   # the row plus its stored norm
            cost_of: Dict[int, float] = {}   # runs of equal length cost the same
            for start, stop in ranges:
                nbytes = (stop - start) * row_bytes
                cost = cost_of.get(nbytes)
                if cost is None:
                    cost = cost_of[nbytes] = self._disk.mapped_read_cost(
                        nbytes, sequential=sequential)
                self.io_stats.record_read(nbytes, cost)
            return
        row_sizes = self._sparse().row_sizes
        for start, stop in ranges:
            # the rows' codes plus the indptr slice itself
            nbytes = (int(row_sizes[start:stop].sum()) + (stop - start + 1)) * 8
            self.io_stats.record_read(
                nbytes, self._disk.mapped_read_cost(nbytes, sequential=sequential))

    def _load_dense(self, ids: np.ndarray,
                    ranges: List[Tuple[int, int]]) -> ProfileSlice:
        if not ranges:
            return ProfileSlice("dense", {}, dim=self.dim)
        matrix_map, norms_map = self._dense_maps()
        if len(ranges) == 1:
            start, stop = ranges[0]
            matrix = matrix_map[start:stop]  # zero-copy read-only view
            norms = norms_map[start:stop]
        else:
            matrix = matrix_map[ids]
            matrix.flags.writeable = False
            norms = norms_map[ids]
        return ProfileSlice("dense", None, user_ids=ids,
                            matrix=matrix, norms=norms)

    def _load_sparse(self, ids: np.ndarray,
                        ranges: List[Tuple[int, int]]) -> ProfileSlice:
        num_items = int(self._meta.get("num_items", 0))
        state = self._sparse()
        if len(ranges) == 1:
            # zero-copy fast path: one id run inside one segment, with no
            # journaled rows — the common case when segment bounds follow the
            # engine's partition split and the journal has been compacted
            start, stop = ranges[0]
            seg = int(np.searchsorted(state.bounds, start, side="right")) - 1
            seg_end = int(np.searchsorted(state.bounds, stop - 1, side="right")) - 1
            if seg == seg_end and not (state.j_of[start:stop] >= 0).any():
                indptr_map = state.seg_indptr[seg]
                lo = start - int(state.bounds[seg])
                hi = stop - int(state.bounds[seg])
                base = int(indptr_map[lo])
                indptr = indptr_map[lo:hi + 1] - base
                codes = state.seg_codes[seg][base:int(indptr_map[hi])]
                csr = _measures.SetProfileCSR(indptr, codes, num_items,
                                              item_ids=state.item_ids,
                                              rows_sorted=True)
                return ProfileSlice("sparse", None, user_ids=ids, csr=csr)
        sizes = state.row_sizes[ids]
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        codes = np.empty(int(indptr[-1]), dtype=np.int64)
        journal_entry = state.j_of[ids]
        journaled = journal_entry >= 0
        if journaled.any():
            _fill_rows(codes, indptr, np.flatnonzero(journaled),
                       state.j_indptr, state.j_codes, journal_entry[journaled])
        settled = ~journaled
        if settled.any():
            segments = np.searchsorted(state.bounds, ids, side="right") - 1
            for seg in np.unique(segments[settled]):
                mask = settled & (segments == seg)
                _fill_rows(codes, indptr, np.flatnonzero(mask),
                           state.seg_indptr[seg], state.seg_codes[seg],
                           ids[mask] - int(state.bounds[seg]))
        codes.flags.writeable = False
        csr = _measures.SetProfileCSR(indptr, codes, num_items,
                                      item_ids=state.item_ids, rows_sorted=True)
        return ProfileSlice("sparse", None, user_ids=ids, csr=csr)

    def _row_items(self, state: _SparseState, row: int) -> Set[int]:
        """Decoded item-id set of one row (journal entry wins over segment)."""
        entry = int(state.j_of[row])
        if entry >= 0:
            codes = state.j_codes[state.j_indptr[entry]:state.j_indptr[entry + 1]]
        else:
            seg = int(np.searchsorted(state.bounds, row, side="right")) - 1
            local = row - int(state.bounds[seg])
            indptr_map = state.seg_indptr[seg]
            codes = state.seg_codes[seg][int(indptr_map[local]):
                                         int(indptr_map[local + 1])]
        if len(state.item_ids):
            return set(np.asarray(state.item_ids)[np.asarray(codes)].tolist())
        return set(np.asarray(codes).tolist())

    def load_all(self) -> ProfileStoreBase:
        """Load the entire store back into memory (tests and small runs)."""
        self._require_meta()
        if self._meta["kind"] == "dense":
            path = self._base_dir / self._DENSE_NAME
            matrix = np.fromfile(path, dtype=np.float64).reshape(self.num_users, self.dim)
            self.io_stats.record_read(matrix.nbytes,
                                      self._disk.read_cost(matrix.nbytes, sequential=True))
            return DenseProfileStore(matrix, copy=False)
        state = self._sparse()
        total = (sum(np.asarray(ip).nbytes for ip in state.seg_indptr)
                 + sum(np.asarray(c).nbytes for c in state.seg_codes)
                 + np.asarray(state.item_ids).nbytes
                 + state.j_rows.nbytes + state.j_indptr.nbytes
                 + state.j_codes.nbytes)
        self.io_stats.record_read(total,
                                  self._disk.read_cost(total, sequential=True))
        return SparseProfileStore([self._row_items(state, row)
                                   for row in range(self.num_users)])

    # -- updates (phase 5) -----------------------------------------------------

    def apply_changes(self, changes: Sequence[ProfileChange]) -> int:
        """Apply a batch of queued profile changes (the paper's lazy update).

        Returns the number of users whose profile was touched.  Dense
        changes are in-place row writes through a writable memmap (the norm
        file is kept in sync, superseded ``set`` changes coalesced to the
        last write).  Sparse changes append the touched rows to the
        row-remap journal — write bytes scale with the touched rows — and
        fold the journal into the affected segments only when it outgrows
        its cap.  Every applied batch bumps the store :attr:`generation`.
        """
        self._require_meta()
        if not changes:
            return 0
        if self._meta["kind"] == "dense":
            return self._apply_dense(changes)
        return self._apply_sparse(changes)

    def _apply_dense(self, changes: Sequence[ProfileChange]) -> int:
        dim = self.dim
        latest = DenseProfileStore.coalesce_set_changes(changes, dim)
        for user in latest:
            # a negative id would wrap through the memmap onto another row
            if not 0 <= user < self.num_users:
                raise IndexError(f"user {user} out of range (store has {self.num_users})")
        path = self._base_dir / self._DENSE_NAME
        mm = np.memmap(path, dtype=np.float64, mode="r+", shape=(self.num_users, dim))
        norms_mm = np.memmap(self._base_dir / self._NORMS_NAME, dtype=np.float64,
                             mode="r+", shape=(self.num_users,))
        for user, vector in latest.items():
            mm[user] = vector
            # np.sum reduces pairwise exactly like the axis-1 norm used
            # at write time, so stored and recomputed norms stay bitwise equal
            norms_mm[user] = np.sqrt(np.sum(vector * vector))
            num_bytes = vector.nbytes + 8
            self.io_stats.record_write(
                num_bytes, self._disk.mapped_write_cost(num_bytes, sequential=False))
        if self.fault_plan is not None:
            # crash window: rows written in place, meta/generation not yet
            # bumped — recovery must fall back to the last committed epoch
            self.fault_plan.point("store.dense_rows_written")
        mm.flush()
        self._set_crc(self._DENSE_NAME, mm.tobytes())
        del mm
        norms_mm.flush()
        self._set_crc(self._NORMS_NAME, norms_mm.tobytes())
        del norms_mm
        self._bump_generation()
        self._record_delta(np.asarray(sorted(latest), dtype=np.int64))
        return len(latest)

    def _apply_sparse(self, changes: Sequence[ProfileChange]) -> int:
        state = self._sparse()
        # decode the touched rows once, then replay the changes in order
        sets: Dict[int, Set[int]] = {}
        for change in changes:
            if change.kind not in ("add", "remove"):
                raise ValueError("sparse profile stores only accept 'add'/'remove' changes")
            user = int(change.user)
            if not 0 <= user < self.num_users:
                raise IndexError(f"user {user} out of range (store has {self.num_users})")
            if user not in sets:
                sets[user] = self._row_items(state, user)
            if change.kind == "add":
                sets[user].add(change.item)
            else:
                sets[user].discard(change.item)
        # extend the append-only item table with any never-seen items; codes
        # of existing rows stay valid, so no segment needs recoding.  The
        # id→code map is cached across batches (and extended in place on
        # append), so a small batch never pays an O(catalogue) rebuild.
        code_of = self._item_code_map(state)
        new_items = sorted({item for items in sets.values() for item in items
                            if item not in code_of})
        appended_bytes = 0
        if new_items:
            arr = np.asarray(new_items, dtype=np.int64)
            self._append_file(self._SPARSE_ITEM_IDS, arr)
            for item in new_items:
                code_of[item] = len(code_of)
            appended_bytes += arr.nbytes
            self._meta["num_items"] = len(code_of)
        # append the touched rows' new contents to the journal (latest wins)
        rows = np.asarray(sorted(sets), dtype=np.int64)
        row_codes = [np.sort(np.fromiter((code_of[item] for item in sets[int(row)]),
                                         dtype=np.int64, count=len(sets[int(row)])))
                     for row in rows]
        new_codes = (np.concatenate(row_codes) if row_codes
                     else np.empty(0, dtype=np.int64))
        sizes = np.fromiter((len(c) for c in row_codes), dtype=np.int64,
                            count=len(row_codes))
        journal_indptr = np.concatenate(
            [state.j_indptr, int(state.j_indptr[-1]) + np.cumsum(sizes)])
        self._append_file(self._JOURNAL_ROWS, rows)
        self._append_file(self._JOURNAL_CODES, new_codes)
        _atomic_tofile(journal_indptr, self._base_dir / self._JOURNAL_INDPTR,
                       self.fault_plan)
        self._set_crc(self._JOURNAL_INDPTR, journal_indptr)
        if self.fault_plan is not None:
            # crash window: journal appended, meta/generation not yet bumped
            self.fault_plan.point("store.journal_appended")
        self._meta["journal_entries"] = len(state.j_rows) + len(rows)
        written = rows.nbytes + new_codes.nbytes + journal_indptr.nbytes + appended_bytes
        self.io_stats.record_write(
            written, self._disk.mapped_write_cost(written, sequential=True))
        self._sparse_state = None
        compacted = False
        if self._meta["journal_entries"] > self._journal_limit():
            self._compact()
            compacted = True
        self._bump_generation()
        if compacted:
            # compaction replaces segment files wholesale; treat it as a
            # generation rollover and restart the delta history, so cached
            # scores keyed on pre-compaction generations are fully rescored
            self._reset_delta_log()
        else:
            self._record_delta(rows)
        return len(sets)

    def _append_file(self, name: str, data: np.ndarray) -> None:
        """Append to one of the store's append-only files.

        Rolls the file's running CRC32 forward over the appended bytes and
        consults the fault plan around the write (appends are a distinct
        torn-write surface from the atomic-replace paths).
        """
        path = self._base_dir / name
        if self.fault_plan is not None:
            self.fault_plan.file_op("write", path)
        with path.open("ab") as handle:
            handle.write(data.tobytes())
        if self.fault_plan is not None:
            self.fault_plan.after_file_op("write", path)
        self._extend_crc(name, data)

    def _item_code_map(self, state: _SparseState) -> Dict[int, int]:
        """The item-id→code dict, built once per (re)coding of the table."""
        if self._item_code_cache is None:
            item_table = np.asarray(state.item_ids, dtype=np.int64)
            self._item_code_cache = {int(item): code
                                     for code, item in enumerate(item_table.tolist())}
        return self._item_code_cache

    def _journal_limit(self) -> int:
        if self._journal_limit_override is not None:
            return int(self._journal_limit_override)
        num_segments = max(1, len(self._meta["segment_bounds"]) - 1)
        return max(64, -(-self.num_users // num_segments))

    def _compact(self) -> None:
        """Fold the journal back into the segments holding journaled rows.

        Only the touched segments are rewritten — the amortised write cost of
        an update stream stays proportional to the rows it changed, never the
        store size.
        """
        state = self._sparse()
        if not len(state.j_rows):
            return
        journaled_rows = np.unique(state.j_rows)
        segments = np.unique(
            np.searchsorted(state.bounds, journaled_rows, side="right") - 1)
        total = 0
        for seg in segments:
            lo, hi = int(state.bounds[seg]), int(state.bounds[seg + 1])
            sizes = state.row_sizes[lo:hi]
            indptr = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(sizes, out=indptr[1:])
            codes = np.empty(int(indptr[-1]), dtype=np.int64)
            entry = state.j_of[lo:hi]
            journaled = entry >= 0
            _fill_rows(codes, indptr, np.flatnonzero(journaled),
                       state.j_indptr, state.j_codes, entry[journaled])
            settled = np.flatnonzero(~journaled)
            _fill_rows(codes, indptr, settled,
                       state.seg_indptr[seg], state.seg_codes[seg], settled)
            # release the mapped views of this segment before replacing it
            state.seg_indptr[seg] = indptr
            state.seg_codes[seg] = codes
            _atomic_tofile(indptr, self._base_dir / self._SEG_INDPTR_TMPL.format(int(seg)),
                           self.fault_plan)
            _atomic_tofile(codes, self._base_dir / self._SEG_CODES_TMPL.format(int(seg)),
                           self.fault_plan)
            self._set_crc(self._SEG_INDPTR_TMPL.format(int(seg)), indptr)
            self._set_crc(self._SEG_CODES_TMPL.format(int(seg)), codes)
            total += indptr.nbytes + codes.nbytes
        for name in (self._JOURNAL_ROWS, self._JOURNAL_INDPTR, self._JOURNAL_CODES):
            _atomic_write_bytes(b"", self._base_dir / name, self.fault_plan)
            self._set_crc(name, b"")
        self._meta["journal_entries"] = 0
        self.io_stats.record_write(total,
                                   self._disk.write_cost(total, sequential=True))
        self._sparse_state = None

    def _bump_generation(self) -> None:
        self._meta["generation"] = int(self._meta.get("generation", 0)) + 1
        self._write_meta()

    def _write_meta(self) -> None:
        """Publish ``profiles_meta.json`` atomically (fsync + rename).

        Worker processes poll this file for the generation counter; a torn
        or unsynced meta would desynchronise their cached maps from the
        segment files it describes.
        """
        _atomic_write_bytes(json.dumps(self._meta).encode("utf-8"),
                            self._base_dir / self._META_NAME)

    # -- checksums -------------------------------------------------------------

    def _set_crc(self, name: str, data) -> None:
        """Record a file's CRC32 in the meta (persisted by the next meta write)."""
        blob = data.tobytes() if isinstance(data, np.ndarray) else data
        self._meta.setdefault("crc32", {})[name] = zlib.crc32(blob)

    def _extend_crc(self, name: str, appended) -> None:
        """Roll an append-only file's CRC forward over the appended bytes.

        ``crc32(old + new) == crc32(new, crc32(old))`` — the running value in
        the meta is advanced without re-reading the file.
        """
        blob = appended.tobytes() if isinstance(appended, np.ndarray) else appended
        crcs = self._meta.setdefault("crc32", {})
        crcs[name] = zlib.crc32(blob, int(crcs.get(name, 0)))

    def verify_checksums(self, strict: bool = False) -> List[str]:
        """Check every recorded file CRC32 against the bytes on disk.

        Returns the names of mismatching (or missing) files.  Stores written
        before checksums existed record none and verify vacuously — recovery
        then falls back on the checkpoint-level ``checksums.json``.  With
        ``strict=True`` a non-empty result raises
        :class:`StoreCorruptionError` instead.

        Verification reads every store file, so it runs at the durability
        boundaries only — open/reload with ``verify=True``, commit, and
        crash recovery — never per slice load.
        """
        self._require_meta()
        recorded = self._meta.get("crc32") or {}
        mismatched: List[str] = []
        for name, expected in sorted(recorded.items()):
            path = self._base_dir / name
            if not path.exists():
                mismatched.append(name)
                continue
            if zlib.crc32(path.read_bytes()) != int(expected):
                mismatched.append(name)
        if mismatched and strict:
            raise StoreCorruptionError(
                f"profile store under {self._base_dir} is corrupt; CRC32 "
                f"mismatch in: {', '.join(mismatched)}")
        return mismatched


def _contiguous_ranges(sorted_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """Half-open ``(start, stop)`` ranges covering the runs of consecutive ids
    in a sorted, duplicate-free id sequence."""
    ids = np.asarray(sorted_ids, dtype=np.int64)
    if not len(ids):
        return []
    first, last = int(ids[0]), int(ids[-1])
    if last - first + 1 == len(ids):
        return [(first, last + 1)]
    breaks = np.flatnonzero(np.diff(ids) != 1)
    starts = ids[np.concatenate([[0], breaks + 1])]
    stops = ids[np.concatenate([breaks, [len(ids) - 1]])] + 1
    return list(zip(starts.tolist(), stops.tolist()))
