"""In-memory user-profile stores.

A *profile store* maps dense user ids ``0..n-1`` to profiles and knows how
to score pairs of users.  Two concrete stores are provided:

* :class:`SparseProfileStore` — each profile is a set of item ids
  (pages voted on, papers co-authored, songs listened to, ...);
* :class:`DenseProfileStore` — each profile is a fixed-dimension float
  vector (ratings, embeddings).

The out-of-core layer (`repro.storage.profile_store`) persists these stores
per partition; the engine only ever sees the interface defined by
:class:`ProfileStoreBase`, so the two encodings are interchangeable.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, Sequence, Set

import numpy as np

from repro.similarity import measures as _measures
from repro.utils.arrays import sorted_unique
from repro.utils.validation import check_non_negative, check_positive_int


class ProfileStoreBase(abc.ABC):
    """Common interface over sparse and dense profile stores."""

    @property
    @abc.abstractmethod
    def num_users(self) -> int:
        """Number of users the store holds profiles for."""

    @abc.abstractmethod
    def get(self, user: int):
        """Return the profile of ``user`` (set or vector depending on store)."""

    @abc.abstractmethod
    def set(self, user: int, profile) -> None:
        """Replace the profile of ``user``."""

    @abc.abstractmethod
    def similarity(self, user_a: int, user_b: int, measure: str) -> float:
        """Similarity between two users under the named measure."""

    @abc.abstractmethod
    def similarity_pairs(self, pairs: np.ndarray, measure: str) -> np.ndarray:
        """Vectorised similarity for an ``(n, 2)`` array of user-id pairs."""

    @abc.abstractmethod
    def subset(self, users: Sequence[int]) -> "ProfileStoreBase":
        """A new store containing only ``users`` (ids are preserved as keys)."""

    @abc.abstractmethod
    def copy(self) -> "ProfileStoreBase":
        """Deep copy of the store."""

    def default_measure(self) -> str:
        """The measure used when the engine configuration does not name one."""
        return "jaccard"

    def apply_profile_changes(self, changes: Sequence) -> int:
        """Apply a batch of :class:`~repro.similarity.workloads.ProfileChange`
        items in order; returns the number of distinct users touched.

        Concrete stores override this with a batch-aware implementation (a
        dense store coalesces superseded ``set`` changes, a sparse store
        folds the touched rows into its arrays once, on the next read).
        """
        raise NotImplementedError

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} out of range (store has {self.num_users} users)")


class SparseProfileStore(ProfileStoreBase):
    """Profiles as sets of integer item ids, held as the CSR the set kernel
    scores and the on-disk layer writes (:meth:`SetProfileCSR.from_sets`'s
    canonical form).  Its arrays are never written in place, so copies
    share them; a mutated row waits as a set until the next
    :meth:`incidence` folds it in."""

    def __init__(self, profiles: "Sequence[Iterable[int]] | np.ndarray"):
        self._csr = _measures.SetProfileCSR.from_sets(profiles)
        self._changed: Dict[int, Set[int]] = {}   # row -> its items, not yet folded

    @classmethod
    def from_csr(cls, csr: _measures.SetProfileCSR) -> "SparseProfileStore":
        """A store over ``csr``'s arrays as they are, which must be in
        :meth:`SetProfileCSR.from_sets`'s canonical form."""
        if not csr.rows_sorted or csr.item_ids is None:
            raise ValueError("from_csr needs a CSR with sorted rows and an item table")
        store = cls.__new__(cls)
        store._csr = csr
        store._changed = {}
        return store

    def incidence(self) -> _measures.SetProfileCSR:
        """The store's CSR incidence matrix (item ids recoded to dense codes).

        The on-disk layer persists exactly these arrays (indptr, codes and
        the code→item-id table), so sparse partition profiles live on disk
        in CSR row order and a partition slice is a pure slice of the
        mapped arrays.
        """
        if self._changed:
            rows = np.fromiter(sorted(self._changed), dtype=np.int64,
                               count=len(self._changed))
            self._csr = _with_rows(self._csr, rows, _measures.SetProfileCSR.from_sets(
                [self._changed[row] for row in rows.tolist()]))
            self._changed = {}
        return self._csr

    @classmethod
    def empty(cls, num_users: int) -> "SparseProfileStore":
        check_non_negative(num_users, "num_users")
        return cls(np.empty((num_users, 0), dtype=np.int64))

    @property
    def num_users(self) -> int:
        return self._csr.num_rows

    def get(self, user: int) -> Set[int]:
        """The user's item set (a copy — mutate via :meth:`set`/:meth:`add_item`)."""
        self._check_user(user)
        changed = self._changed.get(user)
        if changed is not None:
            return set(changed)
        return set(self._csr.row_items(user).tolist())

    def set(self, user: int, profile: Iterable[int]) -> None:
        self._check_user(user)
        self._changed[int(user)] = {int(item) for item in profile}

    def add_item(self, user: int, item: int) -> None:
        """Add a single item to a user's profile (profile-churn primitive)."""
        self._check_user(user)
        self._changed.setdefault(int(user), self.get(user)).add(int(item))

    def apply_profile_changes(self, changes: Sequence) -> int:
        """Apply ``add``/``remove`` changes in order (one fold total).

        The whole batch is validated before anything mutates, so a bad
        change leaves the store untouched.
        """
        for change in changes:
            if change.kind not in ("add", "remove"):
                raise ValueError(
                    "sparse profile stores only accept 'add'/'remove' changes")
            self._check_user(change.user)
        for change in changes:
            profile = self._changed.setdefault(int(change.user), self.get(change.user))
            if change.kind == "add":
                profile.add(int(change.item))
            else:
                profile.discard(int(change.item))
        return len({int(change.user) for change in changes})

    def similarity(self, user_a: int, user_b: int, measure: str = "jaccard") -> float:
        self._check_user(user_a)
        self._check_user(user_b)
        fn = _measures.get_measure(measure)
        if measure not in _measures.SET_MEASURES:
            raise ValueError(
                f"measure {measure!r} operates on vectors; use a DenseProfileStore"
            )
        return float(fn(self.get(user_a), self.get(user_b)))

    def similarity_pairs(self, pairs: np.ndarray, measure: str = "jaccard") -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (n, 2) array")
        _measures.get_measure(measure)
        if measure not in _measures.SET_MEASURES:
            raise ValueError(
                f"measure {measure!r} operates on vectors; use a DenseProfileStore"
            )
        if len(pairs) == 0:
            return np.zeros(0, dtype=np.float64)
        if pairs.min() < 0 or pairs.max() >= self.num_users:
            raise IndexError(f"pair endpoints out of range (store has {self.num_users} users)")
        return self.incidence().measure_pairs(measure, pairs[:, 0], pairs[:, 1])

    def subset(self, users: Sequence[int]) -> "SparseProfileStore":
        for user in users:
            self._check_user(user)
        dropped = np.ones(self.num_users, dtype=bool)
        dropped[np.asarray(users, dtype=np.int64)] = False
        rows = np.flatnonzero(dropped)
        return SparseProfileStore.from_csr(_with_rows(
            self.incidence(), rows,
            _measures.SetProfileCSR.from_sets(np.empty((len(rows), 0), dtype=np.int64))))

    def copy(self) -> "SparseProfileStore":
        return SparseProfileStore.from_csr(self.incidence())

    def item_universe(self) -> Set[int]:
        """Union of all item ids appearing in any profile."""
        return set(self.incidence().item_ids.tolist())

    def average_profile_size(self) -> float:
        csr = self.incidence()
        return float(csr.indptr[-1]) / csr.num_rows if csr.num_rows else 0.0

    def default_measure(self) -> str:
        return "jaccard"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseProfileStore):
            return NotImplemented
        # the canonical form is unique: equal item sets, equal arrays
        mine, theirs = self.incidence(), other.incidence()
        return all(np.array_equal(a, b) for a, b in (
            (mine.indptr, theirs.indptr), (mine.item_ids, theirs.item_ids),
            (mine.codes, theirs.codes)))

    def __repr__(self) -> str:
        return (f"SparseProfileStore(num_users={self.num_users}, "
                f"avg_items={self.average_profile_size():.1f})")


def _with_rows(csr: _measures.SetProfileCSR, rows: np.ndarray,
               new: _measures.SetProfileCSR) -> _measures.SetProfileCSR:
    """Canonical ``csr`` with its ascending ``rows`` replaced by the rows of
    canonical ``new``: the kept rows' codes move through one ascending map
    into the table of the items still held, so no stored item is sorted."""
    sizes = np.diff(csr.indptr)
    kept = np.ones(csr.num_rows, dtype=bool)
    kept[rows] = False
    old_codes = csr.codes[np.repeat(kept, sizes)]
    held = np.zeros(csr.num_items, dtype=bool)
    held[old_codes] = True
    item_ids = sorted_unique(np.concatenate([csr.item_ids[held], new.item_ids]))
    sizes[rows] = np.diff(new.indptr)
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    codes = np.empty(int(indptr[-1]), dtype=np.int64)
    into_kept = np.repeat(kept, sizes)
    codes[into_kept] = np.searchsorted(item_ids, csr.item_ids)[old_codes]
    codes[~into_kept] = np.searchsorted(item_ids, new.item_ids)[new.codes]
    return _measures.SetProfileCSR(indptr, codes, len(item_ids), item_ids=item_ids,
                                   rows_sorted=True)


class DenseProfileStore(ProfileStoreBase):
    """Profiles as rows of a dense ``(num_users, dim)`` float64 matrix."""

    def __init__(self, matrix: np.ndarray, copy: bool = True):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("profile matrix must be two-dimensional")
        self._matrix = matrix.copy() if copy else matrix

    @classmethod
    def empty(cls, num_users: int, dim: int) -> "DenseProfileStore":
        check_non_negative(num_users, "num_users")
        check_positive_int(dim, "dim")
        return cls(np.zeros((num_users, dim), dtype=np.float64))

    @property
    def num_users(self) -> int:
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The underlying matrix (a view; mutate via :meth:`set`)."""
        return self._matrix

    def get(self, user: int) -> np.ndarray:
        self._check_user(user)
        return self._matrix[user]

    def set(self, user: int, profile: np.ndarray) -> None:
        self._check_user(user)
        profile = np.asarray(profile, dtype=np.float64)
        if profile.shape != (self.dim,):
            raise ValueError(f"profile must have shape ({self.dim},), got {profile.shape}")
        self._matrix[user] = profile

    @staticmethod
    def coalesce_set_changes(changes: Sequence, dim: int) -> Dict[int, np.ndarray]:
        """Validate a batch of ``set`` changes and keep the last vector per user.

        Shared by the in-memory and on-disk dense update paths, so only the
        final vector of each touched user is ever written — the work scales
        with touched rows rather than queued changes.
        """
        latest: Dict[int, np.ndarray] = {}
        for change in changes:
            if change.kind != "set":
                raise ValueError("dense profile stores only accept 'set' changes")
            vector = np.asarray(change.vector, dtype=np.float64)
            if vector.shape != (dim,):
                raise ValueError(
                    f"change vector must have shape ({dim},), got {vector.shape}")
            latest[change.user] = vector
        return latest

    def apply_profile_changes(self, changes: Sequence) -> int:
        """Apply ``set`` changes, coalescing superseded rows (last write wins).

        All user ids are validated before the first write, keeping the batch
        all-or-nothing like the on-disk path.
        """
        latest = self.coalesce_set_changes(changes, self.dim)
        for user in latest:
            self._check_user(user)
        for user, vector in latest.items():
            self._matrix[user] = vector
        return len(latest)

    def similarity(self, user_a: int, user_b: int, measure: str = "cosine") -> float:
        self._check_user(user_a)
        self._check_user(user_b)
        fn = _measures.get_measure(measure)
        if measure in _measures.SET_MEASURES:
            raise ValueError(
                f"measure {measure!r} operates on item sets; use a SparseProfileStore"
            )
        return float(fn(self._matrix[user_a], self._matrix[user_b]))

    def similarity_pairs(self, pairs: np.ndarray, measure: str = "cosine") -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must be an (n, 2) array")
        if measure in _measures.SET_MEASURES:
            raise ValueError(
                f"measure {measure!r} operates on item sets; use a SparseProfileStore"
            )
        _measures.get_measure(measure)
        if len(pairs) == 0:
            return np.zeros(0, dtype=np.float64)
        left = self._matrix[pairs[:, 0]]
        right = self._matrix[pairs[:, 1]]
        return _measures.vector_measure_batch(measure, left, right)

    def subset(self, users: Sequence[int]) -> "DenseProfileStore":
        store = DenseProfileStore.empty(self.num_users, self.dim)
        for user in users:
            self._check_user(user)
            store._matrix[user] = self._matrix[user]
        return store

    def copy(self) -> "DenseProfileStore":
        return DenseProfileStore(self._matrix)

    def default_measure(self) -> str:
        return "cosine"

    def __repr__(self) -> str:
        return f"DenseProfileStore(num_users={self.num_users}, dim={self.dim})"
