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
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.similarity import measures as _measures
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
        defers its incidence-cache invalidation to the end of the batch).
        """
        raise NotImplementedError

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} out of range (store has {self.num_users} users)")


class SparseProfileStore(ProfileStoreBase):
    """Profiles as sets of integer item ids."""

    def __init__(self, profiles: Sequence[Iterable[int]]):
        self._profiles: List[Set[int]] = [set(p) for p in profiles]
        self._csr: Optional[_measures.SetProfileCSR] = None

    def _incidence(self) -> _measures.SetProfileCSR:
        """CSR user×item incidence matrix, rebuilt lazily after mutations."""
        if self._csr is None:
            self._csr = _measures.SetProfileCSR.from_sets(self._profiles)
        return self._csr

    def incidence(self) -> _measures.SetProfileCSR:
        """The store's CSR incidence matrix (item ids recoded to dense codes).

        The on-disk layer persists exactly these arrays (indptr, codes and
        the code→item-id table), so sparse partition profiles live on disk
        in CSR row order and a partition slice is a pure slice of the
        mapped arrays.
        """
        return self._incidence()

    @classmethod
    def empty(cls, num_users: int) -> "SparseProfileStore":
        check_non_negative(num_users, "num_users")
        return cls([set() for _ in range(num_users)])

    @property
    def num_users(self) -> int:
        return len(self._profiles)

    def get(self, user: int) -> Set[int]:
        """The user's item set (a copy — mutate via :meth:`set`/:meth:`add_item`,
        which keep the cached incidence matrix consistent)."""
        self._check_user(user)
        return set(self._profiles[user])

    def set(self, user: int, profile: Iterable[int]) -> None:
        self._check_user(user)
        self._profiles[user] = set(profile)
        self._csr = None

    def add_item(self, user: int, item: int) -> None:
        """Add a single item to a user's profile (profile-churn primitive)."""
        self._check_user(user)
        self._profiles[user].add(item)
        self._csr = None

    def apply_profile_changes(self, changes: Sequence) -> int:
        """Apply ``add``/``remove`` changes in order (one cache rebuild total).

        The whole batch is validated before anything mutates, so a bad
        change leaves the store (and its cached incidence matrix) untouched.
        """
        for change in changes:
            if change.kind not in ("add", "remove"):
                raise ValueError(
                    "sparse profile stores only accept 'add'/'remove' changes")
            self._check_user(change.user)
        touched = set()
        for change in changes:
            profile = self._profiles[change.user]
            if change.kind == "add":
                profile.add(change.item)
            else:
                profile.discard(change.item)
            touched.add(change.user)
        if touched:
            self._csr = None
        return len(touched)

    def similarity(self, user_a: int, user_b: int, measure: str = "jaccard") -> float:
        self._check_user(user_a)
        self._check_user(user_b)
        fn = _measures.get_measure(measure)
        if measure not in _measures.SET_MEASURES:
            raise ValueError(
                f"measure {measure!r} operates on vectors; use a DenseProfileStore"
            )
        return float(fn(self._profiles[user_a], self._profiles[user_b]))

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
        return self._incidence().measure_pairs(measure, pairs[:, 0], pairs[:, 1])

    def subset(self, users: Sequence[int]) -> "SparseProfileStore":
        store = SparseProfileStore.empty(self.num_users)
        for user in users:
            self._check_user(user)
            store._profiles[user] = set(self._profiles[user])
        return store

    def copy(self) -> "SparseProfileStore":
        return SparseProfileStore(self._profiles)

    def item_universe(self) -> Set[int]:
        """Union of all item ids appearing in any profile."""
        universe: Set[int] = set()
        for profile in self._profiles:
            universe |= profile
        return universe

    def average_profile_size(self) -> float:
        if not self._profiles:
            return 0.0
        return sum(len(p) for p in self._profiles) / len(self._profiles)

    def default_measure(self) -> str:
        return "jaccard"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseProfileStore):
            return NotImplemented
        return self._profiles == other._profiles

    def __repr__(self) -> str:
        return (f"SparseProfileStore(num_users={self.num_users}, "
                f"avg_items={self.average_profile_size():.1f})")


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
