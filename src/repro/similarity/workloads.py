"""Profile-workload generators.

The paper's system targets recommender-style workloads in which each user's
profile is a set of consumed items whose popularity is heavily skewed, and
profiles keep changing while the KNN computation runs (the motivation for
the lazy profile-update queue of phase 5).  This module generates such
workloads deterministically:

* :func:`generate_sparse_profiles` — Zipf-popular item sets per user;
* :func:`generate_dense_profiles` — latent-factor rating vectors with
  planted user communities (so KNN has structure to find);
* :func:`generate_profile_churn` — a stream of per-iteration profile
  changes that can be fed to the engine's update queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.similarity.profiles import DenseProfileStore, SparseProfileStore
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import check_fraction, check_non_negative, check_positive_int


@dataclass(frozen=True)
class ProfileChange:
    """A single profile mutation to apply at the end of an iteration.

    ``kind`` is ``"add"`` or ``"remove"`` for sparse profiles and ``"set"``
    for dense profiles (in which case ``vector`` carries the new profile).
    """

    user: int
    kind: str
    item: Optional[int] = None
    vector: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("add", "remove", "set"):
            raise ValueError(f"kind must be 'add', 'remove' or 'set', got {self.kind!r}")
        if self.kind in ("add", "remove") and self.item is None:
            raise ValueError(f"{self.kind!r} change requires an item id")
        if self.kind == "set" and self.vector is None:
            raise ValueError("'set' change requires a vector")


def generate_sparse_profiles(num_users: int, num_items: int,
                             items_per_user: int = 20,
                             zipf_exponent: float = 1.1,
                             num_communities: int = 0,
                             seed: SeedLike = None) -> SparseProfileStore:
    """Sparse item-set profiles with Zipf-distributed item popularity.

    When ``num_communities`` > 0, users are assigned round-robin to
    communities and draw most of their items from a community-specific slice
    of the catalogue, giving the KNN graph real cluster structure.
    """
    check_positive_int(num_users, "num_users")
    check_positive_int(num_items, "num_items")
    check_positive_int(items_per_user, "items_per_user")
    check_non_negative(num_communities, "num_communities")
    if items_per_user > num_items:
        raise ValueError("items_per_user cannot exceed num_items")
    rng = make_rng(seed)
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks ** (-zipf_exponent)
    base_probabilities = weights / weights.sum()

    boosted = []        # each community's law, computed once
    for community in range(min(num_communities, num_users)):
        probabilities = base_probabilities.copy()
        probabilities[(community * num_items) // num_communities:
                      ((community + 1) * num_items) // num_communities] *= 8.0
        boosted.append(probabilities / probabilities.sum())
    items = np.empty((num_users, items_per_user), dtype=np.int64)
    for user in range(num_users):
        items[user] = rng.choice(
            num_items, size=items_per_user, replace=False,
            p=boosted[user % num_communities] if boosted else base_probabilities)
    return SparseProfileStore(items)


def generate_dense_profiles(num_users: int, dim: int = 16,
                            num_communities: int = 8,
                            noise: float = 0.25,
                            seed: SeedLike = None) -> DenseProfileStore:
    """Dense latent-factor profiles with planted communities.

    Each community has a random centre on the unit sphere; each user's
    profile is its community centre plus Gaussian noise.  Cosine similarity
    then recovers the communities, which gives KNN-quality benchmarks a
    meaningful ground truth.
    """
    check_positive_int(num_users, "num_users")
    check_positive_int(dim, "dim")
    check_positive_int(num_communities, "num_communities")
    check_non_negative(noise, "noise")
    rng = make_rng(seed)
    centres = rng.normal(size=(num_communities, dim))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    assignments = rng.integers(0, num_communities, size=num_users)
    matrix = centres[assignments] + rng.normal(scale=noise, size=(num_users, dim))
    return DenseProfileStore(matrix)


def generate_profile_churn(store, change_fraction: float = 0.05,
                           num_items: Optional[int] = None,
                           seed: SeedLike = None) -> List[ProfileChange]:
    """A batch of profile changes touching ``change_fraction`` of the users.

    For a :class:`SparseProfileStore`, each selected user gets one item added
    (uniform over the catalogue) and, with probability one half, one existing
    item removed.  For a :class:`DenseProfileStore`, the selected user's
    vector is re-drawn near its current value.
    """
    check_fraction(change_fraction, "change_fraction")
    if not isinstance(store, (SparseProfileStore, DenseProfileStore)):
        raise TypeError(f"unsupported profile store type: {type(store).__name__}")
    rng = make_rng(seed)
    num_users = store.num_users
    num_changed = int(round(num_users * change_fraction))
    if num_changed == 0:
        return []
    users = rng.choice(num_users, size=min(num_changed, num_users), replace=False)
    changes: List[ProfileChange] = []
    if isinstance(store, SparseProfileStore):
        if num_items is None:
            universe = store.item_universe()
            num_items = (max(universe) + 1) if universe else 1
        for user in users:
            user = int(user)
            changes.append(ProfileChange(user=user, kind="add",
                                         item=int(rng.integers(0, num_items))))
            profile = store.get(user)
            if profile and rng.random() < 0.5:
                victim = int(rng.choice(sorted(profile)))
                changes.append(ProfileChange(user=user, kind="remove", item=victim))
    elif isinstance(store, DenseProfileStore):
        for user in users:
            user = int(user)
            new_vector = store.get(user) + rng.normal(scale=0.1, size=store.dim)
            changes.append(ProfileChange(user=user, kind="set", vector=new_vector))
    else:
        raise TypeError(f"unsupported profile store type: {type(store).__name__}")
    return changes
