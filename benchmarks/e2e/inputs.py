"""Seeded inputs and the harness's own exact-KNN oracle.

The program receives only the generated profiles; the same seed gives the
same inputs.  Nothing here calls into ``repro``: the oracle is a numpy
brute force over the harness's own copy of the final profiles, so a bug in
the library's kernels cannot vouch for itself.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


def dense_profiles(num_users: int, dim: int, communities: int,
                   rng: np.random.Generator, noise: float = 0.25) -> np.ndarray:
    """Latent-factor vectors around ``communities`` unit-sphere centres."""
    centres = rng.normal(size=(communities, dim))
    centres /= np.linalg.norm(centres, axis=1, keepdims=True)
    member = rng.integers(0, communities, size=num_users)
    return centres[member] + rng.normal(scale=noise, size=(num_users, dim))


def sparse_profiles(num_users: int, num_items: int, items_per_user: int,
                    zipf: float, communities: int, rng: np.random.Generator,
                    boost: float = 8.0) -> List[np.ndarray]:
    """Zipf-popular item sets, one sorted int64 array per user.

    Vectorised per community: each user draws ``3 * items_per_user + 4``
    items from the community's boosted Zipf distribution by inverse CDF and
    keeps the first ``items_per_user`` distinct ones — the same law as
    drawing without replacement one item at a time, which the library's
    per-user ``rng.choice`` loop does at 5-8 s per 10k users.  A user whose
    draws hold fewer distinct items keeps them all.
    """
    weights = np.arange(1, num_items + 1, dtype=np.float64) ** (-zipf)
    draws = 3 * items_per_user + 4
    profiles: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * num_users
    for community in range(communities):
        users = np.arange(community, num_users, communities)
        if not len(users):
            continue
        boosted = weights.copy()
        lo = community * num_items // communities
        hi = (community + 1) * num_items // communities
        boosted[lo:hi] *= boost
        cdf = np.cumsum(boosted)
        cdf /= cdf[-1]
        items = np.searchsorted(cdf, rng.random((len(users), draws)))
        np.minimum(items, num_items - 1, out=items)
        # mark every repeat of an earlier draw in the same row
        order = np.argsort(items, axis=1, kind="stable")
        ranked = np.take_along_axis(items, order, axis=1)
        repeat_ranked = np.zeros(items.shape, dtype=bool)
        repeat_ranked[:, 1:] = ranked[:, 1:] == ranked[:, :-1]
        repeat = np.empty_like(repeat_ranked)
        np.put_along_axis(repeat, order, repeat_ranked, axis=1)
        keep = ~repeat & (np.cumsum(~repeat, axis=1) <= items_per_user)
        for row, user in enumerate(users):
            profiles[user] = np.sort(items[row, keep[row]])
    return profiles


def _tie_tolerant_hits(similarity: np.ndarray, user: int,
                       neighbours: Sequence[int], k: int) -> int:
    """How many of ``neighbours`` score at least the exact k-th best."""
    row = similarity.copy()
    row[user] = -np.inf
    kth = np.partition(row, len(row) - k)[len(row) - k]
    return sum(1 for neighbour in neighbours
               if neighbour != user and row[neighbour] >= kth - 1e-12)


def recall_dense(matrix: np.ndarray, sample: Sequence[int],
                 neighbours: Sequence[Sequence[int]], k: int) -> float:
    """Cosine recall@k of ``neighbours[i]`` for user ``sample[i]``."""
    norms = np.linalg.norm(matrix, axis=1)
    unit = matrix / np.where(norms > 0, norms, 1.0)[:, None]
    hits = 0
    for user, found in zip(sample, neighbours):
        hits += _tie_tolerant_hits(unit @ unit[user], int(user), found, k)
    return hits / (k * len(sample))


def recall_sparse(profiles: Sequence[np.ndarray], sample: Sequence[int],
                  neighbours: Sequence[Sequence[int]], k: int) -> float:
    """Jaccard recall@k over item-set profiles (sorted int arrays)."""
    sizes = np.array([len(profile) for profile in profiles], dtype=np.int64)
    width = int(sizes.max())
    padded = np.full((len(profiles), width), -1, dtype=np.int64)
    for user, profile in enumerate(profiles):
        padded[user, :len(profile)] = profile
    hits = 0
    for user, found in zip(sample, neighbours):
        shared = np.isin(padded, profiles[user]).sum(axis=1)
        union = sizes + sizes[user] - shared
        jaccard = np.where(union > 0, shared / np.maximum(union, 1), 0.0)
        hits += _tie_tolerant_hits(jaccard, int(user), found, k)
    return hits / (k * len(sample))
