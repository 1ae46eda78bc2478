"""The hit-mask wall: the carried slab misses exactly what the batch touched.

While the carried state is aligned, phase 4 joins the score slab to ``H``
by position (:meth:`Phase4ScoreCache.carry`): a slot keeps its score unless
it is NaN already (an arrival) or an endpoint's profile changed.  The rule
used to decode every key of ``H`` to test both endpoints against a touched
mask.  Now it finds the touched slots from the graph instead: a touched
source's pairs are one run of the sorted keys, and a touched destination
``d``'s lie at ``s·n + d`` for ``s`` one or two hops upstream of ``d`` in
``G(t)``.

A test-local copy of the full-decode rule is the reference.  On random
KNN-shaped graphs with hubs and vertices nobody points at, with and without
direct edges, and for empty, singleton, hub, random and all-vertex touched
sets, the walk must leave the reference's score bits and misses.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.iteration import Phase4ScoreCache
from repro.graph.digraph import CSRDiGraph
from repro.partition.model import build_partitions
from repro.tuples.generator import generate_candidate_tuples

def _reference_carry(scores, pair_keys, touched_mask, num_vertices):
    """The full-decode rule ``carry`` replaced, as it stood: every key
    decoded, a hit is a carried score with two untouched endpoints."""
    sources = pair_keys // np.int64(num_vertices)
    hit_mask = ~(np.isnan(scores) | touched_mask[sources]
                 | touched_mask[pair_keys - sources * num_vertices])
    scores[~hit_mask] = np.nan
    return scores, hit_mask


@st.composite
def _knn_graphs(draw):
    """``(n, sorted edge keys, hubs)``: out-degree at most ``k``, no self
    loops, a few hubs most rows point at, and orphans nobody points at."""
    n = draw(st.integers(min_value=3, max_value=40))
    k = draw(st.integers(min_value=1, max_value=min(6, n - 1)))
    vertex = st.integers(min_value=0, max_value=n - 1)
    hubs = draw(st.sets(vertex, max_size=3))
    orphans = draw(st.sets(vertex, max_size=n // 3)) - hubs
    keys = set()
    for v in range(n):
        allowed = [u for u in range(n) if u != v and u not in orphans]
        preferred = [u for u in sorted(hubs) if u != v]
        picks = draw(st.lists(st.sampled_from(allowed), max_size=k)) if allowed else []
        for u in (preferred + picks)[:k]:
            keys.add(v * n + u)
    return n, np.asarray(sorted(keys), dtype=np.int64), sorted(hubs)


@st.composite
def _cases(draw):
    n, edge_keys, hubs = draw(_knn_graphs())
    direct = draw(st.booleans())
    parts = draw(st.integers(min_value=1, max_value=3))
    shape = draw(st.sampled_from(["empty", "singleton", "hubs", "random", "all"]))
    if shape == "empty":
        touched = []
    elif shape == "singleton":
        touched = [draw(st.integers(min_value=0, max_value=n - 1))]
    elif shape == "hubs":
        touched = hubs
    elif shape == "random":
        touched = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1))))
    else:
        touched = list(range(n))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    return n, edge_keys, direct, parts, np.asarray(touched, dtype=np.int64), seed


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_touched_runs_and_two_hop_walk_match_the_full_decode(case):
    n, edge_keys, direct, parts, touched, seed = case
    rng = np.random.default_rng(seed)
    csr = CSRDiGraph.from_sorted_keys(n, edge_keys)
    assignment = rng.integers(0, parts, size=n)
    table = generate_candidate_tuples(
        csr, build_partitions(csr, assignment, parts), assignment,
        include_direct_edges=direct)
    keys = table.keys
    # a carried slab moved along H: scores, with NaN at the arrivals
    slab = rng.random(len(keys))
    slab[rng.random(len(keys)) < 0.2] = np.nan
    cache = Phase4ScoreCache()
    cache.merge(keys, slab, "cosine", 0, n)
    touched_mask = np.zeros(n, dtype=bool)
    touched_mask[touched] = True
    expected, hits = _reference_carry(slab.copy(), keys, touched_mask, n)
    scores = slab.copy()
    misses = cache.carry(scores, keys, csr, touched)
    assert scores.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert misses.tolist() == np.flatnonzero(~hits).tolist()

