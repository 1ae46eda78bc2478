"""The per-vertex G(0) draw that recorded values were made on.

``KNNGraph.random`` draws every row at once (Floyd's algorithm across rows),
so a seed no longer gives the graph it gave when one ``rng.choice`` call drew
each vertex's list.  Tests whose recorded values (goldens, a byte peak, a
chosen data edge) were made on that old draw pass this graph to the engine as
``initial_graph``; nothing else about the run changes
(``test_core_engine.py::test_initial_graph_from_the_seed_changes_nothing``).
"""

from __future__ import annotations

import numpy as np

from repro.graph.knn_graph import KNNGraph
from repro.utils.rng import SeedLike, make_rng


def legacy_random_graph(num_vertices: int, k: int, seed: SeedLike = None) -> KNNGraph:
    """G(0) as one ``rng.choice(n - 1, k, replace=False)`` per vertex drew it."""
    rng = make_rng(seed)
    graph = KNNGraph(num_vertices, k)
    destinations = np.empty((num_vertices, k), dtype=np.int64)
    for v in range(num_vertices):
        choices = rng.choice(num_vertices - 1, size=k, replace=False)
        # shift values >= v by one to exclude the self loop
        destinations[v] = np.where(choices >= v, choices + 1, choices)
    sources = np.repeat(np.arange(num_vertices, dtype=np.int64), k)
    graph.add_candidates_batch(sources, destinations.ravel(),
                               np.zeros(num_vertices * k, dtype=np.float64),
                               assume_unique=True)
    return graph
