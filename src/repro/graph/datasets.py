"""Synthetic stand-ins for the SNAP datasets used in the paper's Table 1.

The paper evaluates its PI-graph traversal heuristics on six public SNAP
graphs.  Those files are not available offline, so this module generates
synthetic graphs matched to each dataset's published vertex count, edge
count, and broad structural family (voting / citation-style power law,
collaboration networks with clustering, e-mail communication, P2P overlay).
Because the experiment measures partition load/unload operation counts —
a function of graph size and degree structure, not of the identities of
individual SNAP users — the substitution preserves the quantity of interest.

The generated graphs are deterministic for a given seed, and the default
seed is fixed so that benchmark tables are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.graph.digraph import CSRDiGraph
from repro.graph.generators import powerlaw_fixed_size_graph
from repro.utils.rng import SeedLike, derive_seed


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one paper dataset and how its stand-in is synthesised."""

    name: str
    display_name: str
    num_vertices: int
    num_edges: int
    family: str
    exponent: float
    description: str

    def generate(self, seed: SeedLike = None) -> CSRDiGraph:
        """Generate the synthetic stand-in graph for this dataset."""
        if seed is None:
            seed = derive_seed(20141208, self.name)
        return powerlaw_fixed_size_graph(
            self.num_vertices, self.num_edges, exponent=self.exponent, seed=seed
        )


#: The six datasets of Table 1 with the node/edge counts printed in the paper.
DATASETS: Dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in [
        DatasetSpec(
            name="wiki-vote",
            display_name="Wiki-Vote",
            num_vertices=7115,
            num_edges=100762,
            family="voting",
            exponent=2.0,
            description="Wikipedia adminship election network (who-votes-on-whom).",
        ),
        DatasetSpec(
            name="gen-rel",
            display_name="Gen. Rel.",
            num_vertices=5241,
            num_edges=14484,
            family="collaboration",
            exponent=2.6,
            description="arXiv General Relativity collaboration network (ca-GrQc).",
        ),
        DatasetSpec(
            name="high-energy",
            display_name="High Ener.",
            num_vertices=12006,
            num_edges=118489,
            family="collaboration",
            exponent=2.2,
            description="arXiv High Energy Physics collaboration network (ca-HepPh).",
        ),
        DatasetSpec(
            name="astro-phy",
            display_name="AstroPhy.",
            num_vertices=18771,
            num_edges=198050,
            family="collaboration",
            exponent=2.3,
            description="arXiv Astro Physics collaboration network (ca-AstroPh).",
        ),
        DatasetSpec(
            name="email",
            display_name="E-mail",
            num_vertices=36692,
            num_edges=183831,
            family="communication",
            exponent=1.9,
            description="Enron e-mail communication network (email-Enron).",
        ),
        DatasetSpec(
            name="gnutella",
            display_name="Gnutella",
            num_vertices=26518,
            num_edges=65369,
            family="p2p",
            exponent=3.0,
            description="Gnutella peer-to-peer overlay snapshot (p2p-Gnutella24).",
        ),
    ]
}

#: Order in which the paper's Table 1 lists the datasets.
TABLE1_ORDER = ["wiki-vote", "gen-rel", "high-energy", "astro-phy", "email", "gnutella"]


def load_dataset(name: str, seed: SeedLike = None) -> CSRDiGraph:
    """Generate the synthetic stand-in for dataset ``name``.

    ``name`` may be the registry key (``"wiki-vote"``) or the display name
    used in the paper's table (``"Wiki-Vote"``), case-insensitively.
    """
    key = name.strip().lower()
    if key in DATASETS:
        return DATASETS[key].generate(seed)
    for spec in DATASETS.values():
        if spec.display_name.lower() == key:
            return spec.generate(seed)
    known = ", ".join(sorted(DATASETS))
    raise KeyError(f"unknown dataset {name!r}; known datasets: {known}")


def small_dataset(num_vertices: int = 500, num_edges: int = 3000,
                  seed: SeedLike = 7) -> CSRDiGraph:
    """A small power-law graph for tests and quick examples."""
    return powerlaw_fixed_size_graph(num_vertices, num_edges, exponent=2.2, seed=seed)
