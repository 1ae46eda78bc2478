"""Edge-list file I/O.

Two formats are supported:

* a plain-text format compatible with the SNAP edge lists the paper uses
  (`# comment` lines, whitespace-separated ``src dst`` pairs), and
* a compact binary format (int64 pairs written with NumPy) used by the
  out-of-core layer where parsing text would dominate runtime.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.graph.digraph import CSRDiGraph, DiGraph
from repro.utils.arrays import sorted_unique

PathLike = Union[str, os.PathLike]

_BINARY_MAGIC = b"RPEL0001"


def write_edge_list(path: PathLike, graph: Union[DiGraph, CSRDiGraph],
                    header: Optional[str] = None) -> None:
    """Write ``graph`` as a SNAP-style text edge list."""
    path = Path(path)
    with path.open("w", encoding="ascii") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# Nodes: {graph.num_vertices} Edges: {graph.num_edges}\n")
        for src, dst in graph.edges():
            handle.write(f"{src}\t{dst}\n")


def read_edge_list(path: PathLike, num_vertices: Optional[int] = None) -> CSRDiGraph:
    """Read a SNAP-style text edge list into a :class:`CSRDiGraph`.

    Vertex ids need not be contiguous in the file: they are remapped to a
    dense ``0..n-1`` range preserving ascending order of the original ids,
    unless ``num_vertices`` is given, in which case ids are taken verbatim
    and must already be dense.
    """
    path = Path(path)
    sources, destinations = [], []
    with path.open("r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line in {path}: {line!r}")
            sources.append(int(parts[0]))
            destinations.append(int(parts[1]))
    if not sources:
        return CSRDiGraph.from_edges(num_vertices or 0, [])
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(destinations, dtype=np.int64)
    if num_vertices is None:
        ids = sorted_unique(np.concatenate([src, dst]))
        remap = {int(original): new for new, original in enumerate(ids)}
        src = np.asarray([remap[int(s)] for s in src], dtype=np.int64)
        dst = np.asarray([remap[int(d)] for d in dst], dtype=np.int64)
        num_vertices = len(ids)
    return CSRDiGraph.from_edges(num_vertices, np.column_stack([src, dst]))


def write_edge_list_binary(path: PathLike, graph: Union[DiGraph, CSRDiGraph]) -> None:
    """Write ``graph`` in the compact binary edge-list format."""
    path = Path(path)
    if isinstance(graph, CSRDiGraph):
        edges = graph.edges_array()
    else:
        edges = np.asarray(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    with path.open("wb") as handle:
        handle.write(_BINARY_MAGIC)
        header = np.asarray([graph.num_vertices, len(edges)], dtype=np.int64)
        handle.write(header.tobytes())
        handle.write(edges.astype(np.int64).tobytes())


def read_edge_list_binary(path: PathLike) -> CSRDiGraph:
    """Read a graph previously written by :func:`write_edge_list_binary`."""
    path = Path(path)
    with path.open("rb") as handle:
        magic = handle.read(len(_BINARY_MAGIC))
        if magic != _BINARY_MAGIC:
            raise ValueError(f"{path} is not a repro binary edge list (bad magic)")
        header = np.frombuffer(handle.read(16), dtype=np.int64)
        num_vertices, num_edges = int(header[0]), int(header[1])
        payload = np.frombuffer(handle.read(num_edges * 16), dtype=np.int64)
        if payload.size != num_edges * 2:
            raise ValueError(f"{path} is truncated: expected {num_edges} edges")
        edges = payload.reshape(num_edges, 2)
    return CSRDiGraph.from_edges(num_vertices, edges)
