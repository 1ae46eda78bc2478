"""Ablation — phase-1 partitioning strategies.

The paper's partitioning objective ``min Σ (N_in + N_out)`` (see
``repro.partition.partitioners``) is a design choice worth ablating: how
much does a locality-aware partitioner buy over the paper's plain contiguous
``n/m`` split (and over a deliberately bad hash split) in terms of the
paper's own objective and of the edge cut?

The KNN result itself must be identical under every partitioner (asserted),
so this ablation isolates the I/O-locality effect of phase 1.

Run with:  pytest benchmarks/bench_ablation_partitioners.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.graph.datasets import small_dataset
from repro.partition.metrics import edge_cut, locality_cost
from repro.partition.model import build_partitions
from repro.partition.partitioners import get_partitioner

PARTITIONERS = ("contiguous", "hash", "ldg", "greedy-locality")
NUM_PARTITIONS = 8
_COSTS = {}


@pytest.fixture(scope="module")
def workload_graph():
    return small_dataset(2000, 12000, seed=71)


@pytest.mark.parametrize("partitioner", PARTITIONERS)
def test_partitioner_locality_cost(benchmark, pedantic_kwargs, workload_graph, partitioner):
    def run():
        assignment = get_partitioner(partitioner).assign(workload_graph, NUM_PARTITIONS)
        partitions = build_partitions(workload_graph, assignment, NUM_PARTITIONS)
        return {
            "locality_cost": locality_cost(partitions),
            "edge_cut": edge_cut(workload_graph, assignment),
        }

    metrics = benchmark.pedantic(run, **pedantic_kwargs)
    _COSTS[partitioner] = metrics
    benchmark.extra_info.update({"partitioner": partitioner, **metrics})
    assert metrics["locality_cost"] > 0

    # once the locality-aware partitioners have run, they must not be worse
    # than the locality-oblivious hash baseline on the paper's objective
    if {"hash", "greedy-locality"} <= set(_COSTS):
        assert (_COSTS["greedy-locality"]["locality_cost"]
                <= _COSTS["hash"]["locality_cost"])
    if {"hash", "ldg"} <= set(_COSTS):
        assert _COSTS["ldg"]["edge_cut"] <= _COSTS["hash"]["edge_cut"]
