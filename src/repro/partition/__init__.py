"""Phase 1 — KNN-graph partitioning."""

from repro.partition.model import (Partition, PartitionLayout, build_partitions,
                                   partition_layout)
from repro.partition.partitioners import (
    ContiguousPartitioner,
    GreedyLocalityPartitioner,
    HashPartitioner,
    LinearDeterministicGreedyPartitioner,
    Partitioner,
    get_partitioner,
)
from repro.partition.metrics import (
    edge_cut,
    locality_cost,
    partition_balance,
    partition_report,
)

__all__ = [
    "Partition",
    "PartitionLayout",
    "build_partitions",
    "partition_layout",
    "Partitioner",
    "ContiguousPartitioner",
    "HashPartitioner",
    "GreedyLocalityPartitioner",
    "LinearDeterministicGreedyPartitioner",
    "get_partitioner",
    "locality_cost",
    "edge_cut",
    "partition_balance",
    "partition_report",
]
