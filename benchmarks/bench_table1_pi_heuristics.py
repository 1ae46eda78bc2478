"""Table 1 — partition load/unload operations of the PI-graph traversal heuristics.

The paper's only quantitative table evaluates three traversal heuristics
(Sequential, degree-based High-Low, degree-based Low-High) on six SNAP
graphs used *as* PI graphs, reporting the number of partition load/unload
operations each heuristic incurs with two memory slots.

This benchmark regenerates the table on the synthetic stand-in datasets
(matched node/edge counts, see ``repro.graph.datasets``) and checks the
paper's qualitative claim: the degree-based heuristics need roughly 5–15 %
fewer operations than the sequential baseline.  Absolute values differ from
the paper because the graphs are synthetic and the exact operation-counting
convention of the original implementation is not published; every cell
records both numbers side by side in the benchmark's ``extra_info``.

Run with:  pytest benchmarks/bench_table1_pi_heuristics.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import PAPER_TABLE1, run_table1_row
from repro.graph.datasets import DATASETS, TABLE1_ORDER
from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.scheduler import count_load_unload_operations
from repro.pigraph.traversal import PAPER_HEURISTICS

#: dataset name -> generated PI graph, shared across heuristic benchmarks.
_PI_CACHE = {}


def _pi_graph_for(dataset: str) -> PIGraph:
    if dataset not in _PI_CACHE:
        graph = DATASETS[dataset].generate()
        _PI_CACHE[dataset] = PIGraph.from_digraph(graph)
    return _PI_CACHE[dataset]


@pytest.mark.parametrize("dataset", TABLE1_ORDER)
@pytest.mark.parametrize("heuristic", PAPER_HEURISTICS)
def test_table1_cell(benchmark, pedantic_kwargs, dataset, heuristic):
    """One cell of Table 1: (dataset, heuristic) -> load/unload operations."""
    pi_graph = _pi_graph_for(dataset)

    result = benchmark.pedantic(
        count_load_unload_operations, args=(pi_graph, heuristic), **pedantic_kwargs)

    benchmark.extra_info["dataset"] = dataset
    benchmark.extra_info["heuristic"] = heuristic
    benchmark.extra_info["load_unload_operations"] = result.load_unload_operations
    benchmark.extra_info["paper_value"] = dict(
        zip(PAPER_HEURISTICS, PAPER_TABLE1[dataset]))[heuristic]
    assert result.tuples_scheduled == pi_graph.total_weight
    assert result.load_unload_operations > 0


@pytest.mark.parametrize("dataset", TABLE1_ORDER)
def test_table1_row_shape(benchmark, pedantic_kwargs, dataset):
    """Full row: degree-based heuristics must beat the sequential baseline."""
    spec = DATASETS[dataset]

    row = benchmark.pedantic(run_table1_row, args=(spec,), **pedantic_kwargs)

    sequential = row.operations["sequential"]
    high_low = row.operations["degree-high-low"]
    low_high = row.operations["degree-low-high"]
    benchmark.extra_info["reproduced"] = row.operations
    benchmark.extra_info["paper"] = row.paper_operations
    # the paper reports 5-15% fewer operations for the degree-based heuristics;
    # require a strict improvement and a sane upper bound on this workload
    assert high_low < sequential
    assert low_high < sequential
    assert (sequential - min(high_low, low_high)) / sequential < 0.5
