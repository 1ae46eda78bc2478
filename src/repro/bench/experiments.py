"""Experiment runners for every table and figure reproduced from the paper.

Each runner returns plain data structures (dataclasses / dicts);
:mod:`repro.bench.report` renders them into ``EXPERIMENTS.md`` and the tests
assert the paper's claims on them at small sizes.

Experiment index:

* :func:`run_table1` — Table 1: load/unload operations of the PI-graph
  traversal heuristics on the six (synthetic stand-in) datasets, beside the
  two-slot floor.
* :func:`run_engine_pi_graphs` — the same heuristics on the PI graphs the
  engine itself builds, iteration by iteration.
* :func:`run_pipeline_phase_breakdown` — Figure 1: the five-phase pipeline,
  reported as per-phase timings and operation counts of a full iteration.
* :func:`run_memory_budget_sweep` — Ext-B: varying the number of partitions.
* :func:`run_disk_model_comparison` — Ext-C: HDD vs SSD simulated I/O time.
* :func:`run_graph_size_sweep` — Ext-A: work against the number of users.
* :func:`run_partitioner_ablation` — phase-1 partitioners on the paper's
  locality objective and the edge cut.
* :func:`run_quality_comparison` — Ext-E: engine vs NN-Descent vs brute force.
* :func:`run_churn_convergence` — Ext-E: engine recall under profile churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


from repro.baselines.brute_force import brute_force_knn
from repro.baselines.nn_descent import NNDescent
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.graph.datasets import DATASETS, TABLE1_ORDER, DatasetSpec, small_dataset
from repro.graph.knn_graph import KNNGraph
from repro.partition.metrics import edge_cut, locality_cost
from repro.partition.model import build_partitions
from repro.partition.partitioners import available_partitioners, get_partitioner
from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.scheduler import compare_heuristics, load_unload_floor
from repro.pigraph.traversal import HEURISTICS, PAPER_HEURISTICS
from repro.similarity.workloads import (generate_dense_profiles, generate_profile_churn,
                                        generate_sparse_profiles)
from repro.tuples.generator import generate_candidate_tuples
from repro.utils.rng import SeedLike


# ---------------------------------------------------------------------------
# Table 1 — PI-graph traversal heuristics
# ---------------------------------------------------------------------------

#: Values printed in the paper's Table 1, carried beside each reproduced row
#: (``Table1Row.paper_operations``).  Keys are dataset registry names; values
#: are (sequential, high-low, low-high) operation counts.
PAPER_TABLE1 = {
    "wiki-vote": (211856, 204706, 202290),
    "gen-rel": (34506, 32220, 31256),
    "high-energy": (252754, 242132, 240872),
    "astro-phy": (420442, 400050, 401770),
    "email": (399604, 382928, 379312),
    "gnutella": (157040, 144072, 132710),
}


@dataclass
class Table1Row:
    """One dataset row of the reproduced Table 1."""

    dataset: str
    display_name: str
    num_nodes: int
    num_edges: int
    operations: Dict[str, int]            # heuristic name -> load/unload ops
    paper_operations: Optional[Dict[str, int]] = None
    #: ``load_unload_floor`` of the PI graph: no two-slot traversal does better
    floor: int = 0

    def improvement_over_sequential(self, heuristic: str) -> float:
        """Fractional reduction in operations relative to the sequential heuristic."""
        seq = self.operations["sequential"]
        return (seq - self.operations[heuristic]) / seq if seq else 0.0


def run_table1_row(spec: DatasetSpec, heuristics: Sequence[str] = PAPER_HEURISTICS,
                   seed: SeedLike = None) -> Table1Row:
    """Reproduce one row of Table 1 (two slots) on the synthetic stand-in for ``spec``."""
    graph = spec.generate(seed)
    pi_graph = PIGraph.from_digraph(graph)
    results = compare_heuristics(pi_graph, list(heuristics))
    operations = {name: result.load_unload_operations for name, result in results.items()}
    paper = PAPER_TABLE1.get(spec.name)
    paper_ops = None
    if paper is not None:
        paper_ops = dict(zip(PAPER_HEURISTICS, paper))
    return Table1Row(
        dataset=spec.name,
        display_name=spec.display_name,
        num_nodes=graph.num_vertices,
        num_edges=graph.num_edges,
        operations=operations,
        paper_operations=paper_ops,
        floor=load_unload_floor(pi_graph),
    )


def run_table1(heuristics: Sequence[str] = PAPER_HEURISTICS) -> List[Table1Row]:
    """Reproduce the full Table 1, in the paper's dataset order."""
    return [run_table1_row(DATASETS[name], heuristics) for name in TABLE1_ORDER]


def _engine_pi_graph(graph: KNNGraph, config: EngineConfig) -> PIGraph:
    """The PI graph phase 3 builds from ``graph``, with ``H`` built from
    scratch (the delta-driven phase 2 builds the same table)."""
    csr = graph.to_csr()
    assignment = get_partitioner(config.partitioner).assign(csr, config.num_partitions)
    table = generate_candidate_tuples(
        csr, build_partitions(csr, assignment, config.num_partitions), assignment,
        include_direct_edges=config.include_direct_edges,
        max_pairs_per_bridge=config.max_pairs_per_bridge)
    return PIGraph.from_tuple_table(table, config.num_partitions)


def run_engine_pi_graphs(num_users: int, num_partitions: int,
                         partitioner: str = "contiguous", num_iterations: int = 4,
                         k: int = 10, seed: int = 7) -> List[Dict[str, object]]:
    """Every heuristic on the weighted PI graphs of an engine's iterations.

    The engine itself runs ``degree-low-high``; ``executed`` is what phase 4
    performed of that plan once dirty scheduling and the residual gather
    skipped what they could.
    """
    profiles = generate_dense_profiles(num_users, dim=16, num_communities=8, seed=seed)
    config = EngineConfig(k=k, num_partitions=num_partitions, partitioner=partitioner,
                          heuristic="degree-low-high", measure="cosine", seed=seed)
    rows: List[Dict[str, object]] = []
    with KNNEngine(profiles, config) as engine:
        for iteration in range(num_iterations):
            pi_graph = _engine_pi_graph(engine.graph, config)
            results = compare_heuristics(pi_graph, list(HEURISTICS))
            rows.append({
                "iteration": iteration,
                "pi_edges": pi_graph.num_edges,
                "operations": {name: result.load_unload_operations
                               for name, result in results.items()},
                "floor": load_unload_floor(pi_graph),
                "executed": engine.run_iteration().load_unload_operations,
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 1 — the five-phase pipeline
# ---------------------------------------------------------------------------

def run_pipeline_phase_breakdown(num_users: int = 1500, k: int = 10,
                                 num_partitions: int = 6,
                                 num_iterations: int = 2,
                                 heuristic: str = "degree-low-high",
                                 seed: int = 11) -> Dict[str, object]:
    """Run a full engine and report per-phase timings and operation counts.

    This exercises every box of the paper's Figure 1 (the five phases) on a
    synthetic dense-profile workload and returns a summary dictionary with
    per-phase seconds, candidate-tuple counts and load/unload operations.
    """
    profiles = generate_dense_profiles(num_users, dim=16, num_communities=8, seed=seed)
    config = EngineConfig(k=k, num_partitions=num_partitions, heuristic=heuristic,
                          seed=seed)
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=num_iterations)
    summary = run.summary()
    # Figure 1's operation counts tally every candidate pair per iteration
    # (kernel evaluations plus scores the carried state reused)
    summary["total_similarity_evaluations"] = sum(
        result.num_candidate_tuples for result in run.iterations)
    summary["per_iteration"] = [result.summary() for result in run.iterations]
    return summary


# ---------------------------------------------------------------------------
# Extension experiments (the paper's future-work section)
# ---------------------------------------------------------------------------

def run_memory_budget_sweep(num_users: int = 1200, k: int = 8,
                            partition_counts: Sequence[int] = (2, 4, 8, 16),
                            heuristic: str = "degree-low-high",
                            seed: int = 5) -> List[Dict[str, object]]:
    """Ext-B: how the number of partitions (memory pressure) affects I/O work."""
    profiles = generate_dense_profiles(num_users, dim=16, num_communities=8, seed=seed)
    rows: List[Dict[str, object]] = []
    for m in partition_counts:
        config = EngineConfig(k=k, num_partitions=m, heuristic=heuristic, seed=seed)
        with KNNEngine(profiles, config) as engine:
            result = engine.run_iteration()
        rows.append({
            "num_partitions": m,
            "load_unload_operations": result.load_unload_operations,
            "bytes_read": result.io_stats.bytes_read,
            "simulated_io_seconds": result.io_stats.simulated_io_seconds,
            "candidate_tuples": result.num_candidate_tuples,
        })
    return rows


def run_disk_model_comparison(num_users: int = 1200, k: int = 8,
                              num_partitions: int = 8,
                              disk_models: Sequence[str] = ("hdd", "ssd"),
                              seed: int = 5) -> List[Dict[str, object]]:
    """Ext-C: simulated I/O time of one iteration on HDD vs SSD."""
    profiles = generate_dense_profiles(num_users, dim=16, num_communities=8, seed=seed)
    rows: List[Dict[str, object]] = []
    for model in disk_models:
        config = EngineConfig(k=k, num_partitions=num_partitions, disk_model=model, seed=seed)
        with KNNEngine(profiles, config) as engine:
            result = engine.run_iteration()
        rows.append({
            "disk_model": model,
            "simulated_io_seconds": result.io_stats.simulated_io_seconds,
            "bytes_read": result.io_stats.bytes_read,
            "load_unload_operations": result.load_unload_operations,
        })
    return rows


def run_graph_size_sweep(sizes: Sequence[int] = (500, 1000, 2000, 4000), k: int = 10,
                         num_partitions: int = 8, seed: int = 19) -> List[Dict[str, object]]:
    """Ext-A: one out-of-core iteration's work and wall time per user count."""
    rows: List[Dict[str, object]] = []
    for num_users in sizes:
        profiles = generate_dense_profiles(num_users, dim=16, num_communities=8, seed=seed)
        config = EngineConfig(k=k, num_partitions=num_partitions,
                              heuristic="degree-low-high", seed=seed)
        with KNNEngine(profiles, config) as engine:
            result = engine.run_iteration()
        rows.append({
            "num_users": num_users,
            "candidate_tuples": result.num_candidate_tuples,
            "similarity_evaluations": result.similarity_evaluations,
            "bytes_read": result.io_stats.bytes_read,
            "seconds": result.phase_timer.total(),
        })
    return rows


def run_partitioner_ablation(num_vertices: int = 2000, num_edges: int = 12000,
                             num_partitions: int = 8,
                             seed: int = 71) -> List[Dict[str, object]]:
    """Each phase-1 partitioner on one graph: the paper's objective
    ``Σ (N_in + N_out)`` and the edge cut."""
    graph = small_dataset(num_vertices, num_edges, seed=seed)
    rows: List[Dict[str, object]] = []
    for name in available_partitioners():
        assignment = get_partitioner(name).assign(graph, num_partitions)
        rows.append({
            "partitioner": name,
            "locality_cost": locality_cost(
                build_partitions(graph, assignment, num_partitions)),
            "edge_cut": edge_cut(graph, assignment),
        })
    return rows


def run_quality_comparison(num_users: int = 600, k: int = 10,
                           num_iterations: int = 4,
                           num_partitions: int = 4,
                           seed: int = 3) -> Dict[str, object]:
    """Ext-E: recall of the out-of-core engine vs NN-Descent vs brute force."""
    profiles = generate_dense_profiles(num_users, dim=16, num_communities=6, seed=seed)
    exact = brute_force_knn(profiles, k, measure="cosine")

    config = EngineConfig(k=k, num_partitions=num_partitions,
                          heuristic="degree-low-high", seed=seed)
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=num_iterations, exact_graph=exact)

    descent = NNDescent(k=k, measure="cosine", seed=seed).run(profiles)
    total_pairs = num_users * (num_users - 1)
    # the scan rate reproduces the paper's accounting: every candidate pair
    # counts as one evaluation, as it does for NN-Descent, which reuses none
    evaluations = sum(result.num_candidate_tuples for result in run.iterations)
    return {
        "engine_recalls": list(run.convergence.recalls),
        "engine_similarity_evaluations": evaluations,
        "engine_scan_rate": evaluations / total_pairs,
        "nn_descent_recall": descent.graph.recall_against(exact),
        "nn_descent_similarity_evaluations": descent.similarity_evaluations,
        "nn_descent_iterations": descent.iterations,
        "brute_force_evaluations": total_pairs,
    }


def run_churn_convergence(num_users: int = 600, k: int = 10, num_iterations: int = 4,
                          num_partitions: int = 5, change_fraction: float = 0.02,
                          seed: int = 41) -> Dict[str, object]:
    """Ext-E: recall of a sparse-profile engine whose profiles change by
    ``change_fraction`` every iteration (phase 5)."""
    profiles = generate_sparse_profiles(num_users, 2000, items_per_user=25,
                                        num_communities=6, seed=seed)
    exact = brute_force_knn(profiles, k, measure="jaccard")
    config = EngineConfig(k=k, num_partitions=num_partitions,
                          heuristic="degree-low-high", seed=seed)
    with KNNEngine(profiles, config) as engine:
        run = engine.run(num_iterations=num_iterations, exact_graph=exact,
                         profile_change_feed=lambda iteration: generate_profile_churn(
                             profiles, change_fraction=change_fraction, seed=iteration))
    return {
        "recalls": list(run.convergence.recalls),
        "profile_updates_applied": sum(r.profile_updates_applied for r in run.iterations),
        "similarity_evaluations": sum(r.num_candidate_tuples for r in run.iterations),
    }
