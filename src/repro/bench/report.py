"""``EXPERIMENTS.md``: every table this repository reproduces from the paper,
written from runs by ``python -m repro report`` and never typed by hand.

Each section runs its experiments from :mod:`repro.bench.experiments` and
renders Markdown.  The count tables (operations, bytes, simulated I/O
seconds, recalls) are deterministic, and the tests compare several of them
with the committed record; the columns that are wall-clock time say so.
``scale`` shrinks every user count, graph and stand-in size a section runs
(the tests write a whole report in seconds); the record is written at 1.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence, Union

import numpy as np

from repro.bench import experiments as exp
from repro.core.iteration import PHASE_NAMES
from repro.pigraph.traversal import HEURISTICS, PAPER_HEURISTICS

#: Every registered heuristic, the paper's three first.
ALL_HEURISTICS = tuple(HEURISTICS)

#: (benchmarks/e2e workload, users, partitions) whose shapes the engine PI
#: graph section runs at.
ENGINE_SHAPES = (("many_parts", 4000, 32), ("drift_dense", 5000, 8))
ENGINE_PARTITIONERS = ("contiguous", "ldg", "greedy-locality")


def _n(value: int) -> str:
    return f"{value:,}"


def _pct(fraction: float) -> str:
    return f"{100 * fraction:+.1f} %"


def _scaled(count: int, scale: float) -> int:
    return max(40, int(count * scale))


def _line(cells: Sequence[object]) -> str:
    return "| " + " | ".join(str(cell) for cell in cells) + " |"


def _table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    return "\n".join([_line(header), "|" + "---|" * len(header), *map(_line, rows)])


def _over_floor(operations: Dict[str, int], floor: int) -> str:
    return _pct(min(operations.values()) / floor - 1) if floor else "—"


# -- Table 1 -------------------------------------------------------------------

def table1_line(row: exp.Table1Row) -> str:
    """One dataset's row of the reproduced Table 1."""
    cells = []
    for name in ALL_HEURISTICS:
        ops = row.operations[name]
        paper = (row.paper_operations or {}).get(name)
        cells.append(_n(ops) if paper is None
                     else f"{_n(ops)} ({_n(paper)}, {_pct(ops / paper - 1)})")
    return _line((row.display_name, _n(row.num_nodes), _n(row.num_edges), *cells,
                  _n(row.floor), _over_floor(row.operations, row.floor)))


def section_table1(rows: Sequence[exp.Table1Row]) -> str:
    header = ("dataset", "nodes", "edges", *ALL_HEURISTICS, "floor", "best over floor")
    return "\n\n".join([
        "## Table 1: partition load/unload operations of the traversal heuristics",
        "Two cache slots, the final unloads counted.  Each dataset is a synthetic "
        "stand-in with the published node and edge counts (`repro.graph.datasets`), "
        "used directly as the PI graph, as the paper does.  A paper heuristic's "
        "cell reads *reproduced (paper, deviation)*.  The floor is "
        "`load_unload_floor`: no two-slot traversal makes fewer operations.  The "
        "last column is the best heuristic's excess over it.",
        "\n".join([_table(header, []), *(table1_line(row) for row in rows)]),
    ])


def section_savings(rows: Sequence[exp.Table1Row]) -> str:
    degree = PAPER_HEURISTICS[1:]
    best_here, best_paper, lines = [], [], []
    for row in rows:
        saving = [row.improvement_over_sequential(name) for name in degree]
        paper = [1 - row.paper_operations[name] / row.paper_operations["sequential"]
                 for name in degree]
        best_here.append(max(saving))
        best_paper.append(max(paper))
        lines.append((row.display_name, *(f"{100 * s:.1f} %" for s in saving),
                      f"{100 * max(paper):.1f} %"))
    return "\n\n".join([
        "## Degree heuristics' saving over `sequential`",
        _table(("dataset", *degree, "paper, better of the two"), lines),
        f"Here the better degree heuristic saves {100 * min(best_here):.1f}–"
        f"{100 * max(best_here):.1f} % of `sequential`'s operations; the paper "
        f"reports {100 * min(best_paper):.1f}–{100 * max(best_paper):.1f} %.",
    ])


def section_engine_pi(scale: float = 1.0) -> str:
    rows = []
    for shape, users, partitions in ENGINE_SHAPES:
        users = _scaled(users, scale)
        for partitioner in ENGINE_PARTITIONERS:
            for it in exp.run_engine_pi_graphs(users, partitions, partitioner):
                ops = it["operations"]
                rows.append((shape, _n(users), partitions, partitioner, it["iteration"],
                             _n(it["pi_edges"]), *(_n(ops[name]) for name in ALL_HEURISTICS),
                             _n(it["floor"]), _over_floor(ops, it["floor"]),
                             _n(it["executed"])))
    return "\n\n".join([
        "## The heuristics on the engine's own PI graphs",
        "Dense profiles (16 dimensions, 8 communities, seed 7), k = 10, cosine, at "
        "the user and partition counts of two `benchmarks/e2e` workloads.  Row *t* "
        "is the PI graph phase 3 builds from G(t), weighted by tuple counts.  The "
        "engine runs `degree-low-high`; *executed* is what phase 4 performed of "
        "that plan after dirty scheduling and the residual gather.",
        _table(("shape", "users", "partitions", "partitioner", "iteration", "PI edges",
                *ALL_HEURISTICS, "floor", "best over floor", "executed"), rows),
    ])


# -- Figure 1 and the extensions -----------------------------------------------------

def section_figure1(scale: float = 1.0) -> str:
    users = _scaled(1500, scale)
    summary = exp.run_pipeline_phase_breakdown(num_users=users)
    seconds = summary["phase_seconds"]
    total = sum(seconds.values())
    return "\n\n".join([
        "## Figure 1: the five phases",
        f"{_n(users)} dense users (seed 11), k = 10, 6 partitions, `degree-low-high`, 2 "
        "iterations.  Seconds are wall-clock time on the machine named above.",
        _table(("phase", "seconds", "share"),
               [(name, f"{seconds[name]:.3f}", f"{100 * seconds[name] / total:.0f} %")
                for name in PHASE_NAMES]),
        f"Candidate tuples scored or reused: {_n(summary['total_similarity_evaluations'])}; "
        f"load/unload operations: {_n(summary['total_load_unload_operations'])}.",
    ])


def section_memory(scale: float = 1.0) -> str:
    users = _scaled(1500, scale)
    rows = exp.run_memory_budget_sweep(num_users=users, partition_counts=(2, 4, 8, 16, 32),
                                       seed=23)
    return "\n\n".join([
        "## Memory: more partitions, more load/unload operations",
        f"One iteration over {_n(users)} dense users (seed 23), k = 8, "
        "`degree-low-high`, two slots: the smaller each partition (the less memory), the more operations, "
        "for the same candidate tuples.",
        _table(("partitions", "load/unload ops", "bytes read", "simulated I/O s (SSD)",
                "candidate tuples"),
               [(r["num_partitions"], _n(r["load_unload_operations"]), _n(r["bytes_read"]),
                 f"{r['simulated_io_seconds']:.4f}", _n(r["candidate_tuples"]))
                for r in rows]),
    ])


def section_disks(scale: float = 1.0) -> str:
    users = _scaled(1500, scale)
    rows = [(partitions, r["disk_model"], f"{r['simulated_io_seconds']:.4f}",
             _n(r["bytes_read"]), _n(r["load_unload_operations"]))
            for partitions in (4, 8, 16)
            for r in exp.run_disk_model_comparison(num_users=users,
                                                   num_partitions=partitions, seed=29)]
    return "\n\n".join([
        "## Disk model: HDD against SSD",
        f"One iteration over {_n(users)} dense users (seed 29), k = 8; both device models "
        "charge the same operations and bytes, only the simulated time differs.",
        _table(("partitions", "device", "simulated I/O s", "bytes read",
                "load/unload ops"), rows),
    ])


def section_graph_size(scale: float = 1.0) -> str:
    rows = exp.run_graph_size_sweep([_scaled(n, scale) for n in (500, 1000, 2000, 4000)])
    return "\n\n".join([
        "## Work against graph size",
        "One iteration of dense users (seed 19), k = 10, 8 partitions, `degree-low-high`.  "
        "Seconds are wall-clock time.",
        _table(("users", "candidate tuples", "similarity evaluations", "bytes read",
                "seconds"),
               [(_n(r["num_users"]), _n(r["candidate_tuples"]),
                 _n(r["similarity_evaluations"]), _n(r["bytes_read"]), f"{r['seconds']:.3f}")
                for r in rows]),
    ])


def section_partitioners(scale: float = 1.0) -> str:
    vertices, edges = _scaled(2000, scale), _scaled(12000, scale)
    rows = exp.run_partitioner_ablation(vertices, edges)
    return "\n\n".join([
        "## Phase-1 partitioners",
        f"A {_n(vertices)}-vertex, {_n(edges)}-edge power-law graph (seed 71) in 8 "
        "partitions.  Locality cost is the paper's objective Σ (N_in + N_out); the "
        "KNN graph is the same under every partitioner.",
        _table(("partitioner", "locality cost", "edge cut"),
               [(r["partitioner"], _n(r["locality_cost"]), _n(r["edge_cut"]))
                for r in rows]),
    ])


def section_quality(scale: float = 1.0) -> str:
    users = _scaled(600, scale)
    q = exp.run_quality_comparison(num_users=users)
    churn = exp.run_churn_convergence(num_users=users)
    pairs = q["brute_force_evaluations"]

    def recalls(values: List[float]) -> str:
        return ", ".join(f"{r:.3f}" for r in values)

    return "\n\n".join([
        "## Quality: the engine against NN-Descent and brute force",
        f"{_n(users)} users, k = 10: dense profiles (seed 3) and, for the churn run, "
        "sparse ones (2,000 items, 25 a user, seed 41), whose profiles change by 2 % "
        f"every iteration ({_n(churn['profile_updates_applied'])} updates applied).  "
        "Recall is against the brute-force graph; evaluations count every "
        "candidate pair, as NN-Descent does.",
        _table(("run", "recall by iteration", "similarity evaluations", "scan rate"), [
            ("engine, dense cosine, 4 partitions", recalls(q["engine_recalls"]),
             _n(q["engine_similarity_evaluations"]), f"{q['engine_scan_rate']:.3f}"),
            (f"NN-Descent, {q['nn_descent_iterations']} iterations",
             recalls([q["nn_descent_recall"]]), _n(q["nn_descent_similarity_evaluations"]),
             f"{q['nn_descent_similarity_evaluations'] / pairs:.3f}"),
            ("brute force", "1.000", _n(pairs), "1.000"),
            ("engine under churn, sparse Jaccard, 5 partitions", recalls(churn["recalls"]),
             _n(churn["similarity_evaluations"]),
             f"{churn['similarity_evaluations'] / pairs:.3f}"),
        ]),
    ])


# -- the record ---------------------------------------------------------------------

def _commit() -> str:
    """The checkout's commit, and whether the package differs from it."""
    package = Path(__file__).resolve().parents[1]
    try:
        sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=package,
                             capture_output=True, text=True, check=True).stdout.strip()
        changed = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "."],
                                 cwd=package, capture_output=True).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return f"`{sha}`" + (", with uncommitted changes to `src/repro`" if changed else "")


def build_report(scale: float = 1.0) -> str:
    """The whole record as Markdown."""
    start = time.perf_counter()
    table1 = exp.run_table1(ALL_HEURISTICS)
    sections = [section_table1(table1), section_savings(table1),
                *(section(scale) for section in (
                    section_engine_pi, section_figure1, section_memory, section_disks,
                    section_graph_size, section_partitioners, section_quality))]
    header = "\n".join([
        "# Experiments",
        "",
        "Written by `python -m repro report`; do not edit by hand.  Every count "
        "below is deterministic; seconds are wall-clock time on this machine.",
        "",
        f"- commit: {_commit()}",
        f"- cores: {os.cpu_count()}",
        f"- Python {platform.python_version()}, NumPy {np.__version__}",
        f"- the report took {time.perf_counter() - start:.0f} s",
    ])
    return "\n\n".join([header, *sections]) + "\n"


def write_report(path: Union[str, Path], scale: float = 1.0) -> Path:
    """Run every experiment and write the record to ``path``."""
    path = Path(path)
    path.write_text(build_report(scale), encoding="utf-8")
    return path
