"""The experiment runners (repro.bench.experiments) at small sizes, the
paper's claims on them, and the record they write (repro.bench.report).

Every claim the retired ``benchmarks/bench_*.py`` scripts asserted is one of
the tests below; the report tests write a whole record on tiny stand-ins and
compare the deterministic tables of the committed ``EXPERIMENTS.md`` with a
regeneration.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.bench import report
from repro.bench.experiments import (
    PAPER_TABLE1,
    Table1Row,
    run_churn_convergence,
    run_disk_model_comparison,
    run_engine_pi_graphs,
    run_graph_size_sweep,
    run_memory_budget_sweep,
    run_partitioner_ablation,
    run_pipeline_phase_breakdown,
    run_quality_comparison,
    run_table1_row,
)
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.core.iteration import PHASE_NAMES
from repro.graph.datasets import DATASETS, TABLE1_ORDER, DatasetSpec
from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.scheduler import compare_heuristics
from repro.partition.partitioners import available_partitioners
from repro.pigraph.traversal import HEURISTICS, PAPER_HEURISTICS
from repro.similarity.workloads import generate_dense_profiles

RECORD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def tiny_spec():
    """A scaled-down dataset spec so harness tests stay fast."""
    return DatasetSpec(
        name="tiny", display_name="Tiny", num_vertices=400, num_edges=2400,
        family="test", exponent=2.2, description="test-only dataset",
    )


class TestTable1Harness:
    def test_row_contains_all_heuristics(self, tiny_spec):
        row = run_table1_row(tiny_spec, seed=1)
        assert set(row.operations) == {"sequential", "degree-high-low", "degree-low-high"}
        assert row.num_nodes == 400
        assert row.num_edges == 2400

    def test_every_heuristic_schedules_every_tuple(self, tiny_spec):
        pi_graph = PIGraph.from_digraph(tiny_spec.generate(1))
        for result in compare_heuristics(pi_graph, list(HEURISTICS)).values():
            assert result.tuples_scheduled == pi_graph.total_weight
            assert result.load_unload_operations > 0

    def test_row_shape_matches_paper_claim(self, tiny_spec):
        row = run_table1_row(tiny_spec, seed=1)
        assert row.improvement_over_sequential("degree-high-low") > 0
        assert row.improvement_over_sequential("degree-low-high") > 0
        assert max(row.improvement_over_sequential(name)
                   for name in PAPER_HEURISTICS[1:]) < 0.5

    @pytest.mark.parametrize("family, exponent", [("collaboration", 2.6), ("p2p", 3.0)])
    def test_greedy_resident_matches_the_best_paper_heuristic(self, family, exponent):
        # the exponents of the Gen. Rel. and Gnutella stand-ins
        spec = DatasetSpec(name=family, display_name=family, num_vertices=500,
                           num_edges=1400, family=family, exponent=exponent,
                           description="test-only dataset")
        ops = run_table1_row(spec, tuple(HEURISTICS), seed=5).operations
        best_paper = min(ops["degree-high-low"], ops["degree-low-high"])
        assert ops["greedy-resident"] <= best_paper
        assert ops["sequential"] >= best_paper

    def test_no_heuristic_beats_the_floor(self, tiny_spec):
        row = run_table1_row(tiny_spec, tuple(HEURISTICS), seed=1)
        assert 0 < row.floor <= min(row.operations.values())

    def test_paper_reference_values_attached_for_real_datasets(self):
        assert set(PAPER_TABLE1) == set(DATASETS)
        row = Table1Row(dataset="wiki-vote", display_name="Wiki-Vote", num_nodes=1,
                        num_edges=1, operations={"sequential": 10},
                        paper_operations={"sequential": 211856})
        assert row.paper_operations["sequential"] == 211856


@pytest.fixture(scope="module", params=TABLE1_ORDER)
def stand_in_row(request):
    """Table 1's row for each stand-in at a twentieth of its published size."""
    spec = DATASETS[request.param]
    small = dataclasses.replace(spec, num_vertices=spec.num_vertices // 20,
                                num_edges=spec.num_edges // 20)
    return run_table1_row(small, tuple(HEURISTICS), seed=1)


class TestTable1OnEveryStandIn:
    def test_degree_heuristics_beat_sequential(self, stand_in_row):
        assert stand_in_row.improvement_over_sequential("degree-high-low") > 0
        assert stand_in_row.improvement_over_sequential("degree-low-high") > 0

    def test_greedy_resident_is_no_worse_than_either_degree_heuristic(self, stand_in_row):
        ops = stand_in_row.operations
        assert ops["greedy-resident"] <= min(ops["degree-high-low"], ops["degree-low-high"])

    def test_no_heuristic_beats_the_floor(self, stand_in_row):
        assert 0 < stand_in_row.floor <= min(stand_in_row.operations.values())


@pytest.fixture(scope="module", params=available_partitioners())
def engine_pi_rows(request):
    """The heuristics on the PI graphs of four engine iterations, per partitioner."""
    return run_engine_pi_graphs(400, 8, partitioner=request.param, num_iterations=4)


class TestEnginePIGraphs:
    def test_no_heuristic_beats_the_floor(self, engine_pi_rows):
        assert [row["iteration"] for row in engine_pi_rows] == [0, 1, 2, 3]
        for row in engine_pi_rows:
            assert 0 < row["floor"] <= min(row["operations"].values())

    def test_greedy_resident_is_no_worse_than_sequential(self, engine_pi_rows):
        for row in engine_pi_rows:
            assert row["operations"]["greedy-resident"] <= row["operations"]["sequential"]

    def test_the_first_iteration_executes_the_whole_plan(self, engine_pi_rows):
        # G(0) is random: every partition is dirty, so nothing is skipped
        first = engine_pi_rows[0]
        assert first["executed"] == first["operations"]["degree-low-high"]

    def test_phase_4_executes_no_more_than_the_plan(self, engine_pi_rows):
        for row in engine_pi_rows:
            assert 0 < row["executed"] <= row["operations"]["degree-low-high"]


@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
def test_engine_executes_the_plan_of_every_heuristic(heuristic):
    profiles = generate_dense_profiles(240, dim=16, num_communities=8, seed=43)
    config = EngineConfig(k=8, num_partitions=6, heuristic=heuristic, seed=43)
    with KNNEngine(profiles, config) as engine:
        result = engine.run_iteration()
    assert result.load_unload_operations == result.schedule.load_unload_operations


class TestOtherHarnesses:
    def test_pipeline_phase_breakdown(self):
        summary = run_pipeline_phase_breakdown(num_users=200, k=5, num_partitions=4,
                                               num_iterations=1, seed=2)
        assert set(summary["phase_seconds"]) == set(PHASE_NAMES)
        assert all(seconds >= 0.0 for seconds in summary["phase_seconds"].values())
        assert summary["total_similarity_evaluations"] > 0
        assert summary["num_iterations"] == 1
        assert len(summary["per_iteration"]) == 1

    def test_phase_4_is_the_largest_phase(self):
        # the least of three runs per phase, so a busy machine cannot reorder them
        runs = [run_pipeline_phase_breakdown(num_users=400, k=8, num_partitions=4,
                                             seed=11)["phase_seconds"] for _ in range(3)]
        least = {name: min(run[name] for run in runs) for name in PHASE_NAMES}
        assert least["4-knn-computation"] == max(least.values())

    def test_per_iteration_accounting(self):
        iterations = run_pipeline_phase_breakdown(
            num_users=240, k=8, num_partitions=5, num_iterations=3, seed=13)["per_iteration"]
        assert len(iterations) == 3
        # the KNN graph stabilises: no iteration generates more than a small
        # multiple of the first iteration's candidate tuples
        first = iterations[0]["num_candidate_tuples"]
        assert all(it["num_candidate_tuples"] <= 4 * first for it in iterations)
        assert all(it["load_unload_operations"] > 0 for it in iterations)

    def test_memory_budget_sweep_monotone_operations(self):
        rows = run_memory_budget_sweep(num_users=240, k=5,
                                       partition_counts=(2, 4, 8, 16), seed=4)
        operations = [row["load_unload_operations"] for row in rows]
        assert operations == sorted(operations)
        # the candidate tuples do not depend on the partitioning
        assert len({row["candidate_tuples"] for row in rows}) == 1

    def test_an_explicit_memory_budget_runs(self):
        profiles = generate_dense_profiles(200, dim=16, seed=23)
        config = EngineConfig(k=8, num_partitions=10, seed=23,
                              memory_budget_bytes=512 * 1024 * 1024)
        with KNNEngine(profiles, config) as engine:
            assert engine.run_iteration().load_unload_operations > 0

    def test_disk_model_comparison_hdd_slower(self):
        rows = run_disk_model_comparison(num_users=200, k=5, num_partitions=4, seed=5)
        hdd, ssd = ({row["disk_model"]: row for row in rows}[model] for model in ("hdd", "ssd"))
        assert hdd["simulated_io_seconds"] > ssd["simulated_io_seconds"]
        # identical logical work on both devices
        assert hdd["load_unload_operations"] == ssd["load_unload_operations"]
        assert hdd["bytes_read"] == ssd["bytes_read"]

    @pytest.mark.parametrize("num_partitions", (4, 16))
    def test_hdd_is_slower_at_every_partition_count(self, num_partitions):
        rows = run_disk_model_comparison(num_users=240, k=8,
                                         num_partitions=num_partitions, seed=29)
        by_model = {row["disk_model"]: row for row in rows}
        assert by_model["hdd"]["simulated_io_seconds"] > by_model["ssd"]["simulated_io_seconds"]

    def test_work_grows_with_graph_size(self):
        rows = run_graph_size_sweep((100, 200, 400))
        assert rows[0]["similarity_evaluations"] > 0
        for column in ("similarity_evaluations", "bytes_read"):
            values = [row[column] for row in rows]
            assert values == sorted(values)

    def test_locality_aware_partitioners_are_no_worse_than_hash(self):
        rows = {row["partitioner"]: row for row in run_partitioner_ablation(500, 3000)}
        assert all(row["locality_cost"] > 0 for row in rows.values())
        assert rows["greedy-locality"]["locality_cost"] <= rows["hash"]["locality_cost"]
        assert rows["ldg"]["edge_cut"] <= rows["hash"]["edge_cut"]

    def test_quality_comparison_shapes(self):
        summary = run_quality_comparison(num_users=300, k=8, num_iterations=4,
                                         num_partitions=4, seed=6)
        recalls = summary["engine_recalls"]
        assert recalls == sorted(recalls)
        assert recalls[-1] > 0.75
        assert abs(recalls[-1] - summary["nn_descent_recall"]) < 0.25
        assert summary["engine_similarity_evaluations"] < summary["brute_force_evaluations"]
        assert 0 < summary["engine_scan_rate"] < 1

    def test_recall_rises_under_churn(self):
        summary = run_churn_convergence(num_users=200)
        assert summary["recalls"][-1] > summary["recalls"][0]
        assert summary["profile_updates_applied"] > 0


# -- the record ----------------------------------------------------------------

SECTIONS = ("## Table 1", "## Degree heuristics' saving", "## The heuristics on the "
            "engine's own PI graphs", "## Figure 1", "## Memory", "## Disk model",
            "## Work against graph size", "## Phase-1 partitioners", "## Quality")


def test_report_writes_every_section(tmp_path, monkeypatch):
    for name in TABLE1_ORDER:
        monkeypatch.setitem(DATASETS, name, dataclasses.replace(
            DATASETS[name], num_vertices=200, num_edges=800))
    text = report.write_report(tmp_path / "EXPERIMENTS.md", scale=0.02).read_text()
    for heading in SECTIONS:
        assert f"\n{heading}" in text
    for spec in DATASETS.values():
        assert f"| {spec.display_name} |" in text
    for field in ("- commit: ", "- cores: ", "- Python ", "NumPy "):
        assert field in text


@pytest.mark.parametrize("table", ["table1-gen-rel", "memory", "disks", "partitioners",
                                   "quality"])
def test_report_record_matches_a_regeneration(table):
    """The committed record's deterministic tables are what the code makes
    now: a change that moves one regenerates it (``python -m repro report``)."""
    regenerated = {
        "table1-gen-rel": lambda: report.table1_line(
            run_table1_row(DATASETS["gen-rel"], report.ALL_HEURISTICS)),
        "memory": report.section_memory,
        "disks": report.section_disks,
        "partitioners": report.section_partitioners,
        "quality": report.section_quality,
    }[table]()
    assert regenerated in RECORD.read_text(encoding="utf-8")
