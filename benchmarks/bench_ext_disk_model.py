"""Ext-C (future work) — HDD vs SSD.

The paper's future work plans to measure "execution times as well as
throughput from the disk IO operations" on HDD and SSD.  Physical devices
are replaced by the deterministic disk model (``repro.storage.disk_model``);
the benchmark verifies the expected qualitative ordering: the same iteration
charges far more simulated I/O time on the HDD model than on the SSD model,
and the gap grows with the number of partitions (more, smaller transfers).

Run with:  pytest benchmarks/bench_ext_disk_model.py --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import run_disk_model_comparison
from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.similarity.workloads import generate_dense_profiles


def test_hdd_vs_ssd_simulated_io(benchmark, pedantic_kwargs):
    rows = benchmark.pedantic(
        run_disk_model_comparison,
        kwargs=dict(num_users=1500, k=8, num_partitions=8, seed=29),
        **pedantic_kwargs,
    )
    by_model = {row["disk_model"]: row for row in rows}
    benchmark.extra_info["simulated_io_seconds"] = {
        model: round(row["simulated_io_seconds"], 4) for model, row in by_model.items()}
    assert by_model["hdd"]["simulated_io_seconds"] > by_model["ssd"]["simulated_io_seconds"]
    # identical logical work on both devices
    assert (by_model["hdd"]["load_unload_operations"]
            == by_model["ssd"]["load_unload_operations"])
    assert by_model["hdd"]["bytes_read"] == by_model["ssd"]["bytes_read"]


@pytest.mark.parametrize("num_partitions", (4, 16))
def test_partitioning_amplifies_device_gap(benchmark, pedantic_kwargs, num_partitions):
    profiles = generate_dense_profiles(1200, dim=16, seed=29)

    def run(model):
        config = EngineConfig(k=8, num_partitions=num_partitions, disk_model=model, seed=29)
        with KNNEngine(profiles, config) as engine:
            return engine.run_iteration().io_stats.simulated_io_seconds

    def run_both():
        return {"hdd": run("hdd"), "ssd": run("ssd")}

    times = benchmark.pedantic(run_both, **pedantic_kwargs)
    benchmark.extra_info["num_partitions"] = num_partitions
    benchmark.extra_info["simulated_io_seconds"] = {k: round(v, 4) for k, v in times.items()}
    assert times["hdd"] > times["ssd"]
