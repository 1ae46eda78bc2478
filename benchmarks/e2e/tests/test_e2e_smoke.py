"""``run.py --smoke``: all four workloads, both trace modes, at 1/20 scale —
every metric named in ``BENCHMARK.json`` printed exactly once with a finite
value — plus the contract's own limits on that file."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import layers

HARNESS = Path(__file__).resolve().parent.parent
ROOT = HARNESS.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_within_the_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = ([w["name"] for w in CONTRACT["workloads"]]
             + [m["name"] for m in CONTRACT["end_to_end"]]
             + [m["name"] for m in CONTRACT["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in CONTRACT["end_to_end"])}]
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * 37 <= 3420          # the per-run budget README.md sizes against


def test_the_ledger_and_the_contract_name_the_same_layers():
    assert [m["name"] for m in CONTRACT["per_layer"]] == layers.per_layer_names()
    from workloads import WORKLOADS
    assert ([(w["name"], w["why"]) for w in CONTRACT["workloads"]]
            == [(spec.name, spec.why) for spec in WORKLOADS.values()])


def test_smoke_run_prints_every_metric_once_with_a_finite_value():
    done = subprocess.run(
        [sys.executable, str(HARNESS / "run.py"), "--smoke", "--seed", "5"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    sections = re.split(r"^# (\w+) seed=5 .*?(untraced|traced)\)$", done.stdout,
                        flags=re.MULTILINE)[1:]
    seen = {}
    for workload, mode, body in zip(sections[0::3], sections[1::3], sections[2::3]):
        values = {}
        for line in body.splitlines():
            if line.startswith(("#", "INCORRECT")) or not line.strip():
                continue
            name, value, _unit = line.split()
            assert name not in values, f"{name} printed twice for {workload}"
            values[name] = float(value)
        seen[(workload, mode)] = values
    assert "INCORRECT" not in done.stdout
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        for mode, metrics in (("untraced", CONTRACT["end_to_end"]),
                              ("traced", CONTRACT["per_layer"])):
            values = seen[(workload, mode)]
            expected = [m["name"] for m in metrics] + ["attempted_ops", "failed_ops"]
            assert sorted(values) == sorted(expected), (workload, mode)
            assert all(math.isfinite(value) for value in values.values())
            assert values["attempted_ops"] >= 1 and values["failed_ops"] == 0
        assert all(seen[(workload, "untraced")][m["name"]] > 0
                   for m in CONTRACT["end_to_end"]), workload
