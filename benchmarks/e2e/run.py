#!/usr/bin/env python3
"""End-to-end benchmark of the out-of-core KNN engine and its serving runtime.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --spread RUNS.jsonl
    python3 benchmarks/e2e/run.py --compare PARENT.jsonl CHANGE.jsonl

One run is one workload, one seed, one trace mode.  ``--trace 0`` measures
the end-to-end metrics with no timing wrapper installed; ``--trace 1``
installs the wrappers of ``layers.py``, derives the per-layer metrics from
the spans, and checks against a short untraced pass of the same seed that
tracing changed nothing but the clock.  Every metric is printed by name
with its unit; the last line of standard output is the result as one JSON
object.  ``--out PATH`` also appends that object to ``PATH``.  Without
``--workload`` every workload is run in both modes.

The parent process only prepares the machine: it pre-faults memory, then
starts the measurement in a fresh child with the allocator pinned (see
``environment.py``).  See ``README.md`` for everything else.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import environment  # noqa: E402
import stats  # noqa: E402


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the measurement child ------------------------------------------------------

def measure_end_to_end(workload: str, seed: int, seconds: float, smoke: bool,
                       workdir: Path):
    """One untraced pass: ``(outcome, metrics, problems, notes)``."""
    import layers
    import tracing
    from workloads import Plan, WORKLOADS, run_workload

    counts = layers.Counts()
    # the serving run reads its iteration counts through one untimed tap:
    # run_one_refresh() discards the IterationResult
    taps = [layers.result_tap(counts)] if WORKLOADS[workload].kind == "serve" else []
    with tracing.Tracer() as tracer:
        tracer.install(taps)
        outcome = run_workload(
            workload, seed,
            Plan(seconds=seconds, smoke=smoke, setups=1 if smoke else 3),
            workdir, counts)
    values = dict(outcome.e2e, peak_rss_mb=environment.peak_rss_mb())
    metrics = {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
               for metric in load_contract()["end_to_end"]}
    return outcome, metrics, _stuck(taps), []


def measure_per_layer(workload: str, seed: int, seconds: float, smoke: bool,
                      workdir: Path):
    """A short untraced reference pass, then the traced pass."""
    import layers
    import tracing
    from workloads import Plan, WORKLOADS, run_workload

    spec = WORKLOADS[workload]
    reference_counts = layers.Counts()
    taps = [layers.result_tap(reference_counts)] if spec.kind == "serve" else []
    with tracing.Tracer() as tracer:
        tracer.install(taps)
        reference = run_workload(
            workload, seed,
            Plan(seconds=seconds, smoke=smoke, setups=1, reference=True),
            workdir, reference_counts)
    counts = layers.Counts()
    targets = layers.trace_targets(counts)
    with tracing.Tracer() as tracer:
        tracer.install(targets)
        outcome = run_workload(
            workload, seed, Plan(seconds=seconds, smoke=smoke, setups=1),
            workdir, counts)
    spans = tracer.spans()
    spans_path = OUT / f"spans-{workload}.jsonl"
    notes = [f"{tracer.dump(spans_path)} spans written to {spans_path.relative_to(ROOT)}"]
    notes.extend(f"reference pass: {note}" for note in reference.notes)
    problems = _stuck(targets + taps)
    problems.extend(f"reference pass: {problem}" for problem in reference.problems)
    if spec.kind != "serve":
        # tracing must not change behaviour: both passes do the same work up
        # to the point where ``exact`` is taken (the serving workload's
        # batching depends on thread timing and has no such point)
        problems.extend(
            f"{key} differs with tracing on: {reference.exact.get(key)!r} untraced, "
            f"{value!r} traced"
            for key, value in outcome.exact.items()
            if reference.exact.get(key) != value)

    layered = layers.per_layer(spans, counts, outcome.service)
    if spec.kind == "serve":
        start, end = outcome.window
        busy = sum(max(0.0, min(span.end, end) - max(span.start, start))
                   for span in spans if span.name == "service.refresh")
        layered["service.refresh_idle_frac"] = (
            max(0.0, 1.0 - busy / (end - start)), "ratio")
    # the wrappers' own cost, calibrated here and now; the paired difference
    # in the note below is what the guide calls the overhead, but on a shared
    # 2-core box it is machine noise around this value
    traced_seconds = tracing.root_seconds(spans)
    layered["trace_overhead_frac"] = (
        len(spans) * tracing.wrapper_cost() / traced_seconds
        if traced_seconds else 0.0, "ratio")
    if reference.main_timing:
        notes.append(
            "main timing traced vs untraced reference pass: "
            f"{outcome.main_timing:.4f} s vs {reference.main_timing:.4f} s "
            f"({outcome.main_timing / reference.main_timing - 1.0:+.1%})")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in layered.items()}
    return outcome, metrics, problems, notes


def _stuck(targets) -> List[str]:
    import tracing
    stuck = tracing.left_installed(targets)
    return [f"wrappers left installed: {stuck}"] if stuck else []


def _child(args: argparse.Namespace) -> int:
    """Run the jobs named on the command line; write their results as a list."""
    results = []
    for job in args.child:
        workload, trace = job.rsplit(":", 1)
        workdir = OUT / f"work-{os.getpid()}"
        measure = measure_per_layer if int(trace) else measure_end_to_end
        try:
            outcome, metrics, problems, notes = measure(
                workload, args.seed, args.seconds, args.smoke, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems.extend(outcome.problems)
        notes.extend(outcome.notes)
        notes.append(
            "timings are in yardstick seconds (see yardstick.py): over the run, "
            f"measured seconds x {outcome.yardstick.factor():.4f} "
            f"({len(outcome.yardstick.samples)} samples; each timing uses the "
            "samples taken around it)")
        problems.extend(f"metric {name} is not finite: {entry['value']!r}"
                        for name, entry in metrics.items()
                        if not stats.finite(entry["value"]))
        results.append({
            "correct": not problems, "attempted": max(1, outcome.attempted),
            "failed": outcome.failed, "metrics": metrics,
            "workload": workload, "seed": args.seed, "trace": int(trace),
            "seconds": args.seconds,
            "yardstick_factor": outcome.yardstick.factor(),
            "problems": problems, "notes": notes})
    Path(args.result).write_text(json.dumps(results))
    return 0


# -- the parent ------------------------------------------------------------------

def _print_result(result: dict) -> None:
    mode = "per-layer (traced)" if result["trace"] else "end-to-end (untraced)"
    print(f"# {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} {mode}")
    for note in result["notes"]:
        print(f"# {note}")
    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:>16.6f} {entry['unit']}")
    print(f"{'attempted_ops':36s} {result['attempted']:>16d} count")
    print(f"{'failed_ops':36s} {result['failed']:>16d} count")
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")


def run_jobs(jobs: Sequence[Tuple[str, int]], seed: int, seconds: float,
             smoke: bool = False, out: Optional[Path] = None) -> List[dict]:
    """Prepare the machine, run the jobs in one fresh child, return its results."""
    from workloads import WORKLOADS
    OUT.mkdir(parents=True, exist_ok=True)
    prefault_mb = environment.PREFAULT_FACTOR * max(
        WORKLOADS[workload].expected_rss_mb for workload, _ in jobs)
    if smoke:
        prefault_mb /= 4
    prefault_seconds = environment.prefault(int(prefault_mb * 2 ** 20))
    result_path = OUT / f"result-{os.getpid()}.json"
    command = [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
               "--seconds", repr(float(seconds)), "--result", str(result_path),
               "--child", *(f"{workload}:{trace}" for workload, trace in jobs)]
    if smoke:
        command.append("--smoke")
    try:
        subprocess.run(command, env=environment.child_environment(OUT),
                       check=True, timeout=170)
        results = json.loads(result_path.read_text())
    finally:
        result_path.unlink(missing_ok=True)
    for result in results:
        result["notes"].insert(
            0, f"pre-faulted {prefault_mb:.0f} MB in {prefault_seconds:.3f} s "
               "before the child")
        if out is not None:
            with open(out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(result) + "\n")
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spread", type=Path, metavar="RUNS")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--child", nargs="+", metavar="WORKLOAD:TRACE",
                        help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 1.5 if args.smoke else float(contract["run_seconds"])

    if args.child:
        return _child(args)
    if args.spread is not None:
        import compare
        return compare.print_spread(contract, compare.load(args.spread))
    if args.compare is not None:
        import compare
        return compare.print_comparison(
            contract, compare.load(args.compare[0]), compare.load(args.compare[1]))

    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    workloads = [args.workload] if args.workload else names
    traces = [args.trace] if args.trace is not None else [0, 1]
    jobs = [(workload, trace) for workload in workloads for trace in traces]
    # a fresh child per run — except at 1/20 scale, where the interpreter
    # start-up would otherwise be most of the run
    batches = [jobs] if args.smoke else [[job] for job in jobs]
    results = []
    for batch in batches:
        for result in run_jobs(batch, args.seed, args.seconds, smoke=args.smoke,
                               out=args.out):
            _print_result(result)
            results.append(result)
    if len(results) == 1:
        print(json.dumps({key: results[0][key]
                          for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
