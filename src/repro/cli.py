"""Command-line interface for the reproduction experiments.

Run as ``python -m repro <command>``.  Each command wraps one of the
experiment runners in :mod:`repro.bench.experiments` (the same code paths the
benchmark suite uses) and prints a human-readable table, so the paper's
results can be regenerated without going through pytest.

Commands
--------
``datasets``    list the six synthetic dataset stand-ins
``table1``      reproduce Table 1 (PI traversal heuristics)
``pipeline``    run the five-phase engine and print the per-phase breakdown
``heuristics``  compare all traversal heuristics (incl. extensions) on a dataset
``memory``      sweep the number of partitions (memory pressure)
``disks``       compare the HDD and SSD device models
``quality``     engine vs NN-Descent vs brute force recall
``serve``       run the always-on serving runtime under simulated load
``migrate``     rewrite a legacy (version 1 / 2) profile store in place
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench import experiments as exp
from repro.graph.datasets import TABLE1_ORDER, dataset_summary
from repro.utils.logging import enable_console_logging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scaling KNN Computation over Large Graphs on a PC' "
                    "(Middleware 2014).",
    )
    parser.add_argument("--verbose", action="store_true", help="enable console logging")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the synthetic dataset stand-ins")

    table1 = sub.add_parser("table1", help="reproduce Table 1")
    table1.add_argument("--datasets", nargs="*", default=None, choices=TABLE1_ORDER,
                        help="subset of datasets (default: all six)")
    table1.add_argument("--seed", type=int, default=None,
                        help="override the deterministic dataset seed")

    pipeline = sub.add_parser("pipeline", help="run the five-phase engine (Figure 1)")
    pipeline.add_argument("--users", type=int, default=1500)
    pipeline.add_argument("--k", type=int, default=10)
    pipeline.add_argument("--partitions", type=int, default=6)
    pipeline.add_argument("--iterations", type=int, default=2)
    pipeline.add_argument("--heuristic", default="degree-low-high")
    pipeline.add_argument("--seed", type=int, default=11)

    heuristics = sub.add_parser("heuristics", help="compare traversal heuristics")
    heuristics.add_argument("--dataset", default="gnutella", choices=TABLE1_ORDER)
    heuristics.add_argument("--seed", type=int, default=None)

    memory = sub.add_parser("memory", help="partition-count (memory pressure) sweep")
    memory.add_argument("--users", type=int, default=1200)
    memory.add_argument("--partitions", type=int, nargs="*", default=[2, 4, 8, 16])
    memory.add_argument("--seed", type=int, default=5)

    disks = sub.add_parser("disks", help="HDD vs SSD simulated I/O time")
    disks.add_argument("--users", type=int, default=1200)
    disks.add_argument("--partitions", type=int, default=8)
    disks.add_argument("--seed", type=int, default=5)

    quality = sub.add_parser("quality", help="engine vs NN-Descent vs brute force")
    quality.add_argument("--users", type=int, default=600)
    quality.add_argument("--k", type=int, default=10)
    quality.add_argument("--iterations", type=int, default=4)
    quality.add_argument("--seed", type=int, default=3)

    serve = sub.add_parser(
        "serve", help="run the always-on serving runtime under simulated load "
                      "(SIGTERM/SIGINT drain gracefully)")
    serve.add_argument("--users", type=int, default=2000)
    serve.add_argument("--dim", type=int, default=16)
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--partitions", type=int, default=8)
    serve.add_argument("--duration", type=float, default=10.0,
                       help="seconds of simulated load to run")
    serve.add_argument("--clients", type=int, default=4,
                       help="concurrent reader threads")
    serve.add_argument("--update-batch", type=int, default=50,
                       help="profile changes per writer batch")
    serve.add_argument("--admission-capacity", type=int, default=4096,
                       help="max pending changes before load is shed")
    serve.add_argument("--deadline-ms", type=float, default=1000.0,
                       help="per-query deadline in milliseconds")
    serve.add_argument("--seed", type=int, default=11)
    serve.add_argument("--workdir", default=None,
                       help="durable state directory (default: a tempdir)")

    migrate = sub.add_parser(
        "migrate", help="rewrite a version 1 / 2 profile store into the "
                        "current on-disk layout, in place")
    migrate.add_argument("store_dir", help="directory holding profiles_meta.json")

    return parser


# -- command implementations ---------------------------------------------------

def _cmd_datasets(_: argparse.Namespace) -> int:
    print(dataset_summary())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = exp.run_table1(datasets=args.datasets, seed=args.seed)
    print(exp.format_table1(rows))
    print("\npaper-reported values:")
    for row in rows:
        print(f"  {row.display_name:<12} {row.paper_operations}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    summary = exp.run_pipeline_phase_breakdown(
        num_users=args.users, k=args.k, num_partitions=args.partitions,
        num_iterations=args.iterations, heuristic=args.heuristic, seed=args.seed)
    print("per-phase seconds:")
    for phase, seconds in summary["phase_seconds"].items():
        print(f"  {phase:<20} {seconds:8.3f}s")
    print(f"similarity evaluations : {summary['total_similarity_evaluations']}")
    print(f"load/unload operations : {summary['total_load_unload_operations']}")
    print(f"simulated I/O seconds  : {summary['simulated_io_seconds']:.3f}")
    return 0


def _cmd_heuristics(args: argparse.Namespace) -> int:
    results = exp.run_heuristic_sweep(args.dataset, seed=args.seed)
    print(f"{'heuristic':<18} {'load/unload ops':>16}")
    for name in sorted(results, key=lambda n: results[n].load_unload_operations):
        print(f"{name:<18} {results[name].load_unload_operations:>16}")
    return 0


def _cmd_memory(args: argparse.Namespace) -> int:
    rows = exp.run_memory_budget_sweep(num_users=args.users,
                                       partition_counts=tuple(args.partitions),
                                       seed=args.seed)
    print(f"{'partitions':>10} {'ops':>10} {'bytes read':>14} {'sim I/O s':>10}")
    for row in rows:
        print(f"{row['num_partitions']:>10} {row['load_unload_operations']:>10} "
              f"{row['bytes_read']:>14} {row['simulated_io_seconds']:>10.3f}")
    return 0


def _cmd_disks(args: argparse.Namespace) -> int:
    rows = exp.run_disk_model_comparison(num_users=args.users,
                                         num_partitions=args.partitions, seed=args.seed)
    print(f"{'device':>8} {'sim I/O s':>12} {'bytes read':>14} {'ops':>8}")
    for row in rows:
        print(f"{row['disk_model']:>8} {row['simulated_io_seconds']:>12.3f} "
              f"{row['bytes_read']:>14} {row['load_unload_operations']:>8}")
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    summary = exp.run_quality_comparison(num_users=args.users, k=args.k,
                                         num_iterations=args.iterations, seed=args.seed)
    recalls = ", ".join(f"{r:.3f}" for r in summary["engine_recalls"])
    print(f"engine recall per iteration : {recalls}")
    print(f"NN-Descent recall           : {summary['nn_descent_recall']:.3f}")
    print(f"engine similarity evals     : {summary['engine_similarity_evaluations']}")
    print(f"NN-Descent similarity evals : {summary['nn_descent_similarity_evaluations']}")
    print(f"brute-force evals           : {summary['brute_force_evaluations']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    from random import Random

    from repro.core.config import EngineConfig
    from repro.service import LoadGenerator, ServingRuntime, dense_set_batch
    from repro.similarity.workloads import generate_dense_profiles

    profiles = generate_dense_profiles(args.users, dim=args.dim,
                                       num_communities=8, seed=args.seed)
    config = EngineConfig(k=args.k, num_partitions=args.partitions,
                          durable=True, seed=args.seed)
    service = ServingRuntime(profiles, config, workdir=args.workdir,
                             admission_capacity=args.admission_capacity,
                             default_deadline_seconds=args.deadline_ms / 1000.0)
    interrupted = {"flag": False}

    def _drain_handler(signum, _frame):
        print(f"\nsignal {signum}: draining gracefully "
              "(admission closed, flushing WAL, sealing final epoch)")
        interrupted["flag"] = True

    previous = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        previous[sig] = signal.signal(sig, _drain_handler)
    try:
        service.start()
        print(f"serving {args.users} users (k={args.k}) from epoch "
              f"{service.current_epoch}; load: {args.clients} clients for "
              f"{args.duration:.0f}s (ctrl-c drains gracefully)")
        rng = Random(args.seed)
        generator = LoadGenerator(service, num_users=args.users,
                                  num_readers=args.clients,
                                  deadline_seconds=args.deadline_ms / 1000.0,
                                  seed=args.seed)

        def writer():
            if not interrupted["flag"]:
                service.submit_updates(dense_set_batch(
                    args.users, args.dim, args.update_batch, rng))

        remaining = args.duration
        slice_seconds = min(1.0, args.duration)
        while remaining > 0 and not interrupted["flag"]:
            report = generator.run_phase("serve", min(slice_seconds, remaining),
                                         writer=writer)
            remaining -= slice_seconds
            health = service.health()
            print(f"  epoch {health.serving_epoch:>3}  "
                  f"qps {report.queries / max(report.duration_seconds, 1e-9):>8.0f}  "
                  f"p99 {report.p99_query_seconds * 1000:>7.2f}ms  "
                  f"failures {report.query_failures:>3}  "
                  f"shed {report.shed_changes:>5}  "
                  f"pending {health.pending_updates:>5}  "
                  f"state {health.refresh_state}")
        service.stop(drain=True)
        stats = service.stats()
        print("drained: final epoch "
              f"{service.engine.latest_sealed_epoch()[0]}, "
              f"{stats['queries_served']} queries served, "
              f"{stats['query_failures']} failed, "
              f"{stats['accepted_changes']} changes applied, "
              f"{stats['shed_changes']} shed, "
              f"{stats['restarts']} refresh restarts")
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        service.close()
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.storage.migrate import migrate_store
    from repro.storage.profile_store import StoreFormatError

    try:
        migrated = migrate_store(args.store_dir)
    except (FileNotFoundError, StoreFormatError) as error:
        print(f"migrate: {error}", file=sys.stderr)
        return 1
    print(f"{args.store_dir}: rewritten in the current layout" if migrated
          else f"{args.store_dir}: already in the current layout, nothing to do")
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "table1": _cmd_table1,
    "pipeline": _cmd_pipeline,
    "heuristics": _cmd_heuristics,
    "memory": _cmd_memory,
    "disks": _cmd_disks,
    "quality": _cmd_quality,
    "serve": _cmd_serve,
    "migrate": _cmd_migrate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        enable_console_logging()
    return _COMMANDS[args.command](args)


if __name__ == "__main__":       # pragma: no cover - exercised via __main__.py
    sys.exit(main())
