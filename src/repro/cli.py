"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``report``      run every reproduced experiment (Table 1 beside the paper's
                values and the two-slot floor, Figure 1's phases, the
                extension tables) and write the record, ``EXPERIMENTS.md``
``serve``       run the always-on serving runtime under simulated load
``migrate``     rewrite a legacy profile store, checkpoint or engine workdir
                in place
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.utils.logging import enable_console_logging


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scaling KNN Computation over Large Graphs on a PC' "
                    "(Middleware 2014).",
    )
    parser.add_argument("--verbose", action="store_true", help="enable console logging")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run every reproduced experiment and "
                                           "write the record (a minute or two)")
    report.add_argument("--out", default="EXPERIMENTS.md",
                        help="where to write the record (default: %(default)s)")

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
        "migrate", help="rewrite a version 1 / 2 profile store, or the "
                        "older-layout graph file and profiles of a "
                        "checkpoint, a sealed epoch or every epoch of an "
                        "engine workdir, into the current layout, in place")
    migrate.add_argument("store_dir", help="directory holding checkpoint.json "
                                           "or commits/ or profiles_meta.json")

    return parser


# -- command implementations ---------------------------------------------------

def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import write_report

    print(f"wrote {write_report(args.out)}")
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
    from repro.storage.migrate import migrate
    from repro.storage.profile_store import StoreFormatError

    try:
        migrated = migrate(args.store_dir)
    except (FileNotFoundError, StoreFormatError, ValueError) as error:
        print(f"migrate: {error}", file=sys.stderr)
        return 1
    print(f"{args.store_dir}: rewritten in the current layout" if migrated
          else f"{args.store_dir}: already in the current layout, nothing to do")
    return 0


_COMMANDS = {
    "report": _cmd_report,
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
