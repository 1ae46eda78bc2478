"""The four workloads and how each answers the twelve end-to-end questions.

Every workload runs the **default** ``EngineConfig`` plus the overrides in
its :class:`Spec` and nothing else.  The three batch workloads drive a
``KNNEngine`` from one thread; ``serve_mixed`` drives a ``ServingRuntime``
with an open-loop reader and an open-loop writer.  Work is a function of
``--seconds`` and the seed only (repetitions, iteration counts, request
schedules), never of how fast the program ran, so counts repeat exactly.

See ``README.md`` for why each workload exists and what each metric means
on each of them.
"""

from __future__ import annotations

import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import DenseProfileStore, EngineConfig, KNNEngine, SparseProfileStore
from repro.service import ServingRuntime
from repro.similarity.workloads import ProfileChange

import inputs
import layers
from openloop import OpenLoopReport, run_open_loop
from probes import ProbeBook, pick_anchor, probe_visible, valid_read
from stats import InsufficientSamples, percentile, tail
from yardstick import Yardstick

clock = time.perf_counter

#: A read answered later than this after it was due has missed.
READ_LIMIT_S = 0.005
#: A probe not visible this long after its submit is a failed operation.
PROBE_TIMEOUT_S = 10.0
#: Iterations from G(0) that count as "the build" on every workload.
BUILD_ITERATIONS = 4
#: Users whose neighbour lists are read back for recall and read timing.
RECALL_SAMPLE = 200


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                 # "cold" | "drift" | "serve"
    why: str
    users: int
    profile: str              # "dense" | "sparse"
    config: Dict[str, object]
    recall_floor: float
    #: peak RSS the measurement process reaches, for the parent's pre-fault
    expected_rss_mb: float
    #: seconds of work one repetition (cold) or one iteration (drift) is
    #: sized for at the commit that defined the benchmark
    unit_seconds: float = 1.0
    dim: int = 16
    communities: int = 8
    items: int = 60_000
    items_per_user: int = 20
    zipf: float = 1.1
    budget_bytes_per_user: float = 0.0
    #: drift: warm-up iterations in set-up, share of users changed per iteration
    warmup: int = 6
    churn_share: float = 0.05
    churn_step: float = 0.02
    #: batch: probes submitted before each probed iteration
    probes_per_tick: int = 3
    #: cold: iterations after the last build that time update-to-visible;
    #: all but the last two are preceded by probes
    coda_iterations: int = 8
    #: batch: checkpoint resumes timed for ``recover_s``
    resumes: int = 5
    #: serve: open-loop rates
    read_rate: float = 500.0
    batch_rate: float = 10.0
    batch_changes: int = 20
    recoveries: int = 5
    probe_quiet_seconds: float = 3.0


WORKLOADS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec(name="cold_sparse", kind="cold", users=4000, profile="sparse",
         communities=16, unit_seconds=4.0, probes_per_tick=4, coda_iterations=20,
         config=dict(k=10, num_partitions=8, heuristic="degree-low-high",
                     measure="jaccard"),
         recall_floor=0.70, expected_rss_mb=180.0,
         why="item-set profiles, cold build from G(0): kernel- and "
             "tuple-generation-bound, the score cache and dirty scheduling "
             "bypassed in iteration 0"),
    Spec(name="many_parts", kind="cold", users=4000, profile="dense",
         unit_seconds=4.0, probes_per_tick=6, coda_iterations=14,
         config=dict(k=10, num_partitions=32, heuristic="degree-low-high",
                     measure="cosine"),
         budget_bytes_per_user=64.0,
         recall_floor=0.60, expected_rss_mb=160.0,
         why="same build at 32 partitions under a hard memory budget: 528 "
             "residency steps an iteration against 36, so per-step overhead "
             "dominates and the kernel is diluted"),
    Spec(name="drift_dense", kind="drift", users=5000, profile="dense",
         unit_seconds=0.4, resumes=10,
         config=dict(k=10, num_partitions=8, heuristic="degree-low-high",
                     measure="cosine"),
         recall_floor=0.65, expected_rss_mb=170.0,
         why="converged graph, churn confined to one partition: most steps "
             "served from the score cache, so cache, dirty planning and "
             "iteration glue dominate and the kernel is bypassed"),
    Spec(name="serve_mixed", kind="serve", users=5000, profile="dense",
         config=dict(k=10, num_partitions=8),
         recall_floor=0.65, expected_rss_mb=200.0,
         why="the serving runtime under open-loop reads beside uniform "
             "writes: WAL, commits, clones, swaps and the GIL shared between "
             "refresh and readers; uniform churn bypasses dirty scheduling"),
)}


@dataclass
class Outcome:
    """What one pass over a workload produced."""

    e2e: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: the workload's main timing metric, for the tracing-overhead ratio
    main_timing: float = 0.0
    #: values that must be identical with and without tracing (batch only)
    exact: Dict[str, object] = field(default_factory=dict)
    service: Dict[str, layers.Metric] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: serve: the measured window on the span clock
    window: Tuple[float, float] = (0.0, 0.0)
    #: machine speed during the run (see yardstick.py)
    yardstick: Yardstick = field(default_factory=Yardstick)


@dataclass(frozen=True)
class Plan:
    """How much of a workload one pass runs."""

    seconds: float
    smoke: bool = False
    #: set-up repetitions (the median is ``setup_s``); 1 in a traced run
    setups: int = 3
    #: the shortened, untraced pass a traced run compares itself against
    reference: bool = False

    @property
    def yardstick_samples(self) -> int:
        """Yardstick samples per tick (one is enough to smoke-test the path)."""
        return 1 if self.smoke else 3


def users_of(spec: Spec, plan: Plan) -> int:
    return max(200, spec.users // 20) if plan.smoke else spec.users


def engine_config(spec: Spec, users: int, seed: int) -> EngineConfig:
    overrides = dict(spec.config, seed=seed)
    if spec.budget_bytes_per_user:
        overrides["memory_budget_bytes"] = max(
            48_000.0, spec.budget_bytes_per_user * users)
    return EngineConfig(**overrides)


# -- the harness's copy of the profiles ---------------------------------------

class Profiles:
    """The inputs, plus the harness's own copy of what it has submitted."""

    def __init__(self, spec: Spec, users: int, seed: int):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.rng = rng
        if spec.profile == "dense":
            self.copy = inputs.dense_profiles(users, spec.dim, spec.communities, rng)
        else:
            self.copy = inputs.sparse_profiles(
                users, spec.items, spec.items_per_user, spec.zipf,
                spec.communities, rng)

    def store(self):
        if self.spec.profile == "dense":
            return DenseProfileStore(self.copy)
        return SparseProfileStore(self.copy)

    def drift(self, user: int) -> List[ProfileChange]:
        """A small Gaussian step of one dense profile."""
        self.copy[user] = self.copy[user] + self.rng.normal(
            scale=self.spec.churn_step, size=self.spec.dim)
        return [ProfileChange(user, "set", vector=self.copy[user].copy())]

    def churn(self, count: int, below: int, book: ProbeBook) -> List[ProfileChange]:
        """``count`` drift steps of users drawn from ``[0, below)``, re-drawing
        any that a pending probe depends on."""
        changes: List[ProfileChange] = []
        for user in self.rng.integers(0, below, size=count):
            while book.is_anchor(int(user)):
                user = self.rng.integers(0, below)
            changes.extend(self.drift(int(user)))
        return changes

    def become(self, user: int, anchor: int) -> List[ProfileChange]:
        """The probe: make ``user``'s profile identical to ``anchor``'s."""
        if self.spec.profile == "dense":
            self.copy[user] = self.copy[anchor]
            return [ProfileChange(user, "set", vector=self.copy[user].copy())]
        old, new = self.copy[user], self.copy[anchor]
        self.copy[user] = new.copy()
        return ([ProfileChange(user, "remove", item=int(item))
                 for item in np.setdiff1d(old, new)]
                + [ProfileChange(user, "add", item=int(item))
                   for item in np.setdiff1d(new, old)])

    def recall(self, sample: Sequence[int],
               neighbours: Sequence[Sequence[int]], k: int) -> float:
        if self.spec.profile == "dense":
            return inputs.recall_dense(self.copy, sample, neighbours, k)
        return inputs.recall_sparse(self.copy, sample, neighbours, k)


def _engine_read(engine: KNNEngine, user: int) -> List[Tuple[int, float]]:
    scores = engine.graph.neighbor_scores(user)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


def _record(result) -> Dict[str, int]:
    return {"tuples": result.num_candidate_tuples,
            "evals": result.similarity_evaluations,
            "load_unload": result.load_unload_operations}


def _exact(engine: KNNEngine, records: Sequence[Dict[str, int]]) -> Dict[str, object]:
    """What must not differ between a traced and an untraced pass."""
    return {"edge_fingerprint": engine.graph.edge_fingerprint(),
            "load_unload_ops": sum(r["load_unload"] for r in records),
            "similarity.evals": sum(r["evals"] for r in records)}


def _timed_iteration(engine: KNNEngine, seconds: List[float],
                     records: List[Dict[str, int]], yardstick: Yardstick) -> float:
    """One timed ``run_iteration()``; returns the seconds the yardstick
    sample before it took, for a caller whose own clock is running."""
    ticking = yardstick.tick()
    start = clock()
    result = engine.run_iteration()
    seconds.append(clock() - start)
    records.append(_record(result))
    return ticking


def _probed_iterations(engine: KNNEngine, profiles: "Profiles", book: ProbeBook,
                       ticks: int, probes_per_tick: int, probe_ticks: int,
                       yardstick: Yardstick, churn=None, after_tick=None
                       ) -> Tuple[List[float], List[Dict[str, int]]]:
    """``ticks`` timed iterations, each preceded by ``churn()`` changes and —
    for the first ``probe_ticks`` of them — ``probes_per_tick`` probes.

    A probe is timed from its submit to the end of the iteration after
    which a read of the graph first shows it, on a clock that leaves out
    the yardstick samples taken in between.
    """
    seconds: List[float] = []
    records: List[Dict[str, int]] = []
    sampling = 0.0
    for tick in range(ticks):
        changes: List[ProfileChange] = churn() if churn is not None else []
        opened = []
        for _ in range(probes_per_tick if tick < probe_ticks else 0):
            user = book.next_user()
            anchor = None if user is None else pick_anchor(
                _engine_read(engine, user), book.probe_users)
            if anchor is not None:
                changes.extend(profiles.become(user, anchor))
                opened.append((user, anchor))
        submitted = clock() - sampling
        for user, anchor in opened:
            book.open(user, anchor, submitted, tick)
        engine.enqueue_profile_changes(changes)
        sampling += _timed_iteration(engine, seconds, records, yardstick)
        now = clock() - sampling
        for user, _anchor in book.pending():
            book.observe(user, _engine_read(engine, user), now)
        if after_tick is not None:
            after_tick(tick, records)
    return seconds, records


def _sample_users(users: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 7])
    return rng.choice(users, size=min(RECALL_SAMPLE, users), replace=False)


def _read_back(read, sample: Sequence[int], k: int, outcome: Outcome
               ) -> Tuple[List[List[int]], OpenLoopReport]:
    """Closed-loop reads of the sampled users: their neighbour ids for the
    recall oracle, and each read timed and validated."""
    report = OpenLoopReport()
    neighbours: List[List[int]] = []
    for user in sample:
        start = clock()
        report.attempted += 1
        try:
            found = read(int(user))
        except Exception as exc:  # noqa: BLE001 — a failed read is a counted outcome
            report.failed += 1
            outcome.problems.append(f"read of user {user} failed: {exc!r}")
            neighbours.append([])
            continue
        report.latencies.append(clock() - start)
        if not valid_read(found, k):
            outcome.problems.append(f"read of user {user} is unsorted or longer than k")
        neighbours.append([neighbour for neighbour, _ in found])
    return neighbours, report


def _scaled(seconds: Sequence[float], factor: float) -> List[float]:
    return [value * factor for value in seconds]


def _resume_samples(engine: KNNEngine, workdir: Path, count: int,
                    yardstick: Yardstick) -> List[float]:
    """The batch caller's recovery path: resume a saved checkpoint in a
    fresh engine, timed to the first answered read."""
    samples: List[float] = []
    mark = yardstick.mark()
    checkpoint = workdir / "checkpoint"
    shutil.rmtree(checkpoint, ignore_errors=True)
    engine.save_checkpoint(checkpoint)
    for index in range(count):
        resumed_dir = workdir / f"resumed_{index}"
        yardstick.tick()
        start = clock()
        resumed = KNNEngine.from_checkpoint(checkpoint, workdir=resumed_dir)
        _engine_read(resumed, 0)
        samples.append(clock() - start)
        resumed.close()
        shutil.rmtree(resumed_dir, ignore_errors=True)
    shutil.rmtree(checkpoint, ignore_errors=True)
    return _scaled(samples, yardstick.factor(mark))


def _visible_percentiles(latencies: Sequence[float], outcome: Outcome
                         ) -> Tuple[float, float]:
    if not latencies:
        outcome.problems.append("no probe became visible")
        return 0.0, 0.0
    p50 = percentile(latencies, 50)
    high, used = tail(latencies, 80)
    if used != 80:
        outcome.notes.append(
            f"update_visible_p80_s is p{used:g}: only {len(latencies)} probe samples")
    return p50, high


def _finish_batch(spec: Spec, outcome: Outcome, visible: Sequence[float],
                  resumed: Sequence[float]) -> None:
    """The metrics every batch workload derives the same way."""
    e2e = outcome.e2e
    p50, e2e["update_visible_p80_s"] = _visible_percentiles(visible, outcome)
    e2e["update_visible_p50_s"] = p50
    e2e["recover_s"] = statistics.median(resumed)
    outcome.service = dict(layers.SERVICE_ABSENT)
    outcome.service["service.visible_cycles"] = (p50 / e2e["refresh_cycle_s"], "ratio")
    _check_recall(spec, e2e["recall_sampled"], outcome)


def _check_recall(spec: Spec, recall: float, outcome: Outcome) -> None:
    if recall < spec.recall_floor:
        outcome.problems.append(
            f"recall_sampled {recall:.4f} is below the floor {spec.recall_floor}")


# -- cold builds: cold_sparse, many_parts --------------------------------------

def run_cold(spec: Spec, seed: int, plan: Plan, workdir: Path) -> Outcome:
    outcome = Outcome(yardstick=Yardstick(plan.yardstick_samples))
    users = users_of(spec, plan)
    config = engine_config(spec, users, seed)
    repetitions = 1 if plan.reference or plan.smoke else max(
        3, round(plan.seconds / spec.unit_seconds))
    book = ProbeBook(range(users - users // 4 if plan.smoke else users - users // 25,
                           users))
    setup_seconds: List[float] = []
    build_seconds: List[float] = []
    iteration_rates: List[float] = []
    iteration_seconds: List[float] = []
    resumed: List[float] = []

    yardstick = outcome.yardstick
    for repetition in range(repetitions):
        rep_dir = workdir / f"rep_{repetition}"
        mark = yardstick.mark()
        start = clock()
        profiles = Profiles(spec, users, seed)
        engine = KNNEngine(profiles.store(), config, workdir=rep_dir / "engine")
        setup = clock() - start
        try:
            seconds: List[float] = []
            records: List[Dict[str, int]] = []
            for _ in range(BUILD_ITERATIONS):
                _timed_iteration(engine, seconds, records, yardstick)
            # this repetition's seconds, at the machine speed of this repetition
            seconds = _scaled(seconds, yardstick.factor(mark))
            setup_seconds.append(setup * yardstick.factor(mark))
            iteration_seconds.extend(seconds)
            build_seconds.append(sum(seconds))
            iteration_rates.extend(r["tuples"] / t for r, t in zip(records, seconds))
            if repetition == 0:
                outcome.exact = _exact(engine, records)
                outcome.e2e["load_unload_ops"] = (
                    sum(r["load_unload"] for r in records) / len(records))
            if repetition == repetitions - 1:
                sample = _sample_users(users, seed)
                neighbours, reads = _read_back(
                    lambda user: _engine_read(engine, user), sample, config.k, outcome)
                outcome.e2e["recall_sampled"] = profiles.recall(
                    sample, neighbours, config.k)
                outcome.e2e["read_ontime_frac"] = reads.on_time_share(READ_LIMIT_S)
                outcome.attempted += reads.attempted
                outcome.failed += reads.failed

                # update-to-visible: after the build, how long until a
                # profile change shows in the graph
                ticks = 4 if plan.smoke else spec.coda_iterations
                mark = yardstick.mark()
                _probed_iterations(engine, profiles, book, ticks,
                                   spec.probes_per_tick, ticks - 2, yardstick)
                book.close(tick=ticks - 1, grace_ticks=0)
                visible = _scaled(book.latencies, yardstick.factor(mark))
                outcome.attempted += ticks + book.submitted()

            resumed.extend(_resume_samples(engine, rep_dir, spec.resumes, yardstick))
            outcome.attempted += BUILD_ITERATIONS + spec.resumes
        finally:
            engine.close()
            shutil.rmtree(rep_dir, ignore_errors=True)

    outcome.failed += book.failed
    outcome.e2e["setup_s"] = statistics.median(setup_seconds)
    outcome.e2e["build_s"] = statistics.median(build_seconds)
    outcome.e2e["iter_p50_s"] = statistics.median(iteration_seconds)
    outcome.e2e["refresh_cycle_s"] = outcome.e2e["build_s"] / BUILD_ITERATIONS
    outcome.e2e["tuples_per_s"] = statistics.median(iteration_rates)
    outcome.main_timing = outcome.e2e["build_s"]
    _finish_batch(spec, outcome, visible, resumed)
    outcome.notes.append(
        f"{repetitions} repetitions of a {BUILD_ITERATIONS}-iteration build over "
        f"{users} users; {len(book.latencies)} probe and {len(resumed)} resume samples")
    return outcome


# -- converged drift: drift_dense ---------------------------------------------

def run_drift(spec: Spec, seed: int, plan: Plan, workdir: Path) -> Outcome:
    outcome = Outcome(yardstick=Yardstick(plan.yardstick_samples))
    users = users_of(spec, plan)
    config = engine_config(spec, users, seed)
    iterations = 6 if plan.smoke else max(20, round(plan.seconds / spec.unit_seconds))
    # where tracing-on and tracing-off are compared: the reference pass
    # stops here, the full pass goes on
    exact_after = iterations // 2
    if plan.reference:
        iterations = exact_after
    # churn and probes stay inside partition 0's row range, so the other
    # partitions stay clean and dirty scheduling has steps to skip
    partition_rows = users // config.num_partitions
    churn_rows = partition_rows * 4 // 5
    probe_users = range(churn_rows, partition_rows)
    churn = max(1, round(users * spec.churn_share))
    setup_seconds: List[float] = []
    build_seconds: List[float] = []
    yardstick = outcome.yardstick

    engine = profiles = None
    engine_dir = workdir / "engine"
    for setup in range(plan.setups):
        if engine is not None:
            engine.close()
            shutil.rmtree(engine_dir, ignore_errors=True)
        mark = yardstick.mark()
        start = clock()
        profiles = Profiles(spec, users, seed)
        engine = KNNEngine(profiles.store(), config, workdir=engine_dir)
        seconds: List[float] = []
        ticking = 0.0
        for _ in range(max(spec.warmup, BUILD_ITERATIONS)):
            ticking += _timed_iteration(engine, seconds, [], yardstick)
        factor = yardstick.factor(mark)
        setup_seconds.append((clock() - start - ticking) * factor)
        build_seconds.append(sum(seconds[:BUILD_ITERATIONS]) * factor)

    try:
        book = ProbeBook(probe_users)

        def take_exact(tick: int, records: List[Dict[str, int]]) -> None:
            if tick + 1 == exact_after:
                outcome.exact = _exact(engine, records)

        mark = yardstick.mark()
        seconds, records = _probed_iterations(
            engine, profiles, book, iterations, spec.probes_per_tick, iterations,
            yardstick, churn=lambda: profiles.churn(churn, churn_rows, book),
            after_tick=take_exact)
        factor = yardstick.factor(mark)
        seconds = _scaled(seconds, factor)
        visible = _scaled(book.latencies, factor)
        book.close(tick=iterations - 1, grace_ticks=2)

        sample = _sample_users(users, seed)
        neighbours, reads = _read_back(
            lambda user: _engine_read(engine, user), sample, config.k, outcome)
        outcome.e2e["recall_sampled"] = profiles.recall(sample, neighbours, config.k)
        outcome.e2e["read_ontime_frac"] = reads.on_time_share(READ_LIMIT_S)
        resumed = _resume_samples(engine, workdir, spec.resumes, yardstick)
    finally:
        engine.close()
        shutil.rmtree(engine_dir, ignore_errors=True)

    outcome.attempted = (iterations + reads.attempted + book.submitted()
                         - book.unresolved + spec.resumes)
    outcome.failed = reads.failed + book.failed
    outcome.e2e["setup_s"] = statistics.median(setup_seconds)
    outcome.e2e["build_s"] = statistics.median(build_seconds)
    outcome.e2e["iter_p50_s"] = statistics.median(seconds)
    outcome.e2e["refresh_cycle_s"] = sum(seconds) / len(seconds)
    outcome.e2e["tuples_per_s"] = statistics.median(
        r["tuples"] / t for r, t in zip(records, seconds))
    outcome.e2e["load_unload_ops"] = (
        sum(r["load_unload"] for r in records) / len(records))
    outcome.main_timing = outcome.e2e["iter_p50_s"]
    _finish_batch(spec, outcome, visible, resumed)
    outcome.notes.append(
        f"{iterations} drift iterations over {users} users, {churn} changes each; "
        f"{len(book.latencies)} probe samples, {book.unresolved} unresolved at the end")
    return outcome


# -- the serving runtime: serve_mixed -----------------------------------------

_SERVICE_OPTIONS = dict(admission_capacity=4096, default_deadline_seconds=5.0,
                        refresh_poll_interval=0.01)


class _Writer(threading.Thread):
    """Open-loop writer and probe poller (one thread, 5 ms tick).

    Every ``1 / batch_rate`` seconds a batch of uniform ``set`` changes is
    due; while probing is on, each batch carries one probe.  Every tick the
    serving epoch is read, and when it has advanced each pending probe user
    is read once — a new epoch is the only thing that can make a probe
    visible.  The thread keeps writing past the window while probes are
    pending: the refresh loop only runs when updates are queued.
    """

    TICK_S = 0.005

    def __init__(self, runtime: ServingRuntime, spec: Spec, profiles: Profiles,
                 seconds: float, book: ProbeBook, k: int):
        super().__init__(name="e2e-writer", daemon=True)
        self.runtime = runtime
        self.spec = spec
        self.profiles = profiles
        self.seconds = seconds
        self.book = book
        self.k = k
        self.background = book.probe_users.start
        self.probing_seconds = seconds - min(spec.probe_quiet_seconds, seconds / 2)
        self.submit_latencies: List[float] = []
        self.batches = 0
        self.shed = 0
        self.epoch_times: List[float] = []
        self.problems: List[str] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self._run()
        except BaseException as exc:  # noqa: BLE001 — reported by the main thread
            self.error = exc

    def _batch(self, probing: bool) -> Tuple[List[ProfileChange], Optional[Tuple[int, int]]]:
        profiles = self.profiles
        changes = profiles.churn(self.spec.batch_changes, self.background, self.book)
        probe = None
        if probing:
            user = self.book.next_user()
            if user is not None:
                anchor = pick_anchor(self.runtime.neighbors(user), self.book.probe_users)
                if anchor is not None:
                    changes.extend(profiles.become(user, anchor))
                    probe = (user, anchor)
        return changes, probe

    def _run(self) -> None:
        runtime, book = self.runtime, self.book
        period = 1.0 / self.spec.batch_rate
        start = clock()
        last_epoch = runtime.current_epoch
        slot = 0
        while True:
            now = clock()
            elapsed = now - start
            if elapsed >= self.seconds and not book.pending():
                break
            epoch = runtime.current_epoch
            if epoch != last_epoch:
                last_epoch = epoch
                self.epoch_times.append(now)
                for user, _anchor in book.pending():
                    found = runtime.neighbors(user)
                    if not valid_read(found, self.k):
                        self.problems.append(f"probe read of user {user} is malformed")
                    book.observe(user, found, clock())
            book.expire(now, PROBE_TIMEOUT_S)
            due = start + slot * period
            if now >= due:
                slot += 1
                changes, probe = self._batch(elapsed < self.probing_seconds)
                submitted = clock()
                result = runtime.submit_updates(changes)
                self.batches += 1
                self.submit_latencies.append(clock() - due)
                if not result.accepted:
                    self.shed += 1
                    self.problems.append(f"batch shed: {result.shed_reason}")
                elif probe is not None:
                    book.open(probe[0], probe[1], submitted)
                continue
            time.sleep(min(self.TICK_S, due - now))


def _wait_for(condition, timeout: float) -> bool:
    deadline = clock() + timeout
    while clock() < deadline:
        if condition():
            return True
        time.sleep(0.002)
    return condition()


def _quiesce(runtime: ServingRuntime) -> bool:
    return _wait_for(lambda: runtime.pending_updates == 0
                     and not runtime.refresh_in_flight, 20.0)


def _start_service(spec: Spec, users: int, seed: int, config: EngineConfig,
                   service_dir: Path, yardstick: Yardstick
                   ) -> Tuple[ServingRuntime, Profiles, float, float]:
    """Set-up: inputs, ``start()`` and the build (four synchronous refreshes);
    returns the set-up and build seconds on the yardstick of this set-up."""
    start = clock()
    profiles = Profiles(spec, users, seed)
    runtime = ServingRuntime(profiles.store(), config, workdir=service_dir,
                             **_SERVICE_OPTIONS)
    build_start = clock()
    runtime.start()
    mark = yardstick.mark()
    ticking = 0.0
    for _ in range(BUILD_ITERATIONS):
        runtime.supervisor.run_one_refresh()
        ticking += yardstick.tick()
    done = clock() - ticking
    factor = yardstick.factor(mark)
    return runtime, profiles, (done - start) * factor, (done - build_start) * factor


def run_serve(spec: Spec, seed: int, plan: Plan, workdir: Path,
              counts: layers.Counts) -> Outcome:
    outcome = Outcome(yardstick=Yardstick(plan.yardstick_samples))
    users = users_of(spec, plan)
    config = engine_config(spec, users, seed)
    seconds = plan.seconds
    if plan.reference:
        seconds = max(min(3.0, seconds), seconds / 3)
    probe_users = range(users - users // 25, users)
    service_dir = workdir / "service"
    setup_seconds: List[float] = []
    build_seconds: List[float] = []

    yardstick = outcome.yardstick
    runtime = None
    for _ in range(plan.setups):
        if runtime is not None:
            runtime.close()
            shutil.rmtree(service_dir, ignore_errors=True)
        runtime, profiles, setup, build = _start_service(
            spec, users, seed, config, service_dir, yardstick)
        setup_seconds.append(setup)
        build_seconds.append(build)

    try:
        refreshes_before = len(counts.iterations)
        book = ProbeBook(probe_users)
        writer = _Writer(runtime, spec, profiles, seconds, book, config.k)
        read_users = np.random.default_rng([seed, 1]).integers(
            0, users, size=int(spec.read_rate * seconds) + 1)
        malformed: List[int] = []

        def read(slot: int) -> None:
            found = runtime.neighbors(int(read_users[slot]))
            if not valid_read(found, config.k):
                malformed.append(slot)

        reads_box: List[OpenLoopReport] = []
        reader = threading.Thread(
            name="e2e-reader", daemon=True,
            target=lambda: reads_box.append(
                run_open_loop(read, spec.read_rate, seconds, READ_LIMIT_S)))
        # the yardstick cannot run beside the load or refresh threads without
        # joining the contention it is meant to stand apart from: it samples
        # before the window and after the last refresh has finished
        yardstick.tick(7)
        window_start = clock()
        writer.start()
        reader.start()
        reader.join(timeout=seconds + 60.0)
        writer.join(timeout=seconds + PROBE_TIMEOUT_S + 60.0)
        outcome.window = (window_start, window_start + seconds)
        _quiesce(runtime)
        yardstick.tick(7)
        if reader.is_alive() or writer.is_alive() or not reads_box:
            raise RuntimeError("a load thread did not finish")
        if writer.error is not None:
            raise writer.error
        reads = reads_box[0]
        window_records = [record for record in counts.iterations[refreshes_before:]
                          if record["at"] <= window_start + seconds]
        outcome.problems.extend(writer.problems[:5])
        if malformed:
            outcome.problems.append(f"{len(malformed)} reads unsorted or longer than k")
        if reads.failed:
            outcome.problems.append(f"{reads.failed} reads failed")

        # everything applied, then one more refresh so it is also scored
        _quiesce(runtime)
        epoch = runtime.current_epoch
        runtime.submit_updates(profiles.drift(0))
        _wait_for(lambda: runtime.current_epoch > epoch, 20.0)
        _quiesce(runtime)
        sample = _sample_users(users, seed)
        neighbours, _ = _read_back(runtime.neighbors, sample, config.k, outcome)
        outcome.e2e["recall_sampled"] = profiles.recall(sample, neighbours, config.k)

        # acknowledged-write durability: a probe accepted just before the
        # first kill must be visible after the last recovery
        durable_user = book.next_user()
        durable_anchor = pick_anchor(runtime.neighbors(durable_user), probe_users)
        accepted = runtime.submit_updates(profiles.become(durable_user, durable_anchor))
        if not accepted.accepted:
            outcome.problems.append("the durability probe was shed")
        recovered: List[float] = []
        stats = runtime.stats()
        mark = yardstick.mark()
        for _ in range(1 if plan.smoke or plan.reference else spec.recoveries):
            runtime.stop(drain=False)
            runtime.close()
            yardstick.tick()
            start = clock()
            runtime = ServingRuntime.recover(service_dir, **_SERVICE_OPTIONS)
            runtime.neighbors(0)
            recovered.append(clock() - start)
        recovered = _scaled(recovered, yardstick.factor(mark))
        # no sample can be taken inside the window, so its timings use every
        # sample of the run: the set-ups before it, the bursts around it, the
        # recoveries after it
        window_factor = yardstick.factor()
        _quiesce(runtime)
        runtime.submit_updates(profiles.drift(0))
        durable = _wait_for(
            lambda: probe_visible(runtime.neighbors(durable_user), durable_anchor),
            PROBE_TIMEOUT_S)
        if not durable:
            outcome.problems.append(
                "an accepted update was not visible after the final recover()")
    finally:
        runtime.close()
        shutil.rmtree(service_dir, ignore_errors=True)

    # serving epochs seen to advance inside the window, by the writer's poll
    epochs = [at for at in writer.epoch_times if at <= window_start + seconds]
    if len(epochs) < 3 or len(window_records) < 3:
        raise RuntimeError(f"only {len(epochs)} refreshes in a {seconds:g} s window")
    intervals = _scaled(np.diff(epochs), window_factor)
    refresh_seconds = _scaled(
        np.diff([record["at"] for record in window_records]), window_factor)
    p50, p80 = _visible_percentiles(_scaled(book.latencies, window_factor), outcome)
    e2e = outcome.e2e
    e2e["setup_s"] = statistics.median(setup_seconds)
    e2e["build_s"] = statistics.median(build_seconds)
    e2e["refresh_cycle_s"] = sum(intervals) / len(intervals)
    e2e["iter_p50_s"] = statistics.median(intervals)
    e2e["tuples_per_s"] = statistics.median(
        record["tuples"] / took
        for record, took in zip(window_records[1:], refresh_seconds))
    e2e["load_unload_ops"] = (sum(r["load_unload"] for r in window_records)
                              / len(window_records))
    e2e["update_visible_p50_s"] = p50
    e2e["update_visible_p80_s"] = p80
    e2e["read_ontime_frac"] = reads.on_time_share(READ_LIMIT_S)
    e2e["recover_s"] = statistics.median(recovered)
    outcome.main_timing = e2e["refresh_cycle_s"]
    outcome.attempted = (reads.attempted + writer.batches + book.submitted()
                         + len(recovered) + len(sample))
    outcome.failed = reads.failed + writer.shed + book.failed
    outcome.service = _service_metrics(reads, writer, stats, p50, e2e["refresh_cycle_s"])
    outcome.notes.append(
        f"{seconds:g} s window over {users} users: {reads.attempted} reads "
        f"({reads.skipped} dropped unsent, {reads.failed} failed), {writer.batches} batches, "
        f"{len(book.latencies)} of {book.submitted()} probes visible, "
        f"{len(epochs)} epochs, {len(recovered)} recoveries")
    _check_recall(spec, e2e["recall_sampled"], outcome)
    return outcome


def _service_metrics(reads: OpenLoopReport, writer: _Writer, stats: dict,
                     visible_p50: float, cycle: float) -> Dict[str, layers.Metric]:
    def pick(samples: Sequence[float], pct: float, scale: float) -> float:
        try:
            return tail(samples, pct)[0] * scale
        except InsufficientSamples:
            return 0.0
    return {
        "service.refresh_idle_frac": (0.0, "ratio"),   # filled from spans
        "service.submit_p50_ms": (pick(writer.submit_latencies, 50, 1e3), "ms"),
        "service.submit_p99_ms": (pick(writer.submit_latencies, 99, 1e3), "ms"),
        "service.read_p50_us": (pick(reads.latencies_with_skipped(), 50, 1e6), "us"),
        "service.read_p99_us": (pick(reads.latencies_with_skipped(), 99, 1e6), "us"),
        "service.read_p999_us": (pick(reads.latencies_with_skipped(), 99.9, 1e6), "us"),
        "service.reader_late_p99_us": (pick(reads.lateness, 99, 1e6), "us"),
        "service.visible_cycles": (visible_p50 / cycle if cycle else 0.0, "ratio"),
        "service.shed_batches": (stats["shed_batches"], "count"),
        "service.restarts": (stats["restarts"], "count"),
    }


def run_workload(name: str, seed: int, plan: Plan, workdir: Path,
                 counts: Optional[layers.Counts] = None) -> Outcome:
    spec = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    if spec.kind == "cold":
        return run_cold(spec, seed, plan, workdir)
    if spec.kind == "drift":
        return run_drift(spec, seed, plan, workdir)
    return run_serve(spec, seed, plan, workdir, counts or layers.Counts())
