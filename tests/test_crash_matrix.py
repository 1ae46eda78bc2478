"""The crash matrix: kill → recover → finish must equal never-crashed.

For every named crash point — spanning phase-4 scoring, phase-5 update
application, WAL appends, store writes and each stage of the commit
protocol — a durable run is crashed mid-flight by an injected
:class:`InjectedCrash`, recovered with :meth:`KNNEngine.recover`, and run
to completion.  The final graph's ``edge_fingerprint`` and the final
profile bytes must match an uninterrupted run exactly: no update lost, none
applied twice, and the set of names under ``/dev/shm`` unchanged along the
way.  The matrix runs twice: in the paper's order (phase 5 at the tail,
``KNNEngine.run``) and in the serving refresh's (phase 5 at the head,
``updates_first=True``).  Each crash is taken on three schedules — the
paper's, and two that walk other partitions in another order through a
cache of two or three slots — against the one uninterrupted run on the
paper's schedule: the walk changes no graph (``test_schedule_invariance``),
so a recovery that restored another schedule's state wrongly shows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine, _scan_commit_epochs
from repro.similarity.workloads import ProfileChange, generate_dense_profiles
from repro.testing import ITERATION_CRASH_POINTS, FaultPlan, InjectedCrash

NUM_USERS = 50
NUM_ITERATIONS = 4
DIM = 8

#: Every named crash point of the runtime, in rough execution order.  The
#: CI fault-injection step greps for this list — renaming a point without
#: updating its hook site breaks the matrix loudly, not silently.
CRASH_POINTS = [
    "iteration.begin",
    "phase4.step",
    "phase4.done",
    "wal.appended",
    "phase5.before_apply",
    "store.dense_rows_written",
    "commit.begin",
    "commit.before_rename",
    "commit.committed",
    "commit.before_wal_truncate",
    "commit.done",
]

#: The phase-1/3 schedules a crash is taken on, by test id.
SCHEDULES = {
    "paper": {},
    "hash-degree-low-high": dict(partitioner="hash",
                                 heuristic="degree-low-high"),
    "ldg-greedy-resident-3": dict(partitioner="ldg",
                                  heuristic="greedy-resident",
                                  max_resident_partitions=3),
}


def _profiles():
    return generate_dense_profiles(NUM_USERS, dim=DIM, num_communities=3,
                                   seed=1)


def _config(**overrides):
    return EngineConfig(k=5, num_partitions=4, seed=7, **overrides)


def _schedule_of(engine):
    config = engine.config
    return (config.partitioner, config.heuristic,
            config.max_resident_partitions)


def _once_feed():
    """A stateful change feed: each iteration's batch is produced once ever.

    Models the real-world producer that does not replay its stream after a
    consumer crash — recovering those changes is the WAL's job, and a feed
    that silently re-fed them would mask double-application bugs.
    """
    fed = set()

    def feed(iteration):
        if iteration in fed or iteration not in (1, 2):
            return []
        fed.add(iteration)
        rng = np.random.default_rng(100 + iteration)
        return [ProfileChange(user=int(u), kind="set",
                              vector=rng.random(DIM))
                for u in rng.choice(NUM_USERS, size=3, replace=False)]

    return feed


@pytest.fixture(scope="module")
def reference():
    """Fingerprint + final profile bytes of an uninterrupted run."""
    with KNNEngine(_profiles(), _config()) as engine:
        engine.run(NUM_ITERATIONS, profile_change_feed=_once_feed())
        fingerprint = engine.graph.edge_fingerprint()
        dense = (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()
    return fingerprint, dense


def test_the_matrix_covers_every_registered_engine_point():
    """A registered point no test crashes guards nothing: the matrix takes
    every engine-level point but the sparse journal's, which has its own
    test below (the matrix's profiles are dense)."""
    assert (set(CRASH_POINTS) | {"store.journal_appended"}
            == set(ITERATION_CRASH_POINTS))


@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_recover_finish_matches_uninterrupted(point, schedule, tmp_path,
                                                    reference, shm_unchanged):
    ref_fingerprint, ref_dense = reference
    workdir = tmp_path / "work"
    plan = FaultPlan().crash_at(point, occurrence=2)
    feed = _once_feed()
    engine = KNNEngine(_profiles(),
                       _config(durable=True, fault_plan=plan,
                               **SCHEDULES[schedule]),
                       workdir=workdir)
    try:
        with pytest.raises(InjectedCrash):
            engine.run(NUM_ITERATIONS, profile_change_feed=feed)
    finally:
        engine.close()
    assert "crash" in plan.fired_kinds()

    recovered = KNNEngine.recover(workdir)
    try:
        assert _schedule_of(recovered) == _schedule_of(engine)
        remaining = NUM_ITERATIONS - recovered.iterations_run
        assert remaining > 0
        recovered.run(remaining, profile_change_feed=feed)
        assert recovered.iterations_run == NUM_ITERATIONS
        assert recovered.graph.edge_fingerprint() == ref_fingerprint
        # zero lost and zero double-applied updates: the profile matrix is
        # byte-identical to the uninterrupted run's
        dense = (recovered.profile_store.base_dir
                 / "profiles_dense.bin").read_bytes()
        assert dense == ref_dense
        # the store the run finished on passes its own checksums
        assert recovered.profile_store.verify_checksums() == []
        # commit GC holds: at most the two newest epochs survive
        assert len(_scan_commit_epochs(recovered.commits_dir)) <= 2
    finally:
        recovered.close()


def test_recovery_ignores_a_stale_partitions_directory(tmp_path, reference):
    """A workdir left by a version that still wrote partition files — whole
    ones and one torn mid-write: ``recover`` (and the ``from_checkpoint``
    onto the same workdir it ends in) neither needs nor trips over them."""
    ref_fingerprint, ref_dense = reference
    workdir = tmp_path / "work"
    plan = FaultPlan().crash_at("phase4.step", occurrence=2)
    feed = _once_feed()
    engine = KNNEngine(_profiles(),
                       _config(durable=True, fault_plan=plan),
                       workdir=workdir)
    try:
        with pytest.raises(InjectedCrash):
            engine.run(NUM_ITERATIONS, profile_change_feed=feed)
    finally:
        engine.close()
    stale = workdir / "partitions"
    stale.mkdir()
    for pid in range(4):
        (stale / f"partition_{pid:05d}.bin").write_bytes(
            b"RPPT0001" + np.arange(6 + 40 * pid, dtype=np.int64).tobytes())
    (stale / "partition_00004.bin").write_bytes(b"RPPT")

    recovered = KNNEngine.recover(workdir)
    try:
        recovered.run(NUM_ITERATIONS - recovered.iterations_run,
                      profile_change_feed=feed)
        assert recovered.iterations_run == NUM_ITERATIONS
        assert recovered.graph.edge_fingerprint() == ref_fingerprint
        dense = (recovered.profile_store.base_dir
                 / "profiles_dense.bin").read_bytes()
        assert dense == ref_dense
    finally:
        recovered.close()


def _run_paper_order(engine, feed):
    engine.run(NUM_ITERATIONS - engine.iterations_run, profile_change_feed=feed)


def _run_serving_order(engine, feed):
    """``run()``'s loop — feed, then iterate — with phase 5 at the head."""
    while engine.iterations_run < NUM_ITERATIONS:
        engine.enqueue_profile_changes(feed(engine.iterations_run))
        engine.run_iteration(updates_first=True)


@pytest.mark.parametrize("run_to_the_end", [_run_paper_order, _run_serving_order])
def test_sparse_journal_crash_recovers_to_uninterrupted_twin(tmp_path,
                                                             run_to_the_end):
    """Crash in the v3 journal window: rows appended, generation not bumped.

    ``store.journal_appended`` only fires on the segmented sparse apply
    path (the dense matrix mutates an mmap in place), so the dense matrix
    above can never exercise it — this test is its sparse twin.
    """
    from repro.similarity.workloads import generate_sparse_profiles

    def sparse_profiles():
        return generate_sparse_profiles(40, 120, items_per_user=6,
                                        num_communities=3, seed=3)

    def sparse_feed():
        fed = set()

        def feed(iteration):
            if iteration in fed or iteration not in (1, 2):
                return []
            fed.add(iteration)
            rng = np.random.default_rng(200 + iteration)
            return [ProfileChange(user=int(u), kind="add",
                                  item=int(rng.integers(0, 120)))
                    for u in rng.choice(40, size=3, replace=False)]

        return feed

    with KNNEngine(sparse_profiles(), _config()) as clean:
        run_to_the_end(clean, sparse_feed())
        ref_fingerprint = clean.graph.edge_fingerprint()
        clean_slice = clean.profile_store.load_users(range(40))
        ref_rows = {u: set(clean_slice.get(u)) for u in range(40)}

    workdir = tmp_path / "work"
    plan = FaultPlan().crash_at("store.journal_appended", occurrence=1)
    feed = sparse_feed()
    engine = KNNEngine(sparse_profiles(),
                       _config(durable=True, fault_plan=plan),
                       workdir=workdir)
    try:
        with pytest.raises(InjectedCrash):
            run_to_the_end(engine, feed)
    finally:
        engine.close()
    assert "crash" in plan.fired_kinds()

    recovered = KNNEngine.recover(workdir)
    try:
        run_to_the_end(recovered, feed)
        assert recovered.iterations_run == NUM_ITERATIONS
        assert recovered.graph.edge_fingerprint() == ref_fingerprint
        got_slice = recovered.profile_store.load_users(range(40))
        assert {u: set(got_slice.get(u)) for u in range(40)} == ref_rows
        assert recovered.profile_store.verify_checksums() == []
    finally:
        recovered.close()


# -- the serving order: phase 5 at the head of the iteration -------------------
#
# The refresh loop runs ``run_iteration(updates_first=True)``: drain, apply,
# score, seal.  The same points then bracket other windows — ``store.*`` and
# ``phase5.before_apply`` fire before any scoring, ``phase4.step`` and
# ``phase4.done`` with the batch applied to the working store and in no sealed
# epoch — so the matrix is proved again in that order, against a twin that
# never crashed and ran the same order.

@pytest.fixture(scope="module")
def serving_reference():
    with KNNEngine(_profiles(), _config()) as engine:
        _run_serving_order(engine, _once_feed())
        fingerprint = engine.graph.edge_fingerprint()
        dense = (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()
    return fingerprint, dense


def test_the_serving_order_serves_a_batch_one_iteration_earlier(
        reference, serving_reference):
    """Same batches, same final profiles — and another graph sequence: the
    serving order scored the last batch, the paper order only applied it.
    (Were the two equal, the rows below would prove nothing new.)"""
    assert serving_reference[1] == reference[1]
    assert serving_reference[0] != reference[0]


@pytest.mark.parametrize("run_to_the_end, twin", [
    (_run_paper_order, "reference"),
    (_run_serving_order, "serving_reference"),
], ids=["paper-order", "serving-order"])
def test_an_inert_plan_reaches_every_matrix_point_and_changes_nothing(
        run_to_the_end, twin, tmp_path, request):
    """A registered point whose hook site is gone never fires, so its rows
    above would crash nothing: an empty plan must count a hit at every
    matrix point, and carrying it must leave the run unchanged."""
    ref_fingerprint, ref_dense = request.getfixturevalue(twin)
    plan = FaultPlan()
    with KNNEngine(_profiles(), _config(durable=True, fault_plan=plan),
                   workdir=tmp_path / "work") as engine:
        run_to_the_end(engine, _once_feed())
        assert engine.graph.edge_fingerprint() == ref_fingerprint
        assert (engine.profile_store.base_dir
                / "profiles_dense.bin").read_bytes() == ref_dense
    assert {point: plan.hits(point) for point in CRASH_POINTS
            if plan.hits(point) == 0} == {}
    assert plan.fired == []


@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("point", CRASH_POINTS)
def test_crash_recover_finish_matches_uninterrupted_in_serving_order(
        point, schedule, tmp_path, serving_reference, shm_unchanged):
    ref_fingerprint, ref_dense = serving_reference
    workdir = tmp_path / "work"
    plan = FaultPlan().crash_at(point, occurrence=2)
    feed = _once_feed()
    engine = KNNEngine(_profiles(),
                       _config(durable=True, fault_plan=plan,
                               **SCHEDULES[schedule]),
                       workdir=workdir)
    try:
        with pytest.raises(InjectedCrash):
            _run_serving_order(engine, feed)
    finally:
        engine.close()
    assert "crash" in plan.fired_kinds()

    recovered = KNNEngine.recover(workdir)
    try:
        assert _schedule_of(recovered) == _schedule_of(engine)
        assert recovered.iterations_run < NUM_ITERATIONS
        # exactly-once replay: what the WAL hands back is what the restored
        # epoch had not applied — whole batches of 3, never a part of one
        assert recovered.wal_replayed == len(recovered.update_queue)
        assert recovered.wal_replayed % 3 == 0
        _run_serving_order(recovered, feed)
        assert recovered.graph.edge_fingerprint() == ref_fingerprint
        dense = (recovered.profile_store.base_dir
                 / "profiles_dense.bin").read_bytes()
        assert dense == ref_dense
        assert recovered.profile_store.verify_checksums() == []
        assert len(_scan_commit_epochs(recovered.commits_dir)) <= 2
    finally:
        recovered.close()


def test_crash_in_a_delta_iteration_recovers_onto_the_reference_path(tmp_path):
    """The matrix above crashes a graph that is still forming, where phase 2
    rebuilds ``H`` anyway.  This row crashes a *converged* run mid-phase-4,
    in an iteration that advanced ``H`` by the edge delta: what is carried is
    never checkpointed and a commit epoch holds no score cache, so the
    recovered engine rebuilds and rescores in full once — the same graph for
    more evaluations — then advances again from the next iteration on, on the
    never-crashed twin's graph, evaluations and reuse."""
    warm, total = 8, 11

    def changes():
        rng = np.random.default_rng(300)
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(DIM))
                for u in rng.choice(NUM_USERS, size=3, replace=False)]

    def counters(result):
        return (result.graph.edge_fingerprint(), result.similarity_evaluations,
                result.reused_scores)

    with KNNEngine(_profiles(), _config(durable=True),
                   workdir=tmp_path / "twin") as twin:
        twin.run(warm - 1)
        twin.enqueue_profile_changes(changes())
        twin.run_iteration()
        expected = [twin.run_iteration() for _ in range(total - warm)]
    assert not any(result.candidates_rebuilt for result in expected)

    workdir = tmp_path / "work"
    engine = KNNEngine(_profiles(), _config(durable=True),
                       workdir=workdir)
    try:
        engine.run(warm - 1)
        engine.enqueue_profile_changes(changes())
        # phase 5 applies the changes; the next phase 4 has rows to rescore
        assert not engine.run_iteration().candidates_rebuilt
        engine._iteration_runner._fault = FaultPlan().crash_at(
            "phase4.step", occurrence=1)
        with pytest.raises(InjectedCrash):
            engine.run_iteration()
    finally:
        engine.close()

    recovered = KNNEngine.recover(workdir)
    try:
        assert recovered.iterations_run == warm
        finished = [recovered.run_iteration() for _ in range(total - warm)]
    finally:
        recovered.close()
    assert [result.candidates_rebuilt for result in finished] == [True, False, False]
    assert finished[0].full_rescore            # epochs carry no score cache
    assert finished[0].reused_scores == 0
    assert finished[0].graph.edge_fingerprint() == expected[0].graph.edge_fingerprint()
    assert finished[0].similarity_evaluations == sum(counters(expected[0])[1:])
    assert [counters(result) for result in finished[1:]] == [
        counters(result) for result in expected[1:]]


def test_crash_recover_finish_matches_uninterrupted_when_every_step_gathers(
        tmp_path, shm_unchanged):
    """A converged run whose one changed user leaves every step with misses
    a residue small enough to gather: the iteration acquires no partition,
    so ``phase4.step`` fires from the steps the walk queues.  Crashed at the
    first of them, recovered and finished, the run ends on the
    never-crashed twin's graph and profiles."""
    warm, total = 6, 9
    profiles = generate_dense_profiles(600, dim=DIM, num_communities=5, seed=3)
    config = EngineConfig(k=5, num_partitions=6, seed=7, durable=True)
    changes = [ProfileChange(user=250, kind="set", vector=np.full(DIM, 0.5))]

    def finish(engine):
        while engine.iterations_run < total:
            engine.run_iteration(updates_first=True)
        return (engine.graph.edge_fingerprint(), (
            engine.profile_store.base_dir / "profiles_dense.bin").read_bytes())

    with KNNEngine(profiles, config, workdir=tmp_path / "twin") as twin:
        twin.run(warm)
        twin.enqueue_profile_changes(changes)
        twin._iteration_runner._fault = inert = FaultPlan()
        gathered = twin.run_iteration(updates_first=True)
        twin._iteration_runner._fault = None
        expected = finish(twin)
    assert gathered.similarity_evaluations > 0
    assert gathered.schedule.num_steps == 0
    assert gathered.steps_skipped == gathered.steps_total
    assert inert.hits("phase4.step") > 0

    workdir = tmp_path / "work"
    engine = KNNEngine(profiles, config, workdir=workdir)
    try:
        engine.run(warm)
        engine.enqueue_profile_changes(changes)
        engine._iteration_runner._fault = FaultPlan().crash_at(
            "phase4.step", occurrence=1)
        with pytest.raises(InjectedCrash):
            engine.run_iteration(updates_first=True)
    finally:
        engine.close()

    recovered = KNNEngine.recover(workdir)
    try:
        assert recovered.iterations_run == warm
        assert recovered.wal_replayed == len(changes)
        assert finish(recovered) == expected
    finally:
        recovered.close()


def test_random_crash_sweep_is_recoverable(tmp_path):
    """Seeded random multi-crash schedule: crash, recover, crash again."""
    plan = FaultPlan(seed=17).crash_at_random(CRASH_POINTS[:6], count=2,
                                              max_occurrence=3)
    workdir = tmp_path / "work"
    feed = _once_feed()
    engine = KNNEngine(_profiles(),
                       _config(durable=True, fault_plan=plan),
                       workdir=workdir)
    completed = 0
    try:
        engine.run(NUM_ITERATIONS, profile_change_feed=feed)
        completed = engine.iterations_run
    except InjectedCrash:
        pass
    finally:
        engine.close()
    attempts = 0
    while completed < NUM_ITERATIONS:
        attempts += 1
        assert attempts <= 10
        engine = KNNEngine.recover(workdir)
        try:
            engine.run(NUM_ITERATIONS - engine.iterations_run,
                       profile_change_feed=feed)
            completed = engine.iterations_run
        except InjectedCrash:
            completed = 0
        finally:
            engine.close()
    with KNNEngine(_profiles(), _config()) as clean:
        clean.run(NUM_ITERATIONS, profile_change_feed=_once_feed())
        assert engine.graph.edge_fingerprint() == clean.graph.edge_fingerprint()


def test_recover_refuses_a_workdir_without_commits(tmp_path):
    with pytest.raises(FileNotFoundError):
        KNNEngine.recover(tmp_path)


def test_recover_falls_back_when_newest_epoch_is_corrupt(tmp_path):
    workdir = tmp_path / "work"
    engine = KNNEngine(_profiles(), _config(durable=True),
                       workdir=workdir)
    engine.run(2)
    engine.close()
    epochs = _scan_commit_epochs(workdir / "commits")
    assert len(epochs) == 2
    newest = epochs[-1][1]
    victim = newest / "checkpoint.json"
    victim.write_text(victim.read_text() + " ")  # CRC now mismatches
    recovered = KNNEngine.recover(workdir)
    try:
        # fell back one epoch and can still finish the run
        assert recovered.iterations_run == epochs[-2][0]
        recovered.run(2 - recovered.iterations_run)
        assert recovered.iterations_run == 2
    finally:
        recovered.close()
