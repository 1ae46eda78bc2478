"""The serving model wall: a whole ``ServingRuntime`` against the in-memory oracle.

A hypothesis state machine drives one service — submit a batch, refresh, read,
crash at a registered point and ``ServingRuntime.recover``, drain and restart —
beside a model that shares no code with the engine: an in-memory profile store,
the list of batches admitted and not yet sealed, and
:meth:`InMemoryKNNIterator.iterate`.  The supervisor thread never starts; every
refresh is a ``run_one_refresh()`` the machine asked for, so the model knows
which batches each refresh began with.

What it holds the service to:

* every read is the oracle's answer for the last swapped epoch;
* a refresh serves what was queued when it began — the epoch it swaps in is the
  oracle's iteration over the profiles *with* those batches applied (an update
  is visible one cycle after its admission, not two);
* the profile bytes sealed beside a graph are the profiles it was scored
  against: every batch admitted before that refresh, nothing else, each once;
* nothing acknowledged is lost and nothing applied twice across crashes at any
  engine- or service-level point, and the graph served after the final drain
  is the oracle's.

The oracle's answer is taken up to ties: equal scores at the K boundary may
resolve to another neighbour in the engine (incumbents win ties there), and the
next iteration's candidates follow the neighbours actually served — so the
model iterates from the served graph once it has checked it, user by user,
against the oracle: the same ranked scores, every listed neighbour a real
candidate carrying its true similarity.  Dense profiles are continuous random
vectors, where that is plain neighbour-set equality (asserted as such).
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.baselines.in_memory import InMemoryKNNIterator
from repro.core.config import EngineConfig
from repro.graph.knn_graph import KNNGraph
from repro.service import ServingRuntime
from repro.service.supervisor import RefreshSupervisor
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)
from repro.storage.profile_store import OnDiskProfileStore
from repro.testing import FaultPlan, InjectedCrash
from repro.testing.faults import ITERATION_CRASH_POINTS, SERVICE_CRASH_POINTS

NUM_USERS = 30
K = 4
DIM = 6
NUM_ITEMS = 40
CRASH_POINTS = ITERATION_CRASH_POINTS + SERVICE_CRASH_POINTS

SETTINGS = settings(max_examples=25, stateful_step_count=20, deadline=None,
                    suppress_health_check=list(HealthCheck))


class ServingModel(RuleBasedStateMachine):
    """One service and its model; subclasses choose the profile kind."""

    kind = "dense"
    measure = "cosine"

    def __init__(self):
        super().__init__()
        # the refresh loop stays parked: refreshes happen when a rule says so
        self._parked = mock.patch.object(RefreshSupervisor, "start",
                                         lambda supervisor: None)
        self._parked.start()
        self.workdir = Path(tempfile.mkdtemp(prefix="serving-model-"))
        self.plan = FaultPlan()
        self.config = EngineConfig(k=K, num_partitions=3, seed=5,
                                   measure=self.measure, durable=True,
                                   fault_plan=self.plan)
        self.oracle = InMemoryKNNIterator(k=K, measure=self.measure)
        self.runtime = None

    def _initial_profiles(self):
        if self.kind == "dense":
            return generate_dense_profiles(NUM_USERS, dim=DIM,
                                           num_communities=3, seed=2)
        return generate_sparse_profiles(NUM_USERS, NUM_ITEMS, items_per_user=8,
                                        num_communities=3, seed=2)

    @initialize()
    def start(self):
        self.profiles = self._initial_profiles()      # P of the last sealed epoch
        self.queued = []                              # admitted, in no epoch yet
        self.epoch = 0
        self.runtime = ServingRuntime(self._initial_profiles(), self.config,
                                      workdir=self.workdir).start()
        # G(0) is an input, not a result: the model takes it as served
        self.served = self._read_all()

    def teardown(self):
        try:
            if self.runtime is not None:
                self._drain()
                self.runtime.close()
        finally:
            self._parked.stop()
            shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the model ----------------------------------------------------------

    def _read_all(self):
        return [self.runtime.neighbors(user) for user in range(NUM_USERS)]

    def _served_graph(self) -> KNNGraph:
        graph = KNNGraph(NUM_USERS, K)
        for user, ranked in enumerate(self.served):
            graph.set_neighbors(user, ranked)
        return graph

    def _check_against_oracle(self, served, previous: KNNGraph) -> None:
        """``served`` is an answer of the oracle iterating ``previous`` over
        the model's profiles (module docstring: up to ties at the boundary)."""
        want = self.oracle.iterate(previous, self.profiles).graph
        for user, ranked in enumerate(served):
            expected = want.ranked(user)
            assert [score for _, score in ranked] == pytest.approx(
                [score for _, score in expected], abs=1e-12), f"user {user}"
            found = [neighbour for neighbour, _ in ranked]
            assert len(set(found)) == len(found) and user not in found
            if self.kind == "dense":
                assert set(found) == {neighbour for neighbour, _ in expected}
            candidates = set(previous.neighbors(user))
            for direct in previous.neighbors(user):
                candidates.update(previous.neighbors(direct))
            for neighbour, score in ranked:
                assert neighbour in candidates, f"user {user}"
                assert score == pytest.approx(self.profiles.similarity(
                    user, neighbour, self.measure), abs=1e-12)

    def _check_sealed_profiles(self) -> None:
        epoch, epoch_dir = self.runtime.engine.latest_sealed_epoch()
        assert epoch == self.epoch
        sealed = OnDiskProfileStore(epoch_dir / "profiles").load_all()
        for user in range(NUM_USERS):
            want, got = self.profiles.get(user), sealed.get(user)
            if self.kind == "dense":
                assert np.array_equal(got, want), f"user {user} at epoch {epoch}"
            else:
                assert set(got) == set(want), f"user {user} at epoch {epoch}"

    def _settle(self, refreshed=None) -> None:
        """Bring the model level with the service after a refresh that may or
        may not have sealed (``refreshed=None``: a crash decides), then check
        what is served, what is sealed and what is still queued."""
        epoch = self.runtime.current_epoch
        if refreshed is None:
            assert epoch in (self.epoch, self.epoch + 1)
            refreshed = epoch == self.epoch + 1
        if refreshed:
            # the refresh began with everything queued and served all of it
            assert epoch == self.epoch + 1
            self.profiles.apply_profile_changes(self.queued)
            self.queued = []
            self.epoch = epoch
            served = self._read_all()
            self._check_against_oracle(served, self._served_graph())
            self.served = served
        assert epoch == self.epoch
        assert self.runtime.pending_updates == len(self.queued)
        self._check_sealed_profiles()

    def _restart(self) -> None:
        """The process died (or was shut down): recover from durable state."""
        self.runtime.close()
        self.runtime = ServingRuntime.recover(self.workdir, config=self.config)

    def _refresh(self) -> None:
        try:
            self.runtime.supervisor.run_one_refresh()
        except InjectedCrash:
            self._restart()
            self._settle()
        else:
            self._settle(refreshed=True)

    def _drain(self) -> None:
        """Graceful shutdown, retried through whatever crash is still armed;
        ends with everything admitted sealed, scored and served."""
        while True:
            had_work = bool(self.queued)
            try:
                self.runtime.stop(drain=True)
            except InjectedCrash:
                self._restart()
                self._settle()
                continue
            self._settle(refreshed=had_work)
            assert not self.queued
            return

    # -- rules --------------------------------------------------------------

    def _changes(self, seed: int, size: int):
        rng = np.random.default_rng(seed)
        users = rng.choice(NUM_USERS, size=size, replace=False)
        if self.kind == "dense":
            return [ProfileChange(user=int(user), kind="set", vector=rng.random(DIM))
                    for user in users]
        return [ProfileChange(user=int(user),
                              kind="add" if rng.random() < 0.6 else "remove",
                              item=int(rng.integers(0, NUM_ITEMS)))
                for user in users]

    @rule(seed=st.integers(0, 2**16), size=st.integers(1, 4))
    def submit(self, seed, size):
        batch = self._changes(seed, size)
        try:
            assert self.runtime.submit_updates(batch).accepted
        except InjectedCrash as crash:
            # died mid-admission: the batch survives iff it reached the WAL
            if crash.point == "wal.appended":
                self.queued.extend(batch)
            self._restart()
            self._settle(refreshed=False)
        else:
            self.queued.extend(batch)
            assert self.runtime.pending_updates == len(self.queued)

    @rule()
    def refresh(self):
        self._refresh()

    @rule(user=st.integers(0, NUM_USERS - 1))
    def read(self, user):
        assert self.runtime.neighbors(user) == self.served[user]

    @rule(point=st.sampled_from(CRASH_POINTS))
    def crash_in_the_next_refresh(self, point):
        """Arm ``point`` for its next hit and refresh.  A point this refresh
        does not pass (``phase5.before_apply`` with nothing queued, the other
        kind's ``store.*``, the admission and drain points) stays armed and
        kills whichever later rule reaches it."""
        self.plan.crash_at(point, occurrence=self.plan.hits(point) + 1)
        self._refresh()

    @rule()
    def drain_and_restart(self):
        self._drain()
        before = self.served
        self._restart()
        self._settle(refreshed=False)
        assert self._read_all() == before

    @invariant()
    def the_service_is_ready(self):
        if self.runtime is not None:
            assert self.runtime.ready and self.runtime.current_epoch == self.epoch


class SparseServingModel(ServingModel):
    kind = "sparse"
    measure = "jaccard"


TestDenseCosine = ServingModel.TestCase
TestDenseCosine.settings = SETTINGS
TestSparseJaccard = SparseServingModel.TestCase
TestSparseJaccard.settings = SETTINGS
