"""The schedule-invariance wall: the walk changes the I/O, never the result.

Phases 1 and 3 decide only *where* and *in what order* phase 4 scores: the
partitioner places each user in a partition, the traversal heuristic orders
the residency steps, and ``max_resident_partitions`` sizes the partition
cache that steps load into.  None of them may change *what* is scored or the
graph built from it: a tuple's score depends only on its two profiles, and
``G(t+1)`` is ranked by ``(-score, destination)`` whatever order the scores
arrived in.  The paper's comparison of heuristics rests on this — they are
ranked by load/unload operations over one and the same KNN computation.

Every heuristic on every partitioner, in the paper's order (phase 5 at the
tail) and the serving refresh's (phase 5 at the head), dense and sparse,
under the same churn: per-iteration fingerprints, similarity evaluations
and reused scores, and the final profiles, must equal the paper's schedule
(``sequential`` on ``contiguous``, two slots).  More slots must build the
same graphs for no more load/unload operations in any iteration — the cache
is an LRU, which cannot suffer Belady's anomaly.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import KNNEngine
from repro.partition.partitioners import available_partitioners
from repro.pigraph.traversal import HEURISTICS
from repro.similarity.workloads import (ProfileChange, generate_dense_profiles,
                                        generate_sparse_profiles)

NUM_USERS = 120
NUM_ITEMS = 200
NUM_PARTITIONS = 4
ITERATIONS = 5
PAPER = ("sequential", "contiguous")
SCHEDULES = [schedule for schedule in itertools.product(
    sorted(HEURISTICS), available_partitioners()) if schedule != PAPER]
ORDERS = {"paper-order": False, "serving-order": True}


def _profiles(kind):
    if kind == "dense":
        return generate_dense_profiles(NUM_USERS, dim=8, num_communities=3,
                                       seed=7)
    return generate_sparse_profiles(NUM_USERS, NUM_ITEMS, items_per_user=8,
                                    num_communities=3, seed=7)


def _changes(kind, iteration):
    rng = np.random.default_rng(50 + iteration)
    users = rng.choice(NUM_USERS, size=6, replace=False)
    if kind == "dense":
        return [ProfileChange(user=int(u), kind="set", vector=rng.random(8))
                for u in users]
    return [ProfileChange(user=int(u), kind="add",
                          item=int(rng.integers(0, NUM_ITEMS)))
            for u in users]


def _final_profiles(engine, kind):
    if kind == "dense":
        return (engine.profile_store.base_dir / "profiles_dense.bin").read_bytes()
    rows = engine.profile_store.load_users(range(NUM_USERS))
    return [tuple(rows.get(user)) for user in range(NUM_USERS)]


_OBSERVED = {}


def _observe(order, kind, heuristic="sequential", partitioner="contiguous",
             slots=2):
    """Per-iteration ``(fingerprint, evaluations, reused)``, per-iteration
    load/unload operations and the final profiles of one churned run; each
    configuration runs once per session."""
    key = (order, kind, heuristic, partitioner, slots)
    if key not in _OBSERVED:
        config = EngineConfig(k=5, num_partitions=NUM_PARTITIONS, seed=17,
                              heuristic=heuristic, partitioner=partitioner,
                              max_resident_partitions=slots)
        results = []
        with KNNEngine(_profiles(kind), config) as engine:
            for iteration in range(ITERATIONS):
                engine.enqueue_profile_changes(_changes(kind, iteration))
                results.append(engine.run_iteration(updates_first=ORDERS[order]))
            profiles = _final_profiles(engine, kind)
        _OBSERVED[key] = (
            [(r.graph.edge_fingerprint(), r.similarity_evaluations,
              r.reused_scores) for r in results],
            [r.load_unload_operations for r in results],
            profiles)
    return _OBSERVED[key]


@pytest.mark.parametrize("heuristic, partitioner", SCHEDULES,
                         ids=[f"{h}-{p}" for h, p in SCHEDULES])
@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("order", list(ORDERS))
def test_every_schedule_builds_the_papers_graphs(order, kind, heuristic,
                                                 partitioner):
    graphs, _, profiles = _observe(order, kind, heuristic, partitioner)
    paper_graphs, _, paper_profiles = _observe(order, kind)
    assert graphs == paper_graphs
    assert profiles == paper_profiles
    # the churn reached phase 4: later iterations both reused and rescored
    assert all(evals > 0 and reused > 0 for _, evals, reused in graphs[1:])


@pytest.mark.parametrize("slots", [3, NUM_PARTITIONS])
@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("order", list(ORDERS))
def test_more_slots_build_the_same_graphs_for_no_more_loads(order, kind,
                                                            heuristic, slots):
    graphs, loads, profiles = _observe(order, kind, heuristic, slots=slots)
    two_graphs, two_loads, two_profiles = _observe(order, kind, heuristic)
    assert (graphs, profiles) == (two_graphs, two_profiles)
    assert all(more <= two for more, two in zip(loads, two_loads))
    if slots == NUM_PARTITIONS:
        # every partition fits: each loads and unloads at most once a walk
        assert all(count <= 2 * NUM_PARTITIONS for count in loads)
        assert sum(loads) < sum(two_loads)
