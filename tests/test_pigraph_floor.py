"""The two-slot load/unload floor against an exact optimum found by search.

``load_unload_floor`` bounds what any traversal of a PI graph can cost with
two cache slots.  The oracle here searches every sequence of loads (any
partition, any eviction, not only the pivot scheme or LRU) for the fewest
that make every PI edge's partitions resident together at least once, so
``floor <= optimum <= every heuristic`` on every graph it can search.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pigraph.pi_graph import PIGraph
from repro.pigraph.scheduler import count_load_unload_operations, load_unload_floor
from repro.pigraph.traversal import HEURISTICS

#: The largest PI graph the search oracle takes.
MAX_SEARCH_PARTITIONS = 8


def optimal_load_unload_operations(pi_graph: PIGraph) -> int:
    """Fewest load/unload operations with two slots, by breadth-first search
    over (resident partitions, PI edges not yet covered)."""
    if pi_graph.num_partitions > MAX_SEARCH_PARTITIONS:
        raise ValueError(f"the search takes at most {MAX_SEARCH_PARTITIONS} partitions")
    pairs = sorted({frozenset((e.src, e.dst)) for e in pi_graph.edges()}, key=sorted)
    bit = {pair: 1 << i for i, pair in enumerate(pairs)}

    def covered_by(resident):
        return sum(bit.get(frozenset(pair), 0)
                   for pair in itertools.combinations_with_replacement(resident, 2))

    start = (frozenset(), (1 << len(pairs)) - 1)
    frontier, seen, loads = [start], {start}, 0
    while frontier:
        if any(uncovered == 0 for _, uncovered in frontier):
            return 2 * loads    # every load is unloaded once, the last at the end
        following = []
        for resident, uncovered in frontier:
            # a partition with nothing left to cover never needs loading
            wanted = {p for i, pair in enumerate(pairs) if uncovered >> i & 1
                      for p in pair} - resident
            for partition in wanted:
                kept_choices = ([resident] if len(resident) < 2
                                else [resident - {evicted} for evicted in resident])
                for kept in kept_choices:
                    now = kept | {partition}
                    state = (now, uncovered & ~covered_by(now))
                    if state not in seen:
                        seen.add(state)
                        following.append(state)
        frontier, loads = following, loads + 1
    raise AssertionError("the search ran out of states")


def _graph(num_partitions, edges):
    pi = PIGraph(num_partitions)
    for src, dst in edges:
        pi.add_edge(src, dst)
    return pi


@st.composite
def small_pi_graphs(draw):
    m = draw(st.integers(min_value=1, max_value=MAX_SEARCH_PARTITIONS))
    endpoint = st.integers(min_value=0, max_value=m - 1)
    edges = draw(st.lists(st.tuples(endpoint, endpoint), min_size=1, max_size=9))
    return _graph(m, edges)


class TestFloor:
    def test_a_complete_graph_is_walked_at_the_floor(self):
        # every pair once, plus the first load: 2 * (C(8, 2) + 1)
        complete = _graph(8, itertools.product(range(8), repeat=2))
        assert load_unload_floor(complete) == 58
        assert count_load_unload_operations(complete, "greedy-resident").load_unload_operations == 58

    def test_each_component_pays_its_first_load(self):
        two_paths = _graph(6, [(0, 1), (1, 2), (4, 3), (5, 4)])
        assert load_unload_floor(two_paths) == 2 * (4 + 2)
        assert optimal_load_unload_operations(two_paths) == 2 * (4 + 2)

    def test_a_self_edge_costs_a_load_only_when_alone(self):
        assert load_unload_floor(_graph(3, [(2, 2)])) == 2
        assert load_unload_floor(_graph(3, [(0, 1), (1, 1), (2, 2)])) == 2 * (1 + 1 + 1)
        assert optimal_load_unload_operations(_graph(3, [(0, 1), (1, 1), (2, 2)])) == 6

    def test_the_floor_is_a_bound_the_optimum_may_exceed(self):
        # three two-edge legs off one centre: after walking out a leg, the
        # centre must be loaded again to start the next one
        spider = _graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert load_unload_floor(spider) == 14
        assert optimal_load_unload_operations(spider) == 16

    def test_both_directions_of_a_pair_share_one_load(self):
        assert load_unload_floor(_graph(2, [(0, 1), (1, 0)])) == 4

    def test_the_search_refuses_a_graph_too_large(self):
        with pytest.raises(ValueError, match="at most"):
            optimal_load_unload_operations(_graph(MAX_SEARCH_PARTITIONS + 1, [(0, 1)]))

    @settings(max_examples=60, deadline=None)
    @given(small_pi_graphs())
    def test_floor_optimum_and_every_heuristic_are_ordered(self, pi):
        floor = load_unload_floor(pi)
        optimum = optimal_load_unload_operations(pi)
        assert floor <= optimum
        for name in HEURISTICS:
            assert optimum <= count_load_unload_operations(pi, name).load_unload_operations
