"""Tests of the benchmark's oracles on hand-checkable cases.

    python3 -m pytest perfbench/test_oracles.py

These need neither the package nor a benchmark run.
"""

import math
import os
import sys

import networkx as nx
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402

INF = math.inf

# Pigou: routes of time 1 and time x through midpoints 1 and 2, demand 1
PIGOU = (
    ((0, 1), ("constant", 0.5), INF), ((1, 3), ("constant", 0.5), INF),
    ((0, 2), ("affine", 0.0, 0.5), INF), ((2, 3), ("affine", 0.0, 0.5), INF),
)
# Braess: s=0, v=1, w=2, t=3, demand 6; the shortcut v->w is 10+x
BRAESS = (
    ((0, 1), ("affine", 0.0, 10.0), INF), ((0, 2), ("affine", 50.0, 1.0), INF),
    ((1, 3), ("affine", 50.0, 1.0), INF), ((2, 3), ("affine", 0.0, 10.0), INF),
)
SHORTCUT = ((1, 2), ("affine", 10.0, 1.0), INF)

# the paper's counterexample under constant costs: tree edges cost 3,
# every other edge 1, capacities 10, one trip 1 -> 4 of demand 1
CX_TREE = ((1, 2), (2, 3), (3, 4))
CX_ORANGE = ((1, 5), (5, 6), (6, 2), (2, 10), (10, 13), (13, 14), (14, 11), (11, 12), (12, 4))
CX_BLUE = ((1, 9), (9, 10), (10, 11), (11, 3), (3, 7), (7, 8), (8, 4))


def _cx_edges(mask):
    pairs = set(CX_TREE)
    if mask & 1:
        pairs |= set(CX_ORANGE)
    if mask & 2:
        pairs |= set(CX_BLUE)
    return tuple((p, ("constant", 3.0 if p in CX_TREE else 1.0), 10.0) for p in sorted(pairs))


def test_wardrop_pigou_equilibrium_and_optimum():
    trips = ((0, 3, 1.0),)
    problems, total = oracles.wardrop(PIGOU, trips, [(0, (0, 2, 3), 1.0)], "ue")
    assert problems == [] and total == pytest.approx(1.0)
    split = [(0, (0, 1, 3), 0.5), (0, (0, 2, 3), 0.5)]
    problems, total = oracles.wardrop(PIGOU, trips, split, "so")
    assert problems == [] and total == pytest.approx(0.75)
    # the optimum is no equilibrium and the equilibrium is no optimum
    assert oracles.wardrop(PIGOU, trips, split, "ue")[0]
    assert oracles.wardrop(PIGOU, trips, [(0, (0, 2, 3), 1.0)], "so")[0]


def test_wardrop_braess_before_and_after_the_shortcut():
    trips = ((0, 3, 6.0),)
    before = [(0, (0, 1, 3), 3.0), (0, (0, 2, 3), 3.0)]
    problems, total = oracles.wardrop(BRAESS, trips, before, "ue")
    assert problems == [] and total == pytest.approx(498.0)
    after = [(0, (0, 1, 3), 2.0), (0, (0, 2, 3), 2.0), (0, (0, 1, 2, 3), 2.0)]
    problems, total = oracles.wardrop(BRAESS + (SHORTCUT,), trips, after, "ue")
    assert problems == [] and total == pytest.approx(552.0)
    # with the shortcut, the old split leaves s-v-w-t cheaper than used paths
    assert oracles.wardrop(BRAESS + (SHORTCUT,), trips, before, "ue")[0]


def test_wardrop_rejects_broken_assignments():
    trips = ((0, 3, 1.0),)
    assert oracles.wardrop(PIGOU, trips, [(0, (0, 2, 3), 0.9)], "ue")[0]   # demand lost
    assert oracles.wardrop(PIGOU, trips, [(0, (0, 3), 1.0)], "ue")[0]      # no such edge
    assert oracles.wardrop(PIGOU, trips, [(0, (1, 3), 1.0)], "ue")[0]      # wrong source


def test_mc_values_counterexample_ladder():
    nodes = range(1, 15)
    trips = ((1, 4, 1.0),)
    assert oracles.mc_values(nodes, [_cx_edges(m) for m in range(4)], trips) == \
        pytest.approx([9.0, 9.0, 7.0, 5.0])


def test_mc_value_respects_capacity():
    # two routes 0->1->3 (cost 2) and 0->2->3 (cost 4); the cheap one holds 1 of 3
    edges = (((0, 1), ("constant", 1.0), 1.0), ((1, 3), ("constant", 1.0), 1.0),
             ((0, 2), ("constant", 2.0), INF), ((2, 3), ("constant", 2.0), INF))
    assert oracles.mc_value(range(4), edges, ((0, 3, 3.0),)) == pytest.approx(2.0 + 2 * 4.0)
    two = ((0, 3, 1.0), (0, 3, 1.0))
    assert oracles.mc_value(range(4), edges, two) == pytest.approx(2.0 + 4.0)


def test_parallel_closed_forms():
    # one route of length 1 at half capacity doubles the free-flow time
    assert oracles.parallel_congested_value(1, 1.0, 1.0, 10.0, 5.0) == pytest.approx(10.0)
    assert oracles.parallel_congested_value(2, 1.0, 1.0, 10.0, 5.0) == pytest.approx(5.0 / 0.75)
    assert oracles.parallel_constant_value([9.0, 4.0, 6.0], 2.0) == 8.0


def test_dijkstra_matches_networkx():
    weights = {(i, j): oracles.edge_time(c, 2.0) for (i, j), c, _ in BRAESS + (SHORTCUT,)}
    graph = nx.DiGraph()
    graph.add_weighted_edges_from((i, j, w) for (i, j), w in weights.items())
    assert oracles.dijkstra(weights, 0) == pytest.approx(
        nx.single_source_dijkstra_path_length(graph, 0))


def test_marginal_is_derivative_of_total():
    for cost in (("greenshields", 1.3, 0.8, 5.0), ("bpr", 2.0, 3.0, 0.15, 4.0),
                 ("affine", 1.0, 2.0)):
        x, h = 1.7, 1e-6
        numeric = ((x + h) * oracles.edge_time(cost, x + h)
                   - (x - h) * oracles.edge_time(cost, x - h)) / (2 * h)
        assert oracles.edge_marginal(cost, x) == pytest.approx(numeric, rel=1e-6)
