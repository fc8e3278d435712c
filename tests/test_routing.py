import dataclasses
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netdesign.costs import (
    BPR,
    Affine,
    Constant,
    Greenshields,
    Marginalized,
    derivative,
    evaluate,
    marginal,
    second_derivative,
)
from netdesign.errors import (
    BadParams,
    CapacitySaturation,
    Infeasible,
    NotConverged,
    PathLimitExceeded,
    Unreachable,
)
from netdesign import routing
from netdesign.design import parallel_uniform_value
from netdesign.network import Edge, Network, Path, Trip, enumerate_trip_paths
from netdesign.scenarios import materialize, random_candidate_set
from netdesign.simplex import solve_lp
from netdesign.routing import (
    FlowAssignment,
    Instance,
    MCDuals,
    SolverConfig,
    price_of_anarchy,
    so_ue_bridge,
    solve_mc,
    solve_so,
    solve_ue,
    total_cost_under,
    verify_certificate,
    LINE_SEARCH_TOL,
    _EdgeCalculator,
    _line_search,
    _PathSpace,
)
from brute_force import (
    assert_assignment_feasible,
    dense_incidence,
    dense_incremental_load,
    dense_newton_step,
    dense_step_flows,
    dict_shortest_path,
    mc_grid_oracle,
    mc_highs_value,
)

C1 = Constant(1.0)


def net_of(defs):
    nodes = {n for i, j, *_ in defs for n in (i, j)}
    return Network(nodes, [Edge(i, j, cost, cap) for i, j, cost, cap in defs])


def calculator_of(models):
    """The edge calculator of a chain of uncapacitated edges whose costs
    are ``models``, in order."""
    return _EdgeCalculator([Edge(k, k + 1, model) for k, model in enumerate(models)])


def corner_grid(n, seed, draw):
    """An n x n grid, both directions between neighbours, with three
    corner-to-corner trips; ``draw(rng)`` gives each edge's cost model and
    capacity."""
    rng = random.Random(seed)
    defs = []
    for a in range(n * n):
        for b in (a + 1 if (a + 1) % n else None, a + n if a + n < n * n else None):
            if b is not None:
                for i, j in ((a, b), (b, a)):
                    defs.append((i, j, *draw(rng)))
    last = n * n - 1
    trips = (Trip(0, last, 3.0), Trip(n - 1, last - (n - 1), 2.5), Trip(last, 0, 2.0))
    return Instance(net_of(defs), trips)


# -- classic fixtures -----------------------------------------------------------


def test_braess_ue_without_edge(braess_without):
    r = solve_ue(braess_without.instance)
    assert r.total_cost == pytest.approx(498.0, abs=1e-6)
    assert r.per_trip_cost[0] == pytest.approx(83.0, abs=1e-6)
    assert_assignment_feasible(braess_without.instance, r)


def test_braess_ue_with_edge(braess_with):
    r = solve_ue(braess_with.instance)
    assert r.total_cost == pytest.approx(552.0, abs=1e-6)
    assert r.per_trip_cost[0] == pytest.approx(92.0, abs=1e-6)
    flows = r.assignment.path_flow_map()
    assert flows["0-1-2-3"] == pytest.approx(2.0, abs=1e-6)
    assert flows["0-1-3"] == pytest.approx(2.0, abs=1e-6)
    assert flows["0-2-3"] == pytest.approx(2.0, abs=1e-6)


def test_braess_so_ignores_shortcut(braess_with, braess_without):
    with_edge = solve_so(braess_with.instance)
    without = solve_so(braess_without.instance)
    assert with_edge.total_cost == pytest.approx(498.0, abs=1e-6)
    assert without.total_cost == pytest.approx(498.0, abs=1e-6)


def test_pigou_values(pigou):
    ue = solve_ue(pigou.instance)
    assert ue.assignment.path_flow_map() == {"0-1-3": 0.0, "0-2-3": 1.0}
    assert ue.total_cost == pytest.approx(1.0)
    so = solve_so(pigou.instance)
    flows = so.assignment.path_flow_map()
    assert flows["0-1-3"] == pytest.approx(0.5, abs=1e-9)
    assert flows["0-2-3"] == pytest.approx(0.5, abs=1e-9)
    assert so.total_cost == pytest.approx(0.75, abs=1e-12)


# -- mc -------------------------------------------------------------------------


def test_mc_counterexample_ladder(counterexample_mc):
    cs = counterexample_mc.candidate_set
    expected = {(): 9.0, (0,): 9.0, (1,): 7.0, (0, 1): 5.0}
    for subset, value in expected.items():
        instance = Instance(cs.subset_network(subset), cs.trips)
        r = solve_mc(instance)
        assert r.total_cost == pytest.approx(value, abs=1e-9)
        assert r.certificate.satisfied
        assert_assignment_feasible(instance, r, check_capacity=True)


def test_mc_single_edge():
    instance = Instance(net_of([(0, 1, Constant(4.0), 3.0)]), (Trip(0, 1, 2.0),))
    r = solve_mc(instance)
    assert r.total_cost == pytest.approx(8.0)


def capacity_split():
    """Demand 2 over a cheap route of capacity 1 and a dear one of capacity 10."""
    return Instance(net_of([
        (0, 1, Constant(1.0), 1.0), (1, 3, Constant(1.0), 1.0),
        (0, 2, Constant(3.0), 10.0), (2, 3, Constant(3.0), 10.0),
    ]), (Trip(0, 3, 2.0),))


def test_mc_capacity_forces_split():
    # cheap route capped below demand; remainder takes the expensive one
    instance = capacity_split()
    r = solve_mc(instance)
    assert r.total_cost == pytest.approx(1.0 * 2 + 1.0 * 6)
    flows = r.assignment.path_flow_map()
    assert flows["0-1-3"] == pytest.approx(1.0)
    assert flows["0-2-3"] == pytest.approx(1.0)


def test_mc_infeasible():
    instance = Instance(net_of([(0, 1, Constant(1.0), 1.0)]), (Trip(0, 1, 2.0),))
    with pytest.raises(Infeasible):
        solve_mc(instance)


def test_mc_rejects_flow_dependent_costs(pigou):
    with pytest.raises(BadParams):
        solve_mc(pigou.instance)


def test_mc_unreachable_is_infeasible():
    net = Network({0, 1, 2}, [Edge(0, 1, C1, 5.0)])
    with pytest.raises(Infeasible):
        solve_mc(Instance(net, (Trip(0, 2, 1.0),)))


def test_mc_infeasible_after_phase_one(monkeypatch):
    # the cheapest route overloads its capacity, so the first master cannot
    # carry the demand; Farkas pricing brings in every route, and together
    # they hold 4.5 of the demand of 5
    instance = Instance(net_of([
        (0, 1, Constant(1.0), 2.0), (1, 3, Constant(1.0), 2.0),
        (0, 2, Constant(3.0), 2.0), (2, 3, Constant(3.0), 2.0),
        (0, 4, Constant(5.0), 0.5), (4, 3, Constant(5.0), 0.5),
    ]), (Trip(0, 3, 5.0),))
    masters = []
    original = routing._restricted_master

    def spy(space, cap_rows, path_costs):
        lp, prices = original(space, cap_rows, path_costs)
        masters.append((len(space.paths), lp.feasible, lp.objective))
        return lp, prices

    monkeypatch.setattr(routing, "_restricted_master", spy)
    with pytest.raises(Infeasible, match="cannot carry"):
        solve_mc(instance)
    assert [m[:2] for m in (masters[0], masters[-1])] == [(1, False), (3, False)]
    assert masters[-1][2] == pytest.approx(0.5)  # the phase-1 residual


def test_mc_near_infeasible_on_a_large_network_is_infeasible():
    # the one route holds 1 of a demand 1 + 1e-5, while edges off the route
    # carry a total capacity of 1e5: the phase-1 residual of 1e-5 must count
    # against the demand, not against all the capacities
    instance = Instance(net_of([
        (0, 1, C1, 1.0), (1, 2, C1, 5e4), (2, 3, C1, 5e4),
    ]), (Trip(0, 1, 1.0 + 1e-5),))
    with pytest.raises(Infeasible, match="cannot carry"):
        solve_mc(instance)
    # with a dear route beside it, pricing must bring that route in for the
    # 1e-5 the cheap one cannot hold, and no capacity is overloaded
    instance = Instance(net_of([
        (0, 1, C1, 1.0), (0, 2, Constant(3.0), 5e4), (2, 1, Constant(3.0), 5e4),
    ]), (Trip(0, 1, 1.0 + 1e-5),))
    r = solve_mc(instance)
    assert r.total_cost == pytest.approx(1.0 + 6e-5, rel=1e-12)
    assert r.certificate.satisfied
    assert_assignment_feasible(instance, r, check_capacity=True)


def test_mc_grid_beyond_enumeration():
    pytest.importorskip("scipy")
    instance = corner_grid(6, 0, lambda rng: (Constant(round(rng.uniform(1.0, 9.0), 3)),
                                              round(rng.uniform(2.0, 6.0), 3)))
    with pytest.raises(PathLimitExceeded):
        enumerate_trip_paths(instance.network, instance.trips)
    r = solve_mc(instance)
    highs = mc_highs_value(instance)
    assert abs(r.total_cost - highs) <= 1e-7 * (1.0 + highs)
    assert r.certificate.satisfied
    assert verify_certificate(instance, r).satisfied
    assert_assignment_feasible(instance, r, check_capacity=True)
    assert any(price > 0.0 for _, price in r.duals.edge_prices)  # capacities bind
    assert len(r.assignment.paths) < 50


def test_mc_certificate_rejects_capacity_excess():
    # all demand on the cheap route, twice its capacity, under duals that
    # would certify it if capacity were ignored
    instance = capacity_split()
    r = solve_mc(instance)
    overloaded = dataclasses.replace(
        r, assignment=dataclasses.replace(r.assignment, paths=(Path(0, (0, 1, 3)),),
                                          flows=(2.0,)),
        duals=MCDuals((2.0,), ()))
    cert = verify_certificate(instance, overloaded)
    assert not cert.satisfied
    assert cert.max_violation == pytest.approx(1.0)


def test_mc_certificate_needs_capacity_prices():
    # trip 1 has the capacitated edge 1->2 to itself; trip 0's cheapest
    # route 0-1-2-3 crosses it, so trip 0 pays 7 more on 0-4-3
    instance = Instance(net_of([
        (0, 1, C1, 5.0), (1, 2, C1, 1.0), (2, 3, C1, 5.0),
        (0, 4, Constant(5.0), 5.0), (4, 3, Constant(5.0), 5.0),
        (1, 5, Constant(10.0), 5.0), (5, 2, Constant(10.0), 5.0),
    ]), (Trip(0, 3, 1.0), Trip(1, 2, 1.0)))
    r = solve_mc(instance)
    assert r.total_cost == pytest.approx(11.0)
    used = [(p, f) for p, f in zip(r.assignment.paths, r.assignment.flows) if f > 0.0]
    assert [p.key() for p, _ in used] == ["0-4-3", "1-2"]
    # the used paths alone, without the zero-flow start 0-1-2-3
    stripped = dataclasses.replace(r, assignment=dataclasses.replace(
        r.assignment, paths=tuple(p for p, _ in used), flows=tuple(f for _, f in used)))
    assert verify_certificate(instance, stripped).satisfied
    unpriced = dataclasses.replace(
        stripped, duals=dataclasses.replace(r.duals, edge_prices=()))
    cert = verify_certificate(instance, unpriced)
    assert not cert.satisfied
    assert cert.per_trip_spread == pytest.approx((7.0, 0.0))


def test_mc_matches_grid_oracle_corpus():
    corpus = [
        Instance(net_of([(0, 1, Constant(4.0), 3.0)]), (Trip(0, 1, 2.0),)),
        Instance(net_of([
            (0, 1, Constant(1.0), 1.0), (1, 3, Constant(1.0), 1.0),
            (0, 2, Constant(3.0), 10.0), (2, 3, Constant(3.0), 10.0),
        ]), (Trip(0, 3, 2.0),)),
        # three parallel routes, middle capacity binding at 0.5
        Instance(net_of([
            (0, 2, Constant(1.0), 0.5), (2, 1, Constant(1.0), 0.5),
            (0, 3, Constant(2.0), 5.0), (3, 1, Constant(2.0), 5.0),
            (0, 4, Constant(4.0), 5.0), (4, 1, Constant(4.0), 5.0),
        ]), (Trip(0, 1, 2.0),)),
        # two trips sharing one capacitated middle edge
        Instance(net_of([
            (0, 2, Constant(1.0), 10.0), (2, 3, Constant(1.0), 1.0),
            (3, 1, Constant(1.0), 10.0), (0, 3, Constant(5.0), 10.0),
            (2, 1, Constant(5.0), 10.0),
            (4, 2, Constant(1.0), 10.0), (3, 5, Constant(1.0), 10.0),
            (4, 5, Constant(9.0), 10.0),
        ]), (Trip(0, 1, 1.0), Trip(4, 5, 1.0))),
    ]
    for instance in corpus:
        r = solve_mc(instance)
        oracle, step_bound = mc_grid_oracle(instance)
        assert r.total_cost <= oracle + 1e-9
        assert oracle - r.total_cost <= step_bound + 1e-9


def _fitting_starts():
    """Instances whose cheapest routing fits the capacities: random
    constant-cost design subsets (capacity 100) and grids whose capacities
    hold all three trips at once."""
    for seed in range(4):
        cs = random_candidate_set(seed, "constant")
        for mask in range(1 << len(cs.candidates)):
            subset = [i for i in range(len(cs.candidates)) if mask >> i & 1]
            yield Instance(cs.subset_network(subset), cs.trips)
    for seed in range(3):
        yield corner_grid(4, seed, lambda rng: (Constant(round(rng.uniform(1.0, 9.0), 3)),
                                                round(rng.uniform(7.5, 12.0), 3)))


def _start_master(instance):
    """simplex.solve_lp on the master over each trip's cheapest path alone,
    its capacity rows taken from ``dense_incidence``, plus its capacity
    prices and path costs. The path costs are the solver's: a dense product
    can round them differently."""
    space = _PathSpace(instance, 100)
    edge_costs = routing._constant_edge_costs(instance.network)
    space.price(edge_costs)
    path_costs = space.path_costs(edge_costs)
    cap_rows = np.flatnonzero(np.isfinite(space.capacities))
    a_eq = np.zeros((len(space.demands), len(space.paths)))
    a_eq[space.trip_of, np.arange(len(space.paths))] = 1.0
    lp = solve_lp(path_costs, a_eq, space.demands, dense_incidence(space).T[cap_rows],
                  space.capacities[cap_rows])
    return lp, np.maximum(0.0, -lp.duals_ub), path_costs


def test_mc_fitting_start_matches_its_master(monkeypatch):
    masters = []
    original = routing._restricted_master

    def spy(*args):
        masters.append(args)
        return original(*args)

    for instance in _fitting_starts():
        lp, prices, path_costs = _start_master(instance)
        assert not np.any(prices)
        monkeypatch.setattr(routing, "_restricted_master", spy)
        r = solve_mc(instance)
        monkeypatch.undo()
        assert masters == []  # the start fits: no master is built
        assert r.iterations == 0
        assert r.total_cost == float(path_costs @ np.maximum(lp.x, 0.0))  # bit for bit
        assert r.assignment.flows == tuple(lp.x.tolist())  # one path per trip, trip order
        assert r.duals.trip_potentials == tuple(lp.duals_eq.tolist())
        assert all(price == 0.0 for _, price in r.duals.edge_prices)
        assert r.certificate.satisfied
        assert verify_certificate(instance, r).satisfied


def test_mc_fitting_start_matches_highs():
    pytest.importorskip("scipy")
    for instance in _fitting_starts():
        highs = mc_highs_value(instance)
        assert abs(solve_mc(instance).total_cost - highs) <= 1e-9 * (1.0 + highs)


def test_mc_start_meeting_a_capacity_takes_the_shortcut():
    # the cheap route holds exactly the demand of 2
    instance = Instance(net_of([
        (0, 1, Constant(1.0), 2.0), (1, 3, Constant(1.0), 2.0),
        (0, 2, Constant(3.0), 10.0), (2, 3, Constant(3.0), 10.0),
    ]), (Trip(0, 3, 2.0),))
    r = solve_mc(instance)
    assert r.iterations == 0
    assert r.total_cost == 4.0
    assert r.assignment.path_flow_map() == {"0-1-3": 2.0}
    assert r.certificate.satisfied
    assert verify_certificate(instance, r).satisfied


def test_mc_start_over_a_capacity_runs_phase_one(monkeypatch):
    # the same instance with the cheap route's capacity lowered by 0.5
    instance = Instance(net_of([
        (0, 1, Constant(1.0), 1.5), (1, 3, Constant(1.0), 1.5),
        (0, 2, Constant(3.0), 10.0), (2, 3, Constant(3.0), 10.0),
    ]), (Trip(0, 3, 2.0),))
    masters = []
    original = routing._restricted_master

    def spy(space, cap_rows, path_costs):
        lp, prices = original(space, cap_rows, path_costs)
        masters.append(lp)
        return lp, prices

    monkeypatch.setattr(routing, "_restricted_master", spy)
    r = solve_mc(instance)
    # the start alone cannot carry the demand: its phase 1 pivots and
    # prices in the dear route, and the second master is feasible
    assert [lp.feasible for lp in masters] == [False, True]
    assert masters[0].iterations > 0
    assert r.iterations == sum(lp.iterations for lp in masters)
    assert r.total_cost == pytest.approx(1.5 * 2 + 0.5 * 6)
    assert r.certificate.satisfied


# -- all-or-nothing pricing -------------------------------------------------------


def priced_paths(instance, costs):
    """The path pricing picks for each trip under the edge costs ``costs``,
    keyed by edge pair: the paths of the all-or-nothing flows."""
    space = _PathSpace(instance, 10)
    rows = space.price(np.array([costs[pair] for pair in instance.network.edge_pairs]))
    return [space.paths[r] for r in rows]


def test_aon_counterexample_frozen_costs(counterexample_gs):
    instance = counterexample_gs.instance
    tree_pairs = {(1, 2), (2, 3), (3, 4)}
    frozen = {pair: 3.0 if pair in tree_pairs else 1.0 for pair in instance.network.edge_pairs}
    assert [p.key() for p in priced_paths(instance, frozen)] == ["1-9-10-11-12-4"]


def test_aon_single_path():
    instance = Instance(net_of([(0, 1, C1, 5.0), (1, 2, C1, 5.0)]), (Trip(0, 2, 3.0),))
    assert priced_paths(instance, {(0, 1): 1.0, (1, 2): 1.0}) == [Path(0, (0, 1, 2))]


def test_aon_tie_break_lexicographic():
    # two equal-cost routes; the smaller middle node wins
    instance = Instance(net_of([
        (0, 1, C1, 5.0), (1, 3, C1, 5.0),
        (0, 2, C1, 5.0), (2, 3, C1, 5.0),
    ]), (Trip(0, 3, 1.0),))
    costs = {pair: 1.0 for pair in instance.network.edge_pairs}
    assert priced_paths(instance, costs) == [Path(0, (0, 1, 3))]


def test_aon_unreachable():
    net = Network({0, 1, 2}, [Edge(0, 1, C1, 5.0)])
    with pytest.raises(Unreachable):
        priced_paths(Instance(net, (Trip(0, 2, 1.0),)), {(0, 1): 1.0})


def test_shortest_path_prefers_cheaper():
    net = net_of([(0, 1, C1, 5.0), (1, 3, C1, 5.0), (0, 2, C1, 5.0), (2, 3, C1, 5.0)])
    # node ids are their positions; edge ids follow the sorted pairs:
    # (0, 1), (0, 2), (1, 3), (2, 3)
    assert routing._cheapest_path(net, [5.0, 1.0, 5.0, 1.0], 0, 3) == ((0, 2, 3), [1, 3])


# node ids far apart and out of step with their positions; costs with
# exact ties, rounding near-ties (0.1 + 0.2 against 0.3), zero-cost cycles
# and closed edges
_SPARSE_IDS = (0, 1, 2, 7, 13, 1000)
_TIE_COSTS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.0, 2.0, math.inf)


@st.composite
def _priced_network(draw):
    """A network, edge costs by pair, a source and a sink, and whether the
    network was drawn acyclic: then each edge runs forward in a drawn
    order of the nodes, which can put the sink before other nodes (its
    out-edges lead to nodes that cannot reach it) and the source after it."""
    acyclic = draw(st.booleans())
    nodes = draw(st.lists(st.sampled_from(_SPARSE_IDS), min_size=3 if acyclic else 2,
                          max_size=6, unique=True))
    if acyclic:
        order = draw(st.permutations(nodes))
        forward = [(i, j) for k, i in enumerate(order) for j in order[k + 1:]]
        pairs = draw(st.lists(st.sampled_from(forward), unique=True,
                              min_size=len(nodes) - 1, max_size=len(forward)))
    else:
        pairs = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
                              .filter(lambda p: p[0] != p[1]), unique=True, max_size=20))
    costs = {pair: draw(st.sampled_from(_TIE_COSTS)) for pair in pairs}
    source, sink = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True))
    return Network(nodes, [Edge(i, j, C1) for i, j in pairs]), costs, source, sink, acyclic


def _fixed_case(costs, source, sink, acyclic):
    return net_of([(i, j, C1, math.inf) for i, j in costs]), costs, source, sink, acyclic


@settings(max_examples=300, deadline=None)
@given(_priced_network())
# 0.1 + 0.2 misses 0.3 in the last bit: the walk takes 0-7-1000 only
# because it compares within a tolerance
@example(_fixed_case({(0, 7): 0.1, (7, 1000): 0.2, (0, 1000): 0.3}, 0, 1000, True))
# the free cycle 0-7-0 is tight, so the walk enters 7, dead-ends there
# and hands over to the guarded walk
@example(_fixed_case({(0, 7): 0.0, (7, 0): 0.0, (0, 1000): 1.0}, 0, 1000, False))
# acyclic, with the sink's out-edge to a node that cannot reach it, a
# node no path reaches the sink from, and a closed edge
@example(_fixed_case({(0, 7): 0.5, (7, 13): 0.0, (13, 1000): 1.0, (0, 1): math.inf,
                      (1, 13): 0.0, (2, 7): 1.0}, 0, 13, True))
def test_id_search_matches_dict_search(case):
    # acyclic networks take the topological sweep, the others Dijkstra;
    # both against the dict-keyed Dijkstra of brute_force
    net, costs, source, sink, acyclic = case
    order = routing._reverse_topological_order(net)
    if acyclic:
        assert order is not None
    if order is not None:
        rank = {p: k for k, p in enumerate(order)}
        assert sorted(rank) == list(range(len(net.node_order)))
        assert all(rank[net.position(j)] < rank[net.position(i)] for i, j in net.edge_pairs)
    expected, expected_dist = dict_shortest_path(net, costs, source, sink)
    by_id = [costs[pair] for pair in net.edge_pairs]
    found = routing._cheapest_path(net, by_id, net.position(source), net.position(sink))
    if expected is None:
        assert found is None
    else:
        nodes, ids = found
        assert nodes == expected
        assert [net.edge_pairs[k] for k in ids] == list(zip(nodes, nodes[1:]))
    dist = routing._distances_to(net, by_id, net.position(sink))
    reached = {net.node_order[p]: d.hex() for p, d in enumerate(dist) if d != math.inf}
    assert reached == {v: d.hex() for v, d in expected_dist.items()}


def test_shortest_path_steps_around_zero_cost_cycles(monkeypatch):
    # 0 <-> 1 cost nothing at zero flow, so the tie walk could circle them
    free = Affine(0.0, 1.0)
    paid = Affine(1.0, 1.0)
    net = net_of([(0, 1, free, math.inf), (1, 0, free, math.inf),
                  (0, 2, paid, math.inf), (1, 2, paid, math.inf)])
    # edge ids: (0, 1), (0, 2), (1, 0), (1, 2)
    assert routing._reverse_topological_order(net) is None  # so pricing runs Dijkstra
    assert routing._cheapest_path(net, [0.0, 1.0, 0.0, 1.0], 0, 2) == ((0, 1, 2), [0, 3])
    # from 1 the only tight way on leads back to 0: the walk dead-ends and
    # hands the search to the guarded walk, once, instead of backing up
    dead_end = net_of([(0, 1, free, math.inf), (1, 0, free, math.inf),
                       (0, 2, paid, math.inf)])
    # edge ids: (0, 1), (0, 2), (1, 0)
    guarded = []
    walk = routing._guarded_walk
    monkeypatch.setattr(routing, "_guarded_walk",
                        lambda *args: guarded.append(args) or walk(*args))
    assert routing._cheapest_path(dead_end, [0.0, 1.0, 0.0], 0, 2) == ((0, 2), [1])
    assert len(guarded) == 1
    instance = Instance(net, (Trip(0, 2, 1.0),))
    costs = {(0, 1): 0.0, (1, 0): 0.0, (0, 2): 1.0, (1, 2): 1.0}
    assert priced_paths(instance, costs) == [Path(0, (0, 1, 2))]
    for solver in (solve_so, solve_ue):
        r = solver(instance)
        assert r.certificate.satisfied
        assert verify_certificate(instance, r).satisfied


@st.composite
def _tight_network(draw):
    """Up to 9 nodes with mostly free edges, so the tight edges hold
    cycles and dead ends, where the forward walk hands over to the guarded
    walk."""
    n = draw(st.integers(2, 9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), unique=True, max_size=30))
    costs = {pair: draw(st.sampled_from((0.0, 0.0, 0.0, 0.5, 1.0, math.inf)))
             for pair in pairs}
    source, sink = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return Network(range(n), [Edge(i, j, C1) for i, j in pairs]), costs, source, sink


@settings(max_examples=300, deadline=None)
@given(_tight_network())
def test_tie_walks_match_backing_up_walk(case):
    # the forward walk with its guarded fallback, and the guarded walk on
    # its own, against brute_force's unbounded backing-up walk
    net, costs, source, sink = case
    expected, _ = dict_shortest_path(net, costs, source, sink)
    by_id = [costs[pair] for pair in net.edge_pairs]
    s, t = net.position(source), net.position(sink)
    found = routing._cheapest_path(net, by_id, s, t)
    assert (found and found[0]) == expected
    if expected is not None:
        dist = routing._distances_to(net, by_id, t)
        assert routing._guarded_walk(net, by_id, dist, s, t) == found


def test_tie_walk_hands_a_dead_end_region_to_the_guarded_walk(monkeypatch):
    # at zero flow every edge is free and tight; from node 1 the walk
    # enters the grid (10 < 999), whose simple paths all end back at 1, and
    # the guarded walk, called once, steps past it without backing up
    from netdesign.network import build_grid_template

    grid = [(i + 10, j + 10) for i, j in build_grid_template(4, 4, C1).network.edge_pairs]
    pairs = [(0, 1), (1, 999), (1, 10), (10, 1)] + grid
    net = net_of([(i, j, C1, math.inf) for i, j in pairs])
    guarded = []
    walk = routing._guarded_walk
    monkeypatch.setattr(routing, "_guarded_walk",
                        lambda *args: guarded.append(args) or walk(*args))
    found = routing._cheapest_path(net, [0.0] * len(pairs), net.position(0), net.position(999))
    assert found == ((0, 1, 999), [net.edge_pairs.index(p) for p in ((0, 1), (1, 999))])
    assert len(guarded) == 1
    assert found[0] == dict_shortest_path(net, dict.fromkeys(pairs, 0.0), 0, 999)[0]


def test_pricing_rejects_negative_edge_costs():
    # the search checks every cost once, also those of edges it would not reach
    net = net_of([(0, 1, C1, math.inf), (1, 2, C1, math.inf), (3, 0, C1, math.inf)])
    # edge ids: (0, 1), (1, 2), (3, 0)
    for costs in ([1.0, -0.5, 1.0], [1.0, 1.0, -0.5]):
        with pytest.raises(ValueError, match="negative edge cost -0.5"):
            routing._cheapest_path(net, costs, 0, 2)


# -- certificates -----------------------------------------------------------------


def test_pigou_ue_certificate(pigou):
    r = solve_ue(pigou.instance)
    cert = verify_certificate(pigou.instance, r)
    assert cert.kind == "ue-wardrop"
    assert cert.satisfied
    assert cert.per_trip_spread[0] == pytest.approx(0.0, abs=1e-12)


def test_braess_ue_certificate_all_paths_92(braess_with):
    r = solve_ue(braess_with.instance)
    xe = r.assignment.edge_flow_map()
    for path in r.assignment.paths:
        cost = sum(
            braess_with.instance.network.edge(*pair).cost.a
            + braess_with.instance.network.edge(*pair).cost.b * xe[pair]
            for pair in path.edge_pairs)
        assert cost == pytest.approx(92.0, abs=1e-4)


def test_perturbed_assignment_reports_violation(braess_with):
    r = solve_ue(braess_with.instance)
    order = {p.key(): i for i, p in enumerate(r.assignment.paths)}
    flows = list(r.assignment.flows)
    flows[order["0-1-3"]] += 0.1
    flows[order["0-2-3"]] -= 0.1
    edge_flow = {pair: 0.0 for pair in braess_with.instance.network.edge_pairs}
    for p, f in zip(r.assignment.paths, flows):
        for pair in p.edge_pairs:
            edge_flow[pair] += f
    perturbed = dataclasses.replace(
        r,
        assignment=FlowAssignment(
            paths=r.assignment.paths,
            flows=tuple(flows),
            edge_flows=tuple(sorted(edge_flow.items())),
            trip_totals=r.assignment.trip_totals,
        ),
    )
    cert = verify_certificate(braess_with.instance, perturbed)
    assert not cert.satisfied
    assert cert.max_violation > 1e-3


@pytest.mark.parametrize("kind", ["so", "ue"])
def test_certificate_reports_an_unserved_trip(kind):
    # trip 1 loses its flow: a violation of its whole demand, not an error
    instance = shared_corridor()
    r = (solve_so if kind == "so" else solve_ue)(instance)
    flows = tuple(0.0 if p.trip_index == 1 else f
                  for p, f in zip(r.assignment.paths, r.assignment.flows))
    cert = verify_certificate(instance, dataclasses.replace(
        r, assignment=dataclasses.replace(r.assignment, flows=flows)))
    assert not cert.satisfied
    assert cert.max_violation == pytest.approx(8.0)
    assert cert.per_trip_spread[1] == 0.0


@pytest.mark.parametrize("nodes", [(0, 3), (0, 2, 1, 3), (0, 1, 0, 2, 3), (1, 3)])
def test_verify_certificate_rejects_paths_not_in_instance(braess_with, nodes):
    # (0, 3) and (0, 2, 1, 3) use missing edges, (0, 1, 0, 2, 3) repeats a
    # node and (1, 3) starts away from the trip's source
    r = solve_ue(braess_with.instance)
    foreign = Path(0, nodes)
    bad = dataclasses.replace(r, assignment=dataclasses.replace(
        r.assignment, paths=r.assignment.paths[:-1] + (foreign,)))
    for kind in ("ue", "so", "mc"):
        with pytest.raises(BadParams, match=foreign.key()):
            verify_certificate(braess_with.instance, bad, kind)


def test_verify_certificate_rejects_a_path_listed_twice(braess_with):
    # the second listing's flow would overwrite the first's, and the
    # certificate would judge flows that the result does not hold
    r = solve_so(braess_with.instance)
    twice = Path(0, (0, 1, 2, 3))
    assert twice in r.assignment.paths
    bad = dataclasses.replace(r, assignment=dataclasses.replace(
        r.assignment, paths=(twice,) + r.assignment.paths, flows=(5.0,) + r.assignment.flows))
    for kind in ("ue", "so", "mc"):
        with pytest.raises(BadParams, match=f"path {twice.key()} of trip 0 is listed twice"):
            verify_certificate(braess_with.instance, bad, kind)


def test_so_certificate_on_counterexample(counterexample_gs):
    r = solve_so(counterexample_gs.instance)
    cert = verify_certificate(counterexample_gs.instance, r)
    assert cert.kind == "so-marginal-equalized"
    assert cert.satisfied


# -- bridge and price of anarchy ---------------------------------------------------


def test_bridge_pigou(pigou):
    bridge = so_ue_bridge(pigou.instance)
    assert bridge.so_total == pytest.approx(0.75, abs=1e-9)
    assert bridge.marginal_ue_total == pytest.approx(0.75, abs=1e-6)
    assert bridge.difference <= 1e-6


def test_bridge_counterexample(counterexample_gs):
    bridge = so_ue_bridge(counterexample_gs.instance)
    assert bridge.difference <= 1e-4 * (1.0 + bridge.so_total)


def test_bridge_builds_each_level_form_once(monkeypatch):
    # a fresh scenario: its instance is cut from a template whose level
    # forms a shared fixture would keep from earlier tests
    scenario = materialize("counterexample", {"costing": "greenshields"})
    built = []
    level_forms = _EdgeCalculator._level_forms

    def counting(calc, level):
        built.append(level.sum())
        return level_forms(calc, level)

    monkeypatch.setattr(_EdgeCalculator, "_level_forms", counting)
    so_ue_bridge(scenario.instance)
    # one calculator per solve: so needs the so gradient and the travel
    # time; ue on the marginal costs needs its gradient and, for the
    # integral's x*c(x), the level-0 form, built once however many calls
    n = len(scenario.instance.network.edge_pairs)
    assert built == [n, 0, n, 0]


def test_tables_built_once_per_network(monkeypatch):
    # a network from the constructor keeps its tables: so and ue solve and
    # certify on one calculator, whose level forms later rounds reuse
    scenario = materialize("counterexample", {"costing": "greenshields"})
    net = scenario.instance.network
    instance = Instance(Network(net.nodes, net.edges), scenario.instance.trips)
    assert instance.network.template is None
    built = []
    forms = []
    init = _EdgeCalculator.__init__
    level_forms = _EdgeCalculator._level_forms

    def counting_init(calc, edges):
        built.append(len(edges))
        init(calc, edges)

    def counting_forms(calc, level):
        forms.append(level.sum())
        return level_forms(calc, level)

    monkeypatch.setattr(_EdgeCalculator, "__init__", counting_init)
    monkeypatch.setattr(_EdgeCalculator, "_level_forms", counting_forms)
    for _ in range(2):
        for solve in (solve_so, solve_ue):
            assert verify_certificate(instance, solve(instance)).satisfied
        assert built == [len(net.edge_pairs)]
        assert len(forms) == 2  # so's level and ue's

    # mc reads the edges once per constructed network: the plain one and
    # the template, whose calculator the cut network gathers from
    cs = materialize("counterexample", {"costing": "mc"}).candidate_set
    full = cs.subset_network(0b11)
    plain = Instance(Network(full.nodes, full.edges), cs.trips)
    cut = Instance(cs.subset_network(0b01), cs.trips)
    built.clear()
    for inst in (plain, plain, cut, cut):
        assert verify_certificate(inst, solve_mc(inst)).satisfied
    assert built == [len(full.edge_pairs), len(cs.template.network.edge_pairs)]
    for inst in (plain, cut):
        caps = _PathSpace(inst, 10).capacities
        assert caps is _PathSpace(inst, 10).capacities and not caps.flags.writeable
        assert caps.tolist() == [e.capacity for e in inst.network.edges]
        costs = routing._constant_edge_costs(inst.network)
        assert costs is routing._constant_edge_costs(inst.network)
        assert not costs.flags.writeable
        assert costs.tolist() == [e.cost.c for e in inst.network.edges]
    assert built == [len(full.edge_pairs), len(cs.template.network.edge_pairs)]


def test_constant_cut_of_a_mixed_template_routes_mc():
    # the template has no constant costs to gather; the cut has its own
    template = net_of([(0, 1, Constant(1.0), 5.0), (1, 2, Constant(2.0), 5.0),
                       (0, 2, Greenshields(1.0, 1.0, 5.0), 5.0)])
    trips = (Trip(0, 2, 1.0),)
    with pytest.raises(BadParams):
        solve_mc(Instance(template, trips))
    cut = template.restrict(0b111, 0b101)  # edges (0, 1) and (1, 2)
    assert routing._constant_edge_costs(cut).tolist() == [1.0, 2.0]
    assert solve_mc(Instance(cut, trips)).total_cost == 3.0


def test_cached_level_zero_forms_keep_the_integral_bits():
    models = [Marginalized(Greenshields(1.5, 1.0, 10.0)), Affine(2.0, 0.5),
              Marginalized(BPR(1.0, 5.0, 0.15, 4.0)), Constant(3.0)]
    calc = calculator_of(models)
    x = np.array([4.0, 1.5, 2.5, 7.0])
    fresh = calc._evaluate(x, calc._level_forms(np.zeros(4)), False)[0]
    for _ in range(2):
        out = calc.integral(x)
        assert out[[0, 2]].tolist() == (x * fresh)[[0, 2]].tolist()


def shared_corridor():
    """Two trips crossing through one congested middle corridor."""
    g = Greenshields(1.0, 1.0, 20.0)
    defs = [
        (0, 4, g, 20.0), (4, 5, g, 20.0), (5, 1, g, 20.0),   # trip 0 via corridor
        (0, 6, g, 20.0), (6, 1, g, 20.0),                     # trip 0 bypass
        (2, 4, g, 20.0), (5, 3, g, 20.0),                     # trip 1 via corridor
        (2, 7, g, 20.0), (7, 3, g, 20.0),                     # trip 1 bypass
    ]
    return Instance(net_of(defs), (Trip(0, 1, 6.0), Trip(2, 3, 8.0)))


def test_multi_trip_shared_congestion():
    instance = shared_corridor()
    for solver in (solve_so, solve_ue):
        r = solver(instance)
        assert_assignment_feasible(instance, r)
        cert = verify_certificate(instance, r)
        assert cert.satisfied, cert
        assert len(cert.per_trip_spread) == 2
    ue = solve_ue(instance)
    recomposed = sum(t.demand * c for t, c in zip(instance.trips, ue.per_trip_cost))
    assert ue.total_cost == pytest.approx(recomposed, rel=1e-8)
    bridge = so_ue_bridge(instance)
    assert bridge.difference <= 1e-4 * (1.0 + bridge.so_total)


def test_extreme_demand_scales():
    for demand in (1e-3, 1.0, 1e3):
        u = 4.0 * demand
        g = Greenshields(1.0, 1.0, u)
        defs = [
            (0, 1, g, u), (1, 3, g, u),
            (0, 2, g, u), (2, 3, g, u),
        ]
        instance = Instance(net_of(defs), (Trip(0, 3, demand),))
        r = solve_ue(instance)
        assert verify_certificate(instance, r).satisfied
        # symmetric routes split evenly
        flows = r.assignment.path_flow_map()
        assert flows["0-1-3"] == pytest.approx(demand / 2, rel=1e-9)


def test_bpr_instance_full_stack():
    from netdesign.costs import BPR

    half = BPR(1.5, 8.0, 0.6, 4.0)
    slow = BPR(3.0, 8.0, 0.3, 2.0)
    defs = [
        (0, 1, half, math.inf), (1, 3, half, math.inf),
        (0, 2, slow, math.inf), (2, 3, slow, math.inf),
    ]
    instance = Instance(net_of(defs), (Trip(0, 3, 6.0),))
    so = solve_so(instance)
    ue = solve_ue(instance)
    assert verify_certificate(instance, so).satisfied
    assert verify_certificate(instance, ue).satisfied
    assert so.total_cost <= ue.total_cost + 1e-9
    bridge = so_ue_bridge(instance)
    assert bridge.difference <= 1e-4 * (1.0 + bridge.so_total)


def test_constant_costs_collapse_to_mc():
    # ample capacity: mc, so and ue all route everything over the cheap path
    defs = [
        (0, 1, Constant(1.0), 50.0), (1, 3, Constant(1.0), 50.0),
        (0, 2, Constant(3.0), 50.0), (2, 3, Constant(3.0), 50.0),
    ]
    instance = Instance(net_of(defs), (Trip(0, 3, 2.0),))
    mc = solve_mc(instance)
    so = solve_so(instance)
    ue = solve_ue(instance)
    assert mc.total_cost == pytest.approx(4.0)
    assert so.total_cost == pytest.approx(4.0)
    assert ue.total_cost == pytest.approx(4.0)
    bridge = so_ue_bridge(instance)  # marginal costs degenerate to the costs
    assert bridge.marginal_ue_total == pytest.approx(mc.total_cost)


def test_price_of_anarchy_values(pigou, braess_with):
    assert price_of_anarchy(pigou.instance) == pytest.approx(4.0 / 3.0, abs=1e-6)
    assert price_of_anarchy(braess_with.instance) == pytest.approx(552.0 / 498.0, abs=1e-6)
    single = Instance(net_of([(0, 1, Greenshields(1.0, 1.0, 10.0), 10.0)]),
                      (Trip(0, 1, 5.0),))
    assert price_of_anarchy(single) == pytest.approx(1.0, abs=1e-9)


# -- equilibrium structure ----------------------------------------------------------


def test_ue_total_equals_demand_times_common_cost(counterexample_gs, braess_with):
    for scenario in (counterexample_gs, braess_with):
        r = solve_ue(scenario.instance)
        recomposed = sum(
            t.demand * c for t, c in zip(scenario.instance.trips, r.per_trip_cost))
        assert r.total_cost == pytest.approx(recomposed, rel=1e-8)


@pytest.mark.parametrize("kind", ["so", "ue"])
def test_incremental_start_matches_parallel_closed_form(kind, monkeypatch):
    # three identical routes of capacity 10 and a demand of 12: the flow
    # bounds make the solve start from incremental loading (all-or-nothing
    # would put 12 on one route), and it must still split the demand evenly
    n, l, v_max, u, d = 3, 1.0, 1.0, 10.0, 12.0
    half = Greenshields(l / 2.0, v_max, u)
    defs = [pair for i in range(n) for pair in ((0, 2 + i, half, u), (2 + i, 1, half, u))]
    instance = Instance(net_of(defs), (Trip(0, 1, d),))
    loads = spy_on_loading(monkeypatch)
    r = (solve_so if kind == "so" else solve_ue)(instance)
    assert len(loads) == 1
    assert r.total_cost == pytest.approx(parallel_uniform_value(kind, n, l, v_max, u, d),
                                         rel=1e-9)
    assert r.certificate.satisfied


def spy_on_loading(monkeypatch):
    """Records the result of every ``_incremental_load`` call."""
    loads = []
    original = routing._incremental_load

    def spy(*args):
        loads.append(original(*args))
        return loads[-1]

    monkeypatch.setattr(routing, "_incremental_load", spy)
    return loads


@pytest.mark.parametrize("kind", ["so", "ue"])
@pytest.mark.parametrize("model, loads", [
    (BPR(1.0, 10.0, 0.15, 4.0), 0),
    (Affine(1.0, 0.1), 0),
    (Constant(1.0), 0),
    (Greenshields(1.0, 1.0, 10.0), 1),
    (Marginalized(Greenshields(1.0, 1.0, 10.0)), 1),
])
def test_start_loads_only_on_flow_bounded_networks(kind, model, loads, monkeypatch):
    # two parallel routes under a demand of 2, far inside every flow bound,
    # so the all-or-nothing start is interior in every case
    defs = [(0, 1, model, 10.0), (0, 2, model, 10.0), (2, 1, model, 10.0)]
    instance = Instance(net_of(defs), (Trip(0, 1, 2.0),))
    calls = spy_on_loading(monkeypatch)
    r = (solve_so if kind == "so" else solve_ue)(instance)
    assert len(calls) == loads
    assert all(x is not None for x in calls)
    assert r.certificate.satisfied


def stuck_loading_instance():
    """Trip A (0 -> 1) has a direct edge of flow bound 2.1 and the route
    0 -> 2 -> 3 -> 1; trip B (4 -> 5) has only 4 -> 2 -> 3 -> 5. Both
    routes share (2, 3), also bounded at 2.1. A's later parts take (2, 3),
    so loading finds no open path for a part of B, while the all-or-nothing
    start (A direct, B through (2, 3)) is interior."""
    def gs(l, u):
        return Greenshields(l, 1.0, u)

    defs = [(0, 1, gs(1.0, 2.1), 2.1), (2, 3, gs(0.5, 2.1), 2.1),
            (0, 2, gs(0.5, 50.0), 50.0), (3, 1, gs(0.5, 50.0), 50.0),
            (4, 2, gs(0.1, 50.0), 50.0), (3, 5, gs(0.1, 50.0), 50.0)]
    return Instance(net_of(defs), (Trip(0, 1, 2.0), Trip(4, 5, 2.0)))


@pytest.mark.parametrize("kind, value", [("so", 61.54220107200153),
                                         ("ue", 62.80726850559891)])
def test_stuck_loading_falls_back_to_all_or_nothing(kind, value, monkeypatch):
    calls = spy_on_loading(monkeypatch)
    r = (solve_so if kind == "so" else solve_ue)(stuck_loading_instance())
    assert calls == [None]
    # the fallback solves from a fresh all-or-nothing start, as without
    # loading: the same value in the same steps
    assert r.total_cost == pytest.approx(value, rel=1e-12)
    assert r.iterations == 3
    assert r.certificate.satisfied


def test_loading_over_the_path_limit_falls_back_to_all_or_nothing(monkeypatch):
    # on this tight 3x3 grid loading needs a fifth path for a trip, while
    # the solve from the all-or-nothing start stays within four
    def draw(rng):
        u = round(rng.uniform(3.6, 6.0), 3)
        return Greenshields(round(rng.uniform(0.5, 2.0), 3), 1.0, u), u

    instance = corner_grid(3, 53, draw)
    calls = spy_on_loading(monkeypatch)
    r = solve_so(instance, SolverConfig(path_limit=4))
    assert calls == []  # loading raised PathLimitExceeded
    assert r.total_cost == pytest.approx(50.33075193094266, rel=1e-12)
    assert r.certificate.satisfied
    assert solve_so(instance).total_cost == pytest.approx(r.total_cost, rel=1e-9)
    assert len(calls) == 1


# demands whose equal parts do not add up exactly in binary
_ODD_DEMANDS = (0.1, 0.3, 0.7, 1.0 / 3.0, 2.0 / 7.0, 1.1, 2.2, 3.3)


@st.composite
def _loading_case(draw):
    """Trips over an n x n Greenshields grid, either both ways between
    neighbours or only rightwards and downwards (acyclic), with flow
    bounds from a fraction to a few times the total demand, so that parts
    of several trips share edges and some edges close."""
    n = draw(st.integers(2, 3))
    acyclic = draw(st.booleans())
    trips = []
    for _ in range(draw(st.integers(2, 3))):
        a, b = draw(st.lists(st.integers(0, n * n - 1), min_size=2, max_size=2, unique=True))
        if acyclic:  # the top left corner of the pair's box to the bottom right one
            (r1, r2), (c1, c2) = sorted((a // n, b // n)), sorted((a % n, b % n))
            a, b = r1 * n + c1, r2 * n + c2
        trips.append(Trip(a, b, draw(st.sampled_from(_ODD_DEMANDS))))
    total = sum(t.demand for t in trips)
    marginalized = draw(st.booleans())
    defs = []
    for a in range(n * n):
        for b in (a + 1 if (a + 1) % n else None, a + n if a + n < n * n else None):
            if b is None:
                continue
            for i, j in ((a, b),) if acyclic else ((a, b), (b, a)):
                u = total * draw(st.sampled_from((0.4, 0.7, 1.0, 2.5)))
                model = Greenshields(draw(st.sampled_from((0.5, 1.0, 1.7))), 1.0, u)
                defs.append((i, j, Marginalized(model) if marginalized else model, u))
    kind = draw(st.sampled_from(("so", "ue")))
    return Instance(net_of(defs), trips), kind


@settings(max_examples=200, deadline=None)
@given(_loading_case())
def test_incremental_load_matches_dense_reference(case):
    # the loading raises the edge flows part by part; the reference sums
    # them from all path flows after each part, in another order
    instance, kind = case
    calc = routing._calculator(instance.network)
    space, reference = _PathSpace(instance, 10_000), _PathSpace(instance, 10_000)
    x = routing._incremental_load(space, calc, kind)
    expected = dense_incremental_load(reference, calc, kind)
    assert space.paths == reference.paths
    if expected is None:
        assert x is None
    else:
        assert x.tobytes() == expected.tobytes()


def test_total_cost_matches_recomputation(counterexample_gs):
    r = solve_so(counterexample_gs.instance)
    recomputed = total_cost_under(
        counterexample_gs.instance.network, r.assignment.edge_flow_map())
    assert r.total_cost == pytest.approx(recomputed, rel=1e-10)


def greenshields_pair(l_b, u_b):
    """Route a, one Greenshields edge, and route b, a Greenshields edge plus
    a short constant one; a demand of 9.9 fills route a to 99 %."""
    defs = [(0, 1, Greenshields(1.0, 1.0, 10.0), 10.0),
            (0, 2, Greenshields(l_b, 1.0, u_b), u_b),
            (2, 1, Constant(0.001), 10.0)]
    return Instance(net_of(defs), (Trip(0, 1, 9.9),))


@pytest.mark.parametrize("kind", ["so", "ue"])
@pytest.mark.parametrize("case", ["counterexample", "pair-at-99-percent"])
def test_objective_never_rises(kind, case, counterexample_gs, braess_with, monkeypatch):
    # every iterate is priced, and the last objective value computed
    # before its pricing is the iterate's: a rejected trial step comes first
    if case == "counterexample" and kind == "ue":
        # the Greenshields counterexample's ue equilibrium is its loading
        # start (0 steps); Braess ue takes 2 from its all-or-nothing start
        instance = braess_with.instance
    elif case == "counterexample":
        instance = counterexample_gs.instance
    else:
        instance = greenshields_pair(0.02, 10.0)
    events = []
    objective, price = routing._objective, routing._PathSpace.price

    def objective_spy(*args):
        events.append(objective(*args))
        return events[-1]

    def price_spy(self, edge_costs):
        events.append(None)
        return price(self, edge_costs)

    monkeypatch.setattr(routing, "_objective", objective_spy)
    monkeypatch.setattr(routing._PathSpace, "price", price_spy)
    r = (solve_so if kind == "so" else solve_ue)(instance)
    values, last = [], None
    for e in events:
        if e is not None:
            last = e
        elif last is not None:
            values.append(last)
            last = None
    assert len(values) == r.iterations + 1
    assert r.iterations >= 2
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12 * abs(a)


def test_so_under_capacity_margin_stays_interior(counterexample_gs):
    r = solve_so(counterexample_gs.instance)
    for (pair, flow) in r.assignment.edge_flows:
        cap = counterexample_gs.instance.network.edge(*pair).capacity
        assert flow < cap


# -- edge derivatives and the line search ----------------------------------------------


_positive = st.floats(0.1, 10.0)

# The calculator runs every family's closed form on every edge, so no edge
# of another family may overflow, divide by zero or make a NaN there.
# Underflow stays allowed: flows near 1e-266 underflow in x**(beta+1).
_float_errors_raise = np.errstate(over="raise", invalid="raise", divide="raise")

_families = (
    st.builds(Constant, _positive),
    st.builds(Affine, st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.builds(Greenshields, _positive, _positive, _positive),
    st.builds(BPR, _positive, _positive, st.floats(0.0, 5.0), st.sampled_from([1.0, 2.0, 4.0])),
)
_cost_models = st.one_of(*_families)


@st.composite
def _edge_at_flow(draw, models=_cost_models):
    model = draw(models)
    if isinstance(model, Greenshields):
        x = model.u * draw(st.floats(0.0, 0.999))
    else:
        x = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
    return (Marginalized(model) if draw(st.booleans()) else model), x


@settings(max_examples=300, deadline=None)
@given(st.lists(_edge_at_flow(), min_size=1, max_size=8))
@_float_errors_raise
def test_edge_derivatives_match_scalar_closed_forms(edges):
    # ue differentiates the travel time, so the marginal cost; both against
    # the scalar forms of costs.py, bare and inside Marginalized
    calc = calculator_of([m for m, _ in edges])
    x = np.array([v for _, v in edges])
    expected = {
        "ue": [(evaluate(m, v), derivative(m, v)) for m, v in edges],
        "so": [(marginal(m, v), 2.0 * derivative(m, v) + v * second_derivative(m, v))
               for m, v in edges],
    }
    for kind, pairs in expected.items():
        grad, curv = calc.derivatives(x, kind)
        assert grad == pytest.approx([g for g, _ in pairs], rel=1e-9)
        assert curv == pytest.approx([k for _, k in pairs], rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.lists(_edge_at_flow(), min_size=1, max_size=10),
       st.lists(st.booleans(), min_size=10, max_size=10))
@example([(Constant(2.0), 1.0), (Affine(1.0, 0.5), 2.0), (Greenshields(1.0, 2.0, 4.0), 3.0),
          (BPR(1.0, 2.0, 0.15, 4.0), 1.5), (Marginalized(Greenshields(2.0, 1.0, 5.0)), 1.0),
          (Marginalized(BPR(1.0, 3.0, 0.5, 2.0)), 2.0), (Marginalized(Affine(0.5, 2.0)), 1.0),
          (Marginalized(Constant(3.0)), 4.0)],
         [False, True, True, False, True, True, False, True, False, False])
# a cut keeping two of a three-family template's families
@example([(Constant(2.0), 1.0), (Greenshields(1.0, 2.0, 4.0), 0.0), (BPR(1.0, 2.0, 0.15, 4.0), 1.5),
          (Marginalized(Greenshields(2.0, 1.0, 5.0)), 1.0), (Constant(1.0), 3.0)],
         [False, True, True, True, False] + [False] * 5)
@_float_errors_raise
def test_gathered_calculator_matches_a_fresh_one(edges, chosen):
    # a template's tables gathered by edge id give the bits of a calculator
    # built from the chosen edges' models alone
    template = calculator_of([m for m, _ in edges])
    ids = [k for k, keep in enumerate(chosen[:len(edges)]) if keep] or [len(edges) - 1]
    gathered = template.gather(ids)
    fresh = calculator_of([edges[k][0] for k in ids])
    x = np.array([edges[k][1] for k in ids])
    for kind in ("so", "ue"):
        for mine, theirs in zip(gathered.derivatives(x, kind), fresh.derivatives(x, kind)):
            assert mine.tobytes() == theirs.tobytes()
        assert gathered.gradient(x, kind).tobytes() == fresh.gradient(x, kind).tobytes()
    assert gathered.value(x).tobytes() == fresh.value(x).tobytes()
    assert gathered.integral(x).tobytes() == fresh.integral(x).tobytes()
    assert gathered.bound.tobytes() == fresh.bound.tobytes()
    assert gathered.capacities.tobytes() == fresh.capacities.tobytes()


def test_calculator_rejects_an_unsupported_cost_model():
    # a model outside the four families, bare or as the base of a
    # Marginalized, and a Marginalized inside another
    class Toll:
        pass

    for model in (Toll(), Marginalized(Toll()), Marginalized(Marginalized(Constant(1.0)))):
        with pytest.raises(TypeError, match="unsupported cost model"):
            calculator_of([Constant(1.0), model])


@st.composite
def _one_family_plus_another(draw):
    """Edges of one family, each bare or inside Marginalized, and one edge
    of another family."""
    k = draw(st.integers(0, len(_families) - 1))
    edges = draw(st.lists(_edge_at_flow(_families[k]), min_size=1, max_size=8))
    others = st.one_of(*(f for j, f in enumerate(_families) if j != k))
    return edges, draw(_edge_at_flow(others))


def _calculator_outputs(calc, x):
    out = [calc.value(x), calc.integral(x)]
    for kind in ("so", "ue"):
        out += [*calc.derivatives(x, kind), calc.gradient(x, kind)]
    return out


@settings(max_examples=200, deadline=None)
@given(_one_family_plus_another(), st.lists(st.booleans(), min_size=8, max_size=8))
@example(([(Marginalized(Greenshields(1.0, 2.0, 4.0)), 3.0), (Greenshields(2.0, 1.0, 5.0), 1.0)],
          (Constant(2.0), 1.0)), [True, False] * 4)
@example(([(BPR(1.0, 2.0, 0.15, 4.0), 1.5), (Marginalized(BPR(1.0, 3.0, 0.5, 2.0)), 0.0)],
          (Greenshields(1.0, 2.0, 4.0), 3.0)), [False, True] * 4)
@_float_errors_raise
def test_single_family_calculator_matches_the_pick(edges_and_other, chosen):
    # one family over every edge returns its closed forms' arrays; beside
    # an edge of another family both families run on every edge and each
    # edge's values are picked from its own family's, and both give the
    # same bits, also when gathered from a template
    edges, (other, x_other) = edges_and_other
    models = [m for m, _ in edges]
    n = len(models)
    x = np.array([v for _, v in edges])
    sole = calculator_of(models)
    mixed = calculator_of(models + [other])
    assert len(sole.families) == 1 and len(mixed.families) == 2
    for mine, general in zip(_calculator_outputs(sole, x),
                             _calculator_outputs(mixed, np.append(x, x_other))):
        assert mine.tobytes() == general[:n].tobytes()
    ids = [k for k, keep in enumerate(chosen[:n]) if keep] or [n - 1]
    fresh = _calculator_outputs(calculator_of([models[k] for k in ids]), x[ids])
    for gathered in (sole.gather(ids), mixed.gather(ids)):
        for mine, theirs in zip(_calculator_outputs(gathered, x[ids]), fresh):
            assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("kind", ["so", "ue"])
@pytest.mark.parametrize("l_b, u_b, full_step",
                         [(0.02, 10.0, False), (0.5, 10.0, False), (0.5, 1000.0, True)])
def test_line_search_brackets_the_slope_root(kind, l_b, u_b, full_step):
    # route a is the direct edge at 99% of its capacity; the step moves the
    # whole demand onto route b, whose Greenshields edge comes near its
    # capacity too, unless that is wide enough to take everything
    instance = greenshields_pair(l_b, u_b)
    space = _PathSpace(instance, 10)
    space.add(0, (0, 1))
    space.add(0, (0, 2, 1))
    x = np.array([9.9, 0.0])
    dvec = np.array([-9.9, 9.9])
    cost_of = evaluate if kind == "ue" else marginal

    def dphi(t):
        flows = {(0, 1): 9.9 * (1.0 - t), (0, 2): 9.9 * t, (2, 1): 9.9 * t}
        de = {(0, 1): -9.9, (0, 2): 9.9, (2, 1): 9.9}
        return sum(de[pair] * cost_of(instance.network.edge(*pair).cost, flows[pair])
                   for pair in de)

    calc = routing._calculator(instance.network)
    xe = space.edge_flows(x)
    t = _line_search(calc, xe, space.edge_flows(dvec), kind, 1.0, *calc.derivatives(xe, kind))
    if full_step:
        assert t == 1.0 and dphi(1.0) <= 0.0
    else:
        half = 0.5 * LINE_SEARCH_TOL
        assert 0.0 < t < 1.0
        assert dphi(t - half) <= 0.0 <= dphi(t + half)


# -- the Newton step against its whole-array reference ---------------------------------

# Two diamonds in series with shortcuts: 0 -> {1, 2} -> 3 -> {4, 5} -> 6. The
# paths 0-1-3-4-6, 0-2-3-5-6, 0-1-3-5-6 and 0-2-3-4-6 are linearly dependent.
_SERIES_PAIRS = ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6),
                 (1, 2), (4, 5), (0, 3))
_SERIES_TRIPS = ((0, 6), (0, 3), (3, 6), (1, 6), (0, 5))


def _newton_case(rng):
    """A path space on the series diamonds with flows, path and edge
    gradients, curvatures and capacity margins drawn from ``rng``: trips
    with unused cheapest paths, ties (zero-cost ones included), zero
    curvature, dependent paths and edges at their margin."""
    net = net_of([(i, j, C1, math.inf) for i, j in _SERIES_PAIRS])
    ends = rng.sample(_SERIES_TRIPS, rng.randint(1, 3))
    instance = Instance(net, tuple(Trip(s, t, rng.choice([1.0, 2.5, 3.0])) for s, t in ends))
    space = _PathSpace(instance, 100)
    per_trip = enumerate_trip_paths(net, instance.trips).per_trip
    for m, paths in enumerate(per_trip):
        for p in rng.sample(paths, rng.randint(1, len(paths))):
            space.add(m, p.nodes)
    n_edges = len(space.edge_pairs)
    x = np.zeros(len(space.paths))
    for m, rows in enumerate(space.groups):
        for r in rows:
            x[r] = rng.choice([0.0, 0.0, 1e-15, 0.5, space.demand_list[m] * rng.random()])
        x[rng.choice(rows)] = rng.choice([0.25, 1.0, space.demand_list[m],
                                          1e-14 * space.demand_list[m]])
    grad_e = np.array([rng.choice([0.0, 0.5, 1.0, 1.0, 2.0, 1.0 + rng.random()])
                       for _ in range(n_edges)])
    inc = dense_incidence(space)
    g = inc @ grad_e
    best = np.array([min(rows, key=lambda r: (g[r], r)) if rng.random() < 0.7
                     else rng.choice(rows) for rows in space.groups], dtype=np.intp)
    curvatures = rng.choice([(0.0,), (1.0, 5.0, 0.1 + rng.random()),
                             (0.0, 0.0, 1.0, 5.0, rng.random())])
    curv_e = np.array([rng.choice(curvatures) for _ in range(n_edges)])
    xe = inc.T @ x
    bounded = np.array([rng.random() < 0.5 for _ in range(n_edges)])
    margin = np.where(bounded, xe + np.array([rng.choice([0.0, 1e-3, 0.5, 10.0])
                                              for _ in range(n_edges)]), math.inf)
    return space, x, xe, g, curv_e, best, margin, bounded


def _assert_step_matches_reference(case):
    space, x, xe, g, curv_e, best, margin, bounded = case
    expected = dense_newton_step(space, x, xe, g, curv_e, best, margin, bounded.copy())
    limits = [(e, m) for e, m in enumerate(margin.tolist()) if bounded[e]]
    found = routing._newton_step(space, x, xe, g, curv_e, best, g[best], limits)
    if expected is None:
        assert found is None
        return None
    flat, x_sub, dx, de, t = found
    e_flat, e_dx, e_de, e_t = expected
    assert np.asarray(flat, dtype=np.intp).tobytes() == e_flat.tobytes()
    assert np.array(x_sub).tobytes() == x[e_flat].tobytes()
    assert np.array(dx).tobytes() == e_dx.tobytes()
    assert de.tobytes() == e_de.tobytes()
    assert np.float64(t).tobytes() == np.float64(e_t).tobytes()
    calc = routing._calculator(space.instance.network)
    moved = routing._take_step(space, calc, x, flat, x_sub, dx, t, "ue")[0]
    assert moved.tobytes() == dense_step_flows(space, x, e_flat, e_dx, e_t).tobytes()
    return found


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_newton_step_matches_dense_reference(rng):
    _assert_step_matches_reference(_newton_case(rng))


def test_newton_step_reference_cases_cover_every_branch(monkeypatch):
    # the cases above reach blocked paths, the least-squares fallback on
    # dependent paths with positive curvature, zero curvature, a binding
    # capacity margin, several trips, a flow that lands exactly on the
    # rounding-residue threshold, and steps that cannot be taken
    solves, fallbacks = [], []
    solve_kkt, lstsq = routing._solve_kkt, np.linalg.lstsq

    def counting_solve(*args):
        solves.append(1)
        return solve_kkt(*args)

    def counting_lstsq(*args, **kwargs):
        fallbacks.append(1)
        return lstsq(*args, **kwargs)

    seen = set()
    for seed in range(300):
        case = _newton_case(random.Random(seed))
        space, x, xe, g, curv_e, best, margin, bounded = case
        solves.clear()
        fallbacks.clear()
        monkeypatch.setattr(routing, "_solve_kkt", counting_solve)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        try:
            found = _assert_step_matches_reference(case)
        finally:
            monkeypatch.undo()
        if found is None:
            seen.add("no step")
            continue
        flat, x_sub, dx, de, t = found
        if len(solves) > 1:
            seen.add("blocked path")
        if (fallbacks and (curv_e > 0.0).all()
                and np.linalg.matrix_rank(dense_incidence(space)[flat]) < len(flat)):
            seen.add("dependent paths")
        if not curv_e.any():
            seen.add("zero curvature")
        if len(space.groups) > 1:
            seen.add("several trips")
        up = (de > 0.0) & bounded
        if up.any() and t == float(np.min((margin[up] - xe[up]) / de[up])) < 1.0:
            seen.add("capacity margin")
        demands = space.demands[[space.trip_of[r] for r in flat]]
        if (x[flat] + t * np.array(dx) == 1e-14 * demands).any():
            seen.add("residue at the threshold")
    assert seen == {"no step", "blocked path", "dependent paths", "zero curvature",
                    "several trips", "capacity margin", "residue at the threshold"}


@pytest.mark.parametrize("curvature, step_hex", [(5e-324, "0x0.0p+0"),
                                                (1e-310, "0x0.0049a22dc398bp-1022")])
def test_singular_newton_system_falls_back_quietly(curvature, step_hex, monkeypatch):
    # the diamond's routes share no edge, so a curvature that vanishes in
    # the Hessian leaves the KKT system singular and its LU step not
    # finite; least squares replaces it without a warning, with the step
    # bits the fallback gave when the edge flow change was formed first
    instance = Instance(net_of([(0, 1, C1, math.inf), (1, 3, C1, math.inf),
                                (0, 2, C1, math.inf), (2, 3, C1, math.inf)]),
                        (Trip(0, 3, 1.0),))
    space = _PathSpace(instance, 10)
    space.add(0, (0, 1, 3))
    space.add(0, (0, 2, 3))
    solved, fallbacks = [], []
    solve, lstsq = np.linalg.solve, np.linalg.lstsq

    def spy_solve(*args):
        solved.append(solve(*args))
        return solved[-1]

    def spy_lstsq(*args, **kwargs):
        fallbacks.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    monkeypatch.setattr(np.linalg, "lstsq", spy_lstsq)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat, x_sub, dx, de, t = routing._newton_direction(
            space, [1.0, 0.0], [2.0, 1.0], np.full(4, curvature), [0, 1])
    assert len(solved) == 1 and not np.isfinite(solved[0]).all()
    assert fallbacks == [1]
    assert (flat, x_sub, t) == ([0, 1], [1.0, 0.0], 1.0)
    assert [v.hex() for v in dx] == [step_hex] * 2
    assert [v.hex() for v in de.tolist()] == [step_hex] * 4


# -- the path space's edge-id lists ----------------------------------------------------


@st.composite
def _path_space_case(draw):
    """Paths of random trips on the series diamonds, added in a random
    order, path flows (zeros among them) for the first ``known`` rows, and
    edge values."""
    net = net_of([(i, j, C1, math.inf) for i, j in _SERIES_PAIRS])
    ends = draw(st.lists(st.sampled_from(_SERIES_TRIPS), min_size=1, max_size=3, unique=True))
    instance = Instance(net, tuple(Trip(s, t, 1.0) for s, t in ends))
    per_trip = enumerate_trip_paths(net, instance.trips).per_trip
    arrivals = draw(st.permutations([(m, p.nodes) for m, paths in enumerate(per_trip)
                                     for p in paths]))
    known = draw(st.integers(1, len(arrivals)))
    flow = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.sampled_from([0.1, 1.0 / 3.0, 1e-9]))
    x = np.array(draw(st.lists(flow, min_size=known, max_size=known)))
    values = np.array(draw(st.lists(st.floats(0.0, 1e3), min_size=len(net.edge_pairs),
                                    max_size=len(net.edge_pairs))))
    return instance, arrivals, known, x, values


@settings(max_examples=300, deadline=None)
@given(_path_space_case())
def test_edge_flows_are_row_order_sums_that_zero_rows_keep(case):
    # each edge's flow is its rows' flows added left to right in row order,
    # and rows of zero flow, appended or padded, change no bit
    instance, arrivals, known, x, _ = case
    space = _PathSpace(instance, 100)
    for m, nodes in arrivals[:known]:
        space.add(m, nodes)
    expected = [0.0] * len(space.edge_pairs)
    column = space.instance.network.edge_pairs.index
    for flow, path in zip(x.tolist(), space.paths):
        for pair in path.edge_pairs:
            expected[column(pair)] += flow
    xe = space.edge_flows(x)
    assert xe.tobytes() == np.array(expected).tobytes()
    for m, nodes in arrivals[known:]:
        space.add(m, nodes)
    assert space.edge_flows(space.pad(x)).tobytes() == xe.tobytes()
    assert space.edge_flows(x).tobytes() == xe.tobytes()


@settings(max_examples=200, deadline=None)
@given(_path_space_case())
def test_path_costs_and_incidence_rows_keep_their_bits_as_rows_arrive(case):
    # a row's cost is its edges' values added left to right along the
    # path, and neither it nor its dense incidence row moves when other
    # rows arrive
    instance, arrivals, known, _, values = case
    space = _PathSpace(instance, 100)
    for m, nodes in arrivals[:known]:
        space.add(m, nodes)
    costs = space.path_costs(values)
    column = space.instance.network.edge_pairs.index
    expected = [sum(values[column(pair)] for pair in path.edge_pairs) for path in space.paths]
    assert costs.tobytes() == np.array(expected).tobytes()
    rows = list(range(0, known, 2))
    first = space.incidence(rows)
    assert first.tobytes() == dense_incidence(space)[rows].tobytes()
    for m, nodes in arrivals[known:]:
        space.add(m, nodes)
    assert space.path_costs(values)[:known].tobytes() == costs.tobytes()
    assert space.incidence(rows).tobytes() == first.tobytes()
    every = list(range(len(space.paths)))
    assert space.incidence(every).tobytes() == dense_incidence(space).tobytes()


# -- failure modes --------------------------------------------------------------------


def bpr_grid(n, seed):
    """An n x n grid of BPR edges with three corner-to-corner trips."""
    return corner_grid(n, seed, lambda rng: (
        BPR(round(rng.uniform(1.0, 3.0), 3), round(rng.uniform(2.0, 6.0), 3), 0.15, 4.0),
        math.inf))


@pytest.mark.parametrize("n", [6, 8])
def test_grids_beyond_enumeration(n):
    # a 6x6 grid already has 1,262,816 corner-to-corner simple paths per trip
    instance = bpr_grid(n, n)
    if n == 6:
        with pytest.raises(PathLimitExceeded):
            enumerate_trip_paths(instance.network, instance.trips)
    for solver in (solve_so, solve_ue):
        r = solver(instance)
        assert r.relative_gap <= 1e-8
        assert r.certificate.satisfied
        assert verify_certificate(instance, r).satisfied
        assert_assignment_feasible(instance, r)


# Run in a fresh interpreter: imports netdesign before numpy, solves
# bpr_grid(10, 10) at 10x demand under so and ue, and prints float.hex of
# each λ and of its edge flows.
_THREADED_SOLVE = """
import netdesign
from netdesign.network import Trip
from netdesign.routing import Instance, solve_so, solve_ue
from test_routing import bpr_grid
grid = bpr_grid(10, 10)
instance = Instance(grid.network, tuple(Trip(t.source, t.sink, 10 * t.demand) for t in grid.trips))
for solver in (solve_so, solve_ue):
    r = solver(instance)
    print(r.total_cost.hex(), *(f.hex() for _, f in r.assignment.edge_flows))
"""


def test_lambda_does_not_depend_on_blas_threads():
    # the package pins BLAS to one thread unless the caller set a count, so
    # leaving the variables unset gives the bits of one thread
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(routing.__file__)))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in blas}
    base["PYTHONPATH"] = os.pathsep.join([src, here])
    outputs = []
    for pinned in (True, False):
        env = dict(base, **{k: "1" for k in blas}) if pinned else base
        done = subprocess.run([sys.executable, "-c", _THREADED_SOLVE], env=env, cwd=here,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_wardrop_against_every_simple_path():
    # independent of the solver's pricing: networkx lists every path and
    # the scalar cost closed forms price them
    nx = pytest.importorskip("networkx")
    instance = bpr_grid(4, 1)
    net = instance.network
    graph = nx.DiGraph(list(net.edge_pairs))
    for solver, cost_of in ((solve_ue, evaluate), (solve_so, marginal)):
        r = solver(instance)
        xe = r.assignment.edge_flow_map()
        for m, trip in enumerate(instance.trips):

            def price(nodes):
                return sum(cost_of(net.edge(i, j).cost, xe[(i, j)])
                           for i, j in zip(nodes, nodes[1:]))

            shortest = min(price(p) for p in nx.all_simple_paths(graph, trip.source, trip.sink))
            used = [p for p, f in zip(r.assignment.paths, r.assignment.flows)
                    if p.trip_index == m and f > 1e-6 * trip.demand]
            assert used
            for p in used:
                assert price(p.nodes) <= shortest + 1e-6 * (1.0 + shortest)


def test_not_converged():
    scenario_cfg = SolverConfig(max_iterations=1, relative_gap_tol=1e-12)
    defs = [
        (0, 1, Greenshields(1.0, 1.0, 10.0), 10.0), (1, 3, Greenshields(1.0, 1.0, 10.0), 10.0),
        (0, 2, Greenshields(2.0, 1.0, 10.0), 10.0), (2, 3, Greenshields(2.0, 1.0, 10.0), 10.0),
    ]
    instance = Instance(net_of(defs), (Trip(0, 3, 5.0),))
    with pytest.raises(NotConverged):
        solve_so(instance, scenario_cfg)


@pytest.mark.parametrize("solve", [solve_so, solve_ue])
def test_stalled_solve_ends_at_once(pigou, solve):
    # at demand 1e20 the flow absorbs each step's shift of 0.5, which is
    # then zeroed as a residue: the cut-back step moves no path flow, and
    # every later step would repeat it until the iteration budget ran out
    instance = Instance(pigou.instance.network, (Trip(0, 3, 1e20),))
    with pytest.raises(NotConverged) as info:
        solve(instance, SolverConfig(max_iterations=1000))
    assert info.value.iterations <= 2


def test_capacity_saturation():
    defs = [(0, 1, Greenshields(1.0, 1.0, 1.0), 1.0), (1, 2, Greenshields(1.0, 1.0, 1.0), 1.0)]
    instance = Instance(net_of(defs), (Trip(0, 2, 2.0),))
    with pytest.raises(CapacitySaturation):
        solve_ue(instance)


def test_path_limit_propagates():
    from netdesign.network import build_grid_template

    net = build_grid_template(3, 3, Greenshields(1.0, 1.0, 100.0), 100.0).network
    instance = Instance(net, (Trip(0, 8, 1.0),))
    with pytest.raises(PathLimitExceeded):
        solve_ue(instance, SolverConfig(path_limit=3))


def test_ue_unreachable():
    net = Network({0, 1, 2}, [Edge(0, 1, Greenshields(1.0, 1.0, 10.0), 10.0)])
    with pytest.raises(Unreachable):
        solve_ue(Instance(net, (Trip(0, 2, 1.0),)))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(relative_gap_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(path_limit=-5)
    # both caps are counts: a fractional step cap is never met by the step
    # count, so it would be no cap at all
    for name in ("max_iterations", "path_limit"):
        for value in (1.5, 2.0, True, "3", None):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
    # an infinite gap target stops every solve at its start point, and a
    # margin of 1 or more puts the step limit below the current flows
    for gap in (math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(relative_gap_tol=gap)
    for margin in (1.0, 5.0, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(capacity_margin=margin)
    SolverConfig(capacity_margin=0.5)


def test_instance_validates_endpoints():
    net = net_of([(0, 1, C1, 5.0)])
    with pytest.raises(ValueError):
        Instance(net, (Trip(0, 9, 1.0),))
    with pytest.raises(ValueError, match="at least one trip"):
        Instance(net, ())
