import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
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
from netdesign.routing import (
    FlowAssignment,
    Instance,
    SolverConfig,
    all_or_nothing,
    price_of_anarchy,
    shortest_path_nodes,
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
from brute_force import assert_assignment_feasible, mc_grid_oracle

C1 = Constant(1.0)


def net_of(defs):
    nodes = {n for i, j, *_ in defs for n in (i, j)}
    return Network(nodes, [Edge(i, j, cost, cap) for i, j, cost, cap in defs])


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


def test_mc_capacity_forces_split():
    # cheap route capped below demand; remainder takes the expensive one
    instance = Instance(net_of([
        (0, 1, Constant(1.0), 1.0), (1, 3, Constant(1.0), 1.0),
        (0, 2, Constant(3.0), 10.0), (2, 3, Constant(3.0), 10.0),
    ]), (Trip(0, 3, 2.0),))
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


# -- all-or-nothing --------------------------------------------------------------


def test_aon_counterexample_frozen_costs(counterexample_gs):
    instance = counterexample_gs.instance
    frozen = {}
    tree_pairs = {(1, 2), (2, 3), (3, 4)}
    for pair in instance.network.edge_pairs:
        frozen[pair] = 3.0 if pair in tree_pairs else 1.0
    aon = all_or_nothing(instance, frozen)
    assert aon.paths[0].key() == "1-9-10-11-12-4"
    assert aon.flows[0] == 5.0


def test_aon_single_path():
    instance = Instance(net_of([(0, 1, C1, 5.0), (1, 2, C1, 5.0)]), (Trip(0, 2, 3.0),))
    aon = all_or_nothing(instance, {(0, 1): 1.0, (1, 2): 1.0})
    assert aon.paths[0].nodes == (0, 1, 2)
    assert aon.trip_totals == (3.0,)


def test_aon_tie_break_lexicographic():
    # two equal-cost routes; the smaller middle node wins
    instance = Instance(net_of([
        (0, 1, C1, 5.0), (1, 3, C1, 5.0),
        (0, 2, C1, 5.0), (2, 3, C1, 5.0),
    ]), (Trip(0, 3, 1.0),))
    costs = {pair: 1.0 for pair in instance.network.edge_pairs}
    aon = all_or_nothing(instance, costs)
    assert aon.paths[0].nodes == (0, 1, 3)


def test_aon_unreachable():
    net = Network({0, 1, 2}, [Edge(0, 1, C1, 5.0)])
    with pytest.raises(Unreachable):
        all_or_nothing(Instance(net, (Trip(0, 2, 1.0),)), {(0, 1): 1.0})


def test_shortest_path_prefers_cheaper():
    net = net_of([(0, 1, C1, 5.0), (1, 3, C1, 5.0), (0, 2, C1, 5.0), (2, 3, C1, 5.0)])
    nodes = shortest_path_nodes(net, {(0, 1): 5.0, (1, 3): 5.0,
                                      (0, 2): 1.0, (2, 3): 1.0}, 0, 3)
    assert nodes == (0, 2, 3)


def test_shortest_path_steps_around_zero_cost_cycles():
    # 0 <-> 1 cost nothing at zero flow, so the tie walk could circle them
    free = Affine(0.0, 1.0)
    paid = Affine(1.0, 1.0)
    net = net_of([(0, 1, free, math.inf), (1, 0, free, math.inf),
                  (0, 2, paid, math.inf), (1, 2, paid, math.inf)])
    costs = {(0, 1): 0.0, (1, 0): 0.0, (0, 2): 1.0, (1, 2): 1.0}
    assert shortest_path_nodes(net, costs, 0, 2) == (0, 1, 2)
    # from 1 the only tight way on leads back to 0: the walk backs up
    dead_end = net_of([(0, 1, free, math.inf), (1, 0, free, math.inf),
                       (0, 2, paid, math.inf)])
    assert shortest_path_nodes(dead_end, {(0, 1): 0.0, (1, 0): 0.0, (0, 2): 1.0},
                               0, 2) == (0, 2)
    instance = Instance(net, (Trip(0, 2, 1.0),))
    assert all_or_nothing(instance, costs).paths[0].nodes == (0, 1, 2)
    for solver in (solve_so, solve_ue):
        r = solver(instance)
        assert r.certificate.satisfied
        assert verify_certificate(instance, r).satisfied


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


def test_multi_trip_shared_congestion():
    # two trips crossing through one congested middle corridor
    g = Greenshields(1.0, 1.0, 20.0)
    defs = [
        (0, 4, g, 20.0), (4, 5, g, 20.0), (5, 1, g, 20.0),   # trip 0 via corridor
        (0, 6, g, 20.0), (6, 1, g, 20.0),                     # trip 0 bypass
        (2, 4, g, 20.0), (5, 3, g, 20.0),                     # trip 1 via corridor
        (2, 7, g, 20.0), (7, 3, g, 20.0),                     # trip 1 bypass
    ]
    instance = Instance(net_of(defs), (Trip(0, 1, 6.0), Trip(2, 3, 8.0)))
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
    # three identical routes of capacity 10 and a demand of 12: the
    # all-or-nothing start would put 12 on one route, so the solve starts
    # from incremental loading and must still split the demand evenly
    n, l, v_max, u, d = 3, 1.0, 1.0, 10.0, 12.0
    half = Greenshields(l / 2.0, v_max, u)
    defs = [pair for i in range(n) for pair in ((0, 2 + i, half, u), (2 + i, 1, half, u))]
    instance = Instance(net_of(defs), (Trip(0, 1, d),))
    loads = []
    original = routing._incremental_load

    def spy(*args):
        loads.append(args)
        return original(*args)

    monkeypatch.setattr(routing, "_incremental_load", spy)
    r = (solve_so if kind == "so" else solve_ue)(instance)
    assert len(loads) == 1
    assert r.total_cost == pytest.approx(parallel_uniform_value(kind, n, l, v_max, u, d),
                                         rel=1e-9)
    assert r.certificate.satisfied


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
def test_objective_never_rises(kind, case, counterexample_gs, monkeypatch):
    # every iterate is priced, and the last objective value computed
    # before its pricing is the iterate's: a rejected trial step comes first
    if case == "counterexample":
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
_cost_models = st.one_of(
    st.builds(Constant, _positive),
    st.builds(Affine, st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    st.builds(Greenshields, _positive, _positive, _positive),
    st.builds(BPR, _positive, _positive, st.floats(0.0, 5.0), st.sampled_from([1.0, 2.0, 4.0])),
)


@st.composite
def _edge_at_flow(draw):
    model = draw(_cost_models)
    if isinstance(model, Greenshields):
        x = model.u * draw(st.floats(0.0, 0.999))
    else:
        x = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
    return (Marginalized(model) if draw(st.booleans()) else model), x


@settings(max_examples=300, deadline=None)
@given(st.lists(_edge_at_flow(), min_size=1, max_size=8))
def test_edge_derivatives_match_scalar_closed_forms(edges):
    # ue differentiates the travel time, so the marginal cost; both against
    # the scalar forms of costs.py, bare and inside Marginalized
    calc = _EdgeCalculator([m for m, _ in edges])
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

    calc = _EdgeCalculator(space.models)
    xe = space.edge_flows(x)
    t = _line_search(calc, xe, space.edge_flows(dvec), kind, 1.0, *calc.derivatives(xe, kind))
    if full_step:
        assert t == 1.0 and dphi(1.0) <= 0.0
    else:
        half = 0.5 * LINE_SEARCH_TOL
        assert 0.0 < t < 1.0
        assert dphi(t - half) <= 0.0 <= dphi(t + half)


# -- failure modes --------------------------------------------------------------------


def bpr_grid(n, seed):
    """An n x n grid of BPR edges with three corner-to-corner trips."""
    rng = random.Random(seed)
    defs = []
    for a in range(n * n):
        for b in (a + 1 if (a + 1) % n else None, a + n if a + n < n * n else None):
            if b is not None:
                for i, j in ((a, b), (b, a)):
                    cost = BPR(round(rng.uniform(1.0, 3.0), 3), round(rng.uniform(2.0, 6.0), 3),
                               0.15, 4.0)
                    defs.append((i, j, cost, math.inf))
    last = n * n - 1
    trips = (Trip(0, last, 3.0), Trip(n - 1, last - (n - 1), 2.5), Trip(last, 0, 2.0))
    return Instance(net_of(defs), trips)


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


def test_instance_validates_endpoints():
    net = net_of([(0, 1, C1, 5.0)])
    with pytest.raises(ValueError):
        Instance(net, (Trip(0, 9, 1.0),))
