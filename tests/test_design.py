import dataclasses
import json
import math
import os
import random
import time
from fractions import Fraction

import pytest
from brute_force import lattice_witnesses, pairwise_overlaps

from netdesign import design
from netdesign.costs import Affine, Constant, Greenshields, Marginalized
from netdesign.design import (
    DOUBLE_PRIME,
    HOLDS,
    PRIME,
    VIOLATED,
    CandidateSet,
    DesignState,
    LambdaEvaluation,
    LambdaEvaluator,
    bitmask_subset,
    candidate_set_from_json,
    candidate_set_from_pairs,
    candidate_set_to_json,
    check_monotonicity,
    check_restriction,
    check_supermodularity,
    greedy_designer,
    lambda_eval,
    parallel_mc_value,
    parallel_uniform_value,
    subset_bitmask,
)
from netdesign.errors import BadParams, DomainError, FormatError
from netdesign.network import Edge, Network, Trip, graph_union
from netdesign.routing import (
    CERTIFICATE_RTOL,
    Instance,
    _EdgeCalculator,
    edge_classes,
    solve_mc,
    solve_so,
    solve_ue,
    verify_certificate,
)
from netdesign.scenarios import materialize, random_candidate_set, random_parallel_family


def parallel_mc_set(spanning_cost, candidate_costs, demand, capacity=10.0):
    """Single-trip parallel candidate set with constant path costs."""
    route_costs = [spanning_cost] + list(candidate_costs)
    routes = [((0, 2 + i), (2 + i, 1)) for i in range(len(route_costs))]
    template = Network(range(2 + len(routes)), [
        Edge(i, j, Constant(cost / 2.0), capacity)
        for route, cost in zip(routes, route_costs) for i, j in route])
    return candidate_set_from_pairs(template, (Trip(0, 1, demand),), routes[0],
                                    [(0, route) for route in routes[1:]], DOUBLE_PRIME)


def crossing_set(routing, ids=tuple(range(8))):
    """Trip 0 -> 3 with demand 3 over a tree 0-1-3 and three candidates:
    0-4-5-3, 0-6-4-7-3 and 0-4-7-3. Candidate 2's edges lie in candidates
    0 and 1, so subsets {0, 1} and {0, 1, 2} have one union graph; the
    other six subsets have six more. Costs are constant for mc, with
    capacity 2 off the tree, and affine for so and ue. Node k is given
    the id ``ids[k]``."""
    trip = Trip(ids[0], ids[3], 3.0)
    times = {(0, 1): 5.0, (1, 3): 5.0, (0, 4): 1.0, (4, 5): 2.0, (5, 3): 2.0,
             (0, 6): 1.0, (6, 4): 1.0, (4, 7): 1.5, (7, 3): 1.0}
    if routing == "mc":
        edges = [Edge(ids[i], ids[j], Constant(t), 3.0 if (i, j) in ((0, 1), (1, 3)) else 2.0)
                 for (i, j), t in times.items()]
    else:
        edges = [Edge(ids[i], ids[j], Affine(t, 0.5 * t)) for (i, j), t in times.items()]

    def pairs(nodes):
        return [(ids[i], ids[j]) for i, j in zip(nodes, nodes[1:])]

    return candidate_set_from_pairs(
        Network(ids, edges), (trip,), pairs((0, 1, 3)),
        [(0, pairs(nodes)) for nodes in [(0, 4, 5, 3), (0, 6, 4, 7, 3), (0, 4, 7, 3)]])


def union_of(cs, subset):
    """The union graph of ``subset`` built by ``graph_union``, the reference
    for the networks the design layer cuts from the template."""
    return graph_union(cs.spanning_tree.network, [cs.candidates[i].network for i in subset])


def cold_values(routing, cs, masks):
    """Each mask's evaluation, solved on its ``graph_union`` network."""
    return tuple(lambda_eval(routing, DesignState(cs, bitmask_subset(m),
                                                  union_of(cs, bitmask_subset(m))))
                 for m in masks)


# -- objective values --------------------------------------------------------------


def test_lambda_mc_ladder(counterexample_mc):
    cs = counterexample_mc.candidate_set
    expected = {(): 9.0, (0,): 9.0, (1,): 7.0, (0, 1): 5.0}
    for subset, value in expected.items():
        ev = lambda_eval("mc", DesignState.create(cs, subset))
        assert ev.value == pytest.approx(value, abs=1e-9)


def test_lambda_so_ue_ladder(counterexample_gs):
    cs = counterexample_gs.candidate_set
    evaluator = LambdaEvaluator(cs)
    so = [evaluator.value("so", s).value for s in [(), (0,), (1,), (0, 1)]]
    ue = [evaluator.value("ue", s).value for s in [(), (0,), (1,), (0, 1)]]
    for got, target in zip(so, (30.0, 29.28, 27.47, 24.97)):
        assert got == pytest.approx(target, abs=0.01)
    for got, target in zip(ue, (30.0, 30.0, 30.0, 26.66)):
        assert got == pytest.approx(target, abs=0.01)


def test_lambda_eval_deterministic(counterexample_gs):
    cs = counterexample_gs.candidate_set
    a = lambda_eval("so", DesignState.create(cs, (0, 1)))
    b = lambda_eval("so", DesignState.create(cs, (0, 1)))
    assert a == b  # bit-identical dataclasses


def test_evaluator_caches(counterexample_mc):
    evaluator = LambdaEvaluator(counterexample_mc.candidate_set)
    first = evaluator.value("mc", (0,))
    again = evaluator.value("mc", (0,))
    assert first is again


@pytest.mark.parametrize("routing", ["mc", "so", "ue"])
def test_equal_union_graphs_share_one_solve(routing, monkeypatch):
    cs = crossing_set(routing)
    masks = range(1 << len(cs.candidates))
    graphs = {union_of(cs, bitmask_subset(m)) for m in masks}
    assert len(graphs) == 7
    cold = cold_values(routing, cs, masks)
    solved = []

    def counting(*args):
        solved.append(args[1].chosen)
        return lambda_eval(*args)

    monkeypatch.setattr(design, "lambda_eval", counting)
    evaluator = LambdaEvaluator(cs)
    evaluator.ensure(routing, masks)
    assert len(solved) == len(graphs)
    assert (evaluator.misses, evaluator.hits) == (7, 1)
    assert tuple(evaluator.value(routing, bitmask_subset(m)) for m in masks) == cold
    assert (evaluator.misses, evaluator.hits) == (7, 9)

    solved.clear()
    assert check_supermodularity(routing, cs).evaluations == cold
    assert len(solved) == len(graphs)
    solved.clear()
    assert greedy_designer(routing, cs, budget=3).evaluations == cold
    assert len(solved) == len(graphs)


@pytest.mark.parametrize("routing", ["mc", "so", "ue"])
def test_union_graphs_keyed_on_sparse_node_ids(routing, monkeypatch):
    # ids far apart and out of node order: the union-graph key is built
    # from template positions and edge ids, and a network only per solve,
    # cut from the template
    cs = crossing_set(routing, ids=(1000, 7, 0, 42, 3, 999, 12, 500))
    masks = range(1 << len(cs.candidates))
    graphs = {union_of(cs, bitmask_subset(m)) for m in masks}
    assert len(graphs) == 7
    cold = cold_values(routing, cs, masks)
    built = []
    restrict = Network.restrict

    def counting(template, node_positions, edge_ids):
        built.append(restrict(template, node_positions, edge_ids))
        return built[-1]

    monkeypatch.setattr(Network, "restrict", counting)
    evaluator = LambdaEvaluator(cs)
    evaluator.ensure(routing, masks)
    assert len(built) == evaluator.misses == len(graphs)
    assert set(built) == graphs
    assert evaluator.evaluations(routing) == cold
    assert evaluator.values(routing) == {ev.bitmask: ev.value for ev in cold}


def assert_one_solve_per_shape(routing, cs, shapes, monkeypatch):
    # every subset of the ground set, through one evaluator and through the
    # exhaustive supermodularity check: one solve per shape, and each
    # evaluation a cold solve of the subset's own cut, bit for bit (repr
    # spells every float exactly)
    masks = range(1 << len(cs.candidates))
    cold = [lambda_eval(routing, DesignState.create(cs, bitmask_subset(m))) for m in masks]
    solved = []

    def counting(*args):
        solved.append(args[1].chosen)
        return lambda_eval(*args)

    monkeypatch.setattr(design, "lambda_eval", counting)
    evaluator = LambdaEvaluator(cs)
    evaluator.ensure(routing, masks)
    assert (evaluator.misses, evaluator.hits) == (shapes, len(masks) - shapes)
    assert len(solved) == shapes
    assert list(map(repr, evaluator.evaluations(routing))) == list(map(repr, cold))
    solved.clear()
    report = check_supermodularity(routing, cs)
    assert len(solved) == shapes
    assert list(map(repr, report.evaluations)) == list(map(repr, cold))


@pytest.mark.parametrize("routing", ["so", "ue"])
@pytest.mark.parametrize("k", [1, 2, 5, 8])
def test_identical_parallel_routes_solve_once_per_size(routing, k, monkeypatch):
    # k identical routes, one of them the tree: a subset's union graph is
    # fixed up to an order-preserving relabelling by its size
    cs = materialize("parallel", {"n": k}).candidate_set
    assert_one_solve_per_shape(routing, cs, k, monkeypatch)


def test_identical_constant_parallel_routes_solve_once_per_size(monkeypatch):
    cs = parallel_mc_set(3.0, [3.0] * 4, 1.0)
    assert_one_solve_per_shape("mc", cs, 5, monkeypatch)


def two_route_set(models, capacities=(math.inf, math.inf), mirror=False):
    """Trip 0 -> 5 on the edge 0-5 and two candidates of two edges each,
    0-1-5 and 0-2-5, the first with cost ``models[0]`` and capacity
    ``capacities[0]`` on both edges, the second with the others. With
    ``mirror`` the candidates are three edges long, 0-1-2-5 and 0-4-3-5:
    their unions with the tree are isomorphic, but only through a map that
    swaps the order of the inner nodes."""
    routes = ([(0, 1, 2, 5), (0, 4, 3, 5)] if mirror else [(0, 1, 5), (0, 2, 5)])
    edges = [Edge(0, 5, Constant(9.0), 10.0)]
    for nodes, model, capacity in zip(routes, models, capacities):
        edges += [Edge(i, j, model, capacity) for i, j in zip(nodes, nodes[1:])]
    template = Network({v for e in edges for v in e.pair}, edges)
    return candidate_set_from_pairs(template, (Trip(0, 5, 1.0),), [(0, 5)],
                                    [(0, list(zip(nodes, nodes[1:]))) for nodes in routes])


@pytest.mark.parametrize("routing, cs", [
    # affine costs that differ only in the sign of a zero
    ("so", two_route_set([Affine(1.0, 0.0), Affine(1.0, -0.0)])),
    ("ue", two_route_set([Affine(0.0, 1.0), Affine(-0.0, 1.0)])),
    # equal costs, different capacities
    ("mc", two_route_set([Constant(1.0)] * 2, capacities=(2.0, 3.0))),
    # a mirror image
    ("mc", two_route_set([Constant(1.0)] * 2, capacities=(2.0, 2.0), mirror=True)),
])
def test_no_solve_shared_without_an_order_preserving_relabelling(routing, cs, monkeypatch):
    assert_one_solve_per_shape(routing, cs, 4, monkeypatch)


def test_edge_classes_tell_apart_every_bit():
    # a class is shared exactly by equal columns of the solver's edge
    # table, also for Fraction capacities and inside a Marginalized model
    def classes(*edges):
        return edge_classes(Network(range(len(edges) + 1), [
            Edge(0, k + 1, model, capacity) for k, (model, capacity) in enumerate(edges)]))

    assert classes((Affine(1.0, 0.0), 2.0), (Affine(1.0, 0.0), 2.0)) == (0, 0)
    assert classes((Affine(1.0, 0.0), 2.0), (Affine(1.0, -0.0), 2.0)) == (0, 1)
    assert classes((Constant(1.0), 2.0), (Constant(1.0), 3.0)) == (0, 1)
    # the solver reads an int, a Fraction and the float they convert to alike
    assert classes((Constant(1.0), 2.0), (Constant(1.0), 2)) == (0, 0)
    assert classes((Constant(1.0), Fraction(1, 3)), (Constant(1.0), 1 / 3)) == (0, 0)
    assert classes((Constant(1.0), Fraction(1, 3)), (Constant(1.0), Fraction(2, 3))) == (0, 1)
    assert classes((Marginalized(Affine(1.0, 0.0)), 2.0), (Affine(1.0, 0.0), 2.0)) == (0, 1)
    assert classes((Marginalized(Affine(1.0, 0.0)), 2.0),
                   (Marginalized(Affine(1.0, -0.0)), 2.0)) == (0, 1)
    # classes are numbered in order of first appearance, by edge id
    assert classes((Constant(2.0), 1.0), (Constant(1.0), 1.0), (Constant(2.0), 1.0)) == (0, 1, 0)


# Pairs of routes whose models differ but whose edge table columns do not:
# the solver reads 1 and 2 as 1.0 and 2.0, and Greenshields(l, v_max, u)
# only as u, l / v_max and l * u / v_max.
_CONSTANT_TWINS = two_route_set([Constant(1), Constant(1.0)], capacities=(2, 2.0))
_GREENSHIELDS_TWINS = two_route_set([Greenshields(2.0, 2.0, 10.0), Greenshields(1.0, 1.0, 10.0)])


@pytest.mark.parametrize("routing, cs", [
    *((routing, _CONSTANT_TWINS) for routing in ("mc", "so", "ue")),
    *((routing, _GREENSHIELDS_TWINS) for routing in ("so", "ue")),
], ids=["mc-constant", "so-constant", "ue-constant", "so-greenshields", "ue-greenshields"])
def test_routes_of_equal_table_columns_share_one_solve(routing, cs, monkeypatch):
    # {0} and {1} share a solve, and a cold solve of each subset's own cut
    # agrees with the other subsets of its shape in every bit the
    # evaluations and certificates hold
    assert_one_solve_per_shape(routing, cs, 3, monkeypatch)
    solve = {"mc": solve_mc, "so": solve_so, "ue": solve_ue}[routing]
    by_shape = {}
    for mask in range(4):
        result = solve(Instance(cs.subset_network(mask), cs.trips))
        bits = (result.total_cost.hex(), result.iterations, result.relative_gap.hex(),
                repr(result.certificate))
        by_shape.setdefault(cs.union_shape(*cs.union_key(mask)), set()).add(bits)
    assert len(by_shape) == 3
    assert all(len(bits) == 1 for bits in by_shape.values())


def reference_shape(cs, mask):
    """The union graph of ``mask`` with each node replaced by its rank,
    read off its cut network; each edge also by the bytes of its columns in
    an edge calculator built from the cut's own edges, which is what a
    solve reads of an edge."""
    net = cs.subset_network(mask)
    rank = {v: r for r, v in enumerate(net.node_order)}
    calc = _EdgeCalculator(net.edges)
    columns = (calc.table, calc.family, calc.ue_level, calc.bound, calc.capacities)
    return (tuple((rank[e.tail], rank[e.head], *(c[..., k].tobytes() for c in columns))
                  for k, e in enumerate(net.edges)),
            tuple((rank[t.source], rank[t.sink]) for t in cs.trips))


@pytest.mark.parametrize("cs", [
    *(random_candidate_set(seed, costing) for seed in range(6)
      for costing in ("constant", "greenshields")),
    *(random_parallel_family(seed, flavour).candidate_set for seed in range(4)
      for flavour in ("constant", "greenshields")),
    materialize("parallel", {"n": 5}).candidate_set,
    two_route_set([Constant(1.0)] * 2, capacities=(2.0, 2.0), mirror=True),
    two_route_set([Affine(1.0, 0.0), Affine(1.0, -0.0)]),
    _CONSTANT_TWINS,
    _GREENSHIELDS_TWINS,
])
def test_shapes_are_union_graphs_up_to_an_order_preserving_relabelling(cs):
    # two masks have equal shapes exactly when their relabelled union
    # graphs are equal, and an evaluator solves once per such graph
    masks = range(1 << len(cs.candidates))
    shapes = [cs.union_shape(*cs.union_key(m)) for m in masks]
    references = [reference_shape(cs, m) for m in masks]
    for a in masks:
        for b in masks:
            assert (shapes[a] == shapes[b]) == (references[a] == references[b])
    constant = all(isinstance(e.cost, Constant) for e in cs.template.network.edges)
    evaluator = LambdaEvaluator(cs)
    evaluator.ensure("mc" if constant else "so", masks)
    assert evaluator.misses == len(set(references))


def test_twin_routes_share_one_solve(monkeypatch):
    # the control for the cases above: routes of equal bits share a solve
    cs = two_route_set([Constant(1.0)] * 2, capacities=(2.0, 2.0))
    assert_one_solve_per_shape("mc", cs, 3, monkeypatch)
    cs = two_route_set([Affine(1.0, -0.0), Affine(1.0, -0.0)])
    assert_one_solve_per_shape("so", cs, 3, monkeypatch)


def test_restricted_networks_equal_graph_unions(counterexample_gs):
    # every subset's network cut from the template by the candidate set's
    # bitsets is the one graph_union builds, down to its ids and adjacency
    for cs in (crossing_set("so", ids=(1000, 7, 0, 42, 3, 999, 12, 500)),
               counterexample_gs.candidate_set):
        template = cs.template.network
        edge_id = {pair: k for k, pair in enumerate(template.edge_pairs)}
        for mask in range(1 << len(cs.candidates)):
            union = union_of(cs, bitmask_subset(mask))
            key = (sum(1 << template.position(v) for v in union.nodes),
                   sum(1 << edge_id[pair] for pair in union.edge_pairs))
            assert cs.union_key(mask) == cs.union_key(bitmask_subset(mask)) == key
            cut = cs.subset_network(mask)
            assert cut == union and hash(cut) == hash(union)
            assert cut.node_order == union.node_order
            assert cut.edges == union.edges
            assert cut.out_adjacency == union.out_adjacency
            assert cut.in_adjacency == union.in_adjacency
            for v in template.nodes:
                assert cut.successors(v) == union.successors(v)
                assert cut.predecessors(v) == union.predecessors(v)
                assert (v in cut) == (v in union)
            assert cut.template is template and union.template is None
            assert tuple(template.edge_pairs[k] for k in cut.template_ids) == cut.edge_pairs


@pytest.mark.parametrize("routing", ["so", "ue"])
def test_edge_tables_built_once_per_template(routing, monkeypatch):
    # subset solves gather their edge tables from the template's
    cs = crossing_set(routing)
    built = []
    init = _EdgeCalculator.__init__

    def counting(calc, models):
        built.append(len(models))
        init(calc, models)

    monkeypatch.setattr(_EdgeCalculator, "__init__", counting)
    for _ in range(2):
        LambdaEvaluator(cs).ensure(routing, range(1 << len(cs.candidates)))
    # and so do their certificates, recomputed
    solve = solve_so if routing == "so" else solve_ue
    for mask in range(1 << len(cs.candidates)):
        instance = Instance(cs.subset_network(mask), cs.trips)
        assert verify_certificate(instance, solve(instance)).satisfied
    assert built == [len(cs.template.network.edge_pairs)]


def test_so_never_above_ue(counterexample_gs):
    evaluator = LambdaEvaluator(counterexample_gs.candidate_set)
    for subset in [(), (0,), (1,), (0, 1)]:
        so = evaluator.value("so", subset).value
        ue = evaluator.value("ue", subset).value
        assert so <= ue + 5e-3


# -- restricted classes --------------------------------------------------------------


def test_counterexample_is_prime(counterexample_mc, counterexample_gs):
    for scenario in (counterexample_mc, counterexample_gs):
        report = check_restriction(scenario.candidate_set, PRIME)
        assert report.ok, report.violations


def test_counterexample_not_double_prime(counterexample_mc):
    report = check_restriction(counterexample_mc.candidate_set, DOUBLE_PRIME)
    assert not report.ok
    text = " ".join(report.violations)
    assert "10" in text and "11" in text  # the shared interior nodes


def test_parallel_scenario_is_double_prime():
    scenario = materialize("parallel", {"n": 3})
    report = check_restriction(scenario.candidate_set, DOUBLE_PRIME)
    assert report.ok, report.violations


def test_prime_uniformity_violation():
    cs = parallel_mc_set(9.0, [7.0, 4.0], 1.0)
    report = check_restriction(cs, PRIME)
    assert not report.ok  # costs 7 and 4 are not one shared value


def paths_set(paths, trips=(Trip(0, 3, 5.0),), edge=lambda pair: (Constant(1.0), 10.0)):
    """The candidate set whose spanning tree is the first of the node
    sequences ``paths`` and whose candidates, for trip 0, are the others;
    ``edge(pair)`` gives each edge's cost model and capacity."""
    routes = [tuple(zip(p, p[1:])) for p in paths]
    pairs = sorted({pair for route in routes for pair in route})
    template = Network({n for pair in pairs for n in pair},
                       [Edge(i, j, *edge((i, j))) for i, j in pairs])
    return candidate_set_from_pairs(template, trips, routes[0],
                                    [(0, route) for route in routes[1:]])


def _for_another_trip():
    cs = paths_set([(0, 1, 3), (0, 2, 3)])
    return dataclasses.replace(cs, candidates=(dataclasses.replace(cs.candidates[0],
                                                                   trip_index=1),))


@pytest.mark.parametrize("declared, build, message", [
    (PRIME, lambda: paths_set([(0, 1, 3), (0, 1, 2, 3)]),
     "candidate 0 shares edges [(0, 1)] with the spanning tree"),
    (PRIME, lambda: paths_set([(0, 1, 3), (0, 2, 3), (0, 2, 4, 3)]),
     "candidates 0 and 1 share edges [(0, 2)]"),
    (DOUBLE_PRIME, lambda: paths_set([(0, 1, 2)], trips=(Trip(0, 1, 1.0), Trip(1, 2, 1.0))),
     "parallel classes are single-trip (got 2 trips)"),
    (DOUBLE_PRIME, _for_another_trip, "candidate 0 is not for the single trip"),
    (DOUBLE_PRIME, lambda: paths_set([(0, 1, 3), (0, 4, 1, 5, 3)]),
     "candidate 0 shares interior nodes [1] with the spanning tree"),
    (DOUBLE_PRIME, lambda: paths_set([(0, 1, 3), (0, 2, 3), (0, 4, 2, 5, 3)]),
     "candidates 0 and 1 share interior nodes [2]"),
    (DOUBLE_PRIME, lambda: paths_set(
        [(0, 1, 3), (0, 2, 3)],
        edge=lambda pair: (Constant(1.0), 1.0 if pair in ((0, 2), (2, 3)) else 10.0)),
     "candidate 0 edges [(0, 2), (2, 3)] cannot hold the whole demand 5.0"),
    (DOUBLE_PRIME, lambda: paths_set(
        [(0, 1, 3), (0, 2, 3)],
        edge=lambda pair: (Affine(2.0 if pair == (0, 2) else 1.0, 1.0), math.inf)),
     "candidate 0 path cost function differs from spanning tree path's"),
])
def test_restriction_violations(declared, build, message):
    report = check_restriction(build(), declared)
    assert not report.ok
    assert report.violations == (message,)


@pytest.mark.parametrize("unit", [10.0 ** k for k in range(-12, 13, 3)])
def test_double_prime_path_cost_identity_is_scale_free(unit):
    # parallel greenshields routes 0-1-3 (the tree) and 0-2-3: with edge
    # lengths unit and 2 * unit they differ at every time unit, and with
    # equal edge lengths they are identical at every time unit
    def route_lengths(candidate_factor):
        return lambda pair: (Greenshields(
            unit * (candidate_factor if pair in ((0, 2), (2, 3)) else 1.0), 1.0, 10.0), math.inf)

    differ = paths_set([(0, 1, 3), (0, 2, 3)], edge=route_lengths(2.0))
    assert check_restriction(differ, DOUBLE_PRIME).violations == (
        "candidate 0 path cost function differs from spanning tree path's",)
    same = paths_set([(0, 1, 3), (0, 2, 3)], edge=route_lengths(1.0))
    report = check_restriction(same, DOUBLE_PRIME)
    assert report.ok, report.violations


def test_declared_class_verified_on_construction(counterexample_mc):
    cs = counterexample_mc.candidate_set
    with pytest.raises(ValueError):
        CandidateSet(template=cs.template, spanning_tree=cs.spanning_tree,
                     candidates=cs.candidates, declared_class=DOUBLE_PRIME)


def _reference_corpus():
    sets = [materialize("counterexample", {"costing": c}).candidate_set
            for c in ("mc", "greenshields")]
    sets += [materialize("parallel", {"n": n}).candidate_set for n in range(1, 31)]
    for seed in range(100):
        for costing in ("constant", "greenshields"):
            sets.append(random_parallel_family(seed, costing).candidate_set)
            sets.append(random_candidate_set(seed, costing))
    return sets


def test_overlaps_match_the_pairwise_scans():
    reports = 0
    overlaps = 0
    for cs in _reference_corpus():
        for declared in (PRIME, DOUBLE_PRIME):
            found = [m for m in check_restriction(cs, declared).violations if " share" in m]
            assert found == pairwise_overlaps(cs, declared)
            reports += 1
            overlaps += len(found)
    assert reports == 864 and overlaps > 0


def test_double_prime_violation_order():
    # candidate 0 meets the tree at node 1; candidate 1 is for another
    # trip and shares node 2 with candidate 2
    cs = paths_set([(0, 1, 3), (0, 4, 1, 5, 3), (0, 2, 3), (0, 6, 2, 7, 3)])
    cands = list(cs.candidates)
    cands[1] = dataclasses.replace(cands[1], trip_index=1)
    cs = dataclasses.replace(cs, candidates=tuple(cands))
    assert check_restriction(cs, DOUBLE_PRIME).violations == (
        "candidate 1 is not for the single trip",
        "candidate 0 shares interior nodes [1] with the spanning tree",
        "candidates 1 and 2 share interior nodes [2]",
    )


def test_overlap_check_is_linear_at_the_parallel_cap():
    # 1,000 routes 0 -> 3 (the parallel scenario's cap), the tree the direct
    # edge: candidate 997 shares node 5 with candidate 1, and candidate 998
    # reuses the tree's edge
    paths = [(0, 3)] + [(0, k, 3) for k in range(4, 1001)]
    paths += [(0, 2000, 5, 2001, 3), (0, 3)]
    cs = paths_set(paths)
    assert len(cs.candidates) == 999
    times = []
    for _ in range(3):
        started = time.perf_counter()
        report = check_restriction(cs, DOUBLE_PRIME)
        times.append(time.perf_counter() - started)
    assert report.violations == (
        "candidate 998 shares edges [(0, 3)] with the spanning tree",
        "candidates 1 and 997 share interior nodes [5]",
    )
    assert min(times) < 0.1


# -- monotonicity ---------------------------------------------------------------------


def test_mc_monotone_on_counterexample(counterexample_mc):
    report = check_monotonicity("mc", counterexample_mc.candidate_set)
    assert report.verdict == HOLDS
    assert report.pairs_checked == 9


def test_so_monotone_on_counterexample(counterexample_gs):
    report = check_monotonicity("so", counterexample_gs.candidate_set)
    assert report.verdict == HOLDS


def test_ue_braess_monotonicity_violated(braess_with):
    report = check_monotonicity("ue", braess_with.candidate_set)
    assert report.verdict == VIOLATED
    best = max(report.witnesses, key=lambda w: w.margin)
    assert best.subset_a == (0,)
    assert best.subset_b == (0, 1)
    assert best.margin == pytest.approx(54.0, abs=1e-3)


def test_monotonicity_sampled_deterministic(counterexample_mc):
    cs = counterexample_mc.candidate_set
    a = check_monotonicity("mc", cs, mode="sampled", seed=5, trials=40)
    b = check_monotonicity("mc", cs, mode="sampled", seed=5, trials=40)
    assert a == b
    assert a.pairs_checked == 40


def test_exhaustive_caps():
    scenario = materialize("parallel", {"n": 14, "u": 10.0, "d": 5.0})
    with pytest.raises(BadParams):
        check_monotonicity("so", scenario.candidate_set, mode="exhaustive")
    scenario = materialize("parallel", {"n": 12})
    with pytest.raises(BadParams):
        check_supermodularity("so", scenario.candidate_set, mode="exhaustive")


def test_sampled_mode_beyond_exhaustive_cap():
    # 13 candidates refuse exhaustive checking but sample cleanly
    scenario = materialize("parallel", {"n": 14, "u": 10.0, "d": 5.0})
    cs = scenario.candidate_set
    mono = check_monotonicity("so", cs, mode="sampled", seed=3, trials=60)
    assert mono.verdict == HOLDS
    assert mono.pairs_checked == 60
    supermod = check_supermodularity("ue", cs, mode="sampled", seed=3, trials=60)
    assert supermod.verdict == HOLDS
    assert supermod.seed == 3 and supermod.trials == 60
    again = check_supermodularity("ue", cs, mode="sampled", seed=3, trials=60)
    assert supermod == again


def distinct_parallel_set(n):
    """A parallel candidate set of ``n`` candidates whose routes (the
    tree's too) have pairwise-distinct constant costs, so that no two
    subsets have union graphs equal up to an order-preserving relabelling
    and a ``table_lambda`` stand-in keeps every subset's own value."""
    return parallel_mc_set(1.0, [2.0 + k for k in range(n)], 1.0)


def table_lambda(table):
    """A ``lambda_eval`` stand-in that reads each subset's value from
    ``table`` by bitmask, at relative gap 0."""
    def lookup(routing, state, cfg=None):
        mask = subset_bitmask(state.chosen)
        return LambdaEvaluation(routing, state.chosen, mask, table[mask], 0, 0.0)
    return lookup


def witness_tuples(report):
    return [(w.subset_a, w.subset_b, w.x, w.lhs, w.rhs, w.margin) for w in report.witnesses]


@pytest.mark.parametrize("n", range(6))
def test_exhaustive_checkers_match_the_definitions(n, monkeypatch):
    # random values make violations of both properties plentiful; quarters
    # of small integers give exact ties and margins exactly equal to the
    # tolerance, which only the strict comparisons keep out of the
    # witnesses. The parallel routes' costs differ pairwise, so no two
    # subsets share a solve and every subset keeps its table value
    rng = random.Random(f"lattice-oracle-{n}")
    uniform = [rng.uniform(0.0, 10.0) for _ in range(1 << n)]
    quarters = [rng.randrange(12) / 4 for _ in range(1 << n)]
    cs = distinct_parallel_set(n)
    for table, tols in ((uniform, (None, 0.0, 1.0)), (quarters, (0.0, 0.25))):
        monkeypatch.setattr(design, "lambda_eval", table_lambda(table))

        def value(subset):
            return table[subset_bitmask(subset)]

        largest = max((0.0 + CERTIFICATE_RTOL) * abs(v) for v in table)
        for tol in tols:
            mono = check_monotonicity("so", cs, tol=tol)
            supermod = check_supermodularity("so", cs, tol=tol)
            if tol is None:
                assert (mono.tolerance, supermod.tolerance) == (2 * largest, 4 * largest)
            pairs, mono_w, triples, super_w = lattice_witnesses(n, value, mono.tolerance)
            assert (mono.pairs_checked, witness_tuples(mono)) == (pairs, mono_w)
            assert lattice_witnesses(n, value, supermod.tolerance)[2:] == (
                supermod.pairs_checked, witness_tuples(supermod))
            if n >= 3 and table is uniform and tol is not None:
                assert mono.witnesses and supermod.witnesses
            if n >= 3 and table is quarters:
                # some margins sit exactly on the tolerance
                below = lattice_witnesses(n, value, tol - 0.125)
                assert len(below[1]) > len(mono_w) and len(below[3]) > len(super_w)
            if n and tol == 0.0:
                for seed in (0, 1):
                    sampled = check_supermodularity("so", cs, tol=tol, mode="sampled",
                                                    seed=seed)
                    assert set(witness_tuples(sampled)) <= set(super_w)
                    sampled = check_monotonicity("so", cs, tol=tol, mode="sampled", seed=seed)
                    assert set(witness_tuples(sampled)) <= set(mono_w)


def test_sampled_checks_on_an_empty_ground_set():
    cs = materialize("parallel", {"n": 1}).candidate_set
    supermod = check_supermodularity("so", cs, mode="sampled", trials=7)
    assert (supermod.pairs_checked, supermod.witnesses, supermod.evaluations) == (0, (), ())
    assert supermod.verdict == HOLDS
    mono = check_monotonicity("so", cs, mode="sampled", trials=7)
    assert (mono.pairs_checked, mono.witnesses) == (7, ())
    assert [ev.bitmask for ev in mono.evaluations] == [0]


# -- supermodularity -----------------------------------------------------------------


def test_mc_supermodularity_violated(counterexample_mc):
    report = check_supermodularity("mc", counterexample_mc.candidate_set)
    assert report.verdict == VIOLATED
    first = report.witnesses[0]
    assert first.subset_a == ()
    assert first.subset_b == (1,)
    assert first.x == 0
    assert first.lhs == pytest.approx(0.0, abs=1e-9)    # 9 - 9
    assert first.rhs == pytest.approx(2.0, abs=1e-9)    # 7 - 5
    assert first.margin == pytest.approx(-2.0, abs=1e-9)


def test_so_ue_supermodularity_violated(counterexample_gs):
    so = check_supermodularity("so", counterexample_gs.candidate_set)
    assert so.verdict == VIOLATED
    w = next(w for w in so.witnesses if w.subset_a == () and w.subset_b == (1,))
    assert w.lhs == pytest.approx(0.72, abs=0.02)
    assert w.rhs == pytest.approx(2.50, abs=0.02)
    ue = check_supermodularity("ue", counterexample_gs.candidate_set)
    assert ue.verdict == VIOLATED
    w = next(w for w in ue.witnesses if w.subset_a == () and w.subset_b == (1,))
    assert w.lhs == pytest.approx(0.0, abs=0.02)      # 30 - 30
    assert w.rhs == pytest.approx(10.0 / 3.0, abs=0.02)  # 30 - 26.67


def test_mc_parallel_family_supermodular():
    cs = parallel_mc_set(9.0, [7.0, 4.0], 1.0)
    report = check_supermodularity("mc", cs)
    assert report.verdict == HOLDS
    # ladder agrees with the closed form everywhere
    evaluator = LambdaEvaluator(cs)
    for subset in [(), (0,), (1,), (0, 1)]:
        closed = parallel_mc_value(9.0, [7.0, 4.0], subset, 1.0)
        assert evaluator.value("mc", subset).value == pytest.approx(closed, abs=1e-9)


def test_random_parallel_families_supermodular():
    for seed in range(4):
        fam = random_parallel_family(seed, "constant")
        assert check_supermodularity("mc", fam.candidate_set).verdict == HOLDS
        fam2 = random_parallel_family(seed, "greenshields")
        assert check_supermodularity("so", fam2.candidate_set).verdict == HOLDS
        assert check_supermodularity("ue", fam2.candidate_set).verdict == HOLDS


# -- closed forms ---------------------------------------------------------------------


def test_parallel_mc_value_examples():
    assert parallel_mc_value(9.0, [7.0], [0], 1.0) == pytest.approx(7.0)
    assert parallel_mc_value(12.5, [], [], 2.0) == pytest.approx(25.0)
    assert parallel_mc_value(9.0, [7.0, 4.0], [0, 1], 2.0) == pytest.approx(8.0)


def test_parallel_uniform_value_examples():
    assert parallel_uniform_value("so", 1, 1.0, 1.0, 10.0, 5.0) == pytest.approx(10.0)
    assert parallel_uniform_value("ue", 2, 1.0, 1.0, 10.0, 5.0) == pytest.approx(
        5.0 / 0.75, abs=1e-9)
    # a single three-edge unit route behaves as one path of length 3
    assert parallel_uniform_value("so", 1, 3.0, 1.0, 10.0, 5.0) == pytest.approx(30.0)


def test_parallel_uniform_value_matches_solver():
    scenario = materialize("parallel", {"n": 2})
    result = solve_so(scenario.instance)
    closed = parallel_uniform_value("so", 2, 1.0, 1.0, 10.0, 5.0)
    assert result.total_cost == pytest.approx(closed, rel=1e-4)


@pytest.mark.parametrize("position", range(4))
def test_parallel_uniform_value_rejects_nan(position):
    # NaN passed the old `<= 0` tests here and in parallel_mc_value, and
    # came back as a NaN value
    args = [1.0, 1.0, 10.0, 5.0]
    args[position] = math.nan
    with pytest.raises(BadParams):
        parallel_uniform_value("so", 2, *args)


def test_parallel_mc_value_rejects_nan_demand():
    with pytest.raises(BadParams):
        parallel_mc_value(9.0, [7.0], [0], math.nan)


def test_parallel_uniform_value_domain():
    with pytest.raises(DomainError):
        parallel_uniform_value("so", 1, 1.0, 1.0, 10.0, 10.0)
    with pytest.raises(BadParams):
        parallel_uniform_value("mc", 1, 1.0, 1.0, 10.0, 5.0)


# -- greedy designer ------------------------------------------------------------------


def test_greedy_counterexample(counterexample_mc):
    cs = counterexample_mc.candidate_set
    one = greedy_designer("mc", cs, budget=1)
    assert one.picks == (1,)  # blue: 9 -> 7
    assert one.values == (9.0, 7.0)
    two = greedy_designer("mc", cs, budget=2)
    assert two.picks == (1, 0)
    assert two.values[-1] == pytest.approx(5.0)
    assert two.best_value == pytest.approx(5.0)
    assert two.best_subset == (0, 1)


def test_greedy_budget_zero(counterexample_mc):
    res = greedy_designer("mc", counterexample_mc.candidate_set, budget=0)
    assert res.picks == ()
    assert res.values == (9.0,)


def test_greedy_parallel_tie_break():
    cs = parallel_mc_set(9.0, [8.0, 7.0, 6.0], 1.0)
    res = greedy_designer("mc", cs, budget=2)
    assert res.picks == (2, 0)  # best decrease first, then lowest index on ties
    assert res.values == (9.0, 6.0, 6.0)
    assert res.best_value == pytest.approx(6.0)


@pytest.mark.parametrize("shortfall, pick", [(1e-9, 0), (1e-5, 1)])
def test_greedy_ties_within_certified_error(monkeypatch, shortfall, pick):
    # candidate 1 undercuts candidate 0 by ``shortfall``: within the two
    # values' certified errors (2e-6 here) they tie and the lower index
    # wins, in the greedy round and in the exhaustive optimum alike
    table = [2.0, 1.0, 1.0 * (1.0 - shortfall), 0.5]
    monkeypatch.setattr(design, "lambda_eval", table_lambda(table))
    cs = distinct_parallel_set(2)
    res = greedy_designer("so", cs, budget=1)
    assert res.picks == (pick,)
    assert res.values == (2.0, table[1 << pick])
    assert (res.best_subset, res.best_value) == ((pick,), table[1 << pick])


def test_greedy_budget_out_of_range(counterexample_mc):
    with pytest.raises(BadParams):
        greedy_designer("mc", counterexample_mc.candidate_set, budget=3)


@pytest.mark.parametrize("index", [5, -1])
def test_candidate_index_out_of_range(counterexample_mc, index):
    evaluator = LambdaEvaluator(counterexample_mc.candidate_set)
    with pytest.raises(BadParams, match=f"candidate index {index} out of range"):
        evaluator.value("mc", [index])


# -- serialization ------------------------------------------------------------------


def test_candidate_set_round_trip(counterexample_mc, braess_with, fig3, fig4):
    scenarios = [counterexample_mc, braess_with, fig3, fig4,
                 materialize("parallel", {"n": 3})]
    for scenario in scenarios:
        cs = scenario.candidate_set
        doc = candidate_set_to_json(cs)
        text = json.dumps(doc, sort_keys=True)
        back = candidate_set_from_json(json.loads(text), cs.declared_class)
        assert back == cs


def _braess_document(section, edges):
    """The braess design document with ``section`` ("spanning_tree" or a
    candidate index) replaced by ``edges``, or removed when it is None."""
    doc = candidate_set_to_json(materialize("braess").candidate_set)
    if section != "spanning_tree":
        doc["candidates"][section]["edges"] = edges
    elif edges is None:
        del doc["spanning_tree"]
    else:
        doc["spanning_tree"] = edges
    return doc


# braess's template has s->v, s->w, v->t, w->t and the shortcut v->w
# (nodes 0 = s, 1 = v, 2 = w, 3 = t)
@pytest.mark.parametrize("section, edges, message", [
    ("spanning_tree", None, "design document lacks a spanning_tree section"),
    (1, [[0, 1], [1, 2], [2, 3], [3, 0]], "candidate 1 edge (3, 0) is not in the template"),
    ("spanning_tree", [[0, 1], [1, 3], [0, 2], [2, 3]],
     "spanning_tree is invalid: trip 0: expected exactly one path, found more than one"),
    (0, [[0, 1], [1, 3], [0, 2], [2, 3]],
     "candidate 0 is invalid: expected exactly one path, found more than one"),
    (0, [[0, 2], [2, 3], [0, 2]], "candidate 0 edge (0, 2) is listed twice"),
])
def test_design_document_format_errors(section, edges, message):
    with pytest.raises(FormatError) as info:
        candidate_set_from_json(_braess_document(section, edges))
    assert str(info.value) == message


# -- unit invariance ---------------------------------------------------------------

# cost fields measured in time, and those measured in flow (Affine's b is
# time per flow, so a flow rescaling divides it)
_TIME_FIELDS = {"constant": ("c",), "affine": ("a", "b"), "greenshields": ("l",), "bpr": ("c0",)}
_FLOW_FIELDS = {"greenshields": ("u",), "bpr": ("u",)}


def _rescaled(cs, unit, factor):
    """The candidate set with every time, or every flow, multiplied by factor."""
    doc = candidate_set_to_json(cs)
    for edge in doc["edges"]:
        cost = edge["cost"]
        if unit == "time":
            for field in _TIME_FIELDS[cost["kind"]]:
                cost[field] *= factor
        else:
            for field in _FLOW_FIELDS.get(cost["kind"], ()):
                cost[field] *= factor
            if cost["kind"] == "affine":
                cost["b"] /= factor
            if edge["capacity"] != "inf":
                edge["capacity"] *= factor
    if unit == "flow":
        for trip in doc["trips"]:
            trip["demand"] *= factor
    return candidate_set_from_json(doc, cs.declared_class)


def _verdicts(routing, cs):
    return [(r.verdict, [(w.subset_a, w.subset_b, w.x) for w in r.witnesses])
            for r in (check_monotonicity(routing, cs), check_supermodularity(routing, cs))]


_DESIGN_SCENARIOS = [("braess", {}, ("so", "ue")),
                     ("fig3", {}, ("mc", "so", "ue")),
                     ("fig4", {}, ("mc", "so", "ue")),
                     ("counterexample", {"costing": "mc"}, ("mc", "so", "ue")),
                     ("counterexample", {"costing": "greenshields"}, ("so", "ue")),
                     ("parallel", {}, ("so", "ue"))]


@pytest.mark.parametrize("name, params, routings", _DESIGN_SCENARIOS,
                         ids=[f"{n}-{p.get('costing', '')}" for n, p, _ in _DESIGN_SCENARIOS])
def test_verdicts_invariant_under_units(name, params, routings):
    # the greenshields counterexample's so/ue margins are -1.78 and -3.33,
    # which an absolute tolerance would forgive once times shrink 1000-fold
    cs = materialize(name, params).candidate_set
    for routing in routings:
        expected = _verdicts(routing, cs)
        for unit in ("time", "flow"):
            for factor in (1e-3, 1e3):
                assert _verdicts(routing, _rescaled(cs, unit, factor)) == expected, (
                    routing, unit, factor)


@pytest.mark.parametrize("scale", [1e-16, 1e-13, 1e-10, 1e-3, 1e3, 1e8, 1e12])
@pytest.mark.parametrize("name, params, check, routings", [
    ("counterexample", {"costing": "mc"}, check_supermodularity, ("mc", "so", "ue")),
    ("braess", {}, check_monotonicity, ("ue",)),
], ids=["counterexample-supermodular", "braess-monotone"])
def test_verdicts_and_values_invariant_under_the_time_unit(name, params, check, routings, scale):
    # a tie tolerance with an absolute floor counted every edge as tight
    # once costs fell near 1e-12, and at a scale of 1e-13 the
    # counterexample's supermodularity held: every subset cost 9 s
    cs = materialize(name, params).candidate_set
    scaled = _rescaled(cs, "time", scale)
    for routing in routings:
        expected, got = check(routing, cs), check(routing, scaled)
        assert (got.verdict, [(w.subset_a, w.subset_b, w.x) for w in got.witnesses]) == (
            expected.verdict, [(w.subset_a, w.subset_b, w.x) for w in expected.witnesses])
        assert [ev.bitmask for ev in got.evaluations] == [ev.bitmask for ev in expected.evaluations]
        for ev, at_scale in zip(expected.evaluations, got.evaluations):
            error = design._certified_error(ev) + design._certified_error(at_scale) / scale
            assert abs(at_scale.value / scale - ev.value) <= error, (routing, ev.subset)


# -- perfbench tracer bindings -------------------------------------------------------


def test_perfbench_tracer_binds_the_design_layer(counterexample_mc, monkeypatch):
    # the traced benchmark run rebinds module attributes; the checkers and
    # the greedy designer must look them up at call time for spans to nest
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    import tracing

    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in tracing.BINDINGS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cs = counterexample_mc.candidate_set
        design.check_supermodularity("mc", cs)
        design.greedy_designer("mc", cs, budget=1)
    finally:
        tracer.uninstall()
    for module, attr, original in originals:
        assert getattr(module, attr) is original
    spans = tracer.spans
    names = [rec[tracing.NAME] for rec in spans]
    assert names.count("design.check") == 1
    assert names.count("design.greedy") == 1
    for rec in spans:
        parent = spans[rec[tracing.PARENT]][tracing.NAME] if rec[tracing.PARENT] >= 0 else None
        if rec[tracing.NAME] == "design.lambda_eval":
            assert parent in ("design.check", "design.greedy")
        elif rec[tracing.NAME] in ("routing.mc", "routing.so", "routing.ue"):
            assert parent == "design.lambda_eval"
    assert {"design.lambda_eval", "routing.mc"} <= set(names)
