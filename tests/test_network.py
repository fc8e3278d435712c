import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import sole_path
from netdesign import network
from netdesign.costs import Constant
from netdesign.errors import PathLimitExceeded, TemplateConsistencyError
from netdesign.network import (
    Edge,
    Network,
    Trip,
    TripPathGraph,
    TripSpanningTree,
    ViolationList,
    added_paths,
    build_grid_template,
    enumerate_trip_paths,
    graph_union,
    subgraph_issues,
    validate_trip_path_graph,
    validate_trip_spanning_tree,
)
from netdesign.scenarios import SCENARIO_NAMES, materialize

C1 = Constant(1.0)


def net_of(pairs, extra_nodes=(), cost=C1, cap=10.0):
    nodes = {n for p in pairs for n in p} | set(extra_nodes)
    return Network(nodes, [Edge(i, j, cost, cap) for i, j in pairs])


# -- grid templates ------------------------------------------------------------


def test_grid_smallest():
    g = build_grid_template(1, 2, C1, 5.0).network
    assert len(g.nodes) == 2
    assert len(g.edges) == 2


def test_grid_2x2():
    g = build_grid_template(2, 2, C1, 5.0).network
    assert len(g.nodes) == 4
    assert len(g.edges) == 8


def test_grid_4x4():
    rows = cols = 4
    g = build_grid_template(rows, cols, C1, 5.0).network
    assert len(g.nodes) == 16
    # two directed edges per lattice adjacency, counted directly
    assert len(g.edges) == 2 * (rows * (cols - 1) + cols * (rows - 1)) == 48


# -- basic structure -----------------------------------------------------------


def test_network_rejects_duplicates_and_strays():
    with pytest.raises(ValueError):
        Network({0, 1}, [Edge(0, 1, C1), Edge(0, 1, Constant(2.0))])
    with pytest.raises(ValueError):
        Network({0, 1}, [Edge(0, 2, C1)])
    with pytest.raises(ValueError):
        Edge(1, 1, C1)
    with pytest.raises(ValueError):
        Edge(0, 1, C1, 0.0)


def test_trip_validation():
    with pytest.raises(ValueError):
        Trip(1, 1, 1.0)
    with pytest.raises(ValueError):
        Trip(0, 1, 0.0)


# -- unions ---------------------------------------------------------------------


def test_union_idempotent():
    base = net_of([(0, 1), (1, 2)])
    assert graph_union(base, [base]) == base


def test_union_conflict_detected():
    a = net_of([(0, 1)])
    b = net_of([(0, 1)], cost=Constant(2.0))
    with pytest.raises(TemplateConsistencyError):
        graph_union(a, [b])


def test_union_fig3_adds_one_edge(fig3):
    cs = fig3.candidate_set
    tree = cs.spanning_tree.network
    addition = cs.candidates[0].network
    union = graph_union(tree, [addition])
    assert len(union.edges) == len(tree.edges) + 1
    new = set(union.edge_pairs) - set(tree.edge_pairs)
    assert new == {(11, 3)}


def test_union_counterexample_counts(counterexample_mc):
    cs = counterexample_mc.candidate_set
    union = cs.subset_network([0, 1])
    assert len(union.nodes) == 14
    assert len(union.edges) == 19


def test_union_laws_random_subgraphs():
    template = build_grid_template(4, 4, C1, 5.0).network
    rng = random.Random(7)
    pairs = list(template.edge_pairs)

    def random_subgraph():
        chosen = [p for p in pairs if rng.random() < 0.4]
        nodes = {n for p in chosen for n in p} | {0}
        return Network(nodes, [template.edge(*p) for p in chosen])

    for _ in range(25):
        a, b, c = random_subgraph(), random_subgraph(), random_subgraph()
        assert graph_union(a, [b]) == graph_union(b, [a])
        assert graph_union(graph_union(a, [b]), [c]) == graph_union(a, [graph_union(b, [c])])
        assert graph_union(a, [a]) == a


# -- path enumeration -----------------------------------------------------------


def test_enumerate_fig4_four_paths(fig4):
    trip = fig4.instance.trips[0]
    paths = enumerate_trip_paths(fig4.instance.network, [trip]).for_trip(0)
    assert len(paths) == 4
    assert [p.nodes for p in paths] == [
        (1, 2, 3),
        (1, 2, 6, 7, 3),
        (1, 4, 5, 2, 3),
        (1, 4, 5, 2, 6, 7, 3),
    ]  # lexicographic by node sequence


def test_enumerate_counterexample_black_only(counterexample_mc):
    cs = counterexample_mc.candidate_set
    trip = cs.trips[0]
    paths = enumerate_trip_paths(cs.spanning_tree.network, [trip]).for_trip(0)
    assert len(paths) == 1
    assert sum(3.0 for _ in paths[0].edge_pairs) == 9.0


def test_enumerate_black_blue_costs(counterexample_mc):
    cs = counterexample_mc.candidate_set
    trip = cs.trips[0]
    union = cs.subset_network([1])  # blue
    paths = enumerate_trip_paths(union, [trip]).for_trip(0)
    costs = sorted(
        sum(union.edge(*pair).cost.c for pair in p.edge_pairs) for p in paths)
    assert costs == [7.0, 7.0, 9.0, 9.0]


def test_enumerate_limit():
    net = build_grid_template(3, 3, C1, 5.0).network
    with pytest.raises(PathLimitExceeded):
        enumerate_trip_paths(net, [Trip(0, 8, 1.0)], limit=3)


def test_paths_simple_and_connecting():
    net = build_grid_template(3, 3, C1, 5.0).network
    trip = Trip(0, 8, 1.0)
    for p in enumerate_trip_paths(net, [trip]).for_trip(0):
        assert p.nodes[0] == 0 and p.nodes[-1] == 8
        assert len(set(p.nodes)) == len(p.nodes)
        for pair in p.edge_pairs:
            assert net.has_edge(*pair)


def test_added_paths_fig4(fig4):
    cs = fig4.candidate_set
    trip = cs.trips[0]
    added = added_paths(cs.spanning_tree.network, cs.candidates[0].network, trip)
    assert len(added.for_trip(0)) == 3


def test_added_paths_subset_is_empty(fig3):
    cs = fig3.candidate_set
    tree = cs.spanning_tree.network
    sub = net_of([(9, 10)])
    for m, trip in enumerate(cs.trips):
        added = added_paths(tree, sub, trip, trip_index=m)
        assert added.for_trip(m) == ()


def test_added_paths_counterexample_composite(counterexample_mc):
    cs = counterexample_mc.candidate_set
    trip = cs.trips[0]
    base = cs.subset_network([1])        # black + blue
    addition = cs.candidates[0].network  # orange
    added = added_paths(base, addition, trip)
    keys = {p.key() for p in added.for_trip(0)}
    assert "1-9-10-11-12-4" in keys  # the short bottom corridor
    union = graph_union(base, [addition])
    cost = sum(union.edge(*pair).cost.c
               for pair in zip((1, 9, 10, 11, 12), (9, 10, 11, 12, 4)))
    assert cost == 5.0


def test_path_set_algebra_random():
    template = build_grid_template(4, 4, C1, 50.0).network
    rng = random.Random(3)
    trip = Trip(0, 15, 1.0)

    def random_path_net():
        nodes = [0]
        seen = {0}
        while nodes[-1] != 15:
            succ = [v for v in template.successors(nodes[-1]) if v not in seen]
            if not succ:
                return None
            nxt = rng.choice(succ)
            nodes.append(nxt)
            seen.add(nxt)
        return net_of(list(zip(nodes, nodes[1:])), cost=C1, cap=50.0)

    done = 0
    while done < 10:
        a, x = random_path_net(), random_path_net()
        if a is None or x is None:
            continue
        done += 1
        p_a = {p.nodes for p in enumerate_trip_paths(a, [trip]).for_trip(0)}
        union = graph_union(a, [x])
        p_union = {p.nodes for p in enumerate_trip_paths(union, [trip]).for_trip(0)}
        p_added = {p.nodes for p in added_paths(a, x, trip).for_trip(0)}
        assert p_a <= p_union
        assert p_added | p_a == p_union
        assert p_added & p_a == set()


# -- validators -----------------------------------------------------------------


def test_fig3_tree_valid(fig3):
    cs = fig3.candidate_set
    result = validate_trip_spanning_tree(cs.spanning_tree.network, cs.trips)
    assert isinstance(result, TripSpanningTree)
    assert [p.nodes for p in result.trip_paths] == [
        (9, 10, 2, 3, 4), (6, 2, 10, 11, 14)]


def test_counterexample_tree_valid(counterexample_mc):
    cs = counterexample_mc.candidate_set
    result = validate_trip_spanning_tree(cs.spanning_tree.network, cs.trips)
    assert isinstance(result, TripSpanningTree)


def test_tree_capacity_violation():
    chain = net_of([(0, 1), (1, 2)], cost=Constant(3.0), cap=0.5)
    result = validate_trip_spanning_tree(chain, [Trip(0, 2, 1.0)])
    assert isinstance(result, ViolationList)
    assert {v.property_id for v in result.violations} == {4}


def test_tree_capacity_violation_on_first_hop(fig3):
    # same layout as the valid two-trip tree, but the edge leaving the
    # first trip's source is too small for its demand
    cs = fig3.candidate_set
    tree = cs.spanning_tree.network
    weakened = Network(tree.nodes, [
        Edge(e.tail, e.head, e.cost, 0.5 if e.pair == (9, 10) else e.capacity)
        for e in tree.edges
    ])
    result = validate_trip_spanning_tree(weakened, cs.trips)
    assert isinstance(result, ViolationList)
    assert {v.property_id for v in result.violations} == {4}
    assert "(9, 10)" in result.violations[0].message


def test_tree_missing_endpoint():
    chain = net_of([(0, 1)])
    result = validate_trip_spanning_tree(chain, [Trip(0, 2, 1.0)])
    assert isinstance(result, ViolationList)
    assert result.violations[0].property_id == 1


def test_tree_multiple_paths():
    diamond = net_of([(0, 1), (1, 3), (0, 2), (2, 3)])
    result = validate_trip_spanning_tree(diamond, [Trip(0, 3, 1.0)])
    assert isinstance(result, ViolationList)
    assert {v.property_id for v in result.violations} == {2}


def test_tree_stray_node():
    chain = net_of([(0, 1), (1, 2)], extra_nodes={9})
    result = validate_trip_spanning_tree(chain, [Trip(0, 2, 1.0)])
    assert isinstance(result, ViolationList)
    assert {v.property_id for v in result.violations} == {3}


def test_path_graph_valid(fig3):
    cs = fig3.candidate_set
    cand = cs.candidates[0]
    result = validate_trip_path_graph(cand.network, cs.trips[0])
    assert isinstance(result, TripPathGraph)
    assert result.path.nodes == (9, 10, 11, 3, 4)


def test_path_graph_dangling_node():
    g = net_of([(0, 1), (1, 2)], extra_nodes={7})
    result = validate_trip_path_graph(g, Trip(0, 2, 1.0))
    assert isinstance(result, ViolationList)
    assert {v.property_id for v in result.violations} == {3}


def test_path_graph_two_parallel_paths():
    g = net_of([(0, 1), (1, 3), (0, 2), (2, 3)])
    result = validate_trip_path_graph(g, Trip(0, 3, 1.0))
    assert isinstance(result, ViolationList)
    assert {v.property_id for v in result.violations} == {2}


def test_validators_stop_at_the_second_path():
    # a 6x6 bidirectional grid has far more than DEFAULT_PATH_LIMIT paths
    # from corner to corner; both validators reject it without listing them
    grid = build_grid_template(6, 6, C1, 10.0).network
    trip = Trip(0, 35, 1.0)
    for result in (validate_trip_spanning_tree(grid, [trip]),
                   validate_trip_path_graph(grid, trip)):
        assert isinstance(result, ViolationList)
        assert [(v.property_id, v.message.split(": ")[-1]) for v in result.violations] == [
            (2, "expected exactly one path, found more than one")]
    gap = net_of([(0, 1), (2, 3)])
    result = validate_trip_path_graph(gap, Trip(0, 3, 1.0))
    assert [v.message for v in result.violations] == ["expected exactly one path, found 0"]


def test_path_graph_validation_reads_the_path_edges_once(monkeypatch):
    # a chain of 200 edges: checking each edge against the path's edge set
    # must not rebuild that set per edge, which made validation quadratic
    reads = []
    original = network.Path.edge_pairs

    def counted(path):
        reads.append(path)
        return original.fget(path)

    monkeypatch.setattr(network.Path, "edge_pairs", property(counted))
    chain = net_of([(i, i + 1) for i in range(200)])
    result = validate_trip_path_graph(chain, Trip(0, 200, 1.0))
    assert isinstance(result, TripPathGraph)
    assert len(reads) == 1


@st.composite
def _digraph_trip(draw):
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda p: p[0] != p[1]), unique=True, max_size=n * (n - 1)))
    source, sink = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return net_of(pairs, extra_nodes=range(n)), Trip(source, sink, 1.0)


@settings(max_examples=400, deadline=None)
@given(_digraph_trip())
def test_sole_path_matches_enumeration(case):
    net, trip = case
    assert network._sole_path(net, trip, 3) == sole_path(net, trip, 3)


def test_subgraph_issues():
    template = build_grid_template(2, 2, C1, 5.0).network
    ok = Network({0, 1}, [template.edge(0, 1)])
    assert subgraph_issues(ok, template) == ()
    redefined = Network({0, 1}, [Edge(0, 1, Constant(9.0), 5.0)])
    assert any("redefines" in msg for msg in subgraph_issues(redefined, template))
    stranger = net_of([(0, 7)])
    assert subgraph_issues(stranger, template) != ()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_network_pickle_and_deepcopy_round_trip(name):
    # fig3 and counterexample have sparse node ids; an id past the largest
    # and a gap in between are unknown nodes
    net = materialize(name).instance.network
    unknown = [max(net.nodes) + 1] + sorted(set(range(max(net.nodes))) - net.nodes)[:1]
    for back in (net, pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert back == net
        assert back.edges == net.edges
        for n in net.nodes:
            assert back.successors(n) == tuple(sorted(j for i, j in net.edge_pairs if i == n))
            assert back.predecessors(n) == tuple(sorted(i for i, j in net.edge_pairs if j == n))
        for n in unknown:
            assert back.successors(n) == back.predecessors(n) == ()


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_edge_id_is_the_index_in_edge_pairs(name):
    # on the scenario's networks, a cut of each holding every other edge,
    # and every union graph cut from its template; a pair that is not an
    # edge, reversed or with an unknown end, is a KeyError
    scenario = materialize(name)
    nets = [scenario.instance.network] if scenario.instance else []
    cs = scenario.candidate_set
    if cs is not None:
        nets.append(cs.template.network)
    nets += [net.restrict((1 << len(net.nodes)) - 1,
                          sum(1 << k for k in range(0, len(net.edge_pairs), 2)))
             for net in nets]
    if cs is not None:
        nets += [cs.subset_network(mask) for mask in range(1 << len(cs.candidates))]
    for net in nets:
        pairs = net.edge_pairs
        for k, (i, j) in enumerate(pairs):
            assert net.edge_id(i, j) == pairs.index((i, j)) == k
            if not net.has_edge(j, i):
                with pytest.raises(KeyError):
                    net.edge_id(j, i)
        for pair in ((-1, 0), (max(net.nodes) + 1, 0), (min(net.nodes), max(net.nodes) + 1)):
            with pytest.raises(KeyError):
                net.edge_id(*pair)
