import hashlib
import json
import time

import pytest

from netdesign.design import candidate_set_to_json
from netdesign.errors import BadParams, UnknownScenario
from netdesign.jsonio import instance_from_json, instance_to_json
from netdesign.routing import solve_so, solve_ue
from netdesign.scenarios import (
    PARALLEL_ROUTES_CAP,
    SCENARIO_NAMES,
    materialize,
    random_candidate_set,
    random_parallel_family,
    scenario_descriptions,
)


def test_all_scenarios_materialize():
    for name in SCENARIO_NAMES:
        scenario = materialize(name)
        assert scenario.name == name
        assert scenario.instance is not None or scenario.candidate_set is not None


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        materialize("bress")


def test_bad_params():
    with pytest.raises(BadParams):
        materialize("pigou", {"oops": 1})
    with pytest.raises(BadParams):
        materialize("braess", {"with_edge": "yes"})
    with pytest.raises(BadParams):
        materialize("counterexample", {"costing": "bpr"})
    with pytest.raises(BadParams):
        materialize("parallel", {"n": 0})
    with pytest.raises(BadParams):
        materialize("parallel", {"d": 10.0, "u": 10.0})


@pytest.mark.parametrize("n", [True, False, 1.0, 0, PARALLEL_ROUTES_CAP + 1, 2 ** 63])
def test_parallel_route_count_must_be_an_integer_within_the_cap(n):
    # a boolean passed isinstance(n, int), so n=true built one route and
    # reported "n": true; a count past the cap is rejected before any
    # network is built
    with pytest.raises(BadParams, match=f"n must be an integer from 1 to {PARALLEL_ROUTES_CAP}"):
        materialize("parallel", {"n": n})


@pytest.mark.parametrize("param", ["l", "v_max", "u", "d"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "fast", 10 ** 400])
def test_parallel_params_must_be_positive_numbers(param, value):
    # NaN passed the old `<= 0` test and failed later as ValueError in Trip or
    # Greenshields, an infinite l solved to a solver error and an infinite
    # v_max to a cost of 0, and a word and an integer beyond float range
    # failed in float()
    with pytest.raises(BadParams):
        materialize("parallel", {param: value})


def test_braess_edge_toggle():
    with_edge = materialize("braess", {"with_edge": True})
    without = materialize("braess", {"with_edge": False})
    assert len(with_edge.instance.network.edges) == 5
    assert len(without.instance.network.edges) == 4
    assert with_edge.candidate_set == without.candidate_set


def test_counterexample_costings(counterexample_mc, counterexample_gs):
    assert counterexample_mc.instance.trips[0].demand == 1.0
    assert counterexample_gs.instance.trips[0].demand == 5.0
    assert len(counterexample_mc.instance.network.edges) == 19


def test_parallel_three_routes_so_value():
    scenario = materialize("parallel", {"n": 3})
    result = solve_so(scenario.instance)
    assert result.total_cost == pytest.approx(6.0, abs=1e-6)


def test_braess_framework_matches_raw_network(braess_with):
    # the posed design problem realises the same graph as the raw fixture
    cs = braess_with.candidate_set
    full = cs.subset_network([0, 1])
    assert full == braess_with.instance.network
    ue_raw = solve_ue(braess_with.instance)
    from netdesign.routing import Instance

    ue_framework = solve_ue(Instance(full, cs.trips))
    assert ue_raw.total_cost == pytest.approx(ue_framework.total_cost, rel=1e-12)


def test_materialize_deterministic():
    for name in SCENARIO_NAMES:
        assert materialize(name) == materialize(name)


def test_instance_round_trip():
    for name in SCENARIO_NAMES:
        scenario = materialize(name)
        if scenario.instance is None:
            continue
        doc = instance_to_json(scenario.instance.network, scenario.instance.trips)
        text = json.dumps(doc, sort_keys=True)
        net, trips = instance_from_json(json.loads(text))
        assert net == scenario.instance.network
        assert trips == scenario.instance.trips


# sha256 of the sorted-key JSON of each fixture's candidate set (or, for
# "instance", of its instance), pinned so that a change to how fixtures are
# built cannot move a single byte of what they build
_PINNED_DIGESTS = (
    ("braess", None, "e8fe058e3805db0528f058dc69de9e962a1380fe0d10206538c472f3c047e3b1"),
    ("braess", {"with_edge": False},
     "e8fe058e3805db0528f058dc69de9e962a1380fe0d10206538c472f3c047e3b1"),
    ("fig3", None, "7cdebf0c9b890504a1c35b391a3adad180ed3c3cbb74256eeed50962b04aff89"),
    ("fig4", None, "9de5e870ee557ecd03d46ba9c5c78defde60655bba79794af7af874cd5ed1599"),
    ("counterexample", None,
     "75d3f51a06c8ea72f2ba4b2039e181dae6e1ea97cafc1ffa8857b33b5d634aae"),
    ("counterexample", {"costing": "greenshields"},
     "4599fdd13dfd7975fe3961660e845e1763aa6a91d964758f0e306ac27cb1575e"),
    ("parallel", None, "bee66f69ef4e524c1b80f926da19b60f9a16ac8ec4bd9f047ed62af3347a99b7"),
    ("parallel", {"n": 1}, "5fea8854f26ed931df665c33c256f3502010919dbab795e01b3c8e1dd9e2efb4"),
    ("parallel", {"n": 2}, "92d643d9b62291f844f3bd784704f16186749eea97a7355879813c8cefaff470"),
    ("parallel", {"n": 5}, "49e18d58204ccbb7250688d6d6c65789e110e074fd784eaf86199ef9c53e671a"),
    ("parallel", {"n": 8}, "43a72ce0388f972dd0162a053eae9c6082600b05c5c3d0929ccfa90dceafbc2c"),
    ("parallel", {"n": 4, "l": 2.0, "v_max": 3.0, "u": 7.0, "d": 2.5},
     "747f315c0f736741c973af62dff49fffc2528c4abc63a53f5a40793a9208eba1"),
    ("instance", ("pigou", None),
     "e8b63adeff89289288635a4b1999cfb952789df650428c11e0d6def91bb6c880"),
    ("instance", ("braess", {"with_edge": False}),
     "48f74aa348e25e8ef1e9936a1e434d2b46ccfae6bbf2c2f9c81528dd807cb2a3"),
)


@pytest.mark.parametrize("name, params, digest", _PINNED_DIGESTS)
def test_fixture_bytes_are_pinned(name, params, digest):
    if name == "instance":
        instance = materialize(*params).instance
        doc = instance_to_json(instance.network, instance.trips)
    else:
        doc = candidate_set_to_json(materialize(name, params).candidate_set)
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_scenario_descriptions_cover_all():
    names = [name for name, _ in scenario_descriptions()]
    assert names == list(SCENARIO_NAMES)


def test_random_candidate_set_deterministic():
    a = random_candidate_set(12, "constant")
    b = random_candidate_set(12, "constant")
    assert a == b


def test_random_candidate_set_same_topology_across_costings():
    const = random_candidate_set(9, "constant")
    greens = random_candidate_set(9, "greenshields")
    assert const.spanning_tree.trip_paths == greens.spanning_tree.trip_paths
    assert [c.path.nodes for c in const.candidates] == \
        [c.path.nodes for c in greens.candidates]


def test_random_candidate_set_valid():
    for seed in range(5):
        cs = random_candidate_set(seed, "greenshields")
        assert 1 <= len(cs.candidates) <= 5
        trip = cs.trips[0]
        for cand in cs.candidates:
            assert cand.path.nodes[0] == trip.source
            assert cand.path.nodes[-1] == trip.sink


def test_random_candidate_sets_keep_their_paths():
    # every 4x4 and 5x5 walk of seeds 0-199 stays within the back-up
    # budget, so these sets are those of the unbounded search
    digest = hashlib.sha256()
    for rows, cols in ((4, 4), (5, 5)):
        for seed in range(200):
            cs = random_candidate_set(seed, "constant", rows, cols)
            digest.update(repr((rows, cols, seed, cs.trips,
                                [p.nodes for p in cs.spanning_tree.trip_paths],
                                [c.path.nodes for c in cs.candidates],
                                [(e.pair, e.cost, e.capacity)
                                 for e in cs.template.network.edges])).encode())
    assert digest.hexdigest() == \
        "bb85b01fe26ee50554ff7407f8dd2a47ed34491427535706f05914b04ed2008c"


@pytest.mark.parametrize("seed, rows, cols", [(20, 6, 6), (1, 10, 10)])
def test_random_candidate_set_finishes_on_larger_grids(seed, rows, cols):
    # an unbounded search backs up more than 200,000 times on 6x6 seed 20
    # and does not finish on 10x10 seed 1 in 15 s
    started = time.perf_counter()
    cs = random_candidate_set(seed, "constant", rows, cols)
    assert time.perf_counter() - started < 10.0
    trip = cs.trips[0]
    for cand in cs.candidates:
        nodes = cand.path.nodes
        assert (nodes[0], nodes[-1]) == (trip.source, trip.sink)
        assert len(set(nodes)) == len(nodes)
        assert all(cs.template.network.has_edge(*pair) for pair in cand.path.edge_pairs)
    assert 1 <= len(cs.candidates) <= 5


def test_random_parallel_family_flavours():
    fam = random_parallel_family(3, "constant")
    assert fam.spanning_cost is not None
    assert len(fam.candidate_costs) == len(fam.candidate_set.candidates)
    fam2 = random_parallel_family(3, "greenshields")
    assert fam2.u is not None and fam2.d < fam2.u
    assert random_parallel_family(3, "greenshields") == fam2
