import json

import pytest

from netdesign.costs import Constant
from netdesign.design import (
    DOUBLE_PRIME,
    HOLDS,
    PRIME,
    VIOLATED,
    CandidateSet,
    DesignState,
    LambdaEvaluator,
    candidate_set_from_json,
    candidate_set_to_json,
    check_monotonicity,
    check_restriction,
    check_supermodularity,
    greedy_designer,
    lambda_eval,
    parallel_mc_value,
    parallel_uniform_value,
)
from netdesign.errors import BadParams, DomainError
from netdesign.routing import solve_so
from netdesign.scenarios import materialize, random_parallel_family


def parallel_mc_set(spanning_cost, candidate_costs, demand, capacity=10.0):
    """Single-trip parallel candidate set with constant path costs."""
    from netdesign.network import Edge, Network, TemplateGraph
    from netdesign.network import validate_trip_path_graph, validate_trip_spanning_tree
    from netdesign.network import Trip

    trip = Trip(0, 1, demand)
    defs = []
    route_costs = [spanning_cost] + list(candidate_costs)
    for i, cost in enumerate(route_costs):
        mid = 2 + i
        defs += [Edge(0, mid, Constant(cost / 2.0), capacity),
                 Edge(mid, 1, Constant(cost / 2.0), capacity)]
    template = TemplateGraph(Network(range(2 + len(route_costs)), defs))
    tem = template.network

    def member(i):
        mid = 2 + i
        return Network({0, mid, 1}, [tem.edge(0, mid), tem.edge(mid, 1)])

    tree = validate_trip_spanning_tree(member(0), (trip,))
    candidates = tuple(
        validate_trip_path_graph(member(i), trip, 0, i - 1)
        for i in range(1, len(route_costs)))
    return CandidateSet(template=template, spanning_tree=tree,
                        candidates=candidates, declared_class=DOUBLE_PRIME)


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


def test_declared_class_verified_on_construction(counterexample_mc):
    cs = counterexample_mc.candidate_set
    with pytest.raises(ValueError):
        CandidateSet(template=cs.template, spanning_tree=cs.spanning_tree,
                     candidates=cs.candidates, declared_class=DOUBLE_PRIME)


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


def test_greedy_budget_out_of_range(counterexample_mc):
    with pytest.raises(BadParams):
        greedy_designer("mc", counterexample_mc.candidate_set, budget=3)


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
