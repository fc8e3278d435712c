"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test asserts its numeric targets and its runtime budget; the summary
hook in conftest prints one PASS/FAIL line per criterion after the run.
"""

import time

import pytest

from netdesign.costs import (
    Affine,
    BPR,
    Constant,
    Greenshields,
    beckmann_integral,
    evaluate,
    derivative,
)
from netdesign.design import (
    HOLDS,
    VIOLATED,
    LambdaEvaluator,
    check_monotonicity,
    check_supermodularity,
    parallel_mc_value,
    parallel_uniform_value,
)
from netdesign.routing import (
    Instance,
    solve_mc,
    solve_so,
    solve_ue,
    so_ue_bridge,
    verify_certificate,
)
from netdesign.scenarios import (
    materialize,
    random_candidate_set,
    random_parallel_family,
)
from brute_force import mc_grid_oracle


def test_criterion_01_braess_equilibrium_reproduction(braess_with, braess_without):
    start = time.monotonic()
    without = solve_ue(braess_without.instance)
    with_edge = solve_ue(braess_with.instance)
    assert without.total_cost == pytest.approx(498.0, abs=1e-4)
    assert without.per_trip_cost[0] == pytest.approx(83.0, abs=1e-4)
    assert with_edge.total_cost == pytest.approx(552.0, abs=1e-4)
    assert with_edge.per_trip_cost[0] == pytest.approx(92.0, abs=1e-4)
    assert with_edge.total_cost - without.total_cost == pytest.approx(54.0, abs=1e-4)
    assert time.monotonic() - start < 1.0


def test_criterion_02_pigou_table(pigou):
    start = time.monotonic()
    ue = solve_ue(pigou.instance)
    flows = ue.assignment.path_flow_map()
    assert flows["0-1-3"] == pytest.approx(0.0, abs=1e-4)
    assert flows["0-2-3"] == pytest.approx(1.0, abs=1e-4)
    assert ue.total_cost == pytest.approx(1.0, abs=1e-4)
    so = solve_so(pigou.instance)
    flows = so.assignment.path_flow_map()
    assert flows["0-1-3"] == pytest.approx(0.5, abs=1e-4)
    assert flows["0-2-3"] == pytest.approx(0.5, abs=1e-4)
    assert so.total_cost == pytest.approx(0.75, abs=1e-4)
    assert time.monotonic() - start < 1.0


def test_criterion_03_constant_cost_ladder_and_witness(counterexample_mc):
    cs = counterexample_mc.candidate_set
    evaluator = LambdaEvaluator(cs)
    ladder = [evaluator.value("mc", s).value for s in [(), (0,), (1,), (0, 1)]]
    assert ladder == pytest.approx([9.0, 9.0, 7.0, 5.0], abs=1e-9)
    report = check_supermodularity("mc", cs)
    assert report.verdict == VIOLATED
    witness = next(w for w in report.witnesses
                   if w.subset_a == () and w.subset_b == (1,) and w.x == 0)
    assert witness.margin == pytest.approx(-2.0, abs=1e-9)


def test_criterion_04_congestion_ladders(counterexample_gs):
    start = time.monotonic()
    cs = counterexample_gs.candidate_set
    evaluator = LambdaEvaluator(cs)
    so = [evaluator.value("so", s).value for s in [(), (0,), (1,), (0, 1)]]
    ue = [evaluator.value("ue", s).value for s in [(), (0,), (1,), (0, 1)]]
    for got, target in zip(so, (30.0, 29.28, 27.47, 24.97)):
        assert got == pytest.approx(target, abs=0.01)
    for got, target in zip(ue, (30.0, 30.0, 30.0, 26.66)):
        assert got == pytest.approx(target, abs=0.01)
    for s in [(), (0,), (1,), (0, 1)]:
        assert evaluator.value("so", s).relative_gap <= 1e-8
        assert evaluator.value("ue", s).relative_gap <= 1e-8
    assert time.monotonic() - start < 30.0


def test_criterion_05_monotonicity_suite(braess_with):
    start = time.monotonic()
    for seed in range(50):
        constant = random_candidate_set(seed, "constant")
        report = check_monotonicity("mc", constant)
        assert report.verdict == HOLDS, (seed, report.witnesses)
        greens = random_candidate_set(seed, "greenshields")
        report = check_monotonicity("so", greens)
        assert report.verdict == HOLDS, (seed, report.witnesses)
    braess_report = check_monotonicity("ue", braess_with.candidate_set)
    assert braess_report.verdict == VIOLATED
    witness = max(braess_report.witnesses, key=lambda w: w.margin)
    assert witness.lhs == pytest.approx(552.0, abs=1e-4)
    assert witness.rhs == pytest.approx(498.0, abs=1e-4)
    assert time.monotonic() - start < 300.0


def test_criterion_06_parallel_supermodularity_suite():
    start = time.monotonic()
    for seed in range(20):
        fam = random_parallel_family(seed, "constant")
        report = check_supermodularity("mc", fam.candidate_set)
        assert report.verdict == HOLDS, (seed, report.witnesses)
        for ev in report.evaluations:
            closed = parallel_mc_value(
                fam.spanning_cost, fam.candidate_costs, ev.subset, fam.d)
            assert ev.value == pytest.approx(closed, rel=1e-4)
    for seed in range(20):
        fam = random_parallel_family(seed, "greenshields")
        for routing in ("so", "ue"):
            report = check_supermodularity(routing, fam.candidate_set)
            assert report.verdict == HOLDS, (seed, routing, report.witnesses)
            for ev in report.evaluations:
                closed = parallel_uniform_value(
                    routing, len(ev.subset) + 1, fam.l, fam.v_max, fam.u, fam.d)
                assert ev.value == pytest.approx(closed, rel=1e-4)
    assert time.monotonic() - start < 300.0


def _certificate_corpus():
    instances = [
        materialize("pigou").instance,
        materialize("braess", {"with_edge": False}).instance,
        materialize("braess", {"with_edge": True}).instance,
        materialize("parallel", {"n": 2}).instance,
        materialize("parallel", {"n": 4}).instance,
    ]
    gs = materialize("counterexample", {"costing": "greenshields"}).candidate_set
    for subset in [(), (0,), (1,), (0, 1)]:
        instances.append(Instance(gs.subset_network(subset), gs.trips))
    for seed in range(5):
        cs = random_candidate_set(seed, "greenshields")
        instances.append(Instance(cs.subset_network(range(len(cs.candidates))), cs.trips))
    return instances


def test_criterion_07_certificate_suite():
    for instance in _certificate_corpus():
        so = solve_so(instance)
        cert = verify_certificate(instance, so)
        assert cert.satisfied, (instance, cert)
        assert cert.max_violation <= cert.tolerance
        ue = solve_ue(instance)
        cert = verify_certificate(instance, ue)
        assert cert.satisfied, (instance, cert)
        recomposed = sum(
            t.demand * c for t, c in zip(instance.trips, ue.per_trip_cost))
        assert ue.total_cost == pytest.approx(recomposed, rel=1e-8)


def test_criterion_08_marginal_cost_bridge(pigou, counterexample_gs):
    instances = [pigou.instance, counterexample_gs.instance]
    for seed in range(10):
        cs = random_candidate_set(seed, "greenshields")
        instances.append(Instance(cs.subset_network(range(len(cs.candidates))), cs.trips))
    for instance in instances:
        bridge = so_ue_bridge(instance)
        assert bridge.marginal_ue_total == pytest.approx(bridge.so_total, rel=1e-4)


def test_criterion_09_analytic_suite():
    models = [
        Constant(3.0),
        Affine(50.0, 1.0),
        Greenshields(1.0, 1.0, 10.0),
        BPR(3.0, 10.0, 1.0, 4.0),
    ]
    for model in models:
        top = model.u * 0.9 if isinstance(model, Greenshields) else 20.0
        for i in range(100):
            x = top * i / 99.0
            h = 1e-6 * max(1.0, x)
            if x - h < 0:
                continue
            slope_fd = (evaluate(model, x + h) - evaluate(model, x - h)) / (2 * h)
            assert derivative(model, x) == pytest.approx(slope_fd, rel=1e-5, abs=1e-8)
            integral_fd = (beckmann_integral(model, x + h)
                           - beckmann_integral(model, x - h)) / (2 * h)
            assert evaluate(model, x) == pytest.approx(integral_fd, rel=1e-5, abs=1e-8)


def _small_mc_corpus():
    from netdesign.network import Edge, Network, Trip

    def net_of(defs):
        nodes = {n for i, j, *_ in defs for n in (i, j)}
        return Network(nodes, [Edge(i, j, cost, cap) for i, j, cost, cap in defs])

    gs = materialize("counterexample", {"costing": "mc"}).candidate_set
    return [
        Instance(gs.subset_network(()), gs.trips),  # single path
        Instance(net_of([(0, 1, Constant(4.0), 3.0)]), (Trip(0, 1, 2.0),)),
        Instance(net_of([
            (0, 1, Constant(1.0), 1.0), (1, 3, Constant(1.0), 1.0),
            (0, 2, Constant(3.0), 10.0), (2, 3, Constant(3.0), 10.0),
        ]), (Trip(0, 3, 2.0),)),
        Instance(net_of([
            (0, 2, Constant(1.0), 0.5), (2, 1, Constant(1.0), 0.5),
            (0, 3, Constant(2.0), 1.0), (3, 1, Constant(2.0), 1.0),
            (0, 4, Constant(4.0), 5.0), (4, 1, Constant(4.0), 5.0),
        ]), (Trip(0, 1, 2.0),)),
        Instance(net_of([
            (0, 2, Constant(1.0), 10.0), (2, 3, Constant(1.0), 1.0),
            (3, 1, Constant(1.0), 10.0), (0, 3, Constant(5.0), 10.0),
            (2, 1, Constant(5.0), 10.0),
            (4, 2, Constant(1.0), 10.0), (3, 5, Constant(1.0), 10.0),
            (4, 5, Constant(9.0), 10.0),
        ]), (Trip(0, 1, 1.0), Trip(4, 5, 1.0))),
    ]


def test_criterion_10_mc_grid_oracle_suite():
    from netdesign.network import enumerate_trip_paths

    for instance in _small_mc_corpus():
        paths = enumerate_trip_paths(instance.network, instance.trips)
        assert all(len(group) <= 3 for group in paths.per_trip)
        result = solve_mc(instance)
        oracle, step_bound = mc_grid_oracle(instance)
        assert result.total_cost <= oracle + 1e-9
        assert oracle - result.total_cost <= step_bound + 1e-9


def test_aggregate_verdict_matrix(braess_with, counterexample_mc, counterexample_gs):
    """The qualitative summary: monotone holds for the cooperative regimes
    and fails for equilibrium routing; supermodularity fails in general for
    all three and holds on parallel families for all three."""
    matrix = {}
    matrix[("monotone", "mc")] = check_monotonicity(
        "mc", counterexample_mc.candidate_set).verdict
    matrix[("monotone", "so")] = check_monotonicity(
        "so", counterexample_gs.candidate_set).verdict
    matrix[("monotone", "ue")] = check_monotonicity(
        "ue", braess_with.candidate_set).verdict
    matrix[("supermodular", "mc")] = check_supermodularity(
        "mc", counterexample_mc.candidate_set).verdict
    matrix[("supermodular", "so")] = check_supermodularity(
        "so", counterexample_gs.candidate_set).verdict
    matrix[("supermodular", "ue")] = check_supermodularity(
        "ue", counterexample_gs.candidate_set).verdict
    parallel_const = random_parallel_family(0, "constant").candidate_set
    parallel_gs = random_parallel_family(0, "greenshields").candidate_set
    matrix[("parallel-supermodular", "mc")] = check_supermodularity(
        "mc", parallel_const).verdict
    matrix[("parallel-supermodular", "so")] = check_supermodularity(
        "so", parallel_gs).verdict
    matrix[("parallel-supermodular", "ue")] = check_supermodularity(
        "ue", parallel_gs).verdict
    assert matrix == {
        ("monotone", "mc"): HOLDS,
        ("monotone", "so"): HOLDS,
        ("monotone", "ue"): VIOLATED,
        ("supermodular", "mc"): VIOLATED,
        ("supermodular", "so"): VIOLATED,
        ("supermodular", "ue"): VIOLATED,
        ("parallel-supermodular", "mc"): HOLDS,
        ("parallel-supermodular", "so"): HOLDS,
        ("parallel-supermodular", "ue"): HOLDS,
    }
