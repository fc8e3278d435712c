import random

import numpy as np
import pytest

from netdesign import simplex
from netdesign.costs import Constant
from netdesign.errors import Unbounded
from netdesign.network import Edge, Network, Trip, enumerate_trip_paths
from netdesign.routing import Instance, solve_mc
from netdesign.simplex import solve_lp
from brute_force import mc_highs_value


def test_single_variable():
    # min 3x s.t. x = 2
    res = solve_lp([3.0], [[1.0]], [2.0])
    assert res.x[0] == pytest.approx(2.0)
    assert res.objective == pytest.approx(6.0)
    assert res.duals_eq[0] == pytest.approx(3.0)


def test_two_paths_capacity_split():
    # demand 2 over a cheap path capped at 1 and an expensive one
    res = solve_lp([1.0, 3.0], [[1.0, 1.0]], [2.0], [[1.0, 0.0]], [1.0])
    assert res.x == pytest.approx([1.0, 1.0])
    assert res.objective == pytest.approx(4.0)
    # capacity row price reflects the 2-unit saving of one more cheap unit
    assert res.duals_ub[0] == pytest.approx(-2.0)
    assert res.duals_eq[0] == pytest.approx(3.0)


def test_degenerate_ties_terminate():
    # identical columns force ties; Bland's rule must terminate
    res = solve_lp([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [3.0],
                   [[1.0, 1.0, 0.0]], [3.0])
    assert res.objective == pytest.approx(3.0)


def test_infeasible_capacity():
    # demand 2 through a column capped at 1: phase 1 keeps 1 unit artificial
    res = solve_lp([1.0], [[1.0]], [2.0], [[1.0]], [1.0])
    assert not res.feasible
    assert res.x.size == 0  # no solution to read by mistake
    assert res.objective == pytest.approx(1.0)
    assert_farkas(res, [[1.0]], [2.0], [[1.0]], [1.0])


def assert_farkas(res, a_eq, b_eq, a_ub, b_ub):
    """The infeasible result's duals y prove that no x >= 0 meets the
    rows: y <= 0 on the inequality rows, y . A_j <= 0 for every column and
    y . b, which equals the phase-1 residual, > 0."""
    a = np.vstack([np.asarray(a_eq, dtype=float), np.asarray(a_ub, dtype=float)])
    b = np.concatenate([b_eq, b_ub])
    y = np.concatenate([res.duals_eq, res.duals_ub])
    assert np.all(res.duals_ub <= simplex.PIVOT_TOL)
    assert np.all(y @ a <= 1e-9 * (1.0 + np.abs(y) @ np.abs(a)))
    assert y @ b == pytest.approx(res.objective, rel=1e-9, abs=1e-12)
    assert res.objective > 0.0


def test_infeasible_duals_are_a_farkas_certificate():
    # random programs whose inequality rows cut below a point of the
    # equality rows; dense ones and 0/1 path-like ones, which are degenerate
    rng = np.random.default_rng(3)
    met = 0
    for trial in range(240):
        n, m_eq, m_ub = rng.integers(2, 8), rng.integers(1, 4), rng.integers(1, 5)
        if trial % 2:
            a_eq = rng.uniform(0.2, 1.0, size=(m_eq, n))
            a_ub = rng.uniform(0.0, 1.0, size=(m_ub, n))
        else:
            a_eq = (rng.uniform(size=(m_eq, n)) < 0.5).astype(float)
            a_eq[rng.integers(m_eq), :] = 1.0  # no all-zero column
            a_ub = (rng.uniform(size=(m_ub, n)) < 0.6).astype(float)
        b_eq = a_eq @ rng.uniform(0.5, 1.5, size=n)
        b_ub = np.maximum(a_ub @ rng.uniform(0.0, 1.0, size=n) - rng.uniform(0.0, 1.0, size=m_ub),
                          0.0)
        res = solve_lp(rng.uniform(0.5, 2.0, size=n), a_eq, b_eq, a_ub, b_ub)
        if not res.feasible:
            met += 1
            assert_farkas(res, a_eq, b_eq, a_ub, b_ub)
    assert met >= 150


def test_unbounded_detected():
    # min -x with x free to grow
    with pytest.raises(Unbounded):
        solve_lp([-1.0], np.zeros((0, 1)), [], [[0.0]], [1.0])


def test_duals_certify_optimality():
    # three paths, two trips, one shared capacitated edge
    costs = np.array([2.0, 5.0, 4.0])
    a_eq = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    b_eq = np.array([2.0, 1.0])
    a_ub = np.array([[1.0, 0.0, 1.0]])
    b_ub = np.array([2.0])
    res = solve_lp(costs, a_eq, b_eq, a_ub, b_ub)
    # reduced costs of the standard form must be nonnegative at a minimum
    y = np.concatenate([res.duals_eq, res.duals_ub])
    a_full = np.vstack([a_eq, a_ub])
    reduced = costs - a_full.T @ y
    assert np.all(reduced >= -1e-9)
    # complementary slackness on structural variables
    assert np.all(np.abs(res.x * reduced) < 1e-9)
    # slack duals are nonpositive
    assert np.all(res.duals_ub <= 1e-12)


def test_matches_vertex_enumeration():
    # random dense LPs, checked against brute force over basic solutions
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m_eq, m_ub = 4, 2, 2
        a_eq = rng.uniform(0.2, 1.0, size=(m_eq, n))
        x_feas = rng.uniform(0.5, 1.5, size=n)
        b_eq = a_eq @ x_feas
        a_ub = rng.uniform(0.0, 1.0, size=(m_ub, n))
        b_ub = a_ub @ x_feas + rng.uniform(0.1, 1.0, size=m_ub)
        costs = rng.uniform(0.5, 2.0, size=n)
        res = solve_lp(costs, a_eq, b_eq, a_ub, b_ub)

        best = None
        import itertools
        a_std = np.zeros((m_eq + m_ub, n + m_ub))
        a_std[:m_eq, :n] = a_eq
        a_std[m_eq:, :n] = a_ub
        a_std[m_eq:, n:] = np.eye(m_ub)
        b = np.concatenate([b_eq, b_ub])
        for cols in itertools.combinations(range(n + m_ub), m_eq + m_ub):
            mat = a_std[:, cols]
            if abs(np.linalg.det(mat)) < 1e-10:
                continue
            sol = np.linalg.solve(mat, b)
            if np.any(sol < -1e-9):
                continue
            x = np.zeros(n + m_ub)
            x[list(cols)] = sol
            val = costs @ x[:n]
            if best is None or val < best:
                best = val
        assert best is not None
        assert res.objective == pytest.approx(best, abs=1e-8)


# -- degenerate integer programs ---------------------------------------------------


def integer_grid(seed):
    """A 4x5 grid, both directions between neighbours, with integer costs
    1-9, capacities 2-6 and three trips of demand 2-4 (0->19, 4->15, 15->4).

    Seeds 5, 14, 20 and 22 give path programs so degenerate that an exact
    float comparison of tied ratios lets Bland's rule cycle at the optimum.
    """
    rng = random.Random(f"cyc-{seed}")
    demands = [rng.randint(2, 4) for _ in range(3)]
    pairs = []
    for a in range(20):
        if (a + 1) % 5:
            pairs += [(a, a + 1), (a + 1, a)]
        if a + 5 < 20:
            pairs += [(a, a + 5), (a + 5, a)]
    pairs.sort()
    costs = [rng.randint(1, 9) for _ in pairs]
    caps = [rng.randint(2, 6) for _ in pairs]
    net = Network(range(20), [Edge(i, j, Constant(float(c)), float(u))
                              for (i, j), c, u in zip(pairs, costs, caps)])
    trips = tuple(Trip(s, t, float(d)) for (s, t), d in zip(((0, 19), (4, 15), (15, 4)), demands))
    return Instance(net, trips)


INTEGER_OPTIMA = {5: 241.0, 14: 343.0, 20: 387.0, 22: 253.0}


@pytest.mark.parametrize("seed", [5, 22])
def test_tied_ratios_do_not_cycle(seed, monkeypatch):
    # the full path program over all 2,928 simple paths, within a budget of
    # 100 pivots per row: an exact-float ratio test was still cycling there
    monkeypatch.setattr(simplex, "PIVOTS_PER_ROW", 100)
    instance = integer_grid(seed)
    net = instance.network
    paths = list(enumerate_trip_paths(net, instance.trips).all_paths())
    col = {pair: k for k, pair in enumerate(net.edge_pairs)}
    incidence = np.zeros((len(paths), len(col)))
    for r, p in enumerate(paths):
        incidence[r, [col[pair] for pair in p.edge_pairs]] = 1.0
    a_eq = np.zeros((len(instance.trips), len(paths)))
    a_eq[[p.trip_index for p in paths], np.arange(len(paths))] = 1.0
    costs = incidence @ np.array([net.edge(*pair).cost.c for pair in net.edge_pairs])
    caps = [net.edge(*pair).capacity for pair in net.edge_pairs]
    res = solve_lp(costs, a_eq, [t.demand for t in instance.trips], incidence.T, caps)
    assert res.objective == pytest.approx(INTEGER_OPTIMA[seed], rel=1e-9)


@pytest.mark.parametrize("seed", sorted(INTEGER_OPTIMA))
def test_integer_grids_match_highs(seed):
    pytest.importorskip("scipy")
    instance = integer_grid(seed)
    highs = mc_highs_value(instance)
    assert highs == pytest.approx(INTEGER_OPTIMA[seed], rel=1e-9)
    r = solve_mc(instance)
    assert abs(r.total_cost - highs) <= 1e-7 * (1.0 + highs)
    assert r.certificate.satisfied
