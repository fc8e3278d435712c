"""Dense two-phase primal simplex with Bland's rule.

Solves  min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0  for the
small path-formulation programs produced by this package (at most a few
hundred columns), so a dense tableau is the simplest correct choice.
Bland's entering/leaving rule guarantees termination without cycling;
pivots below ``tol`` are treated as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import Infeasible, NotConverged, Unbounded

PIVOT_TOL = 1e-9
# A solve that pivots more than this many times per constraint row (plus
# one) gives up with NotConverged.
PIVOTS_PER_ROW = 10_000


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray
    objective: float
    duals_eq: np.ndarray  # one per equality row, free sign
    duals_ub: np.ndarray  # one per inequality row, <= 0 at optimality
    slacks: np.ndarray
    iterations: int


def solve_lp(costs, a_eq, b_eq, a_ub=None, b_ub=None, tol: float = PIVOT_TOL) -> LPResult:
    c = np.asarray(costs, dtype=float)
    a_eq = np.asarray(a_eq, dtype=float).reshape(len(b_eq), -1) if len(b_eq) else np.zeros((0, c.size))
    b_eq = np.asarray(b_eq, dtype=float)
    if a_ub is None:
        a_ub = np.zeros((0, c.size))
        b_ub = np.zeros(0)
    a_ub = np.asarray(a_ub, dtype=float).reshape(len(b_ub), -1) if len(b_ub) else np.zeros((0, c.size))
    b_ub = np.asarray(b_ub, dtype=float)
    if np.any(b_eq < 0) or np.any(b_ub < 0):
        raise ValueError("right-hand sides must be non-negative")

    n = c.size
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    n_slack = m_ub
    n_art = m_eq

    # Column order: structural | slacks | artificials.
    full = np.zeros((m, n + n_slack + n_art))
    full[:m_eq, :n] = a_eq
    full[m_eq:, :n] = a_ub
    if n_slack:
        full[m_eq:, n:n + n_slack] = np.eye(m_ub)
    if n_art:
        full[:m_eq, n + n_slack:] = np.eye(m_eq)
    rhs = np.concatenate([b_eq, b_ub])
    basis = list(range(n + n_slack, n + n_slack + n_art)) + list(range(n, n + n_slack))
    # Row order matches the basis layout above: eq rows first.
    basis = basis[:m_eq] + basis[m_eq:]

    tableau = np.hstack([full, rhs[:, None]])

    iterations = 0

    def pivot(row, col):
        piv = tableau[row, col]
        tableau[row] /= piv
        for r in range(m):
            if r != row and abs(tableau[r, col]) > 0.0:
                tableau[r] -= tableau[r, col] * tableau[row]
        basis[row] = col

    def run_phase(cost_vec, allowed):
        nonlocal iterations
        while True:
            cb = cost_vec[basis]
            reduced = cost_vec[:-1] - cb @ tableau[:, :-1]
            entering = -1
            for j in range(len(reduced)):  # Bland: smallest eligible index
                if allowed[j] and reduced[j] < -tol:
                    entering = j
                    break
            if entering < 0:
                return
            ratios = []
            for i in range(m):
                coef = tableau[i, entering]
                if coef > tol:
                    ratios.append((tableau[i, -1] / coef, basis[i], i))
            if not ratios:
                raise Unbounded("objective unbounded along a feasible ray")
            ratios.sort(key=lambda t: (t[0], t[1]))  # Bland tie-break on basic index
            pivot(ratios[0][2], entering)
            iterations += 1
            if iterations > PIVOTS_PER_ROW * (m + 1):
                raise NotConverged(iterations, math.inf)

    total_cols = n + n_slack + n_art
    if n_art:
        phase1_cost = np.zeros(total_cols + 1)
        phase1_cost[n + n_slack:total_cols] = 1.0
        allowed = np.ones(total_cols, dtype=bool)
        run_phase(phase1_cost, allowed)
        infeas = float(phase1_cost[basis] @ tableau[:, -1])
        if infeas > 1e-7 * (1.0 + float(np.abs(rhs).sum())):
            raise Infeasible(f"phase-1 residual {infeas:.3e}")
        # Drive surviving artificials out of the basis (degenerate rows).
        for i in range(m):
            if basis[i] >= n + n_slack:
                for j in range(n + n_slack):
                    if abs(tableau[i, j]) > tol:
                        pivot(i, j)
                        break
                else:
                    # Redundant row: harmless for feasibility; zero it so it
                    # can never pivot again.
                    tableau[i, :] = 0.0

    phase2_cost = np.zeros(total_cols + 1)
    phase2_cost[:n] = c
    allowed = np.ones(total_cols, dtype=bool)
    allowed[n + n_slack:] = False
    run_phase(phase2_cost, allowed)

    x_full = np.zeros(total_cols)
    for i in range(m):
        if basis[i] < total_cols:
            x_full[basis[i]] = tableau[i, -1]
    x = x_full[:n]
    slacks = x_full[n:n + n_slack]
    objective = float(c @ x)

    duals_eq, duals_ub = _recover_duals(c, a_eq, a_ub, basis, n, n_slack, tol)
    return LPResult(x=x, objective=objective, duals_eq=duals_eq,
                    duals_ub=duals_ub, slacks=slacks, iterations=iterations)


def _recover_duals(c, a_eq, a_ub, basis, n, n_slack, tol):
    """Solve B^T y = c_B over the standard-form columns.

    y is split row-wise: equality rows first (free sign), then inequality
    rows (non-positive at optimality for a min problem).
    """
    m_eq, m_ub = a_eq.shape[0], a_ub.shape[0]
    m = m_eq + m_ub
    if m == 0:
        return np.zeros(0), np.zeros(0)
    a_struct = np.vstack([a_eq, a_ub]) if m else np.zeros((0, n))
    bmat = np.zeros((m, m))
    cb = np.zeros(m)
    for k, var in enumerate(basis):
        if var < n:
            bmat[:, k] = a_struct[:, var]
            cb[k] = c[var]
        elif var < n + n_slack:
            col = np.zeros(m)
            col[m_eq + (var - n)] = 1.0
            bmat[:, k] = col
        else:
            # Artificial for eq row (var - n - n_slack); only survives on a
            # zeroed redundant row, whose dual is immaterial.
            col = np.zeros(m)
            col[var - n - n_slack] = 1.0
            bmat[:, k] = col
    y, *_ = np.linalg.lstsq(bmat.T, cb, rcond=None)
    return y[:m_eq].copy(), y[m_eq:].copy()
