"""Dense two-phase primal simplex with Bland's rule.

Solves  min c.x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0  for the
small restricted path programs produced by this package (tens of
columns), so a dense tableau is the simplest correct choice.

Bland's rule enters the eligible column of smallest index and, among the
rows tied for the minimum ratio, removes the basic variable of smallest
index. It prevents cycling only in exact arithmetic: in floating point,
rounding separates ratios that are tied, so an exact comparison would
break the ties at random and degenerate programs (integer data) can
cycle. The ratio test therefore counts as tied every ratio within
``PIVOT_TOL * (1 + |minimum ratio|)`` of the minimum; that tolerance is
part of the termination guarantee. Pivots below ``PIVOT_TOL`` are treated
as zero, and a solve that still exceeds ``PIVOTS_PER_ROW`` pivots per row
raises NotConverged.

Phase 1 minimises the sum of one artificial column per equality row. When
it ends above ``PIVOT_TOL * (1 + sum b_eq)``, scaled by the rows that
carry the artificials and not by the inequality rows, the program is
infeasible, and the solve returns a result with ``feasible`` false instead
of raising: its ``x`` is empty, its ``objective`` is that phase-1 residual
and its duals are phase 1's, read off the tableau as phase 2's are. They
are a Farkas certificate: with ``y = (duals_eq, duals_ub)``,
``duals_ub <= 0`` and ``y . A_j <= 0`` for every column ``j`` (within
``PIVOT_TOL``), and ``y . b`` equals the residual, which is positive. A
column-generation caller prices new columns on them (Farkas pricing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import NotConverged, Unbounded

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
    iterations: int
    # False when phase 1 ended above its tolerance (see the module
    # docstring): x is then empty and objective is the phase-1 residual,
    # so every caller checks this before it reads a solution.
    feasible: bool


def solve_lp(costs, a_eq, b_eq, a_ub=None, b_ub=None) -> LPResult:
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
    full[m_eq:, n:n + n_slack] = np.eye(m_ub)
    full[:m_eq, n + n_slack:] = np.eye(m_eq)
    rhs = np.concatenate([b_eq, b_ub])
    # eq rows first: their artificials, then the slacks of the ub rows
    basis = list(range(n + n_slack, n + n_slack + n_art)) + list(range(n, n + n_slack))

    tableau = np.hstack([full, rhs[:, None]])

    iterations = 0

    def pivot(row, col):
        tableau[row] /= tableau[row, col]
        factors = tableau[:, col].copy()
        factors[row] = 0.0
        tableau[:] -= np.outer(factors, tableau[row])
        basis[row] = col

    def run_phase(cost_vec, allowed):
        nonlocal iterations
        while True:
            cb = cost_vec[basis]
            reduced = cost_vec[:-1] - cb @ tableau[:, :-1]
            eligible = np.flatnonzero(allowed & (reduced < -PIVOT_TOL))
            if not eligible.size:
                return
            entering = eligible[0]  # Bland: smallest eligible index
            rows = np.flatnonzero(tableau[:, entering] > PIVOT_TOL)
            if not rows.size:
                raise Unbounded("objective unbounded along a feasible ray")
            ratios = tableau[rows, -1] / tableau[rows, entering]
            low = ratios.min()
            tied = rows[ratios <= low + PIVOT_TOL * (1.0 + abs(low))]
            pivot(min(tied, key=basis.__getitem__), entering)  # Bland: smallest basic index
            iterations += 1
            if iterations > PIVOTS_PER_ROW * (m + 1):
                raise NotConverged(iterations, math.inf)

    total_cols = n + n_slack + n_art

    def result(cost_vec, residual=None):
        """The result at the current basis, priced on ``cost_vec``: phase 2's,
        or phase 1's with its ``residual`` when the program is infeasible."""
        x_full = np.zeros(total_cols)
        x_full[basis] = tableau[:, -1]
        x = x_full[:n] if residual is None else np.zeros(0)  # no phase-1 point to misread
        # y = c_B B^-1, read off the slack and artificial columns: their
        # original columns are unit vectors, so the tableau holds B^-1 there
        y = cost_vec[basis] @ tableau[:, n:total_cols]
        return LPResult(x=x, objective=float(c @ x) if residual is None else residual,
                        duals_eq=y[n_slack:], duals_ub=y[:n_slack], iterations=iterations,
                        feasible=residual is None)

    if n_art:
        phase1_cost = np.zeros(total_cols + 1)
        phase1_cost[n + n_slack:total_cols] = 1.0
        allowed = np.ones(total_cols, dtype=bool)
        run_phase(phase1_cost, allowed)
        infeas = float(phase1_cost[basis] @ tableau[:, -1])
        if infeas > PIVOT_TOL * (1.0 + float(b_eq.sum())):
            return result(phase1_cost, infeas)
        # Drive surviving artificials out of the basis (degenerate rows).
        for i in range(m):
            if basis[i] >= n + n_slack:
                for j in range(n + n_slack):
                    if abs(tableau[i, j]) > PIVOT_TOL:
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
    return result(phase2_cost)

