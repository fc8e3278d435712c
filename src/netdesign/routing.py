"""Routing solvers for a network instance.

Three problems share one path space, which never lists every simple
path: it starts from each trip's cheapest path and grows by pricing, a
shortest path under given edge costs that joins the set when new.

Pricing labels each node with its distance to the trip's sink. On an
acyclic network the labels come from one sweep in reverse topological
order, which the network computes once and keeps (Ahuja, Magnanti &
Orlin, 1993, section 4.4); on a network with a cycle, from Dijkstra. The
sweep makes the additions and comparisons Dijkstra makes, so both give
the same labels bit for bit, and one forward walk over the edges that
the labels make tight picks the lexicographically smallest shortest path:
from each node, the lowest-id tight edge to a node off its path. Only a
tight cycle of zero-cost edges can leave it at a node whose every tight
edge leads back onto its path; from such a dead end the search restarts
as a guarded walk, which checks before each step that the sink is still
reachable off the path, and returns the same path in time polynomial in
the network.

The capacitated constant-cost program (``mc``) starts from each trip's
cheapest path. When those paths fit the capacities they are optimal, as
they are without capacities, and the solve returns them with zero
capacity prices and no master. Otherwise it is solved exactly by path
column generation (Ford & Fulkerson, 1958): a restricted master linear
program over the generated paths is solved with the simplex, and each
trip is priced on the edge costs plus the master's capacity prices. A
priced path joins the master when it is cheaper than its trip's potential;
when none is, the master's solution is optimal over all paths. Since
the cheapest paths overload a capacity here, the first masters may not
carry the demand. The simplex then returns the master marked infeasible
with its phase-1 duals, a Farkas certificate, and the same loop prices
each trip on the phase-1 capacity prices alone against its phase-1
potential (Farkas pricing; Lübbecke & Desrosiers, 2005). An infeasible
master that no new path improves means the instance is infeasible.

The congestion-priced system-optimal (``so``) and user-equilibrium
(``ue``) flows are computed by one path-based projected Newton method
(Bertsekas & Gafni, 1983; Jayakrishnan et al., 1994), pricing on the
current marginal costs (so) or travel times (ue). On a network with a
flow bound the solve starts from incremental loading (Sheffi, 1985,
ch. 5): each trip's demand in equal parts, each on the cheapest path
under the current gradient that the part keeps below every flow bound.
Without flow bounds, and when loading finds no open path for a part, it
starts from the all-or-nothing flows under zero-flow costs. Each step
prices every trip and stops once the relative duality gap is within
tolerance.
Otherwise a priced path that beats its trip's used paths joins them, and a
Newton step on the used paths' KKT system equalises their gradients. The
step is taken whole when it lowers the objective and is cut back to the
line minimum otherwise, found by a safeguarded Newton iteration on the
directional derivative. Both Newton iterations take the objective's edge
gradient and curvature from one closed-form pass per cost family, each on
the whole edge arrays; on a network of several families each edge's
values are picked from its own family's pass.

What routing derives from a network's edges is one edge calculator: one
edge table whose rows are every family's parameters (each edge holds
neutral values in the other families' rows), the level forms, the flow
bounds, the capacities and, when every edge cost is a bare constant, the
mc edge costs. It is built on first use and kept with the network
(``Network.derived``), so solving and certifying one network again
rebuilds none of it. A network cut from a template (``Network.restrict``)
gathers its calculator by edge id from the template's, which is built
once: the table's columns in one gather, and the level forms the same
way when first needed.

A path is kept as the list of its edge ids, as the search returns it, and
only the path space reads the lists. A path's cost sums the edge values
along its list, and the edge flows add each path's flow to its edges in
path order; neither uses BLAS, and a path that carries no flow changes no
edge flow's bits. Only the Newton system and the mc master take dense 0/1
rows, built for the paths they hold.

Every accepted solution carries an optimality certificate recomputed from
first principles: each trip meets its demand, and its used paths cost no
more than its cheapest path, priced by the same search, under marginal costs
(so), travel times (ue) or costs plus capacity prices (mc); mc also
checks that loads stay within capacity and that every priced edge is
full. Because each pricing finds the cheapest of all simple paths, the
duality gaps and the certificates hold over all of them.

``SolverConfig.path_limit`` caps the paths a solve generates per trip, for
all three routings. Passing it raises PathLimitExceeded.

Solvers are deterministic: identical inputs and configuration produce
bit-identical results. Shortest-path and direction-finding ties are broken
toward the lexicographically smallest node sequence.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .costs import (
    FAMILIES,
    Marginalized,
    evaluate,
    marginal_model,
    max_flow_bound,
)
from .errors import (
    BadParams,
    CapacitySaturation,
    Infeasible,
    NotConverged,
    PathLimitExceeded,
    Unreachable,
)
from .network import (
    DEFAULT_PATH_LIMIT,
    Edge,
    Network,
    Path,
    Trip,
    enumerate_trip_paths,  # unused here; perfbench's traced run binds this attribute
)
from .simplex import solve_lp

MC = "mc"
SO = "so"
UE = "ue"
ROUTINGS = (MC, SO, UE)

# A path counts as used when it carries more than this fraction of its
# trip's demand; certificates and support detection share the threshold.
USED_FLOW_FRACTION = 1e-6

# Certificates let a used path cost this fraction of (1 + the cheapest
# path's cost) more than the cheapest path, and allow flow errors of this
# fraction of (1 + the demand or capacity).
CERTIFICATE_RTOL = 1e-6

# mc pricing: a path joins the master when it is cheaper than its trip's
# potential by more than this fraction of (1 + |potential|).
MC_PRICE_RTOL = 1e-9

_CERT_KIND = {
    MC: "mc-dual-feasible",
    SO: "so-marginal-equalized",
    UE: "ue-wardrop",
}


@dataclass(frozen=True)
class Instance:
    """A network, its trips, and (implicitly, on the edges) the cost models."""

    network: Network
    trips: Tuple[Trip, ...]

    def __post_init__(self):
        object.__setattr__(self, "trips", tuple(self.trips))
        if not self.trips:
            raise ValueError("an instance needs at least one trip")
        for m, trip in enumerate(self.trips):
            if trip.source not in self.network.nodes or trip.sink not in self.network.nodes:
                raise ValueError(f"trip {m} endpoints missing from the network")


@dataclass(frozen=True)
class SolverConfig:
    relative_gap_tol: float = 1e-10  # so/ue stop once the relative duality gap is this small
    max_iterations: int = 100_000  # so/ue Newton steps before NotConverged
    capacity_margin: float = 1e-9  # so/ue steps keep flows this fraction inside flow bounds
    path_limit: int = DEFAULT_PATH_LIMIT  # paths a solve generates per trip

    def __post_init__(self):
        for name in ("max_iterations", "path_limit"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (self.relative_gap_tol > 0 and self.max_iterations > 0
                and self.capacity_margin > 0 and self.path_limit > 0):
            raise ValueError("solver configuration values must be positive")
        if not math.isfinite(self.relative_gap_tol):
            raise ValueError("relative_gap_tol must be finite")
        if not self.capacity_margin < 1:
            raise ValueError("capacity_margin must be below 1")


@dataclass(frozen=True)
class FlowAssignment:
    """Nonnegative path flows plus the edge flows they induce."""

    paths: Tuple[Path, ...]
    flows: Tuple[float, ...]
    edge_flows: Tuple[Tuple[Tuple[int, int], float], ...]  # sorted by edge pair
    trip_totals: Tuple[float, ...]

    def edge_flow_map(self) -> Dict[Tuple[int, int], float]:
        return dict(self.edge_flows)

    def path_flow_map(self) -> Dict[str, float]:
        return {p.key(): f for p, f in zip(self.paths, self.flows)}


@dataclass(frozen=True)
class OptimalityCertificate:
    kind: str
    max_violation: float
    per_trip_spread: Tuple[float, ...]
    tolerance: float
    satisfied: bool


@dataclass(frozen=True)
class MCDuals:
    trip_potentials: Tuple[float, ...]
    edge_prices: Tuple[Tuple[Tuple[int, int], float], ...]  # >= 0, capacity rows


@dataclass(frozen=True)
class SolveResult:
    routing: str
    assignment: FlowAssignment
    total_cost: float
    per_trip_cost: Tuple[float, ...]        # ue: the common cost; mc/so: min used-path cost
    per_trip_used_range: Tuple[Tuple[float, float], ...]
    iterations: int                          # so/ue: Newton steps; mc: pivots of all master solves
    relative_gap: float
    certificate: OptimalityCertificate
    duals: Optional[MCDuals] = None


def _num(x: float) -> float:
    # normalises -0.0 so serialised reports are stable
    return 0.0 if x == 0.0 else float(x)


# The flat arrays of a path space with no rows; arrays that are never written.
_NO_ENTRIES = tuple(np.zeros((2, 0), dtype=np.intp))


class _PathSpace:
    """The paths a solve works on, grouped by trip, each kept as its edge ids.

    It starts empty and grows by pricing: ``price`` adds each trip's
    cheapest path under given edge costs when it is new. Rows are numbered
    in the order paths arrive and a flow vector sized before later arrivals
    gives them zero flow; reports list each trip's paths in lexicographic
    order.

    The rows' edge ids lie end to end in one flat list, beside a list of
    each entry's row; their arrays grow on the first read after paths
    arrive. A path has at least one edge, since a trip's source is never
    its sink, so no row is empty. Both sums run over the entries in order,
    with no BLAS: ``path_costs`` adds each row's gathered edge values left
    to right, and ``edge_flows`` adds each row's flow to its edges in row
    order, so a row of zero flow changes no edge flow's bits and the
    thread count none at all. ``incidence`` builds dense 0/1 rows only for
    the operands that need them: the Newton system's support and the mc
    master's capacity rows.
    """

    def __init__(self, instance: Instance, limit: int):
        self.instance = instance
        net = instance.network
        self.limit = limit  # most paths per trip
        self.edge_pairs = net.edge_pairs
        self.demands = np.array([t.demand for t in instance.trips])
        self.demand_list = self.demands.tolist()
        self.capacities = _calculator(net).capacities
        # node positions of each trip's source and sink
        self.ends = [(net.position(t.source), net.position(t.sink)) for t in instance.trips]
        self.paths = []
        self.trip_of = []  # trip index of each row
        self._row = {}  # (trip index, node sequence) -> row
        self.groups = [[] for _ in instance.trips]  # rows of each trip
        self._priced = None  # (edge cost list, rows) of the last pricing
        self._ids = []  # every row's edge ids, row after row
        self._of = []  # the row of each entry of _ids
        self._arrays = _NO_ENTRIES  # _flat's, for the entries they hold

    def add(self, m: int, nodes: Tuple[int, ...], ids: Optional[Sequence[int]] = None) -> int:
        """Row of trip ``m``'s path ``nodes``, appended when new; ``ids`` are
        the path's edge ids, looked up from its pairs when not given."""
        row = self._row.get((m, nodes))
        if row is not None:
            return row
        if len(self.groups[m]) >= self.limit:
            raise PathLimitExceeded(self.limit, self.instance.trips[m])
        row = len(self.paths)
        if ids is None:
            edge_id = self.instance.network.edge_id
            ids = [edge_id(*pair) for pair in zip(nodes, nodes[1:])]
        self._ids += ids
        self._of += [row] * len(ids)
        self.paths.append(Path(m, nodes))
        self.trip_of.append(m)
        self._row[(m, nodes)] = row
        self.groups[m].append(row)
        return row

    def price(self, edge_costs: np.ndarray) -> np.ndarray:
        """Rows of each trip's cheapest path under ``edge_costs``, added when new.

        Pricing the same costs as the previous call returns its rows without
        a search: a solve's last gap test and its certificate price one point.
        """
        costs = edge_costs.tolist()
        if self._priced is not None and self._priced[0] == costs:
            return self._priced[1]
        net = self.instance.network
        rows = []
        for m, (source, sink) in enumerate(self.ends):
            found = _cheapest_path(net, costs, source, sink)
            if found is None:
                raise Unreachable(self.instance.trips[m])
            rows.append(self.add(m, *found))
        rows = np.array(rows, dtype=np.intp)
        self._priced = (costs, rows)
        return rows

    def pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` extended with zero flow on the paths added since it was sized."""
        extra = len(self.paths) - len(x)
        return np.concatenate([x, np.zeros(extra)]) if extra else x

    def _flat(self):
        """The flat edge ids and each one's row, as arrays; the first read
        after rows arrive appends theirs."""
        known = len(self._arrays[0])
        if known < len(self._ids):
            new = np.array([self._ids[known:], self._of[known:]], dtype=np.intp)
            self._arrays = tuple(np.concatenate([self._arrays, new], axis=1) if known else new)
        return self._arrays

    def path_costs(self, edge_values: np.ndarray) -> np.ndarray:
        """Each row's sum of ``edge_values`` over its edges, added left to
        right."""
        ids, of = self._flat()
        return np.bincount(of, weights=edge_values[ids])

    def edge_flows(self, x: np.ndarray) -> np.ndarray:
        """Edge flows of the path flows ``x`` on the first ``len(x)`` rows:
        each edge's sum of its rows' flows, added in row order. The rows
        after them add zeros, which change no bit."""
        ids, of = self._flat()
        return np.bincount(ids, weights=self.pad(x)[of], minlength=len(self.edge_pairs))

    def incidence(self, rows: Sequence[int]) -> np.ndarray:
        """Dense 0/1 incidence of ``rows``: one row per path, one column per edge."""
        ids, of = self._flat()
        local = np.full(len(self.paths), len(rows))  # the other rows' edges go to a spare row
        local[rows] = np.arange(len(rows))
        out = np.zeros((len(rows) + 1, len(self.edge_pairs)))
        out[local[of], ids] = 1.0
        return out[:-1]

    def trip_totals(self, x: np.ndarray) -> list:
        """Each trip's total flow under the padded flows ``x``."""
        return [float(x[rows].sum()) for rows in self.groups]

    def assignment(self, x: np.ndarray) -> FlowAssignment:
        """The assignment of the padded path flows ``x``."""
        flows = x.tolist()
        order = [r for group in self.groups
                 for r in sorted(group, key=lambda r: self.paths[r].nodes)]
        return FlowAssignment(
            paths=tuple(self.paths[r] for r in order),
            flows=tuple(_num(flows[r]) for r in order),
            edge_flows=tuple(zip(self.edge_pairs, map(_num, self.edge_flows(x).tolist()))),
            trip_totals=tuple(map(_num, self.trip_totals(x))),
        )


# (A, B, C, D) of the Greenshields level-n forms, rows n = 0, 1, 2
_GREENSHIELDS_LEVELS = np.array([[1.0, 0.0, 1.0, 0.0],
                                 [1.0, 0.0, 2.0, 0.0],
                                 [2.0, 1.0, 6.0, 2.0]])


# Each cost class's family code and parameter names, from the families'
# order in ``costs``; _EdgeCalculator reads the parameters in that order.
_FAMILY_OF = {cls: (code, fields) for code, (cls, fields) in enumerate(FAMILIES.values())}

# The rows of _EdgeCalculator.table, family by family in the order of the
# family codes, and the neutral value each row holds on the edges of the
# other families. Under the neutral values every family's closed forms
# give 0 at any flow below 1e154 (an integral squares the flow), with no
# division by zero or NaN.
_ROWS = (slice(0, 1), slice(1, 3), slice(3, 6), slice(6, 12))
_NEUTRAL = np.array([
    0.0,                           # constant: c
    0.0, 0.0,                      # affine: a, b
    math.inf, 0.0, 0.0,            # greenshields: u, l/v_max, integral coefficient
    0.0, 1.0, 0.0, 1.0, 0.0, 2.0,  # bpr: c0, u, alpha, beta, beta-1, integral coefficient
])


def _own_rows(code: int, p1, p2, p3, p4):
    """The table rows of family ``code`` on its own edges, from their
    parameters p1..p4 (in ``costs.FAMILIES`` order)."""
    if code == 0:
        return (p1,)
    if code == 1:
        return p1, p2
    if code == 2:  # l, v_max, u
        return p3, p1 / p2, -(p1 * p3 / p2)
    return p1, p2, p3, p4, p4 - 1.0, (p4 + 1.0) * p2 ** p4  # c0, u, alpha, beta


class _EdgeCalculator:
    """Vectorised closed forms over all edges, and every table routing
    reads from a network's edges.

    ``table`` is one edge table: its rows (``_ROWS``) are each family's
    parameters and derived coefficients. Each edge holds its own family's
    values, and in the other families' rows the neutral values of
    ``_NEUTRAL``. Every closed form runs on the whole edge arrays, once per
    family in ``families``. On a network of one family that is the result.
    On a network of several, each edge's value is picked from its own
    family's result by index assignment, which keeps every bit, -0.0
    included. Each edge's capacity sits beside its flow bound, and when
    every edge cost is a bare constant the constant family's row holds the
    mc edge costs (``costs``).

    The so and ue edge gradients are one operation at different depths:
    the level-n gradient is the travel time c with f -> (x*f)' applied n
    times. A bare edge has level 0 under ue (gradient c) and 1 under so
    (gradient c + x*c'), and a ``Marginalized`` edge one more. Each family's
    level-n gradient has one closed form in n, and its derivative, the
    curvature, shares that form's powers, so ``derivatives`` returns both
    in one pass per family.

    ``gather`` makes the calculator of some of the edges: their table
    columns in one gather and, when first needed, their level forms
    gathered from this one's. It keeps this one's ``families``: a family
    with no edge among them runs on neutral values and is picked nowhere,
    which costs time only on cuts of a network of several families. Every
    table and level form is elementwise in the edges, so a gathered
    calculator matches one built from those edges bit for bit.
    """

    def __init__(self, edges: Sequence[Edge]):
        n = len(edges)
        family = np.zeros(n, dtype=np.int8)  # 0 const, 1 affine, 2 greenshields, 3 bpr
        marg = np.zeros(n, dtype=bool)
        params = np.zeros((4, n))  # p1..p4: each edge's parameters in table order
        self.bound = np.full(n, math.inf)
        self.capacities = np.array([e.capacity for e in edges])
        for k, edge in enumerate(edges):
            model = base = edge.cost
            if isinstance(model, Marginalized):
                marg[k] = True
                base = model.base
            found = _FAMILY_OF.get(type(base))
            if found is None:
                raise TypeError(f"unsupported cost model {model!r}")
            family[k], fields = found
            for p, name in enumerate(fields):
                params[p, k] = getattr(base, name)
            self.bound[k] = max_flow_bound(base)
        self.table = np.repeat(_NEUTRAL[:, None], n, axis=1)
        for code, rows in enumerate(_ROWS):
            own = np.flatnonzero(family == code)
            self.table[rows, own] = _own_rows(code, *params[:, own])
        self.family = family
        # the family codes present, the one with the most edges first, so
        # that the pick writes the fewest edges; an edgeless network counts
        # as constant, whose forms give it empty arrays
        codes, counts = np.unique(family, return_counts=True)
        self.families = tuple(codes[np.argsort(-counts, kind="stable")].tolist()) or (0,)
        self.ue_level = marg * 1.0
        self.im = np.flatnonzero(marg)
        self._forms = {}  # level forms by objective kind (None: level 0), built on first use
        self._origin = None  # (calculator, edge ids) this one was gathered from

    def gather(self, ids: Sequence[int]) -> "_EdgeCalculator":
        """The calculator of the edges ``ids`` (ascending): this one's
        columns at ``ids``."""
        ids = np.array(ids, dtype=np.intp)
        sub = _EdgeCalculator.__new__(_EdgeCalculator)
        sub.bound = self.bound[ids]
        sub.capacities = self.capacities[ids]
        sub.table = self.table[:, ids]
        sub.family = self.family[ids]
        sub.families = self.families
        sub.ue_level = self.ue_level[ids]
        sub.im = np.flatnonzero(sub.ue_level) if self.im.size else self.im
        sub._forms = {}
        sub._origin = (self, ids)
        return sub

    @cached_property
    def rows(self) -> Dict[int, Tuple[np.ndarray, ...]]:
        """The table rows of each family in ``families``, as views."""
        return {code: tuple(self.table[_ROWS[code]]) for code in self.families}

    @cached_property
    def costs(self) -> Optional[np.ndarray]:
        """The mc edge costs, the constant family's row; None unless every
        edge cost is a bare constant."""
        return None if self.family.any() or self.im.size else self.table[0]

    @cached_property
    def _members(self) -> Dict[int, np.ndarray]:
        """Each family's edge ids, read by the pick on a network of several
        families."""
        return {code: np.flatnonzero(self.family == code) for code in self.families}

    def _level_forms(self, level):
        """The level-n forms of each family present, on the whole edge
        arrays: pairs of the family code and the arrays its closed form
        reads, for the level-n gradient g and curvature k.

        constant      g = c                                k = 0
        affine        g = a + 2^n b x                      k = 2^n b
        greenshields  g = (l/v) r^(n+1) (A - B q)          k = (l/(v u)) r^(n+2) (C - D q)
                      with q = 1 - x/u, r = 1/q and (A, B, C, D) from
                      _GREENSHIELDS_LEVELS
        bpr           g = c0 + G x^beta                    k = beta G x^(beta-1)
                      with G = c0 alpha (beta+1)^n / u^beta
        """
        forms = []
        for code in self.families:
            rows = self.rows[code]
            if code == 0:
                forms.append((code, rows))
            elif code == 1:
                a, b = rows
                forms.append((code, (a, b * 2.0 ** level)))
            elif code == 2:
                u, s, _ = rows
                n = level.astype(int)
                a_, b_, c_, d_ = _GREENSHIELDS_LEVELS[n].T
                forms.append((code, (u, n + 1.0, s * a_, s * b_, s / u * c_, s / u * d_)))
            else:
                c0, u, alpha, beta, power, _ = rows
                g = c0 * alpha * (beta + 1.0) ** level / u ** beta
                forms.append((code, (c0, power, g, beta * g)))
        return tuple(forms)

    def _forms_of(self, kind):
        forms = self._forms.get(kind)
        if forms is None:
            if self._origin is None:
                level = np.zeros_like(self.ue_level) if kind is None else self.ue_level + (kind == SO)
                forms = self._level_forms(level)
            else:
                origin, ids = self._origin
                forms = tuple((code, tuple(f[ids] for f in arrays))
                              for code, arrays in origin._forms_of(kind))
            self._forms[kind] = forms
        return forms

    def derivatives(self, x, kind):
        """Edge gradient and curvature of the ``kind`` objective at edge flows ``x``."""
        return self._evaluate(x, self._forms_of(kind), True)

    def gradient(self, x, kind):
        """Edge gradient of the ``kind`` objective at edge flows ``x``."""
        return self._evaluate(x, self._forms_of(kind), False)[0]

    def _evaluate(self, x, forms, with_curvature):
        """Edge gradient, and curvature or None, under the level ``forms``:
        each family's closed form on the whole arrays, and on a network of
        several families each edge's values picked from its own family's."""
        grad = curv = None
        for code, arrays in forms:
            g, k = _CLOSED_FORMS[code](x, with_curvature, *arrays)
            if grad is None:  # the largest family's arrays take the others' values
                grad, curv = g, k
            else:
                own = self._members[code]
                grad[own] = g[own]
                if with_curvature:
                    curv[own] = k[own]
        return grad, curv

    def value(self, x):
        """Effective edge travel time (marginal of the base where wrapped)."""
        return self.gradient(x, UE)

    def integral(self, x):
        out = None
        for code in self.families:  # picked as in _evaluate
            part = _INTEGRALS[code](x, *self.rows[code])
            if out is None:
                out = part
            else:
                own = self._members[code]
                out[own] = part[own]
        m = self.im
        if m.size:
            # the integral of c + t*c' is exactly x*c(x)
            out[m] = x[m] * self._evaluate(x, self._forms_of(None), False)[0][m]
        return out


# Each family's closed form, by family code: the edge gradient at edge
# flows x and, when asked, the curvature (else None), from its level forms.
# Every result is a new array, so the pick may write into it.


def _constant_form(x, with_curvature, c):
    return c.copy(), np.zeros(x.size) if with_curvature else None


def _affine_form(x, with_curvature, a, slope):
    return a + slope * x, slope.copy() if with_curvature else None


def _greenshields_form(x, with_curvature, u, power, g_a, g_b, k_c, k_d):
    q = 1.0 - x / u
    r = 1.0 / q
    p = r ** power
    return p * (g_a - g_b * q), p * r * (k_c - k_d * q) if with_curvature else None


def _bpr_form(x, with_curvature, c0, power, g, k):
    w = x ** power  # x^(beta-1); 0**0 is 1, so beta = 1 needs no guard
    return c0 + g * (x * w), k * w if with_curvature else None


_CLOSED_FORMS = (_constant_form, _affine_form, _greenshields_form, _bpr_form)

# Each family's edge cost integral at edge flows x, from its table rows, by
# family code.
_INTEGRALS = (
    lambda x, c: c * x,
    lambda x, a, b: a * x + 0.5 * b * x ** 2,
    lambda x, u, _s, coef: coef * np.log(1.0 - x / u),
    lambda x, c0, _u, alpha, beta, _power, coef: c0 * (x + alpha * x ** (beta + 1.0) / coef),
)


def _calculator(net: Network) -> _EdgeCalculator:
    """The edge calculator of ``net``, built on first use and kept with the
    network (``Network.derived``); a network cut from a template gathers it
    from the template's. Solves share it, so its tables are read-only."""
    return net.derived(_calculator, _new_calculator)


def _new_calculator(net: Network) -> _EdgeCalculator:
    if net.template is None:
        calc = _EdgeCalculator(net.edges)
    else:
        calc = _calculator(net.template).gather(net.template_ids)
    calc.capacities.flags.writeable = calc.table.flags.writeable = False
    return calc


def _objective(calc: _EdgeCalculator, xe: np.ndarray, kind: str) -> float:
    if kind == UE:
        return float(calc.integral(xe).sum())
    return float((xe * calc.value(xe)).sum())


def total_cost_under(network: Network, edge_flows: Mapping[Tuple[int, int], float]) -> float:
    """System travel time sum(x_e * c_e(x_e)) for the given edge flows."""
    total = 0.0
    for pair, flow in sorted(edge_flows.items()):
        if flow > 0.0:
            total += flow * evaluate(network.edge(*pair).cost, flow)
    return total


# ---------------------------------------------------------------------------
# pricing


def _cheapest_path(net: Network, costs: Sequence[float], source: int, sink: int):
    """Node sequence and edge ids of the lexicographically smallest
    minimum-cost simple path from node position ``source`` to ``sink``, or
    None; ``costs`` is indexed by edge id.

    ``_distances_to`` gives each node its distance to the sink; an edge is
    tight when it lies on a shortest path, within ``_tie_tolerance``. One
    forward pass takes from each node the lowest-id tight edge to a node
    off its own path; its path to the sink is the smallest among ties. A
    node with a finite label has an exactly tight edge out, the one its
    label was set from, so the pass dead-ends only where every tight edge
    leads back onto its path, which takes a tight cycle of zero-cost
    edges. There ``_guarded_walk`` returns the smallest path instead. An
    edge of infinite cost is closed.
    """
    dist = _distances_to(net, costs, sink)
    if dist[source] == math.inf:
        return None
    tol = _tie_tolerance(dist, source)
    out_adj = net.out_adjacency
    nodes = [source]
    ids = []
    on_path = {source}
    while nodes[-1] != sink:
        here = dist[nodes[-1]]
        for nxt, e in out_adj[nodes[-1]]:  # ascending positions: first hit is smallest id
            if nxt not in on_path and abs(costs[e] + dist[nxt] - here) <= tol:
                break
        else:
            return _guarded_walk(net, costs, dist, source, sink)
        nodes.append(nxt)
        ids.append(e)
        on_path.add(nxt)
    order = net.node_order
    return tuple(order[p] for p in nodes), ids


def _guarded_walk(net: Network, costs: Sequence[float], dist: Sequence[float],
                  source: int, sink: int):
    """``_cheapest_path``'s path, found under the labels ``dist`` without
    dead ends: from each node the walk takes the lowest-id tight edge to a
    node off its path from which the sink is reachable by tight edges that
    avoid the path, found by one reverse search per step, in time
    polynomial in the network. A node that cannot reach the sink has an
    infinite label and no tight edge out, so it never enters that set."""
    tol = _tie_tolerance(dist, source)
    out_adj = net.out_adjacency
    in_adj = net.in_adjacency
    nodes = [source]
    ids = []
    on_path = {source}
    while nodes[-1] != sink:
        open_nodes = {sink}  # reach the sink by tight edges off the path
        stack = [sink]
        while stack:
            w = stack.pop()
            for v, e in in_adj[w]:
                if (v not in open_nodes and v not in on_path
                        and abs(costs[e] + dist[w] - dist[v]) <= tol):
                    open_nodes.add(v)
                    stack.append(v)
        here = dist[nodes[-1]]
        for nxt, e in out_adj[nodes[-1]]:
            if nxt in open_nodes and abs(costs[e] + dist[nxt] - here) <= tol:
                break
        else:
            return None
        nodes.append(nxt)
        ids.append(e)
        on_path.add(nxt)
    order = net.node_order
    return tuple(order[p] for p in nodes), ids


def _tie_tolerance(dist: Sequence[float], source: int) -> float:
    """How far an edge's cost plus its head's label may miss its tail's
    label, on a walk from ``source``, for the edge to count as tight."""
    return 1e-12 * (1.0 + abs(dist[source]))


def _distances_to(net: Network, costs: Sequence[float], root: int):
    """Cost of the cheapest path from each node position to position
    ``root``, indexed by position; inf where no path reaches it.
    ValueError when any edge cost is negative.

    On an acyclic network one sweep in reverse topological order sets each
    label once, to the least ``dist[w] + costs[e]`` over the node's
    out-edges (Ahuja, Magnanti & Orlin, 1993, section 4.4). Nodes before
    ``root`` in that order cannot reach it. Dijkstra's final label is the
    least of the same sums over the same edges, so the labels are equal
    bit for bit.

    On a network with a cycle, Dijkstra: a node is pushed again each time
    its distance falls, so a popped entry above the node's distance is
    stale and skipped. With nonnegative costs a node's distance no longer
    falls once it is popped at that distance.
    """
    if costs and min(costs) < 0:
        raise ValueError(f"negative edge cost {min(costs)}")
    inf = math.inf
    dist = [inf] * len(net.node_order)
    dist[root] = 0.0
    order = net.derived(_reverse_topological_order, _reverse_topological_order)
    if order is not None:
        out_adj = net.out_adjacency
        for v in order[order.index(root) + 1:]:
            d = inf
            for w, e in out_adj[v]:
                nd = dist[w] + costs[e]
                if nd < d:
                    d = nd
            dist[v] = d
        return dist
    heap = [(0.0, root)]
    in_adj = net.in_adjacency
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, e in in_adj[u]:
            nd = d + costs[e]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _reverse_topological_order(net: Network) -> Optional[Tuple[int, ...]]:
    """Node positions of ``net``, each after every node its out-edges
    reach; None when ``net`` has a cycle."""
    in_adj = net.in_adjacency
    left = [len(adj) for adj in net.out_adjacency]  # out-edges to nodes not yet placed
    order = [p for p, k in enumerate(left) if k == 0]
    for v in order:  # the loop also visits the nodes it appends
        for u, _ in in_adj[v]:
            left[u] -= 1
            if not left[u]:
                order.append(u)
    return tuple(order) if len(order) == len(left) else None


# ---------------------------------------------------------------------------
# path-based projected Newton


# Incremental loading places each trip's demand in this many equal parts;
# fewer parts leave some flow-bounded instances with no open path for a part.
LOAD_PARTS = 8

# The line search stops once its bracket on the step length is this narrow.
LINE_SEARCH_TOL = 1e-12


def _initial_point(instance: Instance, limit: int, calc: _EdgeCalculator,
                   kind: str) -> Tuple[_PathSpace, np.ndarray]:
    """The path space and path flows a so/ue solve starts from.

    A network with a finite flow bound starts from incremental loading:
    all-or-nothing flows there sit on the steep part of the cost curves,
    and loading finds most of a trip's equilibrium paths at one search per
    part. A network without flow bounds starts from the all-or-nothing
    flows under zero-flow costs, and so does a bounded one when loading
    finds no open path for a part or exceeds the path limit, provided those
    flows stay inside every flow bound; otherwise CapacitySaturation. Each
    start depends on the instance alone.
    """
    if np.isfinite(calc.bound).any():
        space = _PathSpace(instance, limit)
        try:
            x = _incremental_load(space, calc, kind)
        except PathLimitExceeded:
            x = None
        if x is not None:
            return space, x
    space = _PathSpace(instance, limit)
    space.price(calc.gradient(np.zeros(len(space.edge_pairs)), kind))
    x = space.demands.copy()  # on the empty space, row m is trip m's cheapest path
    if np.any(space.edge_flows(x) >= calc.bound):
        raise CapacitySaturation(
            "no interior starting flow: demand saturates a congestion-priced edge")
    return space, x


def _incremental_load(space: _PathSpace, calc: _EdgeCalculator,
                      kind: str) -> Optional[np.ndarray]:
    """Each trip's demand in LOAD_PARTS equal parts, one at a time, each on
    the cheapest path under the current gradient; an edge is closed to a
    part that would bring it to its flow bound. None when a part finds no
    open path.

    The bookkeeping runs on Python lists. A part raises the edge flows of
    its own path's edges alone, so they are raised by edge id rather than
    summed again from the path flows."""
    net = space.instance.network
    inf = math.inf
    bound = calc.bound.tolist()
    x = []
    xe = [0.0] * len(bound)
    for _ in range(LOAD_PARTS):
        for m, (source, sink) in enumerate(space.ends):
            part = space.demand_list[m] / LOAD_PARTS
            grad = calc.gradient(np.array(xe), kind).tolist()
            open_costs = [g if v + part < b else inf for g, v, b in zip(grad, xe, bound)]
            found = _cheapest_path(net, open_costs, source, sink)
            if found is None:
                return None
            row = space.add(m, *found)
            if row == len(x):
                x.append(0.0)
            x[row] += part
            for e in found[1]:  # the part's edge ids
                xe[e] += part
    return np.array(x)


def _line_search(calc: _EdgeCalculator, xe: np.ndarray, de: np.ndarray, kind: str,
                 t_max: float, grad: np.ndarray, curv: np.ndarray) -> Optional[float]:
    """Minimiser of the objective along the edge flows xe + t*de, t in [0, t_max].

    ``grad`` and ``curv`` are the edge gradient and curvature at ``xe``.
    Safeguarded Newton iteration on the slope phi'(t), with phi''(t) from
    the edge curvatures. It keeps a bracket lo < root < hi, bisects when a
    Newton step would leave it, and lengthens a step shorter than half the
    tolerance to that length so the bracket closes from the other side.
    Returns None when the direction does not descend, t_max when the slope
    is still nonpositive there, and otherwise the middle of a bracket no
    wider than ``LINE_SEARCH_TOL``.
    """
    de2 = de * de

    def dphi(t):
        grad, curv = calc.derivatives(xe + t * de, kind)
        return float(de @ grad), float(de2 @ curv)

    slope, curvature = float(de @ grad), float(de2 @ curv)
    if slope >= 0.0:
        return None
    if dphi(t_max)[0] <= 0.0:
        return t_max
    lo, hi, t = 0.0, t_max, 0.0
    half_tol = 0.5 * LINE_SEARCH_TOL
    for _ in range(200):
        step = -slope / curvature if curvature > 0.0 else math.inf
        if abs(step) < half_tol:
            step = math.copysign(half_tol, step)
        t += step
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        slope, curvature = dphi(t)
        if slope == 0.0:
            return t
        if slope > 0.0:
            hi = t
        else:
            lo = t
        if hi - lo <= LINE_SEARCH_TOL:
            break
    return 0.5 * (lo + hi)


def _newton_step(space: _PathSpace, x: np.ndarray, xe: np.ndarray, g: np.ndarray,
                 curv_e: np.ndarray, best: np.ndarray, g_best: np.ndarray, limits: list):
    """One Newton step from path flows ``x``: its support rows, their
    flows, their flow changes, the edge flow changes and the step length.

    The support is the used paths plus each trip's priced path ``best``
    (path gradient ``g_best``) when it is strictly cheaper than all of the
    trip's used paths. The length is the longest, up to 1, that keeps path
    flows nonnegative and each edge of ``limits``, (edge id, flow margin)
    pairs, within its margin. Returns None when the Newton system cannot be
    solved or an edge already at its margin blocks the step.

    Bookkeeping runs on Python floats in loops over the trips, the support
    and the edges; comparisons, min, sums added in numpy's order and single
    rounded operations give the same bits there as in numpy, while matrix
    products and the solve stay in numpy.
    """
    trip_of = space.trip_of
    xl = x.tolist()
    gl = g.tolist()
    flat = [r for r, v in enumerate(xl) if v > 0.0]
    low = [math.inf] * len(space.ends)
    for r in flat:
        v = gl[r]
        if v < low[trip_of[r]]:
            low[trip_of[r]] = v
    joining = [r for r, v, lo in zip(best.tolist(), g_best.tolist(), low)
               if v < lo - 1e-10 * abs(lo)]
    if joining:  # a joining path carries no flow, so it is not in flat yet
        flat = sorted(flat + joining)
    direction = _newton_direction(space, xl, gl, curv_e, flat)
    if direction is None:
        return None
    flat, x_sub, dx, de, t = direction
    dl = de.tolist()
    xel = xe.tolist()
    for e, margin in limits:
        d = dl[e]
        if d > 0.0:
            room = (margin - xel[e]) / d
            if room < t:
                t = room
    if t <= 0.0:  # an edge already at its capacity margin blocks the step
        return None
    return flat, x_sub, dx, de, t


def _newton_direction(space: _PathSpace, x: list, g: list, curv_e: np.ndarray, flat: list):
    """Newton step on the KKT system of the support rows ``flat`` (ascending).

    ``x`` and ``g`` are the path flows and path gradients. The step
    equalises the gradients within each trip and keeps each trip's demand.
    A path at zero flow that the step would make negative leaves the
    support, and the step is taken again without it. Returns the support
    rows, their flows and flow changes (lists), the edge flow changes, and
    the longest step length up to 1 that keeps the path flows nonnegative;
    None when the system cannot be solved.
    """
    n_trips = len(space.ends)
    trip_of = space.trip_of
    x_sub = [x[r] for r in flat]
    while True:
        k = len(flat)
        trips = [trip_of[r] for r in flat]
        g_sub = [g[r] for r in flat]
        # each trip's mean gradient, summed in row order like np.bincount
        sums = [0.0] * n_trips
        counts = [0] * n_trips
        for m, v in zip(trips, g_sub):
            sums[m] += v
            counts[m] += 1
        # the step keeps each trip's total; the multiplier estimate (the
        # mean) only keeps the right-hand side small near the solution
        rhs = np.array([sums[m] / counts[m] - v for m, v in zip(trips, g_sub)]
                       + [0.0] * n_trips)
        a_sub = space.incidence(flat)
        kkt = np.zeros((k + n_trips, k + n_trips))
        kkt[:k, :k] = (a_sub * curv_e) @ a_sub.T
        for i, m in enumerate(trips):
            kkt[i, k + m] = -1.0
            kkt[k + m, i] = 1.0
        step = _solve_kkt(kkt, rhs, a_sub)
        if step is None:
            return None
        dx, de = step
        # one pass: blocked paths, and the nonnegativity limit on the others
        t = 1.0
        keep = []
        for i, (v, d) in enumerate(zip(x_sub, dx)):
            if d < 0.0:
                if v == 0.0:
                    continue
                if v / -d < t:
                    t = v / -d
            keep.append(i)
        if len(keep) == k:
            return flat, x_sub, dx, de, t
        flat = [flat[i] for i in keep]
        x_sub = [x_sub[i] for i in keep]


def _solve_kkt(kkt, rhs, a_sub):
    """Path flow changes (a list) and edge flow changes of the Newton
    system, by LU solve.

    Least squares, the minimum-norm step, replaces LU when LU fails and
    when the paths in ``a_sub`` are linearly dependent: their Hessian block
    is then singular, and LU returns a step with a rounding-sized pivot's
    huge component that moves path flows without moving edge flows.
    """
    k = len(a_sub)
    try:
        dx = np.linalg.solve(kkt, rhs)[:k]
        dxl = dx.tolist()
        if all(map(math.isfinite, dxl)):
            de = a_sub.T @ dx
            if max(map(abs, dxl)) <= 1e6 * max(map(abs, de.tolist())):
                return dxl, de
    except np.linalg.LinAlgError:
        pass
    try:
        dx = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
    except np.linalg.LinAlgError:
        return None
    return dx.tolist(), a_sub.T @ dx


@np.errstate(over="ignore", invalid="ignore")  # the finite checks decide on overflow
def _solve_flows(instance: Instance, cfg: SolverConfig, kind: str):
    """Path-based projected Newton (gradient projection on path flows).

    Each step prices every trip and stops once the relative gap is within
    tolerance. Otherwise each trip's priced path joins the used paths when
    it is strictly cheaper than all of them, and a Newton step equalises
    the used paths' gradients, as far as the nonnegativity and
    capacity-margin limits allow. The step is taken whole when it lowers
    the objective, and cut back to the line minimum otherwise, so the
    objective never rises. Paths whose flow reaches zero are dropped. A
    step that cannot descend while the gap is open ends the solve with
    NotConverged, and so do a cut-back step that moves no path flow, which
    the next step would repeat, and an objective or gap that overflows to
    inf or NaN. Returns the result at the flows where the gap closed,
    certified on the edge gradient priced last.
    """
    calc = _calculator(instance.network)
    space, x = _initial_point(instance, cfg.path_limit, calc, kind)
    demands = space.demands
    # (edge id, flow margin) of each edge with a flow bound
    limits = [(e, bound * (1.0 - cfg.capacity_margin))
              for e, bound in enumerate(calc.bound.tolist()) if bound < math.inf]
    xe = space.edge_flows(x)
    f = _objective(calc, xe, kind)
    best_lb = -math.inf
    iterations = 0
    while True:
        grad_e, curv_e = calc.derivatives(xe, kind)
        best = space.price(grad_e)
        x = space.pad(x)
        g = space.path_costs(grad_e)
        g_best = g[best]
        best_lb = max(best_lb, f - float(x @ g - demands @ g_best))
        rel_gap = (f - best_lb) / abs(f) if f != 0.0 else 0.0
        if not (math.isfinite(f) and math.isfinite(rel_gap)):  # overflow
            raise NotConverged(iterations, rel_gap)
        rel_gap = max(0.0, rel_gap)
        if rel_gap <= cfg.relative_gap_tol:
            certificate = _certificate(space, x, grad_e, kind)
            # The certificate priced every trip (on travel times for ue), so
            # the set holds each trip's shortest path and the ue minimum in
            # the result is over all simple paths.
            times = grad_e if kind == UE else calc.value(xe)
            return _result(kind, space, x, space.path_costs(times), float((xe * times).sum()),
                           iterations, rel_gap, certificate)
        if iterations == cfg.max_iterations:
            raise NotConverged(iterations, rel_gap)
        iterations += 1
        step = _newton_step(space, x, xe, g, curv_e, best, g_best, limits)
        if step is None:
            raise NotConverged(iterations, rel_gap)
        flat, x_sub, dx, de, t = step
        trial = _take_step(space, calc, x, flat, x_sub, dx, t, kind)
        if not trial[2] < f:
            t = _line_search(calc, xe, de, kind, t, grad_e, curv_e)
            if t is None:
                raise NotConverged(iterations, rel_gap)
            trial = _take_step(space, calc, x, flat, x_sub, dx, t, kind)
            if np.array_equal(trial[0], x):  # stalled: the next step repeats this one
                raise NotConverged(iterations, rel_gap)
        x, xe, f = trial


def _take_step(space, calc, x, flat, x_sub, dx, t, kind):
    """Flows after a step of length t that moves the support rows ``flat``
    (flows ``x_sub``) by ``dx``, with paths that reach zero dropped, plus
    their edge flows and objective."""
    demands = space.demand_list
    trip_of = space.trip_of
    moved = []
    for r, v, d in zip(flat, x_sub, dx):
        v += t * d
        # the path that limits the step keeps only a rounding residue
        moved.append(0.0 if v <= 1e-14 * demands[trip_of[r]] else v)
    x = x.copy()
    x[flat] = moved
    xe = space.edge_flows(x)
    return x, xe, _objective(calc, xe, kind)


def _result(kind: str, space: _PathSpace, x: np.ndarray, path_costs: np.ndarray,
            total: float, iterations: int, rel_gap: float,
            certificate: OptimalityCertificate, duals: Optional[MCDuals] = None) -> SolveResult:
    """The solve result of path flows ``x``, whose paths cost ``path_costs``."""
    x = space.pad(x)
    flows = x.tolist()
    costs = path_costs.tolist()
    per_trip_cost = []
    per_trip_range = []
    for rows, demand in zip(space.groups, space.demand_list):
        threshold = USED_FLOW_FRACTION * demand
        used = [costs[r] for r in rows if flows[r] > threshold]
        low = _num(min(used))
        per_trip_range.append((low, _num(max(used))))
        per_trip_cost.append(_num(min(costs[r] for r in rows)) if kind == UE else low)
    return SolveResult(
        routing=kind,
        assignment=space.assignment(x),
        total_cost=_num(total),
        per_trip_cost=tuple(per_trip_cost),
        per_trip_used_range=tuple(per_trip_range),
        iterations=iterations,
        relative_gap=_num(rel_gap),
        certificate=certificate,
        duals=duals,
    )


def _certificate(space: _PathSpace, x: np.ndarray, edge_values: np.ndarray, kind: str,
                 prices: Optional[np.ndarray] = None) -> OptimalityCertificate:
    """Each trip's used paths against its cheapest path under ``edge_values``,
    which pricing puts in the set, plus feasibility.

    A trip is violated when a used path costs more than its cheapest path
    or when its flows miss its demand (a trip with no used path misses all
    of it). With capacity ``prices`` (mc, where ``edge_values`` are the
    costs plus the prices) an edge is also violated when its load exceeds
    its capacity or when it has a price but room to spare; these are the
    complementary slackness conditions of the path linear program.
    ``max_violation`` is the largest spread, flow error or unused priced
    capacity; ``tolerance`` is the largest per-trip spread tolerance.
    """
    space.price(edge_values)
    x = space.pad(x)
    flows = x.tolist()
    values = space.path_costs(edge_values).tolist()
    spreads = []
    tol = 0.0
    checks = []  # (violation, tolerance)
    for rows, demand, total in zip(space.groups, space.demand_list, space.trip_totals(x)):
        threshold = USED_FLOW_FRACTION * demand
        v_min = min(values[r] for r in rows)
        spread = max([values[r] for r in rows if flows[r] > threshold], default=v_min) - v_min
        spreads.append(_num(spread))
        trip_tol = CERTIFICATE_RTOL * (1.0 + abs(v_min))
        tol = max(tol, trip_tol)
        checks.append((spread, trip_tol))
        checks.append((abs(total - demand), CERTIFICATE_RTOL * (1.0 + demand)))
    if prices is not None:
        xe = space.edge_flows(x)
        caps = space.capacities
        bounded = np.isfinite(caps)
        over = np.maximum(0.0, xe[bounded] - caps[bounded])
        checks += zip(over.tolist(), (CERTIFICATE_RTOL * (1.0 + caps[bounded])).tolist())
        idle = prices[bounded] * np.maximum(0.0, caps[bounded] - xe[bounded])
        scale = CERTIFICATE_RTOL * (1.0 + abs(float(xe @ (edge_values - prices))))
        checks += ((v, scale) for v in idle.tolist())
    return OptimalityCertificate(
        kind=_CERT_KIND[kind],
        max_violation=_num(max(v for v, _ in checks)),
        per_trip_spread=tuple(spreads),
        tolerance=_num(tol),
        satisfied=all(v <= t for v, t in checks),
    )


def solve_so(instance: Instance, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Minimise total system travel time sum(x_e * c_e(x_e))."""
    return _solve_flows(instance, cfg, SO)


def solve_ue(instance: Instance, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Equilibrium flows: minimise the summed edge cost integrals."""
    return _solve_flows(instance, cfg, UE)


# ---------------------------------------------------------------------------
# constant-cost capacitated program


def solve_mc(instance: Instance, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Exact minimum-cost routing with hard edge capacities.

    Requires constant edge costs. When each trip's cheapest path fits the
    capacities, those paths are optimal: no master runs, the capacity
    prices are zero and ``iterations`` is 0. Otherwise path column
    generation: the restricted master linear program over the generated
    paths is re-solved while pricing finds a path cheaper than its trip's
    potential. A feasible master prices on the costs plus its capacity
    prices; one whose paths cannot carry the demand prices on its phase-1
    capacity prices against its phase-1 potentials (Farkas pricing), and
    is Infeasible when no new path prices in. ``iterations`` counts every
    master's pivots, phase 1's included. A total cost or dual that
    overflows to inf or NaN raises NotConverged.
    """
    edge_costs = _constant_edge_costs(instance.network)
    space = _PathSpace(instance, cfg.path_limit)
    try:
        space.price(edge_costs)  # on the empty space, row m is trip m's cheapest path
    except Unreachable as exc:
        raise Infeasible(str(exc)) from exc
    if not np.any(space.edge_flows(space.demands) > space.capacities):
        # the master over the start holds one path per trip, so x = demands,
        # its capacity prices are zero and each potential is its path's cost
        path_costs = space.path_costs(edge_costs)
        return _mc_result(space, edge_costs, space.demands, path_costs,
                          path_costs, np.zeros(len(space.edge_pairs)), 0)
    cap_rows = np.flatnonzero(np.isfinite(space.capacities))
    pivots = 0
    while True:
        path_costs = space.path_costs(edge_costs)
        lp, prices = _restricted_master(space, cap_rows, path_costs)
        pivots += lp.iterations
        # an infeasible master prices on its phase-1 capacity prices alone
        if not _generate(space, edge_costs + prices if lp.feasible else prices, lp.duals_eq):
            break
    if not lp.feasible:
        raise Infeasible(f"capacities cannot carry the demand "
                         f"(phase-1 residual {lp.objective:.3e})")
    x = np.maximum(lp.x, 0.0)
    return _mc_result(space, edge_costs, x, path_costs, lp.duals_eq, prices, pivots)


def _mc_result(space: _PathSpace, edge_costs: np.ndarray, x: np.ndarray,
               path_costs: np.ndarray, potentials: np.ndarray, prices: np.ndarray,
               pivots: int) -> SolveResult:
    """The mc result of path flows ``x`` on paths costing ``path_costs``,
    with trip ``potentials`` and per-edge capacity ``prices``, certified on
    the costs plus the prices. NotConverged when the total cost or a dual
    overflows to inf or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(path_costs @ x)
    if not (math.isfinite(total) and np.isfinite(potentials).all()
            and np.isfinite(prices).all()):
        raise NotConverged(pivots, math.nan)
    duals = MCDuals(
        trip_potentials=tuple(_num(v) for v in potentials),
        edge_prices=tuple((pair, _num(price)) for pair, price, cap
                          in zip(space.edge_pairs, prices.tolist(), space.capacities.tolist())
                          if math.isfinite(cap)),
    )
    certificate = _certificate(space, x, edge_costs + prices, MC, prices)
    return _result(MC, space, x, space.path_costs(edge_costs), total,
                   pivots, 0.0, certificate, duals)


def _restricted_master(space: _PathSpace, cap_rows: np.ndarray, path_costs: np.ndarray):
    """The path linear program over the space's paths at ``path_costs``,
    with capacity rows for the edges ``cap_rows``, and its capacity prices
    (the negated capacity duals, one per edge, zero on uncapacitated
    edges).

    When the paths cannot carry the demand within the capacities, the
    simplex returns the master marked infeasible, and its duals and prices
    are phase 1's: the Farkas certificate that prices the next paths."""
    n_trips, n_paths = len(space.demands), len(space.paths)
    a_eq = np.zeros((n_trips, n_paths))
    a_eq[space.trip_of, np.arange(n_paths)] = 1.0
    a_ub = space.incidence(range(n_paths)).T[cap_rows]
    lp = solve_lp(path_costs, a_eq, space.demands, a_ub, space.capacities[cap_rows])
    prices = np.zeros(len(space.edge_pairs))
    prices[cap_rows] = np.maximum(0.0, -lp.duals_ub)
    return lp, prices


def _generate(space: _PathSpace, edge_costs: np.ndarray, potentials: np.ndarray) -> bool:
    """Price every trip on ``edge_costs``; whether a new path is cheaper
    than its trip's potential, so that it improves the master."""
    known = len(space.paths)
    rows = space.price(edge_costs)
    reduced = space.path_costs(edge_costs)[rows] - potentials
    return bool(np.any((rows >= known) & (reduced < -MC_PRICE_RTOL * (1.0 + np.abs(potentials)))))


def _constant_edge_costs(net: Network) -> np.ndarray:
    """Edge costs in ``net.edge_pairs`` order; BadParams unless every edge's
    cost is a bare constant."""
    costs = _calculator(net).costs
    if costs is None:
        raise BadParams("mc routing requires constant edge costs")
    return costs


# ---------------------------------------------------------------------------
# certificates, bridge, price of anarchy


def verify_certificate(instance: Instance, result: SolveResult,
                       kind: Optional[str] = None) -> OptimalityCertificate:
    """Recompute a result's optimality certificate from its assignment.

    The used paths are compared with each trip's shortest path, priced by
    the solvers' search, so the check covers every simple path without
    listing them:
    for so and ue on the assignment's own marginal costs or travel times,
    for mc on the costs plus the result's capacity prices (zero without
    duals). Demand residuals, and for mc capacity excess and priced edges
    with room to spare, count as violations. The paths per trip are capped
    at ``DEFAULT_PATH_LIMIT``.

    Raises BadParams when the assignment holds a path that is not a simple
    path of its trip in the instance, or holds a path twice. Never raises
    on a suboptimal or infeasible assignment; the certificate simply
    reports the violation it finds.
    """
    kind = kind or result.routing
    space = _PathSpace(instance, DEFAULT_PATH_LIMIT)
    rows = []
    for p in result.assignment.paths:
        if not _is_trip_path(instance, p):
            raise BadParams(f"path {p.key()} of trip {p.trip_index} is not a "
                            f"simple path of that trip in the instance")
        rows.append(space.add(p.trip_index, p.nodes))
        if len(rows) > len(space.paths):
            raise BadParams(f"path {p.key()} of trip {p.trip_index} is listed twice")
    x = np.zeros(len(space.paths))
    x[rows] = result.assignment.flows
    if kind == MC:
        price = dict(result.duals.edge_prices if result.duals else ())
        prices = np.array([price.get(pair, 0.0) for pair in space.edge_pairs])
        edge_values = _constant_edge_costs(instance.network) + prices
        return _certificate(space, x, edge_values, MC, prices)
    calc = _calculator(instance.network)
    return _certificate(space, x, calc.gradient(space.edge_flows(x), kind), kind)


def _is_trip_path(instance: Instance, path: Path) -> bool:
    """Whether ``path`` is a simple path of its trip in the instance."""
    m = path.trip_index
    nodes = path.nodes
    trips = instance.trips
    return (0 <= m < len(trips)
            and len(nodes) >= 2
            and (nodes[0], nodes[-1]) == (trips[m].source, trips[m].sink)
            and len(set(nodes)) == len(nodes)
            and all(instance.network.has_edge(*pair) for pair in path.edge_pairs))


@dataclass(frozen=True)
class BridgeComparison:
    """System-optimal flows versus equilibrium flows on marginal costs."""

    so_result: SolveResult
    marginal_ue_result: SolveResult
    so_total: float
    marginal_ue_total: float  # evaluated under the original cost models

    @property
    def difference(self) -> float:
        return abs(self.so_total - self.marginal_ue_total)


def so_ue_bridge(instance: Instance, cfg: SolverConfig = SolverConfig()) -> BridgeComparison:
    """Solve so directly and as an equilibrium on marginal-cost models.

    Both flow patterns are priced under the original cost models; the two
    totals agree whenever both solves reached their tolerance.
    """
    so_result = solve_so(instance, cfg)
    net = instance.network
    marg_net = Network(
        net.nodes,
        [type(e)(e.tail, e.head, marginal_model(e.cost), e.capacity) for e in net.edges],
    )
    marg_instance = Instance(marg_net, instance.trips)
    ue_star = solve_ue(marg_instance, cfg)
    ue_star_total = total_cost_under(net, ue_star.assignment.edge_flow_map())
    return BridgeComparison(
        so_result=so_result,
        marginal_ue_result=ue_star,
        so_total=so_result.total_cost,
        marginal_ue_total=_num(ue_star_total),
    )


def price_of_anarchy(instance: Instance, cfg: SolverConfig = SolverConfig()) -> float:
    """Ratio of equilibrium to system-optimal total travel time (>= 1)."""
    ue = solve_ue(instance, cfg)
    so = solve_so(instance, cfg)
    return ue.total_cost / so.total_cost
