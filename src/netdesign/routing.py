"""Routing solvers for a network instance.

Three problems share one path-based machinery: the capacitated
constant-cost program (``mc``) solved exactly as a linear program over
every simple path, and the congestion-priced system-optimal (``so``) and
user-equilibrium (``ue``) flows computed by one path-based projected
Newton method (Bertsekas & Gafni, 1983; Jayakrishnan et al., 1994). so and
ue never list every path: they work on a path set that starts from each
trip's all-or-nothing path and grows by pricing, a Dijkstra shortest path
on the current marginal costs (so) or travel times (ue) that joins the set
when new. Each step prices every trip and stops once the relative duality
gap is within tolerance. Otherwise a priced path that beats its trip's used
paths joins them, and a Newton step on the used paths' KKT system
equalises their gradients. The step is taken whole when it lowers the
objective and is cut back to the line minimum otherwise, found by a
safeguarded Newton iteration on the directional derivative. Both Newton
iterations take the objective's edge gradient and curvature from one
closed-form pass per cost family. Because each pricing finds the cheapest
of all simple paths, the duality gap and the certificates hold over all of
them.

Every accepted solution carries an optimality certificate recomputed from
first principles: equalized marginal costs across used paths for so,
equal used-path travel times for ue, both against the priced shortest
path, and dual feasibility plus complementary slackness for mc.

``SolverConfig.path_limit`` caps the paths per trip: the paths mc
enumerates and the paths an so/ue solve generates. Passing it raises
PathLimitExceeded.

Solvers are deterministic: identical inputs and configuration produce
bit-identical results. Shortest-path and direction-finding ties are broken
toward the lexicographically smallest node sequence.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .costs import (
    Affine,
    BPR,
    Constant,
    Greenshields,
    Marginalized,
    evaluate,
    is_constant,
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
    Network,
    Path,
    Trip,
    enumerate_trip_paths,
)
from .simplex import solve_lp

MC = "mc"
SO = "so"
UE = "ue"
ROUTINGS = (MC, SO, UE)

# A path counts as used when it carries more than this fraction of its
# trip's demand; certificates and support detection share the threshold.
USED_FLOW_FRACTION = 1e-6

# so/ue certificates let a used path cost this fraction of (1 + the
# cheapest path's cost) more than the cheapest path.
CERTIFICATE_RTOL = 1e-6

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
        for m, trip in enumerate(self.trips):
            if trip.source not in self.network.nodes or trip.sink not in self.network.nodes:
                raise ValueError(f"trip {m} endpoints missing from the network")


@dataclass(frozen=True)
class SolverConfig:
    relative_gap_tol: float = 1e-10  # so/ue stop once the relative duality gap is this small
    max_iterations: int = 100_000  # so/ue Newton steps before NotConverged
    capacity_margin: float = 1e-9  # so/ue steps keep flows this fraction inside flow bounds
    path_limit: int = DEFAULT_PATH_LIMIT  # paths per trip: mc enumerates, so/ue generate

    def __post_init__(self):
        if not (self.relative_gap_tol > 0 and self.max_iterations > 0
                and self.capacity_margin > 0 and self.path_limit > 0):
            raise ValueError("solver configuration values must be positive")


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
    iterations: int                          # so/ue: Newton steps; mc: simplex pivots
    relative_gap: float
    certificate: OptimalityCertificate
    duals: Optional[MCDuals] = None


def _num(x: float) -> float:
    # normalises -0.0 so serialised reports are stable
    return 0.0 if x == 0.0 else float(x)


class _PathSpace:
    """The paths a solve works on, grouped by trip, plus their edge incidence.

    mc fills it with every simple path (``enumerated``). so and ue start
    empty and grow it by pricing: ``price`` adds each trip's cheapest path
    under given edge costs when it is new. Rows are numbered in the order
    paths arrive and a flow vector sized before later arrivals gives them
    zero flow; reports list each trip's paths in lexicographic order.
    """

    def __init__(self, instance: Instance, limit: int):
        self.instance = instance
        net = instance.network
        self.limit = limit  # most paths per trip
        self.edge_pairs = net.edge_pairs
        self.edge_index = {pair: k for k, pair in enumerate(self.edge_pairs)}
        self.demands = np.array([t.demand for t in instance.trips])
        self.models = [net.edge(*pair).cost for pair in self.edge_pairs]
        self.capacities = np.array([net.edge(*pair).capacity for pair in self.edge_pairs])
        self.paths = []
        self._row = {}  # (trip index, node sequence) -> row
        self._groups = [[] for _ in instance.trips]
        self._trip_rows = None
        self._row_trip = None
        self._priced = None  # (edge costs, rows) of the last pricing
        self._inc = np.zeros((2 * len(instance.trips) + 6, len(self.edge_pairs)))

    @classmethod
    def enumerated(cls, instance: Instance, limit: int) -> "_PathSpace":
        """Every simple path of every trip, in lexicographic order."""
        space = cls(instance, limit)
        path_set = enumerate_trip_paths(instance.network, instance.trips, limit)
        for m, group in enumerate(path_set.per_trip):
            if not group:
                raise Unreachable(instance.trips[m])
        # built in bulk: the enumeration can hold thousands of paths
        paths = space.paths = list(path_set.all_paths())
        for r, p in enumerate(paths):
            space._row[(p.trip_index, p.nodes)] = r
            space._groups[p.trip_index].append(r)
        cols = [space.edge_index[pair] for p in paths for pair in p.edge_pairs]
        space._inc = np.zeros((len(paths), len(space.edge_pairs)))
        space._inc[np.repeat(np.arange(len(paths)), [len(p) for p in paths]), cols] = 1.0
        return space

    @property
    def incidence(self) -> np.ndarray:
        return self._inc[:len(self.paths)]

    @property
    def trip_rows(self) -> Tuple[np.ndarray, ...]:
        if self._trip_rows is None:
            self._trip_rows = tuple(np.array(g, dtype=np.intp) for g in self._groups)
        return self._trip_rows

    @property
    def row_trip(self) -> np.ndarray:
        """Trip index of each row."""
        if self._row_trip is None:
            self._row_trip = np.array([p.trip_index for p in self.paths], dtype=np.intp)
        return self._row_trip

    def add(self, m: int, nodes: Tuple[int, ...]) -> int:
        """Row of trip ``m``'s path ``nodes``, appended when new."""
        row = self._row.get((m, nodes))
        if row is not None:
            return row
        if len(self._groups[m]) >= self.limit:
            raise PathLimitExceeded(self.limit, self.instance.trips[m])
        row = len(self.paths)
        if row == len(self._inc):
            self._inc = np.concatenate([self._inc, np.zeros_like(self._inc)])
        path = Path(m, nodes)
        for pair in path.edge_pairs:
            self._inc[row, self.edge_index[pair]] = 1.0
        self.paths.append(path)
        self._row[(m, nodes)] = row
        self._groups[m].append(row)
        self._trip_rows = None
        self._row_trip = None
        return row

    def row(self, path: Path) -> int:
        """Row of a path already in the set; BadParams for any other path."""
        row = self._row.get((path.trip_index, path.nodes))
        if row is None:
            raise BadParams(f"path {path.key()} of trip {path.trip_index} is not a "
                            f"simple path of that trip in the instance")
        return row

    def price(self, edge_costs: np.ndarray) -> np.ndarray:
        """Rows of each trip's cheapest path under ``edge_costs``, added when new.

        Pricing the same costs as the previous call returns its rows without
        a search: a solve's last gap test and its certificate price one point.
        """
        if self._priced is not None and np.array_equal(self._priced[0], edge_costs):
            return self._priced[1]
        net = self.instance.network
        costs = dict(zip(self.edge_pairs, edge_costs.tolist()))
        rows = []
        for m, trip in enumerate(self.instance.trips):
            nodes = shortest_path_nodes(net, costs, trip.source, trip.sink)
            if nodes is None:
                raise Unreachable(trip)
            rows.append(self.add(m, nodes))
        rows = np.array(rows, dtype=np.intp)
        self._priced = (edge_costs.copy(), rows)
        return rows

    def pad(self, x: np.ndarray) -> np.ndarray:
        """``x`` extended with zero flow on the paths added since it was sized."""
        extra = len(self.paths) - len(x)
        return np.concatenate([x, np.zeros(extra)]) if extra else x

    def edge_flows(self, x: np.ndarray) -> np.ndarray:
        return self._inc[:len(x)].T @ x

    def assignment(self, x: np.ndarray) -> FlowAssignment:
        x = self.pad(x)
        xe = self.edge_flows(x)
        order = [r for group in self._groups
                 for r in sorted(group, key=lambda r: self.paths[r].nodes)]
        trip_totals = tuple(_num(float(np.sum(x[rows]))) for rows in self.trip_rows)
        return FlowAssignment(
            paths=tuple(self.paths[r] for r in order),
            flows=tuple(_num(v) for v in x[order]),
            edge_flows=tuple((pair, _num(float(xe[k])))
                             for k, pair in enumerate(self.edge_pairs)),
            trip_totals=trip_totals,
        )


# (A, B, C, D) of the Greenshields level-n forms, rows n = 0, 1, 2
_GREENSHIELDS_LEVELS = np.array([[1.0, 0.0, 1.0, 0.0],
                                 [1.0, 0.0, 2.0, 0.0],
                                 [2.0, 1.0, 6.0, 2.0]])


class _EdgeCalculator:
    """Vectorised closed forms over all edges.

    Edges are grouped by model family once, into index arrays with the
    family's parameters gathered along them; per-call work is a handful of
    numpy expressions on those groups.

    The so and ue edge gradients are one operation at different depths:
    the level-n gradient is the travel time c with f -> (x*f)' applied n
    times. A bare edge has level 0 under ue (gradient c) and 1 under so
    (gradient c + x*c'), and a ``Marginalized`` edge one more. Each family's
    level-n gradient has one closed form in n, and its derivative, the
    curvature, shares that form's powers, so ``derivatives`` returns both
    in one pass per family.
    """

    def __init__(self, models: Sequence):
        n = len(models)
        self.n = n
        kind = np.zeros(n, dtype=np.int8)  # 0 const, 1 affine, 2 greenshields, 3 bpr
        marg = np.zeros(n, dtype=bool)
        p1, p2, p3, p4 = (np.zeros(n) for _ in range(4))
        self.bound = np.full(n, math.inf)
        for k, model in enumerate(models):
            base = model
            if isinstance(model, Marginalized):
                marg[k] = True
                base = model.base
            self.bound[k] = max_flow_bound(base)
            if isinstance(base, Constant):
                kind[k] = 0
                p1[k] = base.c
            elif isinstance(base, Affine):
                kind[k] = 1
                p1[k] = base.a
                p2[k] = base.b
            elif isinstance(base, Greenshields):
                kind[k] = 2
                p1[k] = base.l
                p2[k] = base.v_max
                p3[k] = base.u
            elif isinstance(base, BPR):
                kind[k] = 3
                p1[k] = base.c0
                p2[k] = base.u
                p3[k] = base.alpha
                p4[k] = base.beta
            else:
                raise TypeError(f"unsupported cost model {model!r}")
        self.ue_level = marg * 1.0
        self.im = np.flatnonzero(marg)
        self.ic = np.flatnonzero(kind == 0)
        self.c_c = p1[self.ic]
        ia = self.ia = np.flatnonzero(kind == 1)
        self.a_a, self.a_b = p1[ia], p2[ia]
        ig = self.ig = np.flatnonzero(kind == 2)
        self.g_u = p3[ig]
        self.g_s = p1[ig] / p2[ig]  # l / v_max
        self.g_int = -(p1[ig] * p3[ig] / p2[ig])
        ib = self.ib = np.flatnonzero(kind == 3)
        self.b_c0, self.b_u, self.b_alpha, self.b_beta = p1[ib], p2[ib], p3[ib], p4[ib]
        self.b_pow = self.b_beta - 1.0
        self.b_int = (self.b_beta + 1.0) * self.b_u ** self.b_beta
        self._forms = {}  # level forms by objective kind, built on first use

    def _level_forms(self, level):
        """Per-family coefficients of the level-n gradient g and curvature k.

        affine        g = a + 2^n b x                      k = 2^n b
        greenshields  g = (l/v) r^(n+1) (A - B q)          k = (l/(v u)) r^(n+2) (C - D q)
                      with q = 1 - x/u, r = 1/q and (A, B, C, D) from
                      _GREENSHIELDS_LEVELS
        bpr           g = c0 + G x^beta                    k = beta G x^(beta-1)
                      with G = c0 alpha (beta+1)^n / u^beta
        Constants have g = c and k = 0 at every level.
        """
        la, lg, lb = level[self.ia], level[self.ig].astype(int), level[self.ib]
        slope = self.a_b * 2.0 ** la
        s, u = self.g_s, self.g_u
        a_, b_, c_, d_ = _GREENSHIELDS_LEVELS[lg].T
        green = (lg + 1.0, s * a_, s * b_, s / u * c_, s / u * d_)
        beta = self.b_beta
        g_coef = self.b_c0 * self.b_alpha * (beta + 1.0) ** lb / self.b_u ** beta
        return slope, green, (g_coef, beta * g_coef)

    def derivatives(self, x, kind):
        """Edge gradient and curvature of the ``kind`` objective at edge flows ``x``."""
        forms = self._forms.get(kind)
        if forms is None:
            forms = self._forms[kind] = self._level_forms(self.ue_level + (kind == SO))
        return self._evaluate(x, forms)

    def _evaluate(self, x, forms):
        slope, (power, g_a, g_b, k_c, k_d), (b_g, b_k) = forms
        grad = np.empty(self.n)
        curv = np.zeros(self.n)
        grad[self.ic] = self.c_c
        a = self.ia
        if a.size:
            grad[a] = self.a_a + slope * x[a]
            curv[a] = slope
        g = self.ig
        if g.size:
            q = 1.0 - x[g] / self.g_u
            r = 1.0 / q
            p = r ** power
            grad[g] = p * (g_a - g_b * q)
            curv[g] = p * r * (k_c - k_d * q)
        b = self.ib
        if b.size:
            xb = x[b]
            w = xb ** self.b_pow  # x^(beta-1); 0**0 is 1, so beta = 1 needs no guard
            grad[b] = self.b_c0 + b_g * (xb * w)
            curv[b] = b_k * w
        return grad, curv

    def value(self, x):
        """Effective edge travel time (marginal of the base where wrapped)."""
        return self.derivatives(x, UE)[0]

    def integral(self, x):
        out = np.zeros(self.n)
        c, a, g, b = self.ic, self.ia, self.ig, self.ib
        out[c] = self.c_c * x[c]
        xa = x[a]
        out[a] = self.a_a * xa + 0.5 * self.a_b * xa ** 2
        out[g] = self.g_int * np.log(1.0 - x[g] / self.g_u)
        if b.size:
            xb = x[b]
            out[b] = self.b_c0 * (xb + self.b_alpha * xb ** (self.b_beta + 1.0) / self.b_int)
        m = self.im
        if m.size:
            # the integral of c + t*c' is exactly x*c(x)
            base = self._level_forms(np.zeros(self.n))
            out[m] = x[m] * self._evaluate(x, base)[0][m]
        return out


def _objective(calc: _EdgeCalculator, xe: np.ndarray, kind: str) -> float:
    if kind == UE:
        return float(np.sum(calc.integral(xe)))
    return float(np.sum(xe * calc.value(xe)))


def total_cost_under(network: Network, edge_flows: Mapping[Tuple[int, int], float]) -> float:
    """System travel time sum(x_e * c_e(x_e)) for the given edge flows."""
    total = 0.0
    for pair, flow in sorted(edge_flows.items()):
        if flow > 0.0:
            total += flow * evaluate(network.edge(*pair).cost, flow)
    return total


# ---------------------------------------------------------------------------
# all-or-nothing assignment


def shortest_path_nodes(net: Network, edge_costs: Mapping[Tuple[int, int], float],
                        source: int, sink: int) -> Optional[Tuple[int, ...]]:
    """Lexicographically smallest minimum-cost simple path, or None.

    One label-setting pass toward the sink gives each node its distance to
    the sink; an edge is tight when it lies on a shortest path. A
    depth-first walk over tight edges, lowest node id first and never back
    onto its own prefix, returns the first path that reaches the sink: the
    smallest one among ties. With positive costs the tight edges form a
    DAG and the walk never backs up; zero-cost edges can close tight
    cycles, which the walk steps around. An edge of infinite cost is
    closed.
    """
    dist_to = _distances_to(net, edge_costs, sink)
    total = dist_to.get(source)
    if total is None:
        return None
    tol = 1e-12 * (1.0 + abs(total))
    nodes = [source]
    on_path = {source}
    branches = [iter(net.successors(source))]
    while branches:
        current = nodes[-1]
        here = dist_to[current]
        for nxt in branches[-1]:  # successors are sorted: first hit is smallest id
            if nxt in on_path or nxt not in dist_to:
                continue
            if abs(edge_costs[(current, nxt)] + dist_to[nxt] - here) <= tol:
                break
        else:
            branches.pop()
            on_path.discard(nodes.pop())
            continue
        nodes.append(nxt)
        if nxt == sink:
            return tuple(nodes)
        on_path.add(nxt)
        branches.append(iter(net.successors(nxt)))
    return None


def _distances_to(net: Network, edge_costs, root: int):
    """Cost of the cheapest path from each node that reaches ``root``."""
    dist = {root: 0.0}
    done = set()
    heap = [(0.0, root)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in net.predecessors(u):
            w = edge_costs[(v, u)]
            if w < 0:
                raise ValueError(f"negative edge cost {w}")
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def all_or_nothing(instance: Instance,
                   edge_costs: Mapping[Tuple[int, int], float]) -> FlowAssignment:
    """Each trip's whole demand on its cheapest path under frozen costs."""
    paths = []
    flows = []
    edge_flow = {pair: 0.0 for pair in instance.network.edge_pairs}
    for m, trip in enumerate(instance.trips):
        nodes = shortest_path_nodes(instance.network, edge_costs, trip.source, trip.sink)
        if nodes is None:
            raise Unreachable(trip)
        path = Path(m, nodes)
        paths.append(path)
        flows.append(trip.demand)
        for pair in path.edge_pairs:
            edge_flow[pair] += trip.demand
    return FlowAssignment(
        paths=tuple(paths),
        flows=tuple(flows),
        edge_flows=tuple((pair, _num(edge_flow[pair])) for pair in sorted(edge_flow)),
        trip_totals=tuple(t.demand for t in instance.trips),
    )


# ---------------------------------------------------------------------------
# path-based projected Newton


# Incremental loading places each trip's demand in this many equal parts.
LOAD_PARTS = 8

# The line search stops once its bracket on the step length is this narrow.
LINE_SEARCH_TOL = 1e-12


def _initial_point(space: _PathSpace, calc: _EdgeCalculator, kind: str) -> np.ndarray:
    """All-or-nothing flows under zero-flow costs, or incremental loading
    when those reach a flow bound."""
    best = space.price(calc.derivatives(np.zeros(len(space.edge_pairs)), kind)[0])
    x = np.zeros(len(space.paths))
    x[best] = space.demands
    if np.any(space.edge_flows(x) >= calc.bound):
        return _incremental_load(space, calc, kind)
    return x


def _incremental_load(space: _PathSpace, calc: _EdgeCalculator, kind: str) -> np.ndarray:
    """Each trip's demand in equal parts, one at a time, each on the cheapest
    path under the current gradient; an edge is closed to a part that would
    bring it to its flow bound."""
    net = space.instance.network
    x = np.zeros(len(space.paths))
    xe = np.zeros(len(space.edge_pairs))
    for _ in range(LOAD_PARTS):
        for m, trip in enumerate(space.instance.trips):
            part = space.demands[m] / LOAD_PARTS
            open_costs = np.where(xe + part < calc.bound, calc.derivatives(xe, kind)[0],
                                  math.inf)
            nodes = shortest_path_nodes(net, dict(zip(space.edge_pairs, open_costs.tolist())),
                                        trip.source, trip.sink)
            if nodes is None:
                raise CapacitySaturation(
                    "no interior starting flow: demand saturates a congestion-priced edge")
            row = space.add(m, nodes)
            x = space.pad(x)
            x[row] += part
            xe = space.edge_flows(x)
    return x


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


def _newton_direction(space: _PathSpace, x: np.ndarray, g: np.ndarray,
                      curv_e: np.ndarray, support: np.ndarray):
    """Newton step on the KKT system of the paths in ``support``.

    The step equalises the path gradients ``g`` within each trip and keeps
    each trip's demand. A path at zero flow that the step would make
    negative leaves the support, and the step is taken again without it.
    Returns the support rows, their flow changes and the edge flow changes,
    or None when the system cannot be solved.
    """
    n_trips = len(space.demands)
    while True:
        flat = np.flatnonzero(support)
        trip_of = space.row_trip[flat]
        k = len(flat)
        a_sub = space.incidence[flat]
        g_sub = g[flat]
        lam = (np.bincount(trip_of, weights=g_sub, minlength=n_trips)
               / np.bincount(trip_of, minlength=n_trips))
        # the step keeps each trip's total; the multiplier estimate lam only
        # keeps the right-hand side small near the solution
        rhs = np.concatenate([lam[trip_of] - g_sub, np.zeros(n_trips)])
        kkt = np.zeros((k + n_trips, k + n_trips))
        kkt[:k, :k] = (a_sub * curv_e) @ a_sub.T
        kkt[np.arange(k), k + trip_of] = -1.0
        kkt[k + trip_of, np.arange(k)] = 1.0
        step = _solve_kkt(kkt, rhs, a_sub)
        if step is None:
            return None
        blocked = (x[flat] == 0.0) & (step[0] < 0.0)
        if not blocked.any():
            return (flat, *step)
        support[flat[blocked]] = False


def _solve_kkt(kkt, rhs, a_sub):
    """Path and edge flow changes of the Newton system, by LU solve.

    Least squares, the minimum-norm step, replaces LU when LU fails and
    when the paths in ``a_sub`` are linearly dependent: their Hessian block
    is then singular, and LU returns a step with a rounding-sized pivot's
    huge component that moves path flows without moving edge flows.
    """
    k = len(a_sub)
    try:
        dx = np.linalg.solve(kkt, rhs)[:k]
        de = a_sub.T @ dx
        if np.isfinite(dx).all() and np.abs(dx).max() <= 1e6 * np.abs(de).max():
            return dx, de
    except np.linalg.LinAlgError:
        pass
    try:
        dx = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
    except np.linalg.LinAlgError:
        return None
    return dx, a_sub.T @ dx


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
    NotConverged.
    """
    space = _PathSpace(instance, cfg.path_limit)
    calc = _EdgeCalculator(space.models)
    demands = space.demands
    n_trips = len(demands)
    margin = calc.bound * (1.0 - cfg.capacity_margin)
    bounded = np.isfinite(calc.bound)
    x = _initial_point(space, calc, kind)
    xe = space.edge_flows(x)
    f = _objective(calc, xe, kind)
    best_lb = -math.inf
    iterations = 0
    while True:
        grad_e, curv_e = calc.derivatives(xe, kind)
        best = space.price(grad_e)
        x = space.pad(x)
        g = space.incidence @ grad_e
        best_lb = max(best_lb, f - float(x @ g - demands @ g[best]))
        rel_gap = max(0.0, (f - best_lb) / abs(f)) if f != 0.0 else 0.0
        if rel_gap <= cfg.relative_gap_tol:
            return space, calc, x, kind, iterations, rel_gap
        if iterations == cfg.max_iterations:
            raise NotConverged(iterations, rel_gap)
        iterations += 1
        # bring in each trip's priced path when it beats the used ones strictly
        support = x > 0.0
        row_trip = space.row_trip
        used_low = np.full(n_trips, math.inf)
        np.minimum.at(used_low, row_trip[support], g[support])
        support[best[g[best] < used_low - 1e-10 * np.abs(used_low)]] = True
        newton = _newton_direction(space, x, g, curv_e, support)
        if newton is None:
            raise NotConverged(iterations, rel_gap)
        flat, dx, de = newton
        t = 1.0
        neg = dx < 0.0
        if neg.any():
            t = min(t, float(np.min(x[flat][neg] / -dx[neg])))
        up = (de > 0.0) & bounded
        if up.any():
            t = min(t, float(np.min((margin[up] - xe[up]) / de[up])))
        if t <= 0.0:  # an edge already at its capacity margin blocks the step
            raise NotConverged(iterations, rel_gap)
        step = _take_step(space, calc, x, flat, dx, t, kind)
        if not step[2] < f:
            t = _line_search(calc, xe, de, kind, t, grad_e, curv_e)
            if t is None:
                raise NotConverged(iterations, rel_gap)
            step = _take_step(space, calc, x, flat, dx, t, kind)
        x, xe, f = step


def _take_step(space, calc, x, flat, dx, t, kind):
    """Flows after a step of length t, with paths that reach zero dropped,
    plus their edge flows and objective."""
    x = x.copy()
    x[flat] += t * dx
    # the path that limits the step keeps only a rounding residue
    x[x <= 1e-14 * space.demands[space.row_trip]] = 0.0
    xe = space.edge_flows(x)
    return x, xe, _objective(calc, xe, kind)


def _finish_flow_result(space: _PathSpace, calc: _EdgeCalculator, x: np.ndarray,
                        kind: str, iterations: int, rel_gap: float) -> SolveResult:
    certificate = _flow_certificate(space, calc, x, kind)
    # The certificate priced every trip (on travel times for ue), so the set
    # holds each trip's shortest path and the ue minimum below is over all
    # simple paths.
    x = space.pad(x)
    xe = space.edge_flows(x)
    times = calc.value(xe)
    total = float(np.sum(xe * times))
    path_costs = space.incidence @ times
    per_trip_cost = []
    per_trip_range = []
    for m, rows in enumerate(space.trip_rows):
        used = rows[x[rows] > USED_FLOW_FRACTION * space.demands[m]]
        costs_used = path_costs[used]
        per_trip_range.append((_num(float(np.min(costs_used))),
                               _num(float(np.max(costs_used)))))
        if kind == UE:
            per_trip_cost.append(_num(float(np.min(path_costs[rows]))))
        else:
            per_trip_cost.append(_num(float(np.min(costs_used))))
    return SolveResult(
        routing=kind,
        assignment=space.assignment(x),
        total_cost=_num(total),
        per_trip_cost=tuple(per_trip_cost),
        per_trip_used_range=tuple(per_trip_range),
        iterations=iterations,
        relative_gap=_num(rel_gap),
        certificate=certificate,
    )


def _flow_certificate(space: _PathSpace, calc: _EdgeCalculator, x: np.ndarray,
                      kind: str) -> OptimalityCertificate:
    """Used-path marginal costs (so) or travel times (ue) against the
    cheapest path, which pricing puts in the set."""
    edge_values = calc.derivatives(space.edge_flows(x), kind)[0]
    space.price(edge_values)
    x = space.pad(x)
    values = space.incidence @ edge_values
    worst = 0.0
    spreads = []
    tol = 0.0
    for m, rows in enumerate(space.trip_rows):
        used = rows[x[rows] > USED_FLOW_FRACTION * space.demands[m]]
        v_used_max = float(np.max(values[used]))
        v_min = float(np.min(values[rows]))
        spread = max(0.0, v_used_max - v_min)
        spreads.append(_num(spread))
        trip_tol = CERTIFICATE_RTOL * (1.0 + abs(v_min))
        tol = max(tol, trip_tol)
        worst = max(worst, spread - trip_tol)
    max_violation = max(0.0, *(s for s in spreads)) if spreads else 0.0
    return OptimalityCertificate(
        kind=_CERT_KIND[kind],
        max_violation=_num(max_violation),
        per_trip_spread=tuple(spreads),
        tolerance=_num(tol),
        satisfied=worst <= 0.0,
    )


def solve_so(instance: Instance, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Minimise total system travel time sum(x_e * c_e(x_e))."""
    return _finish_flow_result(*_solve_flows(instance, cfg, SO))


def solve_ue(instance: Instance, cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Equilibrium flows: minimise the summed edge cost integrals."""
    return _finish_flow_result(*_solve_flows(instance, cfg, UE))


# ---------------------------------------------------------------------------
# constant-cost capacitated program


def solve_mc(instance: Instance, limit: int = DEFAULT_PATH_LIMIT) -> SolveResult:
    """Exact minimum-cost routing with hard edge capacities.

    Requires constant edge costs; solved as a path-formulation linear
    program over the full simple-path enumeration (``limit`` caps it per
    trip).
    """
    edge_costs = _constant_edge_costs(instance.network)
    try:
        space = _PathSpace.enumerated(instance, limit)
    except Unreachable as exc:
        raise Infeasible(str(exc)) from exc
    path_costs = space.incidence @ edge_costs
    n_paths = len(space.paths)
    a_eq = np.zeros((len(instance.trips), n_paths))
    for m, rows in enumerate(space.trip_rows):
        a_eq[m, rows] = 1.0
    cap_rows = [k for k, cap in enumerate(space.capacities) if math.isfinite(cap)]
    a_ub = space.incidence.T[cap_rows] if cap_rows else None
    b_ub = space.capacities[cap_rows] if cap_rows else None
    lp = solve_lp(path_costs, a_eq, space.demands, a_ub, b_ub)
    x = np.maximum(lp.x, 0.0)
    duals = MCDuals(
        trip_potentials=tuple(_num(v) for v in lp.duals_eq),
        edge_prices=tuple(
            (space.edge_pairs[k], _num(max(0.0, -lp.duals_ub[i])))
            for i, k in enumerate(cap_rows)),
    )
    assignment = space.assignment(x)
    certificate = _mc_certificate(space, x, path_costs, duals)
    per_trip_cost = []
    per_trip_range = []
    for m, rows in enumerate(space.trip_rows):
        used = rows[x[rows] > USED_FLOW_FRACTION * space.demands[m]]
        used_costs = path_costs[used]
        per_trip_cost.append(_num(float(np.min(used_costs))))
        per_trip_range.append((_num(float(np.min(used_costs))),
                               _num(float(np.max(used_costs)))))
    return SolveResult(
        routing=MC,
        assignment=assignment,
        total_cost=_num(float(path_costs @ x)),
        per_trip_cost=tuple(per_trip_cost),
        per_trip_used_range=tuple(per_trip_range),
        iterations=lp.iterations,
        relative_gap=0.0,
        certificate=certificate,
        duals=duals,
    )


def _constant_edge_costs(net: Network) -> np.ndarray:
    """Edge costs in ``net.edge_pairs`` order; BadParams unless all are constant."""
    models = [net.edge(*pair).cost for pair in net.edge_pairs]
    if not all(is_constant(m) for m in models):
        raise BadParams("mc routing requires constant edge costs")
    return np.array([m.c for m in models])


def _mc_certificate(space: _PathSpace, x: np.ndarray, path_costs: np.ndarray,
                    duals: MCDuals) -> OptimalityCertificate:
    price = dict(duals.edge_prices)
    route_prices = space.incidence @ np.array([price.get(pair, 0.0) for pair in space.edge_pairs])
    worst = 0.0
    spreads = []
    for m, rows in enumerate(space.trip_rows):
        reduced = path_costs[rows] - duals.trip_potentials[m] + route_prices[rows]
        used = x[rows] > USED_FLOW_FRACTION * space.demands[m]
        trip_worst = max(0.0,
                         float(np.max(-reduced)),  # dual feasibility
                         float(np.max(np.abs(reduced[used]), initial=0.0)))  # compl. slackness
        spreads.append(_num(trip_worst))
        worst = max(worst, trip_worst)
    # capacity complementary slackness
    xe = space.edge_flows(x)
    for k, pair in enumerate(space.edge_pairs):
        mu = price.get(pair, 0.0)
        if mu > 0.0:
            worst = max(worst, mu * max(0.0, space.capacities[k] - xe[k]))
    scale = 1.0 + float(abs(path_costs @ x))
    tol = 1e-7 * scale
    return OptimalityCertificate(
        kind=_CERT_KIND[MC],
        max_violation=_num(worst),
        per_trip_spread=tuple(spreads),
        tolerance=_num(tol),
        satisfied=bool(worst <= tol),
    )


# ---------------------------------------------------------------------------
# certificates, bridge, price of anarchy


def verify_certificate(instance: Instance, result: SolveResult,
                       kind: Optional[str] = None,
                       limit: int = DEFAULT_PATH_LIMIT) -> OptimalityCertificate:
    """Recompute a result's optimality certificate from its assignment.

    so and ue compare the used paths with each trip's shortest path, priced
    with Dijkstra on the assignment's own edge flows, so the check covers
    every simple path without listing them. mc checks reduced costs over
    the full enumeration. ``limit`` caps the paths per trip either way.

    Raises BadParams when the assignment holds a path that is not a simple
    path of its trip in the instance. Never raises on a suboptimal
    assignment; the certificate simply reports the violation it finds.
    """
    kind = kind or result.routing
    paths = result.assignment.paths
    if kind == MC:
        space = _PathSpace.enumerated(instance, limit)
    else:
        space = _PathSpace(instance, limit)
        for p in paths:
            if _is_trip_path(instance, p):
                space.add(p.trip_index, p.nodes)
    rows = [space.row(p) for p in paths]
    x = np.zeros(len(space.paths))
    x[rows] = result.assignment.flows
    if kind == MC:
        path_costs = space.incidence @ _constant_edge_costs(instance.network)
        duals = result.duals or MCDuals(
            trip_potentials=tuple(0.0 for _ in instance.trips), edge_prices=())
        return _mc_certificate(space, x, path_costs, duals)
    return _flow_certificate(space, _EdgeCalculator(space.models), x, kind)


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
