"""Built-in fixtures and instance generation.

Each scenario materialises a fixed catalogue network edge-for-edge; node
numbering notes sit next to each edge list so the fixtures stay
auditable. Scenarios expose a plain instance (for ``solve``) and, where
the fixture is posed as a design problem, a candidate set (for
``lambda``/``check``/``design``). A fixture's spanning tree and candidates
are edge-pair lists over its template, built and validated by
``design.candidate_set_from_pairs``, the constructor that design documents
go through too; the seeded generators build theirs the same way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from .costs import Affine, Constant, Greenshields, parse_number
from .design import DOUBLE_PRIME, GENERAL, PRIME, CandidateSet, candidate_set_from_pairs
from .errors import BadParams, FormatError, UnknownScenario
from .network import Edge, Network, Trip, build_grid_template
from .routing import Instance

SCENARIO_NAMES = ("braess", "pigou", "fig3", "fig4", "counterexample", "parallel")

# Most routes of the parallel scenario: so/ue take about one Newton step
# per route, on a dense routes-by-edges system (800 routes took 23 s on
# a 2-vCPU x86-64 machine).
PARALLEL_ROUTES_CAP = 1_000


@dataclass(frozen=True)
class Scenario:
    name: str
    params: Tuple[Tuple[str, object], ...]
    instance: Optional[Instance]
    candidate_set: Optional[CandidateSet]
    candidate_labels: Tuple[str, ...]
    description: str

    def params_dict(self) -> dict:
        return dict(self.params)


def _network(nodes, edge_defs) -> Network:
    return Network(nodes, [Edge(i, j, cost, cap) for i, j, cost, cap in edge_defs])


def _design_scenario(name, params: dict, trips, tree, candidates, cost_of, labels,
                     description, declared=GENERAL) -> Scenario:
    """A fixture posed as a design problem: the template holds every pair of
    the spanning tree ``tree`` and of the ``(trip index, pairs)`` specs
    ``candidates``, edge (i, j) costing ``cost_of((i, j))`` with capacity
    10, and the instance is the union of every member."""
    pairs = set(tree).union(*(member for _, member in candidates))
    template = _network({n for pair in pairs for n in pair},
                        [(i, j, cost_of((i, j)), 10.0) for i, j in pairs])
    cs = candidate_set_from_pairs(template, trips, tree, candidates, declared)
    return Scenario(
        name=name,
        params=tuple(sorted(params.items())),
        instance=Instance(cs.subset_network(range(len(candidates))), trips),
        candidate_set=cs,
        candidate_labels=labels,
        description=description,
    )


def _parallel_set(trip: Trip, routes) -> CandidateSet:
    """Routes 0 -> 2+k -> 1, both edges of route k with the (cost model,
    capacity) ``routes[k]``: route 0 is the spanning tree and the others
    are the candidates."""
    pairs = [((0, 2 + k), (2 + k, 1)) for k in range(len(routes))]
    template = _network(range(2 + len(routes)), [
        (i, j, model, cap) for route, (model, cap) in zip(pairs, routes) for i, j in route])
    return candidate_set_from_pairs(template, (trip,), pairs[0],
                                    [(0, route) for route in pairs[1:]], DOUBLE_PRIME)


def _restrict(params: Optional[dict], allowed: dict, scenario: str) -> dict:
    given = dict(params or {})
    unknown = set(given) - set(allowed)
    if unknown:
        raise BadParams(f"unknown parameter(s) {sorted(unknown)} for scenario {scenario}")
    merged = dict(allowed)
    merged.update(given)
    return merged


# -- Braess ------------------------------------------------------------------
# Nodes: 0 = s, 1 = v, 2 = w, 3 = t. Times: s->v and w->t are 10x,
# s->w and v->t are 50+x, and the optional shortcut v->w is 10+x.
# One trip of demand 6 from s to t.

_BRAESS_EDGES = (
    (0, 1, Affine(0.0, 10.0), math.inf),
    (0, 2, Affine(50.0, 1.0), math.inf),
    (1, 3, Affine(50.0, 1.0), math.inf),
    (2, 3, Affine(0.0, 10.0), math.inf),
)
_BRAESS_SHORTCUT = (1, 2, Affine(10.0, 1.0), math.inf)
_BRAESS_TREE = ((0, 1), (1, 3))
_BRAESS_CANDIDATES = (((0, 2), (2, 3)), ((0, 1), (1, 2), (2, 3)))


def _braess(params) -> Scenario:
    p = _restrict(params, {"with_edge": True}, "braess")
    if not isinstance(p["with_edge"], bool):
        raise BadParams("with_edge must be a boolean")
    trip = Trip(0, 3, 6.0)
    edges = _BRAESS_EDGES + ((_BRAESS_SHORTCUT,) if p["with_edge"] else ())
    instance = Instance(_network(range(4), edges), (trip,))

    # Posed as a design problem: the spanning tree is the path s-v-t, the
    # additions are the path s-w-t and then s-v-w-t over the shortcut.
    template = _network(range(4), _BRAESS_EDGES + (_BRAESS_SHORTCUT,))
    cs = candidate_set_from_pairs(template, (trip,), _BRAESS_TREE,
                                  [(0, pairs) for pairs in _BRAESS_CANDIDATES])
    return Scenario(
        name="braess",
        params=tuple(sorted(p.items())),
        instance=instance,
        candidate_set=cs,
        candidate_labels=("s-w-t", "s-v-w-t"),
        description="four-node paradox network, demand 6, optional shortcut edge",
    )


# -- Pigou -------------------------------------------------------------------
# Two parallel routes from s to t with a unit demand: one of constant time
# 1 and one of time x. Each route is split in two edges through its own
# midpoint (1 above, 2 below) because an ordered node pair carries at most
# one edge; the split halves add up to the original route times.


def _pigou(params) -> Scenario:
    _restrict(params, {}, "pigou")
    trip = Trip(0, 3, 1.0)
    net = _network(range(4), (
        (0, 1, Constant(0.5), math.inf),
        (1, 3, Constant(0.5), math.inf),
        (0, 2, Affine(0.0, 0.5), math.inf),
        (2, 3, Affine(0.0, 0.5), math.inf),
    ))
    return Scenario(
        name="pigou",
        params=(),
        instance=Instance(net, (trip,)),
        candidate_set=None,
        candidate_labels=(),
        description="two parallel routes (times 1 and x), unit demand",
    )


# -- Graph-union illustration ------------------------------------------------
# Layout (ids are fixed so edge lists are auditable): 9 = s1, 4 = t1,
# 6 = s2, 14 = t2; 10 sits right of 9, 2 above 10, 3 right of 2, 11 below
# 3, 14 below 11. The middle vertical pair 2<->10 is bidirectional.

_FIG3_TREE = ((9, 10), (2, 3), (3, 4), (6, 2), (2, 10), (10, 2), (11, 14), (10, 11))
_FIG3_CANDIDATE = ((9, 10), (10, 11), (11, 3), (3, 4))


def _fig3(params) -> Scenario:
    return _design_scenario(
        "fig3", _restrict(params, {}, "fig3"), (Trip(9, 4, 1.0), Trip(6, 14, 1.0)),
        _FIG3_TREE, [(0, _FIG3_CANDIDATE)], lambda pair: Constant(1.0),
        ("detour-9-10-11-3-4",),
        "two-trip union example; the addition contributes one new edge")


# -- Path-addition illustration ----------------------------------------------
# Nodes: 1 = s1, 2 = v, 3 = t1, 4 = w, 5 = r, 6 = g, 7 = h. The tree is
# the straight path 1-2-3; the addition walks 1-4-5-2-6-7-3 and induces
# two extra composite routes, for four total.

_FIG4_TREE = ((1, 2), (2, 3))
_FIG4_CANDIDATE = ((1, 4), (4, 5), (5, 2), (2, 6), (6, 7), (7, 3))


def _fig4(params) -> Scenario:
    return _design_scenario(
        "fig4", _restrict(params, {}, "fig4"), (Trip(1, 3, 1.0),),
        _FIG4_TREE, [(0, _FIG4_CANDIDATE)], lambda pair: Constant(1.0),
        ("loop-1-4-5-2-6-7-3",), "single-trip addition inducing two composite routes")


# -- Supermodularity counterexample ------------------------------------------
# Fourteen nodes on a fixed layout: 1 = s, 4 = t; 1-2-3-4 is the straight
# middle row (the spanning tree); 5-8 sit above row 1-4; 9-12 sit below;
# 13 below 10 and 14 below 11. The "orange" addition climbs over the
# top-left and dives through the bottom, the "blue" addition dives
# bottom-left and climbs over the top-right; together they compose a
# short bottom corridor 1-9-10-11-12-4, which is why adding one of them
# helps more after the other is already in place.

_CX_TREE = ((1, 2), (2, 3), (3, 4))
_CX_ORANGE = ((1, 5), (5, 6), (6, 2), (2, 10), (10, 13), (13, 14), (14, 11),
              (11, 12), (12, 4))
_CX_BLUE = ((1, 9), (9, 10), (10, 11), (11, 3), (3, 7), (7, 8), (8, 4))


def _counterexample(params) -> Scenario:
    p = _restrict(params, {"costing": "mc"}, "counterexample")
    costing = p["costing"]
    if costing not in ("mc", "greenshields"):
        raise BadParams(f"costing must be 'mc' or 'greenshields', got {costing!r}")
    if costing == "mc":
        trip = Trip(1, 4, 1.0)
        def cost_of(pair):
            return Constant(3.0) if pair in _CX_TREE else Constant(1.0)
    else:
        trip = Trip(1, 4, 5.0)
        def cost_of(pair):
            return Greenshields(1.0, 1.0, 10.0)
    return _design_scenario(
        "counterexample", p, (trip,), _CX_TREE, [(0, _CX_ORANGE), (0, _CX_BLUE)], cost_of,
        ("orange", "blue"), "14-node network where adding one path helps more on a superset",
        PRIME)


# -- Identical parallel paths --------------------------------------------------
# n parallel routes from 0 to 1, each through its own midpoint (2, 3, ...)
# as two hyperbolic edges of length l/2, so every route behaves as one
# edge of length l. The first route is the spanning tree, the remaining
# n-1 are the candidates.


def _parallel(params) -> Scenario:
    p = _restrict(params, {"n": 3, "l": 1.0, "v_max": 1.0, "u": 10.0, "d": 5.0},
                  "parallel")
    n = p["n"]
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= PARALLEL_ROUTES_CAP:
        raise BadParams(f"n must be an integer from 1 to {PARALLEL_ROUTES_CAP}, got {n!r}")
    try:
        l, v_max, u, d = (parse_number(p[k], k) for k in ("l", "v_max", "u", "d"))
    except FormatError as exc:
        raise BadParams(str(exc)) from exc
    if not all(0 < v < math.inf for v in (l, v_max, u, d)):  # NaN fails too
        raise BadParams("l, v_max, u and d must be positive and finite")
    if d >= u:
        raise BadParams(f"demand {d} must stay below the per-path capacity {u}")
    trip = Trip(0, 1, d)
    cs = _parallel_set(trip, [(Greenshields(l / 2.0, v_max, u), u)] * n)
    return Scenario(
        name="parallel",
        params=tuple(sorted(p.items())),
        instance=Instance(cs.subset_network(range(n - 1)), (trip,)),
        candidate_set=cs,
        candidate_labels=tuple(f"p{i}" for i in range(1, n)),
        description="identical parallel hyperbolic routes; uniform split is optimal",
    )


_BUILDERS = {
    "braess": _braess,
    "pigou": _pigou,
    "fig3": _fig3,
    "fig4": _fig4,
    "counterexample": _counterexample,
    "parallel": _parallel,
}


# ---------------------------------------------------------------------------
# seeded instance generation for the property suites


# A random path search backs up at most this many times before it finishes
# with a guarded walk; every walk on the 4x4 and 5x5 grids of seeds 0-199
# backs up at most 6,793 times, so their candidate sets keep their paths.
WALK_BACKUPS = 10_000


def _random_simple_path(rng, net: Network, source: int, sink: int):
    """Uniform-ish random simple path via randomised depth-first search:
    each node's unvisited successors are tried in shuffled order.

    Backing up out of a dead-end region can take time exponential in its
    size, so past ``WALK_BACKUPS`` back-ups the search starts again as
    ``_guarded_random_walk``, which never backs up."""
    path = [source]
    seen = {source}
    branches = [_shuffled_successors(rng, net, source, seen)]
    backups = 0
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:  # every successor failed: back up
            branches.pop()
            if not branches:
                break
            seen.discard(path.pop())
            backups += 1
            if backups > WALK_BACKUPS:
                return _guarded_random_walk(rng, net, source, sink)
            continue
        path.append(nxt)
        seen.add(nxt)
        if nxt == sink:
            return tuple(path)
        branches.append(_shuffled_successors(rng, net, nxt, seen))
    raise AssertionError("grid templates are strongly connected")


def _shuffled_successors(rng, net: Network, node: int, seen):
    succ = [v for v in net.successors(node) if v not in seen]
    rng.shuffle(succ)
    return iter(succ)


def _guarded_random_walk(rng, net: Network, source: int, sink: int):
    """A random simple path that steps only onto nodes from which the sink
    is reachable off the path, found by one reverse search per step, so it
    never backs up."""
    path = [source]
    seen = {source}
    while path[-1] != sink:
        open_nodes = {sink}  # reach the sink off the path
        stack = [sink]
        while stack:
            for v in net.predecessors(stack.pop()):
                if v not in open_nodes and v not in seen:
                    open_nodes.add(v)
                    stack.append(v)
        succ = [v for v in net.successors(path[-1]) if v in open_nodes]
        if not succ:
            raise AssertionError("grid templates are strongly connected")
        nxt = rng.choice(succ)
        path.append(nxt)
        seen.add(nxt)
    return tuple(path)


def _route_pairs(nodes) -> Tuple[Tuple[int, int], ...]:
    return tuple(zip(nodes, nodes[1:]))


def random_candidate_set(seed: int, costing: str = "constant", rows: int = 4,
                         cols: int = 4, max_candidates: int = 5) -> CandidateSet:
    """A seeded random design problem on a grid template.

    One trip between two random distinct grid nodes; the spanning tree is a
    random simple path and the candidates are further random paths for the
    same trip, distinct from the tree and from each other (at most 200
    draws). The same seed yields the same topology for either costing.
    """
    if costing not in ("constant", "greenshields"):
        raise BadParams(f"costing must be 'constant' or 'greenshields', got {costing!r}")
    rng_topo = random.Random(f"{seed}-topology")
    rng_cost = random.Random(f"{seed}-cost")

    demand = float(rng_topo.randint(1, 3))
    shape = build_grid_template(rows, cols, Constant(1.0), 100.0)
    pairs = shape.network.edge_pairs
    if costing == "constant":
        models = {p: Constant(float(rng_cost.randint(1, 9))) for p in pairs}
        capacity = 100.0
    else:
        u = 4.0 * demand
        models = {p: Greenshields(round(rng_cost.uniform(0.5, 2.0), 3), 1.0, u)
                  for p in pairs}
        capacity = 4.0 * demand
    template = Network(shape.network.nodes,
                       [Edge(i, j, models[(i, j)], capacity) for i, j in pairs])

    nodes = sorted(template.nodes)
    source = rng_topo.choice(nodes)
    sink = rng_topo.choice([n for n in nodes if n != source])
    trip = Trip(source, sink, demand)

    tree_nodes = _random_simple_path(rng_topo, template, source, sink)
    n_candidates = rng_topo.randint(1, max_candidates)
    chosen = []
    for _ in range(200):
        if len(chosen) == n_candidates:
            break
        cand_nodes = _random_simple_path(rng_topo, template, source, sink)
        if cand_nodes != tree_nodes and cand_nodes not in chosen:
            chosen.append(cand_nodes)
    return candidate_set_from_pairs(template, (trip,), _route_pairs(tree_nodes),
                                    [(0, _route_pairs(c)) for c in chosen])


@dataclass(frozen=True)
class ParallelFamily:
    """A seeded parallel family plus the data its closed form needs."""

    candidate_set: CandidateSet
    flavour: str
    d: float
    spanning_cost: Optional[float] = None            # constant flavour
    candidate_costs: Tuple[float, ...] = ()
    l: Optional[float] = None                        # greenshields flavour
    v_max: Optional[float] = None
    u: Optional[float] = None


def random_parallel_family(seed: int, flavour: str = "constant",
                           max_candidates: int = 6) -> ParallelFamily:
    """Parallel single-trip candidate sets where supermodularity must hold.

    The constant flavour draws distinct path costs with per-edge capacities
    at least the demand; the hyperbolic flavour draws one shared (l, v_max,
    u, d) with d < u, so every route (tree included) is identical.
    """
    if flavour not in ("constant", "greenshields"):
        raise BadParams(f"flavour must be 'constant' or 'greenshields', got {flavour!r}")
    rng = random.Random(f"{seed}-parallel-{flavour}")
    n = rng.randint(1, max_candidates)
    if flavour == "constant":
        d = float(rng.randint(1, 3))
        spanning_cost = round(rng.uniform(5.0, 15.0), 3)
        candidate_costs = tuple(round(rng.uniform(1.0, 12.0), 3) for _ in range(n))
        capacities = [round(rng.uniform(d, d + 10.0), 3) for _ in range(n + 1)]
        routes = [(Constant(cost / 2.0), max(cap, d))
                  for cost, cap in zip((spanning_cost,) + candidate_costs, capacities)]
    else:
        d = round(rng.uniform(1.0, 5.0), 3)
        l = round(rng.uniform(0.5, 3.0), 3)
        v_max = round(rng.uniform(0.5, 2.0), 3)
        u = round(rng.uniform(1.2 * d, 3.0 * d), 3)
        routes = [(Greenshields(l / 2.0, v_max, u), u)] * (n + 1)

    cs = _parallel_set(Trip(0, 1, d), routes)
    if flavour == "constant":
        return ParallelFamily(candidate_set=cs, flavour=flavour, d=d,
                              spanning_cost=spanning_cost,
                              candidate_costs=candidate_costs)
    return ParallelFamily(candidate_set=cs, flavour=flavour, d=d,
                          l=l, v_max=v_max, u=u)


def materialize(name: str, params: Optional[dict] = None) -> Scenario:
    """Build a named fixture; BadParams/UnknownScenario on misuse."""
    if name not in _BUILDERS:
        raise UnknownScenario(f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)}")
    return _BUILDERS[name](params)


def scenario_descriptions() -> Tuple[Tuple[str, str], ...]:
    return tuple((name, _BUILDERS[name](None).description) for name in SCENARIO_NAMES)
