"""Seeded benchmark inputs as plain data.

Everything here is built from ``random.Random`` and tuples only, so the
oracles can read the same data the program is given without going through
the package. Costs are tuples: ``("constant", c)``,
``("greenshields", l, v_max, u)``, ``("bpr", c0, u, alpha, beta)`` or
``("affine", a, b)``. An edge is ``((tail, head), cost, capacity)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Tuple

Pair = Tuple[int, int]

# lattice: 4x4 grid, one trip, this many random shortest-path candidates
LATTICE_SIZE = (4, 4)
LATTICE_CANDIDATES = 4
# cli: same template, more candidates than the exhaustive supermodular cap
CLI_CANDIDATES = 12
# the single trip's demand on the 4x4 designs
DEMAND = 2.0
# grid: so/ue on a 5x5 BPR city, mc on a 4x5 capacitated constant grid
GRID_FLOW_SIZE = (5, 5)
GRID_MC_SIZE = (4, 5)
# Greenshields capacity as a multiple of the trip demand. At 1.5 the
# demand on one path runs at two thirds of capacity, so nearly every
# subset's solve splits flow and needs the descent and polish; at 4 about
# half the instances solve at the all-or-nothing start, which made the
# cost of an operation depend on the seed.
CONGESTION = 1.5


@dataclass(frozen=True)
class Design:
    """A template, its trips, a spanning-tree path and candidate paths."""

    nodes: Tuple[int, ...]
    edges: Tuple[Tuple[Pair, tuple, float], ...]
    trips: Tuple[Tuple[int, int, float], ...]
    tree: Tuple[Tuple[int, ...], ...]          # one node sequence per trip
    candidates: Tuple[Tuple[int, ...], ...]    # node sequences, all for trip 0

    def subset_edges(self, mask: int):
        """Edges of the spanning tree plus the candidates in ``mask``."""
        chosen = set()
        for path in self.tree:
            chosen.update(zip(path, path[1:]))
        for i, path in enumerate(self.candidates):
            if mask >> i & 1:
                chosen.update(zip(path, path[1:]))
        return tuple(e for e in self.edges if e[0] in chosen)


@dataclass(frozen=True)
class City:
    """A routing instance: nodes, edges and trips."""

    nodes: Tuple[int, ...]
    edges: Tuple[Tuple[Pair, tuple, float], ...]
    trips: Tuple[Tuple[int, int, float], ...]


def grid_pairs(rows: int, cols: int) -> Tuple[Pair, ...]:
    """Both directions between row-major grid neighbours, sorted."""
    out = []
    for r in range(rows):
        for c in range(cols):
            a = r * cols + c
            if c + 1 < cols:
                out += [(a, a + 1), (a + 1, a)]
            if r + 1 < rows:
                out += [(a, a + cols), (a + cols, a)]
    return tuple(sorted(out))


def _successors(pairs):
    succ = {}
    for i, j in pairs:
        succ.setdefault(i, []).append(j)
    return {i: sorted(js) for i, js in succ.items()}


def random_simple_path(rng: random.Random, succ, source: int, sink: int):
    """A simple path by randomised depth-first search."""
    path = [source]
    seen = {source}

    def walk(node):
        if node == sink:
            return True
        nxt = [v for v in succ.get(node, ()) if v not in seen]
        rng.shuffle(nxt)
        for v in nxt:
            path.append(v)
            seen.add(v)
            if walk(v):
                return True
            seen.discard(v)
            path.pop()
        return False

    if not walk(source):
        raise ValueError(f"no path from {source} to {sink}")
    return tuple(path)


def lattice_instance(seed: int):
    """One lattice operation's inputs: the same topology twice, with
    constant costs (for mc) and Greenshields costs (for so and ue), plus a
    parallel family with as many candidates, in both flavours."""
    rng = random.Random(f"lattice-{seed}")
    pairs, trip, tree, cands = _staircase_design(rng, LATTICE_CANDIDATES)
    nodes = tuple(range(LATTICE_SIZE[0] * LATTICE_SIZE[1]))
    d = trip[2]
    constant = Design(nodes, tuple((p, ("constant", float(rng.randint(1, 9))), 100.0)
                                   for p in pairs), (trip,), (tree,), cands)
    u = CONGESTION * d
    congested = Design(nodes, tuple((p, ("greenshields", round(rng.uniform(0.5, 2.0), 3), 1.0, u), u)
                                    for p in pairs), (trip,), (tree,), cands)
    return constant, congested, parallel_family(rng, LATTICE_CANDIDATES)


@dataclass(frozen=True)
class Parallel:
    """Parallel routes 0 -> 2+i -> 1; route 0 is the spanning tree."""

    constant: Design
    congested: Design
    route_costs: Tuple[float, ...]   # constant flavour, whole-route cost
    d_constant: float
    l: float
    v_max: float
    u: float
    d_congested: float


def parallel_family(rng: random.Random, n_candidates: int) -> Parallel:
    routes = n_candidates + 1
    nodes = tuple(range(routes + 2))
    paths = tuple((0, 2 + i, 1) for i in range(routes))

    d_c = float(rng.randint(1, 3))
    halves = [round(rng.uniform(0.5, 6.0), 3) for _ in range(routes)]
    edges_c = []
    for i, half in enumerate(halves):
        cap = round(rng.uniform(d_c, d_c + 10.0), 3)
        edges_c += [((0, 2 + i), ("constant", half), cap), ((2 + i, 1), ("constant", half), cap)]

    d_g = round(rng.uniform(1.0, 5.0), 3)
    l = round(rng.uniform(0.5, 3.0), 3)
    v_max = round(rng.uniform(0.5, 2.0), 3)
    u = round(rng.uniform(1.2 * d_g, 3.0 * d_g), 3)
    edges_g = []
    for i in range(routes):
        edges_g += [((0, 2 + i), ("greenshields", l / 2.0, v_max, u), u),
                    ((2 + i, 1), ("greenshields", l / 2.0, v_max, u), u)]

    def design(edges, d):
        return Design(nodes, tuple(sorted(edges)), ((0, 1, d),), (paths[0],), paths[1:])

    return Parallel(design(edges_c, d_c), design(edges_g, d_g),
                    tuple(2.0 * h for h in halves), d_c, l, v_max, u, d_g)


def _corner_trips(rows: int, cols: int, demands):
    last = rows * cols - 1
    top_right = cols - 1
    bottom_left = last - (cols - 1)
    ends = ((0, last), (top_right, bottom_left), (bottom_left, top_right))
    return tuple((s, t, d) for (s, t), d in zip(ends, demands))


def grid_instance(seed: int):
    """One grid operation's inputs: a BPR city for so/ue and a capacitated
    constant-cost city for mc, with three corner-to-corner trips each.

    mc costs, capacities and demands have four decimals: on integer data
    the package's simplex can cycle at the optimum (see CHANGES.md).
    Capacities are then raised along one random witness path per trip
    until that routing fits, so every draw is feasible.
    """
    rng = random.Random(f"grid-{seed}")
    rows, cols = GRID_FLOW_SIZE
    pairs = grid_pairs(rows, cols)
    demands = [round(rng.uniform(2.0, 4.0), 3) for _ in range(3)]
    flow = City(tuple(range(rows * cols)),
                tuple((p, ("bpr", round(rng.uniform(1.0, 3.0), 3), round(rng.uniform(2.0, 6.0), 3),
                           0.15, 4.0), math.inf) for p in pairs),
                _corner_trips(rows, cols, demands))

    rows, cols = GRID_MC_SIZE
    pairs = grid_pairs(rows, cols)
    trips = _corner_trips(rows, cols, [round(rng.uniform(2.0, 4.0), 4) for _ in range(3)])
    cost = {p: round(rng.uniform(1.0, 9.0), 4) for p in pairs}
    cap = {p: round(rng.uniform(3.0, 8.0), 4) for p in pairs}
    succ = _successors(pairs)
    load = {}
    for s, t, d in trips:
        witness = random_simple_path(rng, succ, s, t)
        for p in zip(witness, witness[1:]):
            load[p] = load.get(p, 0.0) + d
    for p, need in load.items():
        cap[p] = max(cap[p], need)
    mc = City(tuple(range(rows * cols)),
              tuple((p, ("constant", cost[p]), cap[p]) for p in pairs), trips)
    return flow, mc


def staircase_paths(rows: int, cols: int):
    """Every shortest corner-to-corner path (right and down moves only)."""
    out = []

    def walk(r, c, path):
        if (r, c) == (rows - 1, cols - 1):
            out.append(tuple(path))
            return
        if c + 1 < cols:
            walk(r, c + 1, path + [r * cols + c + 1])
        if r + 1 < rows:
            walk(r + 1, c, path + [(r + 1) * cols + c])

    walk(0, 0, [0])
    return out


def _staircase_design(rng: random.Random, n_candidates: int):
    """One corner-to-corner trip on the 4x4 grid; the spanning tree and the
    candidates are distinct random shortest paths.

    Shortest paths keep every instance the same size: the union of any
    subset is a subgraph of the same right-and-down lattice, so the cost of
    an operation varies little with the seed.
    """
    rows, cols = LATTICE_SIZE
    chosen = rng.sample(staircase_paths(rows, cols), n_candidates + 1)
    trip = (0, rows * cols - 1, DEMAND)
    return grid_pairs(rows, cols), trip, chosen[0], tuple(chosen[1:])


def cli_instance(seed: int):
    """Two design documents' worth of data on one topology (Greenshields
    costs for so/ue and constant costs for mc, 12 candidates) and the seed
    the sampled checks are given."""
    rng = random.Random(f"cli-{seed}")
    pairs, trip, tree, cands = _staircase_design(rng, CLI_CANDIDATES)
    nodes = tuple(range(LATTICE_SIZE[0] * LATTICE_SIZE[1]))
    d = trip[2]
    u = CONGESTION * d
    congested = Design(nodes, tuple((p, ("greenshields", round(rng.uniform(0.5, 2.0), 3), 1.0, u), u)
                                    for p in pairs), (trip,), (tree,), cands)
    constant = Design(nodes, tuple((p, ("constant", float(rng.randint(1, 9))), 100.0)
                                   for p in pairs), (trip,), (tree,), cands)
    return congested, constant, rng.randrange(1_000_000)


def cost_json(cost: tuple) -> dict:
    kind = cost[0]
    if kind == "constant":
        return {"kind": kind, "c": cost[1]}
    if kind == "greenshields":
        return {"kind": kind, "l": cost[1], "v_max": cost[2], "u": cost[3]}
    if kind == "bpr":
        return {"kind": kind, "c0": cost[1], "u": cost[2], "alpha": cost[3], "beta": cost[4]}
    return {"kind": kind, "a": cost[1], "b": cost[2]}


def design_document(design: Design) -> dict:
    """The documented design-document JSON form, written from plain data."""
    return {
        "nodes": list(design.nodes),
        "edges": [{"from": i, "to": j, "cost": cost_json(c),
                   "capacity": "inf" if math.isinf(cap) else cap}
                  for (i, j), c, cap in design.edges],
        "trips": [{"source": s, "sink": t, "demand": d} for s, t, d in design.trips],
        "spanning_tree": [[i, j] for path in design.tree for i, j in zip(path, path[1:])],
        "candidates": [{"trip": 0, "edges": [[i, j] for i, j in zip(p, p[1:])]}
                       for p in design.candidates],
    }
