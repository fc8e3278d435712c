"""Independent oracles, written apart from the package.

They read the plain data of ``gen`` (or hand-written fixtures) and never
import ``netdesign``. numpy and scipy are used here only; the package's
runtime dependency is numpy alone.

- ``mc_values``: an arc-node multicommodity LP solved with HiGHS. It needs
  no path enumeration; with positive costs an optimal arc flow decomposes
  into simple paths, so it equals the package's path formulation.
- ``wardrop``: checks a path-flow assignment for conservation and for the
  equal-cost condition (travel times for ue, marginal costs for so) against
  shortest paths from this module's own Dijkstra, and prices it.
- ``parallel_congested_value`` and ``parallel_constant_value``: the
  closed forms for identical parallel routes and for parallel constant
  routes that each hold the whole demand.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix


def edge_time(cost: tuple, x: float) -> float:
    kind = cost[0]
    if kind == "constant":
        return cost[1]
    if kind == "affine":
        return cost[1] + cost[2] * x
    if kind == "greenshields":
        _, l, v_max, u = cost
        return l / (v_max * (1.0 - x / u))
    _, c0, u, alpha, beta = cost
    return c0 * (1.0 + alpha * (x / u) ** beta)


def edge_slope(cost: tuple, x: float) -> float:
    kind = cost[0]
    if kind == "constant":
        return 0.0
    if kind == "affine":
        return cost[2]
    if kind == "greenshields":
        _, l, v_max, u = cost
        return l / (v_max * u * (1.0 - x / u) ** 2)
    _, c0, u, alpha, beta = cost
    return c0 * alpha * beta * x ** (beta - 1.0) / u ** beta


def edge_marginal(cost: tuple, x: float) -> float:
    """d(x * t(x)) / dx."""
    return edge_time(cost, x) + x * edge_slope(cost, x)


def dijkstra(weights: dict, source: int) -> dict:
    """Shortest distances from ``source``; ``weights`` maps (i, j) -> w >= 0."""
    succ = {}
    for (i, j), w in weights.items():
        succ.setdefault(i, []).append((j, w))
    dist = {source: 0.0}
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, i = heapq.heappop(heap)
        if i in done:
            continue
        done.add(i)
        for j, w in succ.get(i, ()):
            if d + w < dist.get(j, math.inf):
                dist[j] = d + w
                heapq.heappush(heap, (d + w, j))
    return dist


def wardrop(edges, trips, path_flows, kind: str, tol: float = 1e-6):
    """Check an so or ue assignment; returns (problems, total travel time).

    ``edges`` are ``((i, j), cost, capacity)``; ``trips`` are
    ``(source, sink, demand)``; ``path_flows`` are
    ``(trip_index, node_sequence, flow)``. A path counts as used above
    1e-6 of its trip's demand, the package's documented threshold.
    """
    costs = {pair: c for pair, c, _ in edges}
    problems = []
    load = {pair: 0.0 for pair in costs}
    per_trip = [0.0] * len(trips)
    for m, nodes, flow in path_flows:
        s, t, _ = trips[m]
        if nodes[0] != s or nodes[-1] != t or len(set(nodes)) != len(nodes):
            problems.append(f"trip {m}: {nodes} is not a simple {s}-{t} path")
            continue
        if flow < 0.0:
            problems.append(f"trip {m}: negative flow {flow}")
        per_trip[m] += flow
        for pair in zip(nodes, nodes[1:]):
            if pair not in costs:
                problems.append(f"trip {m}: path uses missing edge {pair}")
                break
            load[pair] += flow
    for m, (_, _, d) in enumerate(trips):
        if abs(per_trip[m] - d) > 1e-9 * (1.0 + d):
            problems.append(f"trip {m}: routed {per_trip[m]} of demand {d}")
    if problems:
        return problems, math.nan
    price = edge_time if kind == "ue" else edge_marginal
    weights = {pair: price(costs[pair], x) for pair, x in load.items()}
    for m, (s, t, d) in enumerate(trips):
        shortest = dijkstra(weights, s)[t]
        for m2, nodes, flow in path_flows:
            if m2 != m or flow <= 1e-6 * d:
                continue
            cost = sum(weights[pair] for pair in zip(nodes, nodes[1:]))
            if cost > shortest + tol * (1.0 + shortest):
                problems.append(f"trip {m}: used path {nodes} costs {cost!r}, "
                                f"shortest {shortest!r}")
    total = sum(x * edge_time(costs[pair], x) for pair, x in load.items() if x > 0.0)
    return problems, total


def mc_values(nodes, edge_sets, trips):
    """Optimal constant-cost multicommodity routing value (arc-node LP) of
    each network in ``edge_sets``, all over the same nodes and trips.

    The networks are solved as independent blocks of one LP: the blocks
    share no variable or row, so each block of an optimal solution is
    optimal for its own network, and one HiGHS call serves them all.
    """
    nodes = sorted(nodes)
    node_row = {v: r for r, v in enumerate(nodes)}
    rows, cols, vals, b_eq = [], [], [], []
    ub_rows, ub_cols, b_ub = [], [], []
    costs, blocks = [], []
    for edges in edge_sets:
        first_var = len(costs)
        for s, t, d in trips:
            base = len(b_eq)
            for (i, j), cost, cap in edges:
                col = len(costs)
                costs.append(cost[1])
                rows += [base + node_row[i], base + node_row[j]]
                cols += [col, col]
                vals += [1.0, -1.0]
            b_eq += [d if v == s else -d if v == t else 0.0 for v in nodes]
        n_e = len(edges)
        for e, (_, _, cap) in enumerate(edges):
            if math.isfinite(cap):
                for m in range(len(trips)):
                    ub_rows.append(len(b_ub))
                    ub_cols.append(first_var + m * n_e + e)
                b_ub.append(cap)
        blocks.append((first_var, len(costs)))
    n_var = len(costs)
    a_eq = coo_matrix((vals, (rows, cols)), shape=(len(b_eq), n_var)).tocsr()
    a_ub = None
    if b_ub:
        a_ub = coo_matrix((np.ones(len(ub_rows)), (ub_rows, ub_cols)),
                          shape=(len(b_ub), n_var)).tocsr()
    c = np.array(costs)
    res = linprog(c, A_ub=a_ub, b_ub=np.array(b_ub) if b_ub else None, A_eq=a_eq,
                  b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    if res.status != 0:
        raise ValueError(f"oracle LP failed: {res.message}")
    return [float(c[a:b] @ res.x[a:b]) for a, b in blocks]


def mc_value(nodes, edges, trips) -> float:
    return mc_values(nodes, [edges], trips)[0]


def parallel_congested_value(n_routes: int, l: float, v_max: float, u: float, d: float) -> float:
    """Identical parallel hyperbolic routes: the even split is optimal for
    both so and ue."""
    return d * l / (v_max * (1.0 - d / (n_routes * u)))


def parallel_constant_value(route_costs, d: float) -> float:
    """Parallel constant routes that each hold the demand: all of it rides
    the cheapest."""
    return d * min(route_costs)


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))
