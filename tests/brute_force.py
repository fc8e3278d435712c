"""Independent brute-force oracles used by the test suite only."""

import itertools

from netdesign.network import enumerate_trip_paths


def mc_grid_oracle(instance, resolution=20, limit=10_000):
    """Grid search over path flows in steps of demand/resolution per trip.

    Returns (best objective, step bound): the best capacity-feasible grid
    assignment and the largest objective change a single grid step could
    cause, which bounds the gap to the true optimum.
    """
    path_set = enumerate_trip_paths(instance.network, instance.trips, limit)
    groups = path_set.per_trip
    costs = []
    for group in groups:
        costs.append([
            sum(instance.network.edge(*pair).cost.c for pair in p.edge_pairs)
            for p in group
        ])

    def compositions(total, k):
        # all ways to split `total` integer units over k cells
        if k == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, k - 1):
                yield (head,) + rest

    per_trip_choices = []
    for m, trip in enumerate(instance.trips):
        step = trip.demand / resolution
        options = [tuple(c * step for c in combo)
                   for combo in compositions(resolution, len(groups[m]))]
        per_trip_choices.append(options)

    best = None
    for assignment in itertools.product(*per_trip_choices):
        edge_flow = {}
        objective = 0.0
        for m, flows in enumerate(assignment):
            for p, f in zip(groups[m], flows):
                if f == 0.0:
                    continue
                objective += f * costs[m][groups[m].index(p)]
                for pair in p.edge_pairs:
                    edge_flow[pair] = edge_flow.get(pair, 0.0) + f
        feasible = all(
            flow <= instance.network.edge(*pair).capacity + 1e-9
            for pair, flow in edge_flow.items())
        if feasible and (best is None or objective < best):
            best = objective

    step_bound = sum(
        (trip.demand / resolution) * (max(costs[m]) - min(costs[m]) if costs[m] else 0.0)
        for m, trip in enumerate(instance.trips))
    return best, step_bound


def assert_assignment_feasible(instance, result, check_capacity=False, tol=1e-9):
    """Re-derive feasibility of a solver result from its raw path flows."""
    flows = dict(zip(result.assignment.paths, result.assignment.flows))
    for f in flows.values():
        assert f >= -tol
    for m, trip in enumerate(instance.trips):
        total = sum(f for p, f in flows.items() if p.trip_index == m)
        assert abs(total - trip.demand) <= tol * (1.0 + trip.demand)
    edge_flow = {}
    for p, f in flows.items():
        for pair in p.edge_pairs:
            edge_flow[pair] = edge_flow.get(pair, 0.0) + f
    reported = result.assignment.edge_flow_map()
    for pair, flow in edge_flow.items():
        assert abs(reported.get(pair, 0.0) - flow) <= tol * (1.0 + abs(flow))
    if check_capacity:
        for pair, flow in edge_flow.items():
            assert flow <= instance.network.edge(*pair).capacity + tol


def mc_highs_value(instance):
    """Optimal mc value from an arc-node multicommodity LP solved by HiGHS,
    independent of paths; needs scipy."""
    import numpy as np
    from scipy.optimize import linprog

    net = instance.network
    nodes = sorted(net.nodes)
    pairs = list(net.edge_pairs)
    n_e, n_t = len(pairs), len(instance.trips)
    costs = np.array([net.edge(*pair).cost.c for pair in pairs])
    a_eq = np.zeros((n_t * len(nodes), n_t * n_e))
    b_eq = np.zeros(n_t * len(nodes))
    row_of = {v: r for r, v in enumerate(nodes)}
    for m, trip in enumerate(instance.trips):
        base = m * len(nodes)
        for k, (i, j) in enumerate(pairs):
            a_eq[base + row_of[i], m * n_e + k] = 1.0
            a_eq[base + row_of[j], m * n_e + k] = -1.0
        b_eq[base + row_of[trip.source]] = trip.demand
        b_eq[base + row_of[trip.sink]] = -trip.demand
    caps = np.array([net.edge(*pair).capacity for pair in pairs])
    bounded = np.flatnonzero(np.isfinite(caps))
    a_ub = np.zeros((len(bounded), n_t * n_e))
    for r, k in enumerate(bounded):
        a_ub[r, k::n_e] = 1.0
    res = linprog(np.tile(costs, n_t), A_ub=a_ub if len(bounded) else None,
                  b_ub=caps[bounded] if len(bounded) else None, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def dict_shortest_path(net, edge_costs, source, sink):
    """Reference for the id-based shortest-path search: the same Dijkstra
    and tie walk over node ids, with costs read from a dict keyed by edge
    pair and adjacency taken from ``net.edge_pairs``.

    Returns the lexicographically smallest minimum-cost simple path (None
    when the sink is unreachable) and the distance to ``sink`` of every
    node that reaches it.
    """
    import heapq
    import math

    succ, pred = {}, {}
    for i, j in net.edge_pairs:
        succ.setdefault(i, []).append(j)
        pred.setdefault(j, []).append(i)
    dist_to = {sink: 0.0}
    done = set()
    heap = [(0.0, sink)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in sorted(pred.get(u, ())):
            nd = d + edge_costs[(v, u)]
            if nd < dist_to.get(v, math.inf):
                dist_to[v] = nd
                heapq.heappush(heap, (nd, v))
    total = dist_to.get(source)
    if total is None:
        return None, dist_to
    tol = 1e-12 * (1.0 + abs(total))
    nodes = [source]
    on_path = {source}
    branches = [iter(sorted(succ.get(source, ())))]
    while branches:
        current = nodes[-1]
        here = dist_to[current]
        for nxt in branches[-1]:
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
            return tuple(nodes), dist_to
        on_path.add(nxt)
        branches.append(iter(sorted(succ.get(nxt, ()))))
    return None, dist_to


def dense_incremental_load(space, calc, kind):
    """Reference for incremental loading: each trip's demand in
    ``routing.LOAD_PARTS`` equal parts, each on the cheapest open path
    under the gradient at the current edge flows, with those flows
    recomputed after every part as the dense product of the path
    incidence and the path flows.

    Returns the path flows, or None when a part finds no open path.
    """
    import math

    import numpy as np

    from netdesign import routing

    net = space.instance.network
    x = np.zeros(len(space.paths))
    xe = np.zeros(len(space.edge_pairs))
    parts = routing.LOAD_PARTS
    for _ in range(parts):
        for m, (source, sink) in enumerate(space.ends):
            part = space.demands[m] / parts
            open_costs = np.where(xe + part < calc.bound, calc.gradient(xe, kind), math.inf)
            found = routing._cheapest_path(net, open_costs.tolist(), source, sink)
            if found is None:
                return None
            row = space.add(m, *found)
            x = space.pad(x)
            x[row] += part
            xe = space.edge_flows(x)
    return x


def dense_newton_step(space, x, xe, g, curv_e, best, margin, bounded):
    """Reference for the solver's Newton step: the support selection, the
    Newton direction with its blocked-path loop, the least-squares
    fallback and both step-length limits, written with whole-array numpy
    operations.

    Returns the support rows, the path and edge flow changes and the step
    length, or None when the system cannot be solved or the step length is
    not positive.
    """
    import math

    import numpy as np

    n_trips = len(space.demands)
    support = x > 0.0
    row_trip = np.array(space.trip_of, dtype=np.intp)
    used_low = np.full(n_trips, math.inf)
    np.minimum.at(used_low, row_trip[support], g[support])
    support[best[g[best] < used_low - 1e-10 * np.abs(used_low)]] = True

    def solve_kkt(kkt, rhs, a_sub):
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

    while True:
        flat = np.flatnonzero(support)
        trip_of = row_trip[flat]
        k = len(flat)
        a_sub = space.incidence[flat]
        g_sub = g[flat]
        lam = (np.bincount(trip_of, weights=g_sub, minlength=n_trips)
               / np.bincount(trip_of, minlength=n_trips))
        rhs = np.concatenate([lam[trip_of] - g_sub, np.zeros(n_trips)])
        kkt = np.zeros((k + n_trips, k + n_trips))
        kkt[:k, :k] = (a_sub * curv_e) @ a_sub.T
        kkt[np.arange(k), k + trip_of] = -1.0
        kkt[k + trip_of, np.arange(k)] = 1.0
        step = solve_kkt(kkt, rhs, a_sub)
        if step is None:
            return None
        blocked = (x[flat] == 0.0) & (step[0] < 0.0)
        if not blocked.any():
            break
        support[flat[blocked]] = False
    dx, de = step
    t = 1.0
    neg = dx < 0.0
    if neg.any():
        t = min(t, float(np.min(x[flat][neg] / -dx[neg])))
    up = (de > 0.0) & bounded
    if up.any():
        t = min(t, float(np.min((margin[up] - xe[up]) / de[up])))
    if t <= 0.0:
        return None
    return flat, dx, de, t


def dense_step_flows(space, x, flat, dx, t):
    """Reference for the flows after a step: ``x`` moved by ``t * dx`` on
    the rows ``flat``, with every flow at or below a rounding residue of
    its trip's demand set to zero."""
    x = x.copy()
    x[flat] += t * dx
    x[x <= 1e-14 * space.demands[space.trip_of]] = 0.0
    return x


def lattice_witnesses(n, value, tol):
    """Both properties' comparisons and witnesses, listed from their
    definitions over the subsets of candidates 0..n-1.

    Monotonicity compares every A ⊆ B, ordered by B's bitmask and then by
    A's bitmask descending; supermodularity every A ⊆ B ⊆ N∖{x}, ordered by
    x, B's bitmask and A's bitmask. ``value`` maps a sorted subset tuple to
    its objective. Returns (pairs checked, monotonicity witnesses, triples
    checked, supermodularity witnesses), each witness a tuple (A, B, x,
    lhs, rhs, margin).
    """
    ground = range(n)
    subsets = [c for k in range(n + 1) for c in itertools.combinations(ground, k)]

    def mask(s):
        return sum(1 << i for i in s)

    pairs = sorted(((a, b) for a, b in itertools.product(subsets, repeat=2)
                    if set(a) <= set(b)),
                   key=lambda ab: (mask(ab[1]), -mask(ab[0])))
    triples = sorted(((a, b, x) for x in ground for a, b in itertools.product(subsets, repeat=2)
                      if set(a) <= set(b) and x not in b),
                     key=lambda t: (t[2], mask(t[1]), mask(t[0])))
    mono = []
    for a, b in pairs:
        if value(b) > value(a) + tol:
            mono.append((a, b, None, value(b), value(a), value(b) - value(a)))
    supermod = []
    for a, b, x in triples:
        lhs = value(a) - value(tuple(sorted(a + (x,))))
        rhs = value(b) - value(tuple(sorted(b + (x,))))
        if lhs < rhs - tol:
            supermod.append((a, b, x, lhs, rhs, lhs - rhs))
    return len(pairs), mono, len(triples), supermod
