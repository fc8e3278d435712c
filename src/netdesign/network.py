"""Directed networks, trips, simple-path enumeration and the incremental
construction vocabulary: template graphs, trip spanning trees, trip path
graphs and graph unions.

Nodes are non-negative integers. An ordered node pair carries at most one
edge, and an edge's cost model and capacity belong to the template graph;
subgraphs reference them and unions refuse operands that disagree, which
keeps the union operation well-defined when operands overlap.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from .costs import CostModel
from .errors import PathLimitExceeded, TemplateConsistencyError

DEFAULT_PATH_LIMIT = 10_000


@dataclass(frozen=True)
class Edge:
    """A directed edge with its cost model and capacity (may be inf)."""

    tail: int
    head: int
    cost: CostModel
    capacity: float = math.inf

    def __post_init__(self):
        if self.tail < 0 or self.head < 0:
            raise ValueError(f"node ids must be non-negative: ({self.tail}, {self.head})")
        if self.tail == self.head:
            raise ValueError(f"self-loop at node {self.tail}")
        if not self.capacity > 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.tail, self.head)


class Network:
    """An immutable directed graph.

    Every edge endpoint must be a declared node and duplicate ordered
    pairs are rejected.

    Pricing works on integer ids fixed at construction. An edge's id is its
    index in the sorted ``edge_pairs`` and a node's position its index in
    the sorted ``node_order``, so ascending positions are ascending node
    ids. ``out_adjacency[p]`` and ``in_adjacency[p]`` hold the (neighbour
    position, edge id) pairs of the node at position ``p``, by ascending
    neighbour.

    A network made by ``restrict`` records the network it was cut from as
    its ``template`` and its edges' ids there as ``template_ids``; both are
    None on a network built by the constructor. Neither takes part in
    equality or hashing.
    """

    __slots__ = ("nodes", "node_order", "out_adjacency", "in_adjacency",
                 "template", "template_ids", "_edges", "_pairs", "_position", "_derived")

    def __init__(self, nodes: Iterable[int], edges: Iterable[Edge]):
        node_set = frozenset(int(n) for n in nodes)
        if any(n < 0 for n in node_set):
            raise ValueError("node ids must be non-negative")
        edge_map = {}
        for e in edges:
            pair = (e.tail, e.head)
            if e.tail not in node_set or e.head not in node_set:
                raise ValueError(f"edge {pair} has an undeclared endpoint")
            if pair in edge_map:
                raise ValueError(f"duplicate edge {pair}")
            edge_map[pair] = e
        self._fill(tuple(sorted(node_set)), edge_map, tuple(sorted(edge_map)), None, None)

    def _fill(self, order, edge_map, pairs, template, template_ids):
        """Set every slot from the ascending node ids ``order`` and the
        edges ``edge_map`` with ascending keys ``pairs``."""
        position = dict(zip(order, range(len(order))))
        out_adj = [[] for _ in order]
        in_adj = [[] for _ in order]
        # sorted pairs give every list ascending neighbours
        for k, (i, j) in enumerate(pairs):
            pi = position[i]
            pj = position[j]
            out_adj[pi].append((pj, k))
            in_adj[pj].append((pi, k))
        object.__setattr__(self, "nodes", frozenset(order))
        object.__setattr__(self, "node_order", order)
        object.__setattr__(self, "out_adjacency", tuple(map(tuple, out_adj)))
        object.__setattr__(self, "in_adjacency", tuple(map(tuple, in_adj)))
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "template_ids", template_ids)
        object.__setattr__(self, "_edges", edge_map)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_derived", {})

    def restrict(self, node_positions: int, edge_ids: int) -> "Network":
        """The subgraph on the nodes and edges whose positions and ids are
        set in two bitsets: bit p of ``node_positions`` is the node at
        position p, bit k of ``edge_ids`` the edge with id k.

        Nothing is validated again: every chosen edge's ends must be chosen
        nodes, as they are when the bitsets are unions of subgraphs' own.
        The result equals the network the constructor builds from the same
        nodes and edges.
        """
        order = self.node_order
        pairs = self._pairs
        ids = tuple(_set_bits(edge_ids))
        sub_pairs = tuple(pairs[k] for k in ids)
        edges = self._edges
        sub = Network.__new__(Network)
        sub._fill(tuple(order[p] for p in _set_bits(node_positions)),
                  {pair: edges[pair] for pair in sub_pairs}, sub_pairs, self, ids)
        return sub

    def derived(self, key, build):
        """``build(self)``, made on the first call with ``key`` and kept
        with the network: other layers keep here what they derive from the
        immutable graph, such as routing's edge cost tables."""
        memo = self._derived
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def __reduce__(self):
        # pickle and deepcopy would restore the slots through __setattr__;
        # rebuild through the constructor instead (a restricted network
        # comes back equal, without its template)
        return (Network, (self.nodes, self.edges))

    @property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(self._edges[p] for p in self._pairs)

    @property
    def edge_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return self._pairs

    def edge(self, tail: int, head: int) -> Edge:
        return self._edges[(tail, head)]

    def edge_id(self, tail: int, head: int) -> int:
        """Index of the edge (tail, head) in ``edge_pairs``; KeyError for
        other pairs."""
        pairs = self._pairs
        k = bisect_left(pairs, (tail, head))
        if k == len(pairs) or pairs[k] != (tail, head):
            raise KeyError((tail, head))
        return k

    def has_edge(self, tail: int, head: int) -> bool:
        return (tail, head) in self._edges

    def position(self, node: int) -> int:
        """Index of ``node`` in ``node_order``; KeyError for other nodes."""
        return self._position[node]

    def successors(self, node: int) -> Tuple[int, ...]:
        """Heads of ``node``'s out-edges, ascending; () for other nodes."""
        return self._neighbours(self.out_adjacency, node)

    def predecessors(self, node: int) -> Tuple[int, ...]:
        """Tails of ``node``'s in-edges, ascending; () for other nodes."""
        return self._neighbours(self.in_adjacency, node)

    def _neighbours(self, adjacency, node: int) -> Tuple[int, ...]:
        p = self._position.get(node)
        if p is None:
            return ()
        order = self.node_order
        return tuple([order[q] for q, _ in adjacency[p]])

    def __contains__(self, node: int) -> bool:
        return node in self.nodes

    def __eq__(self, other):
        return (
            isinstance(other, Network)
            and self.nodes == other.nodes
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self.nodes, tuple(sorted(self._edges.items()))))

    def __repr__(self):
        return f"Network({len(self.nodes)} nodes, {len(self._edges)} edges)"


def _set_bits(bits: int):
    """Positions of the set bits of ``bits``, ascending."""
    return [k for k, c in enumerate(reversed(bin(bits))) if c == "1"]


@dataclass(frozen=True)
class Trip:
    """An origin-destination demand (vehicles per unit time)."""

    source: int
    sink: int
    demand: float

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError(f"trip source equals sink ({self.source})")
        if not self.demand > 0:
            raise ValueError(f"trip demand must be positive, got {self.demand}")


@dataclass(frozen=True)
class Path:
    """A simple directed path, stored as its node sequence."""

    trip_index: int
    nodes: Tuple[int, ...]

    @property
    def edge_pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    def key(self) -> str:
        """Canonical string form, e.g. ``"0-5-6-2-3"``."""
        return "-".join(str(n) for n in self.nodes)

    def __len__(self):
        return len(self.nodes) - 1


@dataclass(frozen=True)
class PathSet:
    """Per-trip tuples of enumerated paths, ordered lexicographically."""

    per_trip: Tuple[Tuple[Path, ...], ...]

    def for_trip(self, trip_index: int) -> Tuple[Path, ...]:
        return self.per_trip[trip_index]

    def all_paths(self) -> Tuple[Path, ...]:
        return tuple(p for group in self.per_trip for p in group)

    def __len__(self):
        return sum(len(g) for g in self.per_trip)


@dataclass(frozen=True)
class TemplateGraph:
    """A network designated as the universe of allowed construction."""

    network: Network


@dataclass(frozen=True)
class TripSpanningTree:
    """A validated initial feasible graph; see validate_trip_spanning_tree."""

    network: Network
    trips: Tuple[Trip, ...]
    trip_paths: Tuple[Path, ...]  # the unique path of each trip


@dataclass(frozen=True)
class TripPathGraph:
    """A validated single-path addition for one trip."""

    network: Network
    trip: Trip
    trip_index: int = 0
    candidate_index: int = 0
    path: Path = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Violation:
    property_id: int
    message: str


@dataclass(frozen=True)
class ViolationList:
    violations: Tuple[Violation, ...]

    def __bool__(self):
        return bool(self.violations)

    def messages(self) -> Tuple[str, ...]:
        return tuple(v.message for v in self.violations)


def build_grid_template(rows: int, cols: int, default_cost: CostModel,
                        default_capacity: float = math.inf) -> TemplateGraph:
    """A rows x cols lattice with a directed edge each way between neighbours.

    Node ids are assigned row-major: node (r, c) is r*cols + c.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    nodes = range(rows * cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            a = r * cols + c
            if c + 1 < cols:
                b = a + 1
                edges.append(Edge(a, b, default_cost, default_capacity))
                edges.append(Edge(b, a, default_cost, default_capacity))
            if r + 1 < rows:
                b = a + cols
                edges.append(Edge(a, b, default_cost, default_capacity))
                edges.append(Edge(b, a, default_cost, default_capacity))
    return TemplateGraph(Network(nodes, edges))


def subgraph_issues(candidate: Network, template: Network) -> Tuple[str, ...]:
    """Reasons why ``candidate`` is not a subgraph of ``template`` (empty = ok)."""
    issues = []
    missing_nodes = sorted(candidate.nodes - template.nodes)
    if missing_nodes:
        issues.append(f"nodes {missing_nodes} not in template")
    for e in candidate.edges:
        if not template.has_edge(e.tail, e.head):
            issues.append(f"edge {e.pair} not in template")
        elif template.edge(e.tail, e.head) != e:
            issues.append(f"edge {e.pair} redefines template cost or capacity")
    return tuple(issues)


def graph_union(base: Network, additions: Sequence[Network]) -> Network:
    """Set union of node and edge sets; operands must agree on shared edges."""
    nodes = set(base.nodes)
    edge_map = {e.pair: e for e in base.edges}
    for net in additions:
        nodes |= net.nodes
        for e in net.edges:
            seen = edge_map.get(e.pair)
            if seen is None:
                edge_map[e.pair] = e
            elif seen != e:
                raise TemplateConsistencyError(
                    f"operands disagree on edge {e.pair}: {seen} vs {e}"
                )
    return Network(nodes, edge_map.values())


def enumerate_trip_paths(net: Network, trips: Sequence[Trip],
                         limit: int = DEFAULT_PATH_LIMIT) -> PathSet:
    """All simple source-to-sink paths of each trip.

    Paths are emitted in lexicographic order of their node sequences, which
    makes every downstream solver and report reproducible. Exceeding
    ``limit`` paths for a trip raises PathLimitExceeded rather than
    truncating.
    """
    return PathSet(tuple(tuple(Path(m, nodes) for nodes in _enumerate(net, trip, limit))
                         for m, trip in enumerate(trips)))


def _enumerate(net: Network, trip: Trip, limit: int):
    """Node sequences of the trip's simple paths, lexicographically: a
    depth-first walk that keeps one iterator over each prefix node's
    successors, ascending, so a path's length is not bounded by the
    interpreter's recursion limit."""
    source, sink = trip.source, trip.sink
    if source not in net.nodes or sink not in net.nodes:
        return ()
    out = []
    seq = [source]
    on_path = {source}
    branches = [iter(net.successors(source))]
    while branches:
        for nxt in branches[-1]:
            if nxt in on_path:
                continue
            if nxt == sink:
                if len(out) >= limit:
                    raise PathLimitExceeded(limit, trip)
                out.append((*seq, sink))
                continue
            seq.append(nxt)
            on_path.add(nxt)
            branches.append(iter(net.successors(nxt)))
            break
        else:
            branches.pop()
            on_path.discard(seq.pop())
    return tuple(out)


def added_paths(base: Network, addition: Network, trip: Trip,
                limit: int = DEFAULT_PATH_LIMIT, trip_index: int = 0) -> PathSet:
    """Paths for ``trip`` present in base+addition but not in base alone."""
    old = set(_enumerate(base, trip, limit))
    group = tuple(Path(trip_index, nodes)
                  for nodes in _enumerate(graph_union(base, [addition]), trip, limit)
                  if nodes not in old)
    return PathSet(tuple(() for _ in range(trip_index)) + (group,))


def _sole_path(candidate: Network, trip: Trip, trip_index: int):
    """(the trip's only simple path, None), or (None, what is wrong), in
    time linear in the graph.

    A breadth-first search finds a path P. Any other simple path leaves P
    at some P[i] by an edge other than P[i] -> P[i+1] and meets P again
    first at some P[j] with j > i, having passed only nodes off P. So each
    node off P is labelled with the furthest index of P it reaches through
    nodes off P (one reverse search per node of P, from the last one back,
    which labels each node once), and a second path exists iff an edge out
    of some P[i], other than P's own, reaches P beyond i directly or
    through a labelled node.
    """
    order = candidate.node_order
    out_adj = candidate.out_adjacency
    source = candidate.position(trip.source)
    sink = candidate.position(trip.sink)
    parent = {source: None}
    frontier = [source]
    while frontier and sink not in parent:
        nxt = []
        for v in frontier:
            for w, _ in out_adj[v]:
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    if sink not in parent:
        return None, "expected exactly one path, found 0"
    path = [sink]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()

    index = {p: i for i, p in enumerate(path)}
    reach = {}  # node off P -> furthest index of P it reaches off P
    in_adj = candidate.in_adjacency
    for j in range(len(path) - 1, -1, -1):
        stack = [path[j]]
        while stack:
            for u, _ in in_adj[stack.pop()]:
                if u not in index and u not in reach:
                    reach[u] = j
                    stack.append(u)
    for i, v in enumerate(path[:-1]):
        for w, _ in out_adj[v]:
            if w != path[i + 1] and index.get(w, reach.get(w, -1)) > i:
                return None, "expected exactly one path, found more than one"
    return Path(trip_index, tuple(order[p] for p in path)), None


def validate_trip_spanning_tree(candidate: Network, trips: Sequence[Trip]):
    """Check the four defining properties of an initial feasible graph.

    1. Every trip's source and sink are nodes of the graph.
    2. Exactly one source-to-sink path exists per trip.
    3. Every node lies on some trip's path.
    4. Per-edge capacity covers the sum of demands routed through it
       (each trip's full demand rides its unique path).

    Returns a TripSpanningTree when all hold, otherwise a ViolationList
    naming each failure. Property 2 is decided in time linear in the
    graph, however many paths it holds.
    """
    trips = tuple(trips)
    violations = []
    trip_paths = []
    for m, trip in enumerate(trips):
        missing = [n for n in (trip.source, trip.sink) if n not in candidate.nodes]
        if missing:
            violations.append(Violation(
                1, f"trip {m}: endpoint(s) {missing} not in the graph"))
            trip_paths.append(None)
            continue
        path, issue = _sole_path(candidate, trip, m)
        if issue:
            violations.append(Violation(2, f"trip {m}: {issue}"))
        trip_paths.append(path)

    covered = set()
    for p in trip_paths:
        if p is not None:
            covered.update(p.nodes)
    stray = sorted(candidate.nodes - covered)
    if stray and not violations:
        violations.append(Violation(3, f"nodes {stray} lie on no trip's path"))

    if not violations:
        load = {}
        for trip, p in zip(trips, trip_paths):
            for pair in p.edge_pairs:
                load[pair] = load.get(pair, 0.0) + trip.demand
        for pair in sorted(load):
            cap = candidate.edge(*pair).capacity
            if load[pair] > cap:
                violations.append(Violation(
                    4, f"edge {pair}: routed demand {load[pair]} exceeds capacity {cap}"))

    if violations:
        return ViolationList(tuple(violations))
    return TripSpanningTree(candidate, trips, tuple(trip_paths))


def validate_trip_path_graph(candidate: Network, trip: Trip, trip_index: int = 0,
                             candidate_index: int = 0):
    """Check that ``candidate`` is a single simple path joining the trip's ends.

    1. Source and sink are nodes of the graph.
    2. Exactly one source-to-sink path exists (decided in linear time).
    3. Every node of the graph belongs to that path.
    """
    violations = []
    missing = [n for n in (trip.source, trip.sink) if n not in candidate.nodes]
    if missing:
        violations.append(Violation(1, f"endpoint(s) {missing} not in the graph"))
        return ViolationList(tuple(violations))
    path, issue = _sole_path(candidate, trip, trip_index)
    if issue:
        violations.append(Violation(2, issue))
    else:
        stray = sorted(candidate.nodes - set(path.nodes))
        if stray:
            violations.append(Violation(3, f"nodes {stray} are off the path"))
        # properties 2-3 do not rule out every edge off the path: an edge
        # pointing back along it, such as (2, 0) on 0 -> 1 -> 2, adds no
        # source-to-sink path and no node, so only this check rejects it
        on_path = set(path.edge_pairs)
        extra = [e.pair for e in candidate.edges if e.pair not in on_path]
        if extra and not violations:
            violations.append(Violation(2, f"edges {extra} are off the path"))
    if violations:
        return ViolationList(tuple(violations))
    return TripPathGraph(candidate, trip, trip_index, candidate_index, path)
