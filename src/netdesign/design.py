"""Network-design layer over candidate path additions.

A candidate set bundles a template graph, a validated trip spanning tree
and an ordered list of validated trip path graphs. The objective set
functions map a chosen subset of candidates to the optimal total travel
time of the union graph under mc, so or ue routing. On top of that live
the restricted candidate classes (edge-disjoint uniform candidates, and
parallel candidates that are node-disjoint except at the endpoints), the
monotonicity and supermodularity checkers with explicit witnesses, the
parallel-case closed forms and a greedy designer.

Subset evaluations are cached by bitmask, and subsets with equal union
graphs share one solve; reports never depend on evaluation order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .costs import evaluate, is_constant, max_flow_bound
from .errors import BadParams, DomainError, FormatError, UncertifiedValue
from .jsonio import design_from_json, design_to_json
from .network import (
    Network,
    TemplateGraph,
    Trip,
    TripPathGraph,
    TripSpanningTree,
    graph_union,
    subgraph_issues,
    validate_trip_path_graph,
    validate_trip_spanning_tree,
)
from .routing import (
    CERTIFICATE_RTOL,
    MC,
    SO,
    UE,
    ROUTINGS,
    Instance,
    SolverConfig,
    solve_mc,
    solve_so,
    solve_ue,
)

GENERAL = "general"
PRIME = "prime"
DOUBLE_PRIME = "double_prime"
CANDIDATE_CLASSES = (GENERAL, PRIME, DOUBLE_PRIME)

MONOTONE = "monotone_nonincreasing"
SUPERMODULAR = "supermodular"

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"

EXHAUSTIVE_MONOTONE_CAP = 12
EXHAUSTIVE_SUPERMODULAR_CAP = 10

# Sampled mode lists every comparison before it evaluates any, so its
# trials are capped: 500 times the default of 200.
SAMPLED_TRIALS_CAP = 100_000


@dataclass(frozen=True)
class RestrictionReport:
    requested_class: str
    ok: bool
    violations: Tuple[str, ...]


@dataclass(frozen=True)
class CandidateSet:
    """The ground set of a design problem.

    All members must be subgraphs of the template; a declared restricted
    class is verified on construction, never assumed.
    """

    template: TemplateGraph
    spanning_tree: TripSpanningTree
    candidates: Tuple[TripPathGraph, ...]
    declared_class: str = GENERAL

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if self.declared_class not in CANDIDATE_CLASSES:
            raise ValueError(f"unknown candidate class {self.declared_class!r}")
        issues = list(subgraph_issues(self.spanning_tree.network, self.template.network))
        for i, cand in enumerate(self.candidates):
            issues += [f"candidate {i}: {msg}"
                       for msg in subgraph_issues(cand.network, self.template.network)]
        if issues:
            raise ValueError("; ".join(issues))
        if self.declared_class != GENERAL:
            report = check_restriction(self, self.declared_class)
            if not report.ok:
                raise ValueError(
                    f"declared class {self.declared_class} does not hold: "
                    + "; ".join(report.violations))

    @property
    def trips(self):
        return self.spanning_tree.trips

    def subset_network(self, subset: Iterable[int]) -> Network:
        chosen = sorted(set(subset))
        for i in chosen:
            if not 0 <= i < len(self.candidates):
                raise BadParams(f"candidate index {i} out of range")
        return graph_union(self.spanning_tree.network,
                           [self.candidates[i].network for i in chosen])


@dataclass(frozen=True)
class DesignState:
    """A candidate set together with a chosen subset and its union graph."""

    candidate_set: CandidateSet
    chosen: Tuple[int, ...]
    network: Network

    @classmethod
    def create(cls, candidate_set: CandidateSet, subset: Iterable[int]) -> "DesignState":
        chosen = tuple(sorted(set(subset)))
        return cls(candidate_set, chosen, candidate_set.subset_network(chosen))


@dataclass(frozen=True)
class LambdaEvaluation:
    routing: str
    subset: Tuple[int, ...]
    bitmask: int
    value: float
    iterations: int
    relative_gap: float


def subset_bitmask(subset: Iterable[int]) -> int:
    chosen = set(subset)
    if chosen and min(chosen) < 0:
        raise BadParams(f"candidate index {min(chosen)} out of range")
    return sum(1 << i for i in chosen)


def bitmask_subset(mask: int) -> Tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def lambda_eval(routing: str, state: DesignState,
                cfg: SolverConfig = SolverConfig()) -> LambdaEvaluation:
    """Total travel time of the chosen subset's union graph under ``routing``.

    UncertifiedValue when the solve's optimality certificate is not
    satisfied: verdicts and the greedy designer rely on it (see
    ``_certified_error``)."""
    if routing not in ROUTINGS:
        raise BadParams(f"unknown routing {routing!r}")
    instance = Instance(state.network, state.candidate_set.trips)
    if routing == MC:
        result = solve_mc(instance, cfg)
    elif routing == SO:
        result = solve_so(instance, cfg)
    else:
        result = solve_ue(instance, cfg)
    if not result.certificate.satisfied:
        raise UncertifiedValue(routing, state.chosen, result.certificate)
    return LambdaEvaluation(
        routing=routing,
        subset=state.chosen,
        bitmask=subset_bitmask(state.chosen),
        value=result.total_cost,
        iterations=result.iterations,
        relative_gap=result.relative_gap,
    )


class LambdaEvaluator:
    """Caching evaluator for subset objective values.

    Evaluations are cached by bitmask. Subsets with equal union graphs
    share one solve: the value depends only on the union graph and every
    solver is deterministic, so a shared evaluation is bit-identical to a
    cold solve of each subset. A union graph is keyed by the bitsets of its
    template node positions and template edge ids, OR-ed from per-member
    bitsets. Only a graph not yet solved gets a ``Network``, cut from the
    template by those bitsets (``Network.restrict``): the members were
    checked as template subgraphs when the candidate set was built, and the
    solve gathers its edge tables from the template's, built once.
    ``misses`` counts solver calls; ``hits`` counts ``value`` lookups
    answered from the bitmask cache and bitmasks whose union graph was
    already solved. Reads through ``values`` count as neither.
    """

    def __init__(self, candidate_set: CandidateSet, cfg: SolverConfig = SolverConfig()):
        self.candidate_set = candidate_set
        self.cfg = cfg
        self._cache: Dict[Tuple[str, int], LambdaEvaluation] = {}
        # edge ids suffice beside the nodes: members never redefine a
        # template edge, so equal ids mean equal edges
        template = self._template = candidate_set.template.network
        edge_id = {pair: k for k, pair in enumerate(template.edge_pairs)}

        def bits(net):
            return (sum(1 << template.position(v) for v in net.nodes),
                    sum(1 << edge_id[pair] for pair in net.edge_pairs))

        self._tree_bits = bits(candidate_set.spanning_tree.network)
        self._member_bits = [bits(c.network) for c in candidate_set.candidates]
        self._graphs: Dict[Tuple[str, int, int], LambdaEvaluation] = {}
        self.hits = 0
        self.misses = 0

    def value(self, routing: str, subset: Iterable[int]) -> LambdaEvaluation:
        mask = subset_bitmask(subset)
        ev = self._cache.get((routing, mask))
        if ev is None:
            return self._compute(routing, mask)
        self.hits += 1
        return ev

    def values(self, routing: str) -> Dict[int, float]:
        """Value of every cached bitmask under ``routing``."""
        return {mask: ev.value for (r, mask), ev in self._cache.items() if r == routing}

    def _compute(self, routing: str, mask: int) -> LambdaEvaluation:
        if mask < 0:
            raise BadParams(f"bitmask {mask} is negative")
        n = len(self._member_bits)
        beyond = mask >> n
        if beyond:
            low = (beyond & -beyond).bit_length() - 1
            raise BadParams(f"candidate index {n + low} out of range")
        subset = bitmask_subset(mask)
        nodes, edges = self._tree_bits
        for i in subset:
            member_nodes, member_edges = self._member_bits[i]
            nodes |= member_nodes
            edges |= member_edges
        graph = (routing, nodes, edges)
        first = self._graphs.get(graph)
        if first is None:
            self.misses += 1
            state = DesignState(self.candidate_set, subset,
                                self._template.restrict(nodes, edges))
            ev = self._graphs[graph] = lambda_eval(routing, state, self.cfg)
        else:
            self.hits += 1
            ev = replace(first, subset=subset, bitmask=mask)
        self._cache[(routing, mask)] = ev
        return ev

    def ensure(self, routing: str, masks: Iterable[int]) -> None:
        """Populate the cache for ``masks``, in sorted mask order so
        downstream reports are order-independent."""
        for mask in sorted({m for m in masks if (routing, m) not in self._cache}):
            self._compute(routing, mask)

    def evaluations(self, routing: str) -> Tuple[LambdaEvaluation, ...]:
        items = [ev for (r, _), ev in self._cache.items() if r == routing]
        return tuple(sorted(items, key=lambda ev: ev.bitmask))


# ---------------------------------------------------------------------------
# restricted candidate classes


def check_restriction(cs: CandidateSet, declared: Optional[str] = None) -> RestrictionReport:
    """Verify a restricted-class predicate, reporting every violation.

    The "prime" class demands pairwise edge-disjoint candidates (also
    disjoint from the spanning tree) built from one shared edge cost (and,
    for constant costs, one shared capacity). The "double_prime" class
    instead demands parallel candidates for a single trip: node-disjoint
    except at the trip endpoints, each able to hold the whole demand
    (constant flavour) or with identical whole-path cost functions
    including the spanning tree's path (flow-dependent flavour).
    """
    declared = declared or cs.declared_class
    if declared == GENERAL:
        return RestrictionReport(GENERAL, True, ())
    if declared not in CANDIDATE_CLASSES:
        raise BadParams(f"unknown candidate class {declared!r}")
    violations = []
    tree = cs.spanning_tree.network
    cands = cs.candidates

    tree_edges = set(tree.edge_pairs)
    for i, cand in enumerate(cands):
        shared = sorted(set(cand.network.edge_pairs) & tree_edges)
        if shared:
            violations.append(f"candidate {i} shares edges {shared} with the spanning tree")
    for i, j in itertools.combinations(range(len(cands)), 2):
        shared = sorted(set(cands[i].network.edge_pairs) & set(cands[j].network.edge_pairs))
        if shared:
            violations.append(f"candidates {i} and {j} share edges {shared}")

    constant_flavour = all(
        is_constant(e.cost) for cand in cands for e in cand.network.edges)

    if declared == PRIME:
        if len(cands) >= 2:
            # cross-candidate uniformity collapses to global uniformity
            signatures = set()
            for cand in cands:
                for e in cand.network.edges:
                    signatures.add((e.cost, e.capacity) if constant_flavour else e.cost)
            if len(signatures) > 1:
                what = "cost/capacity" if constant_flavour else "cost function"
                violations.append(
                    f"candidate edges carry {len(signatures)} distinct {what} values")
        return RestrictionReport(PRIME, not violations, tuple(violations))

    # double_prime
    if len(cs.trips) != 1:
        violations.append(f"parallel classes are single-trip (got {len(cs.trips)} trips)")
        return RestrictionReport(DOUBLE_PRIME, False, tuple(violations))
    trip = cs.trips[0]
    endpoints = {trip.source, trip.sink}
    for i, cand in enumerate(cands):
        if cand.trip_index != 0:
            violations.append(f"candidate {i} is not for the single trip")
        shared = sorted((cand.network.nodes & tree.nodes) - endpoints)
        if shared:
            violations.append(
                f"candidate {i} shares interior nodes {shared} with the spanning tree")
    for i, j in itertools.combinations(range(len(cands)), 2):
        shared = sorted((cands[i].network.nodes & cands[j].network.nodes) - endpoints)
        if shared:
            violations.append(f"candidates {i} and {j} share interior nodes {shared}")

    if constant_flavour:
        for i, cand in enumerate(cands):
            weak = [e.pair for e in cand.network.edges if e.capacity < trip.demand]
            if weak:
                violations.append(
                    f"candidate {i} edges {weak} cannot hold the whole demand {trip.demand}")
    else:
        probes = _probe_flows(cs)
        reference = None
        ref_name = None
        tree_path = cs.spanning_tree.trip_paths[0]
        members = [("spanning tree path", tree_path, tree)]
        members += [(f"candidate {i}", cand.path, cand.network)
                    for i, cand in enumerate(cands)]
        for name, path, net in members:
            profile = tuple(
                sum(evaluate(net.edge(*pair).cost, t) for pair in path.edge_pairs)
                for t in probes)
            if reference is None:
                reference, ref_name = profile, name
            else:
                mismatch = any(
                    abs(a - b) > 1e-9 * (1.0 + abs(a)) for a, b in zip(reference, profile))
                if mismatch:
                    violations.append(
                        f"{name} path cost function differs from {ref_name}'s")
    return RestrictionReport(DOUBLE_PRIME, not violations, tuple(violations))


def _probe_flows(cs: CandidateSet) -> Tuple[float, ...]:
    """Flows at which candidate path cost functions are compared for identity."""
    bound = math.inf
    nets = [cs.spanning_tree.network] + [c.network for c in cs.candidates]
    for net in nets:
        for e in net.edges:
            bound = min(bound, max_flow_bound(e.cost))
    if math.isfinite(bound):
        return (0.0, 0.25 * bound, 0.5 * bound, 0.75 * bound)
    d = cs.trips[0].demand if cs.trips else 1.0
    return (0.0, 0.5 * d, d, 2.0 * d)


# ---------------------------------------------------------------------------
# property checkers


@dataclass(frozen=True)
class Witness:
    subset_a: Tuple[int, ...]
    subset_b: Tuple[int, ...]
    x: Optional[int]
    lhs: float
    rhs: float
    margin: float


@dataclass(frozen=True)
class PropertyReport:
    property: str
    routing: str
    verdict: str
    tolerance: float
    witnesses: Tuple[Witness, ...]
    evaluations: Tuple[LambdaEvaluation, ...]
    mode: str
    seed: Optional[int]
    trials: Optional[int]
    pairs_checked: int

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS


def _certified_error(ev: LambdaEvaluation) -> float:
    """Certified error of one subset value: its relative gap plus the
    certificates' relative tolerance, times the value."""
    return (ev.relative_gap + CERTIFICATE_RTOL) * abs(ev.value)


def default_tolerance(routing: str, evaluator: LambdaEvaluator, n_values: int) -> float:
    """Certified error of a comparison of ``n_values`` subset values.

    The tolerance is ``n_values`` times the largest certified error (see
    ``_certified_error``) among the check's evaluations. It scales with the
    values, so a verdict does not depend on the units of time or flow.
    """
    return n_values * max(map(_certified_error, evaluator.evaluations(routing)), default=0.0)


def check_monotonicity(routing: str, cs: CandidateSet, tol: Optional[float] = None,
                       mode: str = "exhaustive", seed: int = 0, trials: int = 200,
                       cfg: SolverConfig = SolverConfig()) -> PropertyReport:
    """Check that adding candidates never increases the objective.

    Exhaustive mode compares every nested pair A ⊆ B: B in ascending
    bitmask order and, for each B, A over B's submasks in descending
    bitmask order (A = B first, the empty set last). Sampled mode draws
    ``trials`` seeded pairs. Witnesses come in comparison order; each
    violating pair carries lhs = λ(B), rhs = λ(A) and the positive excess
    margin λ(B) − λ(A).
    """
    return _check(MONOTONE, routing, cs, tol, mode, seed, trials, cfg)


def check_supermodularity(routing: str, cs: CandidateSet, tol: Optional[float] = None,
                          mode: str = "exhaustive", seed: int = 0, trials: int = 200,
                          cfg: SolverConfig = SolverConfig()) -> PropertyReport:
    """Check diminishing returns: the benefit of adding x to a set is at
    least its benefit when added to any superset.

    Exhaustive mode compares every triple A ⊆ B ⊆ N∖{x}: x ascending, then
    B in ascending bitmask order, then A in ascending bitmask order.
    Sampled mode draws ``trials`` seeded triples. Witnesses come in
    comparison order and carry both sides, lhs = λ(A) − λ(A+x) and
    rhs = λ(B) − λ(B+x); a negative margin lhs − rhs quantifies the
    violation.
    """
    return _check(SUPERMODULAR, routing, cs, tol, mode, seed, trials, cfg)


def _check(prop: str, routing: str, cs: CandidateSet, tol: Optional[float], mode: str,
           seed: int, trials: int, cfg: SolverConfig) -> PropertyReport:
    """Both checkers' driver, over ``(a, b, x)`` bitmask comparisons with
    ``x`` None for monotonicity."""
    monotone = prop == MONOTONE
    if mode == "sampled" and trials < 1:
        raise BadParams(f"sampled mode needs at least 1 trial, got {trials}")
    if mode == "sampled" and trials > SAMPLED_TRIALS_CAP:
        raise BadParams(f"sampled mode is capped at {SAMPLED_TRIALS_CAP} trials, got {trials}")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise BadParams(f"tolerance must be finite and nonnegative, got {tol}")
    n = len(cs.candidates)
    full = (1 << n) - 1
    evaluator = LambdaEvaluator(cs, cfg)
    if mode == "exhaustive":
        cap = EXHAUSTIVE_MONOTONE_CAP if monotone else EXHAUSTIVE_SUPERMODULAR_CAP
        if n > cap:
            what = "monotonicity" if monotone else "supermodularity"
            raise BadParams(f"exhaustive {what} is capped at {cap} candidates")
        evaluator.ensure(routing, range(1 << n))
        if monotone:
            comparisons = ((a, b, None) for a, b in _submask_pairs(full, descending=True))
        else:
            comparisons = ((a, b, x) for x in range(n)
                           for a, b in _submask_pairs(full & ~(1 << x)))
    elif mode == "sampled":
        rng = random.Random(seed)
        comparisons = []
        for _ in range(trials if monotone or n else 0):
            if monotone:
                x, b = None, rng.getrandbits(n)
            else:
                x = rng.randrange(n)
                b = _random_submask(rng, full & ~(1 << x))
            comparisons.append((_random_submask(rng, b), b, x))
        evaluator.ensure(routing, {m for a, b, x in comparisons
                                   for m in ((a, b) if x is None
                                             else (a, b, a | 1 << x, b | 1 << x))})
    else:
        raise BadParams(f"unknown mode {mode!r}")
    tol = default_tolerance(routing, evaluator, 2 if monotone else 4) if tol is None else tol

    v = evaluator.values(routing)
    witnesses = []
    checked = 0
    for a, b, x in comparisons:
        checked += 1
        if x is None:
            va = v[a]
            vb = v[b]
            if vb > va + tol:
                witnesses.append(Witness(
                    subset_a=bitmask_subset(a), subset_b=bitmask_subset(b), x=None,
                    lhs=vb, rhs=va, margin=vb - va))
        else:
            lhs = v[a] - v[a | 1 << x]
            rhs = v[b] - v[b | 1 << x]
            if lhs < rhs - tol:
                witnesses.append(Witness(
                    subset_a=bitmask_subset(a), subset_b=bitmask_subset(b), x=x,
                    lhs=lhs, rhs=rhs, margin=lhs - rhs))
    sampled = mode == "sampled"
    return PropertyReport(
        property=prop, routing=routing,
        verdict=HOLDS if not witnesses else VIOLATED,
        tolerance=tol, witnesses=tuple(witnesses),
        evaluations=evaluator.evaluations(routing),
        mode=mode, seed=seed if sampled else None,
        trials=trials if sampled else None,
        pairs_checked=checked)


def _submask_pairs(mask: int, descending: bool = False):
    """Every pair a ⊆ b ⊆ ``mask``: b in ascending order and, for each b,
    its submasks a in ascending (or descending) order."""
    b = 0
    while True:
        a = b if descending else 0
        while True:
            yield a, b
            if a == (0 if descending else b):
                break
            a = (a - 1) & b if descending else (a - b) & b
        if b == mask:
            break
        b = (b - mask) & mask


def _random_submask(rng: random.Random, mask: int) -> int:
    out = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1 and rng.random() < 0.5:
            out |= 1 << i
    return out


# ---------------------------------------------------------------------------
# parallel-case closed forms


def parallel_mc_value(spanning_cost: float, candidate_costs: Sequence[float],
                      subset: Iterable[int], d: float) -> float:
    """Constant-cost value for parallel paths that each hold the whole demand:
    the demand rides the cheapest available path."""
    if not d > 0:  # NaN fails too
        raise BadParams(f"demand must be positive, got {d}")
    best = spanning_cost
    for i in set(subset):
        if not 0 <= i < len(candidate_costs):
            raise BadParams(f"candidate index {i} out of range")
        best = min(best, candidate_costs[i])
    return d * best


def parallel_uniform_value(routing: str, n_paths: int, l: float, v_max: float,
                           u: float, d: float) -> float:
    """Closed-form total time for identical parallel hyperbolic paths.

    The demand splits uniformly, which is optimal for both so and ue, so a
    single formula serves both: d * l / (v_max * (1 - d / (n_paths * u))).
    """
    if routing not in (SO, UE):
        raise BadParams(f"parallel uniform value applies to so/ue, got {routing!r}")
    if n_paths < 1:
        raise BadParams(f"need at least one path, got {n_paths}")
    if not all(v > 0 for v in (l, v_max, u, d)):  # NaN fails too
        raise BadParams("l, v_max, u and d must be positive")
    if d >= n_paths * u:
        raise DomainError(
            f"demand {d} saturates {n_paths} parallel paths of capacity {u}")
    return d * l / (v_max * (1.0 - d / (n_paths * u)))


# ---------------------------------------------------------------------------
# construction from edge pairs, and the JSON form: a template document plus
# spanning_tree and candidates sections


def candidate_set_from_pairs(template: Network, trips: Sequence[Trip],
                             tree_pairs: Sequence[Tuple[int, int]],
                             specs: Sequence[Tuple[int, Sequence[Tuple[int, int]]]],
                             declared_class: str = GENERAL) -> CandidateSet:
    """The candidate set whose members are edge-pair lists over ``template``.

    ``specs`` holds one ``(trip index, edge pairs)`` per candidate. Each
    member is built from the template's own edges and validated as a trip
    spanning tree or a trip path graph; any failure raises FormatError.
    """

    def member(pairs, what):
        edges = {}
        for i, j in pairs:
            if not template.has_edge(i, j):
                raise FormatError(f"{what} edge ({i}, {j}) is not in the template")
            if (i, j) in edges:
                raise FormatError(f"{what} edge ({i}, {j}) is listed twice")
            edges[(i, j)] = template.edge(i, j)
        return Network({n for pair in edges for n in pair}, edges.values())

    tree = validate_trip_spanning_tree(member(tree_pairs, "spanning_tree"), trips)
    if not isinstance(tree, TripSpanningTree):
        raise FormatError(
            "spanning_tree is invalid: " + "; ".join(tree.messages()))
    candidates = []
    for pos, (m, pairs) in enumerate(specs):
        graph = validate_trip_path_graph(
            member(pairs, f"candidate {pos}"), trips[m], m, pos)
        if not isinstance(graph, TripPathGraph):
            raise FormatError(
                f"candidate {pos} is invalid: " + "; ".join(graph.messages()))
        candidates.append(graph)
    return CandidateSet(
        template=TemplateGraph(template),
        spanning_tree=tree,
        candidates=tuple(candidates),
        declared_class=declared_class,
    )


def candidate_set_to_json(cs: CandidateSet) -> dict:
    return design_to_json(
        cs.template.network,
        cs.trips,
        cs.spanning_tree.network.edge_pairs,
        [(cand.trip_index, cand.network.edge_pairs) for cand in cs.candidates],
    )


def candidate_set_from_json(doc, declared_class: str = GENERAL) -> CandidateSet:
    template, trips, tree_pairs, specs = design_from_json(doc)
    if tree_pairs is None:
        raise FormatError("design document lacks a spanning_tree section")
    return candidate_set_from_pairs(template, trips, tree_pairs, specs, declared_class)


# ---------------------------------------------------------------------------
# greedy designer


@dataclass(frozen=True)
class GreedyDesign:
    routing: str
    picks: Tuple[int, ...]
    values: Tuple[float, ...]  # objective after 0, 1, ... picks
    best_subset: Optional[Tuple[int, ...]]
    best_value: Optional[float]
    evaluations: Tuple[LambdaEvaluation, ...] = ()


def greedy_designer(routing: str, cs: CandidateSet, budget: int,
                    cfg: SolverConfig = SolverConfig()) -> GreedyDesign:
    """Pick ``budget`` candidates, each round the one with the lowest
    objective after adding it.

    When the ground set has at most ten members the exhaustive optimum over
    all subsets within budget is computed as well, for gap reporting. Both
    choices follow ``_first_lowest``: values within their summed certified
    errors tie, and a tie goes to the lowest candidate index or bitmask.
    """
    n = len(cs.candidates)
    if budget > n or budget < 0:
        raise BadParams(f"budget {budget} out of range for {n} candidates")
    evaluator = LambdaEvaluator(cs, cfg)
    chosen: Tuple[int, ...] = ()
    values = [evaluator.value(routing, chosen).value]
    picks = []
    for _ in range(budget):
        candidates = [i for i in range(n) if i not in chosen]
        evaluator.ensure(routing, [subset_bitmask(chosen + (i,)) for i in candidates])
        options = [evaluator.value(routing, chosen + (i,)) for i in candidates]
        k = _first_lowest(options)
        picks.append(candidates[k])
        chosen = tuple(sorted(chosen + (candidates[k],)))
        values.append(options[k].value)
    best_subset = None
    best_value = None
    if n <= EXHAUSTIVE_SUPERMODULAR_CAP:
        evaluator.ensure(routing, [m for m in range(1 << n) if bin(m).count("1") <= budget])
    evaluations = evaluator.evaluations(routing)
    if n <= EXHAUSTIVE_SUPERMODULAR_CAP:
        # every evaluated subset is within budget, and they come in mask order
        best = evaluations[_first_lowest(evaluations)]
        best_subset, best_value = best.subset, best.value
    return GreedyDesign(routing=routing, picks=tuple(picks), values=tuple(values),
                        best_subset=best_subset, best_value=best_value,
                        evaluations=evaluations)


def _first_lowest(evaluations: Sequence[LambdaEvaluation]) -> int:
    """Position of the first lowest value. Two values tie when they differ
    by no more than the sum of their certified errors; a later value
    displaces the current pick only when lower beyond that, so a tie goes
    to the earliest position."""
    best = 0
    for k in range(1, len(evaluations)):
        ev, top = evaluations[k], evaluations[best]
        if ev.value < top.value - (_certified_error(top) + _certified_error(ev)):
            best = k
    return best
