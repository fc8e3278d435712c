"""Network-design layer over candidate path additions.

A candidate set bundles a template graph, a validated trip spanning tree
and an ordered list of validated trip path graphs. The objective set
functions map a chosen subset of candidates to the optimal total travel
time of the union graph under mc, so or ue routing. On top of that live
the restricted candidate classes (edge-disjoint uniform candidates, and
parallel candidates that are node-disjoint except at the endpoints), the
monotonicity and supermodularity checkers with explicit witnesses, the
parallel-case closed forms and a greedy designer.

Subset evaluations are cached by bitmask; reports never depend on
evaluation order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .costs import evaluate, is_constant
from .errors import BadParams, DomainError
from .network import (
    Network,
    TemplateGraph,
    TripPathGraph,
    TripSpanningTree,
    graph_union,
    subgraph_issues,
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
    return sum(1 << i for i in set(subset))


def bitmask_subset(mask: int) -> Tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def lambda_eval(routing: str, state: DesignState,
                cfg: SolverConfig = SolverConfig()) -> LambdaEvaluation:
    """Total travel time of the chosen subset's union graph under ``routing``."""
    if routing not in ROUTINGS:
        raise BadParams(f"unknown routing {routing!r}")
    instance = Instance(state.network, state.candidate_set.trips)
    if routing == MC:
        result = solve_mc(instance, cfg.path_limit)
    elif routing == SO:
        result = solve_so(instance, cfg)
    else:
        result = solve_ue(instance, cfg)
    return LambdaEvaluation(
        routing=routing,
        subset=state.chosen,
        bitmask=subset_bitmask(state.chosen),
        value=result.total_cost,
        iterations=result.iterations,
        relative_gap=result.relative_gap,
    )


class LambdaEvaluator:
    """Caching evaluator for subset objective values, keyed by bitmask."""

    def __init__(self, candidate_set: CandidateSet, cfg: SolverConfig = SolverConfig()):
        self.candidate_set = candidate_set
        self.cfg = cfg
        self._cache: Dict[Tuple[str, int], LambdaEvaluation] = {}

    def value(self, routing: str, subset: Iterable[int]) -> LambdaEvaluation:
        mask = subset_bitmask(subset)
        key = (routing, mask)
        if key not in self._cache:
            self._cache[key] = self._compute(routing, mask)
        return self._cache[key]

    def _compute(self, routing: str, mask: int) -> LambdaEvaluation:
        state = DesignState.create(self.candidate_set, bitmask_subset(mask))
        return lambda_eval(routing, state, self.cfg)

    def ensure(self, routing: str, masks: Iterable[int]) -> None:
        """Populate the cache for ``masks``, in sorted mask order so
        downstream reports are order-independent."""
        for mask in sorted({m for m in masks if (routing, m) not in self._cache}):
            self._cache[(routing, mask)] = self._compute(routing, mask)

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
    from .costs import max_flow_bound

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


def default_tolerance(routing: str, evaluator: LambdaEvaluator, n_values: int) -> float:
    """Certified error of a comparison of ``n_values`` subset values.

    Each evaluation's error is its relative gap plus the certificates'
    relative tolerance, times its value; the tolerance is ``n_values``
    times the largest of them among the check's evaluations. It scales
    with the values, so a verdict does not depend on the units of time or
    flow.
    """
    return n_values * max(((ev.relative_gap + CERTIFICATE_RTOL) * abs(ev.value)
                           for ev in evaluator.evaluations(routing)), default=0.0)


def check_monotonicity(routing: str, cs: CandidateSet, tol: Optional[float] = None,
                       mode: str = "exhaustive", seed: int = 0, trials: int = 200,
                       cfg: SolverConfig = SolverConfig()) -> PropertyReport:
    """Check that adding candidates never increases the objective.

    Exhaustive mode compares every nested subset pair; sampled mode draws
    ``trials`` seeded pairs. Violating pairs are returned as witnesses with
    both values and the (positive) excess margin.
    """
    n = len(cs.candidates)
    evaluator = LambdaEvaluator(cs, cfg)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MONOTONE_CAP:
            raise BadParams(
                f"exhaustive monotonicity is capped at {EXHAUSTIVE_MONOTONE_CAP} candidates")
        evaluator.ensure(routing, range(1 << n))
        pairs = _nested_pairs(n)
    elif mode == "sampled":
        rng = random.Random(seed)
        pairs = []
        for _ in range(trials):
            b = rng.getrandbits(n) if n else 0
            a = _random_submask(rng, b)
            pairs.append((a, b))
        evaluator.ensure(routing, {m for ab in pairs for m in ab})
    else:
        raise BadParams(f"unknown mode {mode!r}")
    tol = default_tolerance(routing, evaluator, 2) if tol is None else tol

    witnesses = []
    checked = 0
    for a, b in pairs:
        checked += 1
        va = evaluator.value(routing, bitmask_subset(a)).value
        vb = evaluator.value(routing, bitmask_subset(b)).value
        if vb > va + tol:
            witnesses.append(Witness(
                subset_a=bitmask_subset(a), subset_b=bitmask_subset(b), x=None,
                lhs=vb, rhs=va, margin=vb - va))
    return PropertyReport(
        property=MONOTONE, routing=routing,
        verdict=HOLDS if not witnesses else VIOLATED,
        tolerance=tol, witnesses=tuple(witnesses),
        evaluations=evaluator.evaluations(routing),
        mode=mode, seed=seed if mode == "sampled" else None,
        trials=trials if mode == "sampled" else None,
        pairs_checked=checked)


def check_supermodularity(routing: str, cs: CandidateSet, tol: Optional[float] = None,
                          mode: str = "exhaustive", seed: int = 0, trials: int = 200,
                          cfg: SolverConfig = SolverConfig()) -> PropertyReport:
    """Check diminishing returns: the benefit of adding x to a set is at
    least its benefit when added to any superset.

    Witnesses carry both margin sides; a negative margin quantifies the
    violation.
    """
    n = len(cs.candidates)
    evaluator = LambdaEvaluator(cs, cfg)
    triples = []
    if mode == "exhaustive":
        if n > EXHAUSTIVE_SUPERMODULAR_CAP:
            raise BadParams(
                f"exhaustive supermodularity is capped at {EXHAUSTIVE_SUPERMODULAR_CAP} candidates")
        evaluator.ensure(routing, range(1 << n))
        for x in range(n):
            rest = ((1 << n) - 1) & ~(1 << x)
            for b in _submasks(rest):
                for a in _submasks(b):
                    triples.append((a, b, x))
    elif mode == "sampled":
        rng = random.Random(seed)
        for _ in range(trials):
            if n == 0:
                break
            x = rng.randrange(n)
            rest = ((1 << n) - 1) & ~(1 << x)
            b = _random_submask(rng, rest)
            a = _random_submask(rng, b)
            triples.append((a, b, x))
        needed = set()
        for a, b, x in triples:
            needed.update((a, b, a | (1 << x), b | (1 << x)))
        evaluator.ensure(routing, needed)
    else:
        raise BadParams(f"unknown mode {mode!r}")
    tol = default_tolerance(routing, evaluator, 4) if tol is None else tol

    witnesses = []
    for a, b, x in triples:
        va = evaluator.value(routing, bitmask_subset(a)).value
        vax = evaluator.value(routing, bitmask_subset(a | (1 << x))).value
        vb = evaluator.value(routing, bitmask_subset(b)).value
        vbx = evaluator.value(routing, bitmask_subset(b | (1 << x))).value
        lhs = va - vax
        rhs = vb - vbx
        if lhs < rhs - tol:
            witnesses.append(Witness(
                subset_a=bitmask_subset(a), subset_b=bitmask_subset(b), x=x,
                lhs=lhs, rhs=rhs, margin=lhs - rhs))
    return PropertyReport(
        property=SUPERMODULAR, routing=routing,
        verdict=HOLDS if not witnesses else VIOLATED,
        tolerance=tol, witnesses=tuple(witnesses),
        evaluations=evaluator.evaluations(routing),
        mode=mode, seed=seed if mode == "sampled" else None,
        trials=trials if mode == "sampled" else None,
        pairs_checked=len(triples))


def _nested_pairs(n: int):
    pairs = []
    for b in range(1 << n):
        a = b
        while True:
            pairs.append((a, b))
            if a == 0:
                break
            a = (a - 1) & b
    return pairs


def _submasks(mask: int):
    out = []
    a = mask
    while True:
        out.append(a)
        if a == 0:
            break
        a = (a - 1) & mask
    return sorted(out)


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
    if d <= 0:
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
    if min(l, v_max, u, d) <= 0:
        raise BadParams("l, v_max, u and d must be positive")
    if d >= n_paths * u:
        raise DomainError(
            f"demand {d} saturates {n_paths} parallel paths of capacity {u}")
    return d * l / (v_max * (1.0 - d / (n_paths * u)))


# ---------------------------------------------------------------------------
# JSON form: template document plus spanning_tree and candidates sections


def candidate_set_to_json(cs: CandidateSet) -> dict:
    from .jsonio import design_to_json

    return design_to_json(
        cs.template.network,
        cs.trips,
        cs.spanning_tree.network.edge_pairs,
        [(cand.trip_index, cand.network.edge_pairs) for cand in cs.candidates],
    )


def candidate_set_from_json(doc, declared_class: str = GENERAL) -> CandidateSet:
    from .errors import FormatError
    from .jsonio import design_from_json
    from .network import validate_trip_path_graph, validate_trip_spanning_tree

    template_net, trips, tree_pairs, specs = design_from_json(doc)
    if tree_pairs is None:
        raise FormatError("design document lacks a spanning_tree section")

    def member(pairs, what):
        nodes = {n for pair in pairs for n in pair}
        edges = []
        for i, j in pairs:
            if not template_net.has_edge(i, j):
                raise FormatError(f"{what} edge ({i}, {j}) is not in the template")
            edges.append(template_net.edge(i, j))
        return Network(nodes, edges)

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
        template=TemplateGraph(template_net),
        spanning_tree=tree,
        candidates=tuple(candidates),
        declared_class=declared_class,
    )


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
    """Pick ``budget`` candidates, each round the one with the largest
    objective decrease (ties to the lowest index).

    When the ground set has at most ten members the exhaustive optimum over
    all subsets within budget is computed as well, for gap reporting.
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
        best_i = None
        best_v = None
        for i in candidates:  # index order makes the tie-break explicit
            v = evaluator.value(routing, chosen + (i,)).value
            if best_v is None or v < best_v - 1e-15 * (1.0 + abs(best_v)):
                best_i, best_v = i, v
        picks.append(best_i)
        chosen = tuple(sorted(chosen + (best_i,)))
        values.append(best_v)
    best_subset = None
    best_value = None
    if n <= EXHAUSTIVE_SUPERMODULAR_CAP:
        masks = [m for m in range(1 << n) if bin(m).count("1") <= budget]
        evaluator.ensure(routing, masks)
        for m in masks:
            v = evaluator.value(routing, bitmask_subset(m)).value
            if best_value is None or v < best_value - 1e-15 * (1.0 + abs(v)):
                best_value = v
                best_subset = bitmask_subset(m)
    return GreedyDesign(routing=routing, picks=tuple(picks), values=tuple(values),
                        best_subset=best_subset, best_value=best_value,
                        evaluations=evaluator.evaluations(routing))
