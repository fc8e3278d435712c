"""The three workloads: inputs turned into package objects, and the
sequence of public calls that makes one operation.

Each workload has ``pool``, the number of inputs a run cycles through;
``build(seed, k, out_dir)``, which makes input ``k`` (generation and
validation happen there, in set-up); ``run(item, op_dir)``, one timed
operation; and ``digest(item, raw)``, which reduces the operation's output
to what the checks need, outside the timed part.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import netdesign
import netdesign.cli as nd_cli
import netdesign.design as nd_design
import netdesign.routing as nd_routing

import gen

COSTS = {"constant": netdesign.Constant, "affine": netdesign.Affine,
         "greenshields": netdesign.Greenshields, "bpr": netdesign.BPR}


def network(nodes, edges) -> netdesign.Network:
    return netdesign.Network(nodes, [netdesign.Edge(i, j, COSTS[c[0]](*c[1:]), cap)
                                     for (i, j), c, cap in edges])


def trips(design) -> tuple:
    return tuple(netdesign.Trip(s, t, d) for s, t, d in design.trips)


def candidate_set(design: gen.Design, declared=netdesign.GENERAL) -> netdesign.CandidateSet:
    """Validate the spanning tree and every candidate through the package's
    own validators, then build the candidate set."""
    template = network(design.nodes, design.edges)
    trip_objs = trips(design)

    def member(path):
        return netdesign.Network(set(path), [template.edge(i, j) for i, j in zip(path, path[1:])])

    tree = netdesign.validate_trip_spanning_tree(member(design.tree[0]), trip_objs)
    if not isinstance(tree, netdesign.TripSpanningTree):
        raise ValueError(f"generated spanning tree is invalid: {tree.messages()}")
    cands = []
    for k, path in enumerate(design.candidates):
        graph = netdesign.validate_trip_path_graph(member(path), trip_objs[0], 0, k)
        if not isinstance(graph, netdesign.TripPathGraph):
            raise ValueError(f"generated candidate {k} is invalid: {graph.messages()}")
        cands.append(graph)
    return netdesign.CandidateSet(netdesign.TemplateGraph(template), tree, tuple(cands), declared)


def instance(city: gen.City) -> nd_routing.Instance:
    return nd_routing.Instance(network(city.nodes, city.edges), trips(city))


def _evaluations(report):
    return tuple((ev.bitmask, ev.value, ev.relative_gap) for ev in report.evaluations)


# ---------------------------------------------------------------------------
# lattice: the paper's verdict matrix on one small design instance

LATTICE_CHECKS = (
    # (checker, routing, which candidate set)
    ("monotone", "mc", "constant"),
    ("monotone", "so", "congested"),
    ("supermodular", "mc", "constant"),
    ("supermodular", "so", "congested"),
    ("supermodular", "ue", "congested"),
    ("supermodular", "mc", "parallel_constant"),
    ("supermodular", "so", "parallel_congested"),
    ("supermodular", "ue", "parallel_congested"),
)


class Lattice:
    name = "lattice"
    pool = 6

    @staticmethod
    def build(seed, k, out_dir):
        data = gen.lattice_instance(seed)
        constant, congested, par = data
        sets = {
            "constant": candidate_set(constant),
            "congested": candidate_set(congested),
            "parallel_constant": candidate_set(par.constant, netdesign.DOUBLE_PRIME),
            "parallel_congested": candidate_set(par.congested, netdesign.DOUBLE_PRIME),
        }
        return data, sets

    @staticmethod
    def run(item, op_dir):
        _, sets = item
        out = []
        for prop, routing, which in LATTICE_CHECKS:
            checker = (nd_design.check_monotonicity if prop == "monotone"
                       else nd_design.check_supermodularity)
            out.append(checker(routing, sets[which]))
        return out

    @staticmethod
    def digest(item, raw):
        return tuple((r.verdict, _evaluations(r)) for r in raw)


# ---------------------------------------------------------------------------
# grid: one city solved and certified three ways


def _solve_digest(result, cert):
    used = tuple((p.trip_index, p.nodes, f)
                 for p, f in zip(result.assignment.paths, result.assignment.flows) if f > 0.0)
    return {"total": result.total_cost, "gap": result.relative_gap,
            "iterations": result.iterations, "used": used,
            "columns": len(result.assignment.paths),
            "certified": result.certificate.satisfied, "reverified": cert.satisfied}


class Grid:
    name = "grid"
    pool = 4

    @staticmethod
    def build(seed, k, out_dir):
        flow, mc = gen.grid_instance(seed)
        return (flow, mc), (instance(flow), instance(mc))

    @staticmethod
    def run(item, op_dir):
        _, (flow, mc) = item
        out = []
        for solve, inst in ((nd_routing.solve_so, flow), (nd_routing.solve_ue, flow),
                            (nd_routing.solve_mc, mc)):
            result = solve(inst)
            out.append((result, nd_routing.verify_certificate(inst, result)))
        return out

    @staticmethod
    def digest(item, raw):
        return tuple(_solve_digest(r, c) for r, c in raw)


# ---------------------------------------------------------------------------
# cli: one session through the documented commands

CLI_TRIALS = 20
CLI_BUDGET = 3
FIXTURES = (
    ("cx_mc", ["check", "--scenario", "counterexample", "--property", "supermodular",
               "--routing", "mc", "--expect", "violated"]),
    ("cx_so", ["check", "--scenario", "counterexample", "--property", "supermodular",
               "--routing", "so", "--expect", "violated"]),
    ("cx_ue", ["check", "--scenario", "counterexample", "--property", "supermodular",
               "--routing", "ue", "--expect", "violated"]),
    ("braess", ["check", "--scenario", "braess", "--property", "monotone",
                "--routing", "ue", "--expect", "violated"]),
)


def session_commands(item, op_dir):
    """(label, argv) for every command of one session, in order."""
    docs, seed = item[1], item[2]
    cmds = []
    for routing in ("so", "ue", "mc"):
        doc = docs["constant" if routing == "mc" else "congested"]
        base = ["--routing", routing, "--network", doc]
        label = f"check_{routing}"
        cmds.append((label, ["check", "--property", "supermodular", *base, "--mode", "sampled",
                             "--seed", str(seed), "--trials", str(CLI_TRIALS)]))
        label = f"design_{routing}"
        cmds.append((label, ["design", *base, "--budget", str(CLI_BUDGET)]))
    cmds += FIXTURES
    out = []
    for label, argv in cmds:
        files = ["--out", os.path.join(op_dir, f"{label}.json")]
        if label.startswith(("check_", "design_")):
            files += ["--csv", os.path.join(op_dir, f"{label}.csv")]
        out.append((label, argv + files))
    return out


class Cli:
    name = "cli"
    pool = 3

    @staticmethod
    def build(seed, k, out_dir):
        congested, constant, sample_seed = gen.cli_instance(seed)
        docs = {}
        for which, design in (("congested", congested), ("constant", constant)):
            path = os.path.join(out_dir, f"doc{k}_{which}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(gen.design_document(design), fh)
            docs[which] = path
        return (congested, constant), docs, sample_seed

    @staticmethod
    def run(item, op_dir):
        os.makedirs(op_dir, exist_ok=True)
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for label, argv in session_commands(item, op_dir):
                codes.append((label, nd_cli.main(argv)))
        return codes, sink.getvalue()

    @staticmethod
    def digest(item, raw):
        return raw


WORKLOADS = {w.name: w for w in (Lattice, Grid, Cli)}
