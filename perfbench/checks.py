"""Output checks, run after the timed part.

Each ``check_<workload>`` returns a list of problems for one operation;
an operation with any problem counts as failed. The checks compare with
``oracles`` (computed apart from the package) or with properties the
paper proves; none compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import os

import netdesign.routing as nd_routing

import oracles
import workloads

GAP = 1e-8            # the solvers' default relative-gap target
LP_REL = 1e-7         # package simplex vs HiGHS
FLOW_REL = 1e-6       # so/ue values vs closed forms
ORDER_REL = 1e-7      # slack for inequalities between two solved values
LADDER_ABS = 0.01     # paper fixtures are quoted to two decimals

COUNTEREXAMPLE = {
    "cx_mc": (9.0, 9.0, 7.0, 5.0),
    "cx_so": (30.0, 29.28, 27.47, 24.97),
    "cx_ue": (30.0, 30.0, 30.0, 26.66),
}
BRAESS = {1: 498.0, 3: 552.0}   # s-w-t alone, then with s-v-w-t


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def _ordered(low: float, high: float) -> bool:
    """low <= high up to solver noise."""
    return low <= high + ORDER_REL * (1.0 + abs(high))


def _monotone_problems(values: dict, label: str):
    """Adding candidates never increases the objective (mc and so)."""
    out = []
    masks = sorted(values)
    for a in masks:
        for b in masks:
            if a != b and a & b == a and not _ordered(values[b], values[a]):
                out.append(f"{label}: lambda({b})={values[b]!r} > lambda({a})={values[a]!r}")
    return out


def _resolved_wardrop(design, mask: int, routing: str, reported: float):
    """Solve one subset again outside the timed part, since the checkers
    and reports give values only, and put its flows through the Wardrop
    oracle. The solve must reproduce the reported value exactly."""
    inst = nd_routing.Instance(workloads.network(design.nodes, design.subset_edges(mask)),
                               workloads.trips(design))
    result = {"so": nd_routing.solve_so, "ue": nd_routing.solve_ue}[routing](inst)
    problems = []
    if result.total_cost != reported:
        problems.append(f"{routing} mask {mask}: solved again {result.total_cost!r}, "
                        f"reported {reported!r}")
    used = [(p.trip_index, p.nodes, f)
            for p, f in zip(result.assignment.paths, result.assignment.flows) if f > 0.0]
    bad, total = oracles.wardrop(design.subset_edges(mask), design.trips, used, routing)
    problems += [f"{routing} mask {mask}: {b}" for b in bad]
    if not bad and not oracles.close(result.total_cost, total, 1e-9):
        problems.append(f"{routing} mask {mask}: total {result.total_cost!r}, priced {total!r}")
    return problems


def _highs(design, masks) -> dict:
    """{mask: HiGHS value} for subsets of a design, all in one LP."""
    masks = sorted(masks)
    return dict(zip(masks, oracles.mc_values(
        design.nodes, [design.subset_edges(m) for m in masks], design.trips)))


# ---------------------------------------------------------------------------


def check_lattice(item, digest):
    (constant, congested, par), _ = item
    results = dict(zip(workloads.LATTICE_CHECKS, digest))
    problems = []
    full = (1 << len(constant.candidates)) - 1
    for key, (verdict, evals) in results.items():
        prop, routing, which = key
        masks = [m for m, _, _ in evals]
        if masks != list(range(full + 1)):
            problems.append(f"{key}: evaluated masks {masks}")
        if routing != "mc":
            problems += [f"{key}: gap {g!r} on mask {m}" for m, _, g in evals if not g <= GAP]
        if (prop == "monotone" or which.startswith("parallel")) and verdict != "HOLDS":
            problems.append(f"{key}: verdict {verdict}, the paper proves HOLDS")

    def values(key):
        return {m: v for m, v, _ in results[key][1]}

    mono_mc = values(("monotone", "mc", "constant"))
    if values(("supermodular", "mc", "constant")) != mono_mc:
        problems.append("mc: the two checkers disagree on a subset value")
    highs = _highs(constant, mono_mc)
    for mask, v in mono_mc.items():
        want = highs[mask]
        if not oracles.close(v, want, LP_REL):
            problems.append(f"mc mask {mask}: {v!r}, HiGHS {want!r}")

    for so_key, ue_key in ((("supermodular", "so", "congested"), ("supermodular", "ue", "congested")),
                           (("supermodular", "so", "parallel_congested"),
                            ("supermodular", "ue", "parallel_congested"))):
        so, ue = values(so_key), values(ue_key)
        problems += [f"{ue_key} mask {m}: ue {ue[m]!r} below so {so[m]!r}"
                     for m in so if not _ordered(so[m], ue[m])]

    for mask, v in values(("supermodular", "mc", "parallel_constant")).items():
        avail = [par.route_costs[0]] + [par.route_costs[i + 1] for i in range(4) if mask >> i & 1]
        want = oracles.parallel_constant_value(avail, par.d_constant)
        if not oracles.close(v, want, LP_REL):
            problems.append(f"parallel mc mask {mask}: {v!r}, closed form {want!r}")
    for routing in ("so", "ue"):
        for mask, v in values(("supermodular", routing, "parallel_congested")).items():
            want = oracles.parallel_congested_value(1 + _popcount(mask), par.l, par.v_max,
                                                    par.u, par.d_congested)
            if not oracles.close(v, want, FLOW_REL):
                problems.append(f"parallel {routing} mask {mask}: {v!r}, closed form {want!r}")

    for routing in ("so", "ue"):
        value = values(("supermodular", routing, "congested"))[full]
        problems += _resolved_wardrop(congested, full, routing, value)
    return problems


# ---------------------------------------------------------------------------


def check_grid(item, digest):
    (flow, mc), _ = item
    problems = []
    for name, d in zip(("so", "ue", "mc"), digest):
        if not (d["certified"] and d["reverified"]):
            problems.append(f"{name}: certificate not satisfied")
    for name, d in zip(("so", "ue"), digest):
        if not d["gap"] <= GAP:
            problems.append(f"{name}: gap {d['gap']!r}")
        bad, total = oracles.wardrop(flow.edges, flow.trips, d["used"], name)
        problems += [f"{name}: {b}" for b in bad]
        if not bad and not oracles.close(d["total"], total, 1e-9):
            problems.append(f"{name}: total {d['total']!r}, priced {total!r}")
    if not _ordered(digest[0]["total"], digest[1]["total"]):
        problems.append(f"ue {digest[1]['total']!r} below so {digest[0]['total']!r}")

    d = digest[2]
    caps = {pair: cap for pair, _, cap in mc.edges}
    costs = {pair: c[1] for pair, c, _ in mc.edges}
    load = {}
    routed = [0.0] * len(mc.trips)
    total = 0.0
    for m, nodes, f in d["used"]:
        routed[m] += f
        for pair in zip(nodes, nodes[1:]):
            load[pair] = load.get(pair, 0.0) + f
            total += f * costs[pair]
    for m, (_, _, dem) in enumerate(mc.trips):
        if abs(routed[m] - dem) > 1e-9 * (1.0 + dem):
            problems.append(f"mc trip {m}: routed {routed[m]} of {dem}")
    problems += [f"mc edge {p}: load {x} over capacity {caps[p]}"
                 for p, x in load.items() if x > caps[p] * (1.0 + 1e-9)]
    want = oracles.mc_value(mc.nodes, mc.edges, mc.trips)
    if not (oracles.close(d["total"], want, LP_REL) and oracles.close(total, want, LP_REL)):
        problems.append(f"mc: total {d['total']!r} (priced {total!r}), HiGHS {want!r}")
    return problems


# ---------------------------------------------------------------------------


def _read_report(op_dir, label):
    with open(os.path.join(op_dir, f"{label}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _csv_matches(op_dir, label, rows, routing):
    with open(os.path.join(op_dir, f"{label}.csv"), encoding="utf-8", newline="") as fh:
        got = list(csv.reader(fh))
    want = [["subset_bitmask", "subset_names", "routing", "lambda_value"]]
    want += [[str(r["bitmask"]), r["subset_names"], routing, repr(r["value"])] for r in rows]
    return got == want


def check_cli(item, digest, op_dir):
    (congested, constant), _, _ = item
    codes, _ = digest
    problems = [f"{label}: exit code {code}" for label, code in codes if code != 0]
    if problems:
        return problems
    reports = {label: _read_report(op_dir, label) for label, _ in codes}
    values = {}
    for routing in ("so", "ue", "mc"):
        for kind in ("check", "design"):
            label = f"{kind}_{routing}"
            rows = reports[label]["results"]["evaluations"]
            if not _csv_matches(op_dir, label, rows, routing):
                problems.append(f"{label}: CSV does not match the report")
            if routing != "mc":
                problems += [f"{label}: gap {r['relative_gap']!r} on mask {r['bitmask']}"
                             for r in rows if not r["relative_gap"] <= GAP]
            values.setdefault(routing, {}).update({r["bitmask"]: r["value"] for r in rows})
        design = reports[f"design_{routing}"]["results"]
        if routing in ("so", "mc"):
            problems += _monotone_problems(values[routing], routing)
            problems += [f"greedy {routing}: value rises {a!r} -> {b!r}"
                         for a, b in zip(design["values"], design["values"][1:])
                         if not _ordered(b, a)]
        if routing != "mc":
            # the greedy ladder's subsets are solved again for the Wardrop oracle
            mask = 0
            for step, value in enumerate(design["values"]):
                if step:
                    mask |= 1 << design["picks"][step - 1]
                problems += _resolved_wardrop(congested, mask, routing, value)
    so_masks = {r["bitmask"] for r in reports["check_so"]["results"]["evaluations"]}
    ue_masks = {r["bitmask"] for r in reports["check_ue"]["results"]["evaluations"]}
    if so_masks != ue_masks:
        problems.append("sampled so and ue checks evaluated different subsets")
    problems += [f"mask {m}: ue {values['ue'][m]!r} below so {values['so'][m]!r}"
                 for m in values["so"].keys() & values["ue"].keys()
                 if not _ordered(values["so"][m], values["ue"][m])]
    highs = _highs(constant, values["mc"])
    for mask, v in values["mc"].items():
        want = highs[mask]
        if not oracles.close(v, want, LP_REL):
            problems.append(f"mc mask {mask}: {v!r}, HiGHS {want!r}")

    for label, ladder in COUNTEREXAMPLE.items():
        res = reports[label]["results"]
        got = tuple(r["value"] for r in res["evaluations"])
        if res["verdict"] != "VIOLATED" or len(got) != 4 or any(
                abs(a - b) > LADDER_ABS for a, b in zip(got, ladder)):
            problems.append(f"{label}: {res['verdict']} {got}, paper {ladder}")
    res = reports["braess"]["results"]
    got = {r["bitmask"]: r["value"] for r in res["evaluations"]}
    if res["verdict"] != "VIOLATED" or any(
            abs(got.get(m, float("nan")) - v) > LADDER_ABS or m not in got
            for m, v in BRAESS.items()):
        problems.append(f"braess: {res['verdict']} {got}")
    return problems
