"""Command-line surface.

Subcommands: ``solve``, ``lambda``, ``check``, ``design`` and
``scenario list``. Reports are deterministic JSON (sorted keys, no
timestamps) so identical invocations reproduce identical bytes; ``check``
and ``lambda`` reports also export a per-subset CSV for external plotting.

Exit codes: 0 success; 1 a property verdict contradicted ``--expect``;
2 solver failure; 64 usage or input-format error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import Optional

from .design import (
    DesignState,
    GreedyDesign,
    PropertyReport,
    candidate_set_from_json,
    check_monotonicity,
    check_supermodularity,
    greedy_designer,
    lambda_eval,
)
from .errors import (
    BadParams,
    CapacitySaturation,
    DomainError,
    FormatError,
    Infeasible,
    NetdesignError,
    NotConverged,
    PathLimitExceeded,
    Unbounded,
    UnknownScenario,
    Unreachable,
)
from .jsonio import instance_from_json, load_file
from .routing import Instance, SolverConfig, solve_mc, solve_so, solve_ue
from .scenarios import materialize, scenario_descriptions

# 2: so/ue ``path_flows`` list the paths the solve generated, not every
# simple path
FORMAT_VERSION = 2

EXIT_OK = 0
EXIT_EXPECT_FAILED = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64

_SOLVER_ERRORS = (Infeasible, NotConverged, CapacitySaturation, PathLimitExceeded,
                  DomainError, Unreachable, Unbounded)
_USAGE_ERRORS = (FormatError, BadParams, UnknownScenario)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_param(text: str):
    if "=" not in text:
        raise BadParams(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    try:
        return key, int(raw)
    except ValueError:
        pass
    try:
        return key, float(raw)
    except ValueError:
        return key, raw


def _gather_params(args, routing: Optional[str]) -> dict:
    params = dict(_parse_param(p) for p in (args.param or []))
    if getattr(args, "scenario", None) == "counterexample" and "costing" not in params:
        params["costing"] = "mc" if routing == "mc" else "greenshields"
    return params


def _config_from(args) -> SolverConfig:
    kwargs = {}
    if getattr(args, "gap_tol", None) is not None:
        kwargs["relative_gap_tol"] = args.gap_tol
    if getattr(args, "max_iters", None) is not None:
        kwargs["max_iterations"] = args.max_iters
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise BadParams(str(exc)) from exc


def _load_source(args, routing: Optional[str]):
    """Returns (scenario, instance, candidate_set, labels, source descriptor)."""
    if args.scenario:
        scenario = materialize(args.scenario, _gather_params(args, routing))
        return (scenario, scenario.instance, scenario.candidate_set,
                scenario.candidate_labels, {"scenario": scenario.name,
                                            "params": scenario.params_dict()})
    doc = load_file(args.network)
    descriptor = {"network_file": args.network}
    if isinstance(doc, dict) and ("candidates" in doc or "spanning_tree" in doc):
        cs = candidate_set_from_json(doc)
        labels = tuple(f"g{i}" for i in range(len(cs.candidates)))
        instance = Instance(cs.subset_network(range(len(cs.candidates))), cs.trips)
        return None, instance, cs, labels, descriptor
    net, trips = instance_from_json(doc)
    return None, Instance(net, trips), None, (), descriptor


def _base_report(command: str, routing: Optional[str], source: dict, cfg=None) -> dict:
    report = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "scenario": source.get("scenario"),
        "params": source.get("params", {}),
        "network_file": source.get("network_file"),
        "routing": routing,
    }
    if cfg is not None:
        report["config"] = dataclasses.asdict(cfg)
    return report


def _certificate_dict(cert) -> dict:
    return {
        "kind": cert.kind,
        "max_violation": cert.max_violation,
        "per_trip_spread": list(cert.per_trip_spread),
        "tolerance": cert.tolerance,
        "satisfied": cert.satisfied,
    }


def _solve_results(result) -> dict:
    return {
        "total_cost": result.total_cost,
        "per_trip_cost": list(result.per_trip_cost),
        "per_trip_used_range": [list(r) for r in result.per_trip_used_range],
        "path_flows": result.assignment.path_flow_map(),
        "edge_flows": {f"{i}-{j}": f for (i, j), f in result.assignment.edge_flows},
        "iterations": result.iterations,
        "relative_gap": result.relative_gap,
        "certificate": _certificate_dict(result.certificate),
    }


def _subset_names(subset, labels) -> str:
    return "+".join(labels[i] if i < len(labels) else f"g{i}" for i in subset)


def _evaluation_rows(evaluations, labels) -> list:
    return [
        {
            "bitmask": ev.bitmask,
            "subset": list(ev.subset),
            "subset_names": _subset_names(ev.subset, labels),
            "value": ev.value,
            "relative_gap": ev.relative_gap,
            "iterations": ev.iterations,
        }
        for ev in evaluations
    ]


def emit_plot_data(report: dict) -> str:
    """Per-subset CSV (`subset_bitmask,subset_names,routing,lambda_value`)."""
    rows = report.get("results", {}).get("evaluations", [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["subset_bitmask", "subset_names", "routing", "lambda_value"])
    for row in rows:
        writer.writerow([row["bitmask"], row["subset_names"],
                         report.get("routing"), row["value"]])
    return buf.getvalue()


def _write_report(report: dict, out: Optional[str], csv_path: Optional[str] = None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(emit_plot_data(report))


def _solver_for(routing: str):
    return {"mc": lambda inst, cfg: solve_mc(inst, cfg.path_limit),
            "so": solve_so, "ue": solve_ue}[routing]


def cmd_solve(args) -> int:
    cfg = _config_from(args)
    _, instance, _, _, source = _load_source(args, args.routing)
    result = _solver_for(args.routing)(instance, cfg)
    report = _base_report("solve", args.routing, source, cfg)
    report["results"] = _solve_results(result)
    _write_report(report, args.out)
    print(f"routing={args.routing} total_cost={result.total_cost:.6f} "
          f"iterations={result.iterations} relative_gap={result.relative_gap:.2e}")
    for m, cost in enumerate(result.per_trip_cost):
        lo, hi = result.per_trip_used_range[m]
        print(f"  trip {m}: cost={cost:.6f} used-range=[{lo:.6f}, {hi:.6f}]")
    print(f"certificate: {result.certificate.kind} "
          f"satisfied={result.certificate.satisfied} "
          f"max_violation={result.certificate.max_violation:.2e}")
    return EXIT_OK


def _require_candidates(candidate_set):
    if candidate_set is None:
        raise BadParams("this command needs a design problem "
                        "(a scenario with candidates or a design document)")
    return candidate_set


def cmd_lambda(args) -> int:
    cfg = _config_from(args)
    _, _, candidate_set, labels, source = _load_source(args, args.routing)
    candidate_set = _require_candidates(candidate_set)
    subset = _parse_subset(args.subset, len(candidate_set.candidates))
    state = DesignState.create(candidate_set, subset)
    ev = lambda_eval(args.routing, state, cfg)
    report = _base_report("lambda", args.routing, source, cfg)
    report["results"] = {
        "subset": list(ev.subset),
        "bitmask": ev.bitmask,
        "subset_names": _subset_names(ev.subset, labels),
        "value": ev.value,
        "iterations": ev.iterations,
        "relative_gap": ev.relative_gap,
        "evaluations": _evaluation_rows([ev], labels),
    }
    _write_report(report, args.out, getattr(args, "csv", None))
    print(f"lambda[{args.routing}]({{{_subset_names(ev.subset, labels)}}}) = {ev.value:.6f}")
    return EXIT_OK


def _parse_subset(text: Optional[str], n: int):
    if not text:
        return ()
    try:
        subset = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise BadParams(f"--subset expects comma-separated indices, got {text!r}") from exc
    for i in subset:
        if not 0 <= i < n:
            raise BadParams(f"candidate index {i} out of range (0..{n - 1})")
    return subset


def cmd_check(args) -> int:
    cfg = _config_from(args)
    _, _, candidate_set, labels, source = _load_source(args, args.routing)
    candidate_set = _require_candidates(candidate_set)
    checker = check_monotonicity if args.property == "monotone" else check_supermodularity
    report_obj: PropertyReport = checker(
        args.routing, candidate_set, tol=args.tol, mode=args.mode,
        seed=args.seed, trials=args.trials, cfg=cfg)
    report = _base_report("check", args.routing, source, cfg)
    report["results"] = {
        "property": report_obj.property,
        "verdict": report_obj.verdict,
        "tolerance": report_obj.tolerance,
        "mode": report_obj.mode,
        "seed": report_obj.seed,
        "trials": report_obj.trials,
        "pairs_checked": report_obj.pairs_checked,
        "witnesses": [
            {
                "subset_a": list(w.subset_a),
                "subset_b": list(w.subset_b),
                "x": w.x,
                "x_name": None if w.x is None else _subset_names((w.x,), labels),
                "lhs": w.lhs,
                "rhs": w.rhs,
                "margin": w.margin,
            }
            for w in report_obj.witnesses
        ],
        "evaluations": _evaluation_rows(report_obj.evaluations, labels),
    }
    _write_report(report, args.out, args.csv)
    print(f"{report_obj.property} [{args.routing}]: {report_obj.verdict} "
          f"(tolerance {report_obj.tolerance:.2e}, "
          f"{report_obj.pairs_checked} comparisons, "
          f"{len(report_obj.witnesses)} witness(es))")
    for w in report_obj.witnesses[:5]:
        xs = "" if w.x is None else f" x={_subset_names((w.x,), labels)}"
        print(f"  witness: A={list(w.subset_a)} B={list(w.subset_b)}{xs} "
              f"lhs={w.lhs:.6f} rhs={w.rhs:.6f} margin={w.margin:.6f}")
    if args.expect:
        expected = "HOLDS" if args.expect == "holds" else "VIOLATED"
        if report_obj.verdict != expected:
            print(f"expectation failed: wanted {expected}, got {report_obj.verdict}",
                  file=sys.stderr)
            return EXIT_EXPECT_FAILED
    return EXIT_OK


def cmd_design(args) -> int:
    cfg = _config_from(args)
    _, _, candidate_set, labels, source = _load_source(args, args.routing)
    candidate_set = _require_candidates(candidate_set)
    result: GreedyDesign = greedy_designer(args.routing, candidate_set, args.budget, cfg)
    report = _base_report("design", args.routing, source, cfg)
    report["results"] = {
        "picks": list(result.picks),
        "pick_names": [_subset_names((i,), labels) for i in result.picks],
        "values": list(result.values),
        "best_subset": None if result.best_subset is None else list(result.best_subset),
        "best_value": result.best_value,
        "evaluations": _evaluation_rows(result.evaluations, labels),
    }
    _write_report(report, args.out, getattr(args, "csv", None))
    print(f"greedy[{args.routing}] budget={args.budget}: "
          f"picks={list(result.picks)} values={[round(v, 6) for v in result.values]}")
    if result.best_value is not None:
        print(f"exhaustive optimum: subset={list(result.best_subset)} "
              f"value={result.best_value:.6f}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    if args.action == "list":
        for name, desc in scenario_descriptions():
            print(f"{name:16s} {desc}")
        return EXIT_OK
    raise BadParams(f"unknown scenario action {args.action!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="netdesign",
                     description="Routing and path-addition analysis for transport networks")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--scenario", choices=("braess", "pigou", "fig3", "fig4",
                                                  "counterexample", "parallel"))
        group.add_argument("--network", metavar="FILE")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="scenario parameter (repeatable)")

    def add_solver_opts(p):
        p.add_argument("--gap-tol", type=float, default=None)
        p.add_argument("--max-iters", type=int, default=None,
                       help="so/ue Newton steps before the solve gives up")
        p.add_argument("--out", metavar="FILE", help="write the JSON report here")

    p_solve = sub.add_parser("solve", help="solve one routing problem")
    p_solve.add_argument("--routing", required=True, choices=("mc", "so", "ue"))
    add_source(p_solve)
    add_solver_opts(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_lambda = sub.add_parser("lambda", help="objective value of a candidate subset")
    p_lambda.add_argument("--routing", required=True, choices=("mc", "so", "ue"))
    add_source(p_lambda)
    add_solver_opts(p_lambda)
    p_lambda.add_argument("--subset", default="", metavar="I,J,...")
    p_lambda.add_argument("--csv", metavar="FILE", help="write per-subset CSV here")
    p_lambda.set_defaults(func=cmd_lambda)

    p_check = sub.add_parser("check", help="monotonicity/supermodularity report")
    p_check.add_argument("--property", required=True, choices=("monotone", "supermodular"))
    p_check.add_argument("--routing", required=True, choices=("mc", "so", "ue"))
    add_source(p_check)
    add_solver_opts(p_check)
    p_check.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--tol", type=float, default=None)
    p_check.add_argument("--expect", choices=("holds", "violated"), default=None)
    p_check.add_argument("--csv", metavar="FILE", help="write per-subset CSV here")
    p_check.set_defaults(func=cmd_check)

    p_design = sub.add_parser("design", help="greedy candidate selection")
    p_design.add_argument("--routing", required=True, choices=("mc", "so", "ue"))
    add_source(p_design)
    add_solver_opts(p_design)
    p_design.add_argument("--budget", type=int, required=True)
    p_design.add_argument("--csv", metavar="FILE")
    p_design.set_defaults(func=cmd_design)

    p_scn = sub.add_parser("scenario", help="scenario utilities")
    p_scn.add_argument("action", choices=("list",))
    p_scn.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"netdesign: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _SOLVER_ERRORS as exc:
        print(f"netdesign: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NetdesignError as exc:  # residual package errors count as usage
        print(f"netdesign: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
