"""Command-line surface.

Subcommands: ``solve``, ``lambda``, ``check``, ``design`` and
``scenario list``. The first four take one path from source to report
(``_run``): the solver configuration from the flags; the source, a
built-in scenario with its ``--param`` values or a JSON instance or design
document; a design problem, which every command but ``solve`` needs; the
command's own computation (``cmd_*``), which returns its ``results`` and
its summary lines; then the report, written to ``--out`` (and its
per-subset CSV to ``--csv``, for external plotting), and the summary,
printed. ``results`` are the fields of the result dataclasses, less the
routing the report states once, plus the names of the subsets. Reports
are deterministic JSON (sorted keys, no timestamps) so identical
invocations reproduce identical bytes.

Exit codes: 0 success; 1 a property verdict contradicted ``--expect``;
2 a ``SolverError``; 64 any other package error (usage or input format).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys

from .design import (
    DesignState,
    candidate_set_from_json,
    check_monotonicity,
    check_supermodularity,
    greedy_designer,
    lambda_eval,
)
from .errors import BadParams, NetdesignError, SolverError
from .jsonio import instance_from_json, load_file
from .routing import ROUTINGS, Instance, SolverConfig, solve_mc, solve_so, solve_ue
from .scenarios import SCENARIO_NAMES, materialize, scenario_descriptions

# 2: so/ue ``path_flows`` list the paths the solve generated, not every
# simple path; 3: so do mc's, and mc ``iterations`` sum the pivots of all
# master solves. That definition still holds when the cheapest routing
# fits the capacities and no master runs: ``iterations`` is then 0, a new
# value under the same definition, so the version stays 3.
FORMAT_VERSION = 3

EXIT_OK = 0
EXIT_EXPECT_FAILED = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64


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


def _scenario_params(args) -> dict:
    pairs = [_parse_param(p) for p in args.param or ()]
    params = dict(pairs)
    if len(params) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for k, key in enumerate(keys) if key in keys[:k])
        raise BadParams(f"--param key {repeated!r} given more than once")
    if args.scenario == "counterexample" and "costing" not in params:
        params["costing"] = "mc" if args.routing == "mc" else "greenshields"
    return params


def _config_from(args) -> SolverConfig:
    kwargs = {}
    if args.gap_tol is not None:
        kwargs["relative_gap_tol"] = args.gap_tol
    if args.max_iters is not None:
        kwargs["max_iterations"] = args.max_iters
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise BadParams(str(exc)) from exc


def _load_source(args):
    """Returns (report source fields, instance, candidate set, labels).

    A design document has no instance here: only ``solve`` needs one, the
    union of all its members, and builds it."""
    if args.scenario:
        scenario = materialize(args.scenario, _scenario_params(args))
        return ({"scenario": scenario.name, "params": scenario.params_dict(),
                 "network_file": None},
                scenario.instance, scenario.candidate_set, scenario.candidate_labels)
    if args.param:
        raise BadParams("--param needs --scenario")
    doc = load_file(args.network)
    source = {"scenario": None, "params": {}, "network_file": args.network}
    if isinstance(doc, dict) and ("candidates" in doc or "spanning_tree" in doc):
        cs = candidate_set_from_json(doc)
        return source, None, cs, tuple(f"g{i}" for i in range(len(cs.candidates)))
    net, trips = instance_from_json(doc)
    return source, Instance(net, trips), None, ()


def _fields(result) -> dict:
    """The fields of a result dataclass, less the routing, which the report
    states once. A shallow ``dataclasses.asdict``: the callers turn nested
    results into rows themselves, and asdict's deep copy of each value took
    10 us an evaluation row against 0.3 us (Python 3.11, 2-vCPU x86-64)."""
    fields = dict(vars(result))
    fields.pop("routing", None)
    return fields


def _rows(evaluations, labels) -> list:
    return [{**_fields(ev), "subset_names": "+".join(labels[i] for i in ev.subset)}
            for ev in evaluations]


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


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParams(f"cannot write {path}: {exc}") from exc


def _run(args) -> int:
    """The path of every command but ``scenario``; ``args.func`` is the
    command's own computation."""
    cfg = _config_from(args)
    source, instance, candidate_set, labels = _load_source(args)
    if candidate_set is None and args.cmd != "solve":
        raise BadParams("this command needs a design problem "
                        "(a scenario with candidates or a design document)")
    results, lines = args.func(args, cfg, instance, candidate_set, labels)
    report = {"format_version": FORMAT_VERSION, "command": args.cmd, **source,
              "routing": args.routing, "config": dataclasses.asdict(cfg), "results": results}
    if args.out:
        _write_text(args.out, json.dumps(report, sort_keys=True, indent=2) + "\n")
    if getattr(args, "csv", None):  # solve has no --csv
        _write_text(args.csv, emit_plot_data(report))
    print("\n".join(lines))
    if args.cmd == "check" and args.expect and results["verdict"] != args.expect.upper():
        print(f"expectation failed: wanted {args.expect.upper()}, got {results['verdict']}",
              file=sys.stderr)
        return EXIT_EXPECT_FAILED
    return EXIT_OK


def cmd_solve(args, cfg, instance, candidate_set, labels):
    if instance is None:
        instance = Instance(candidate_set.subset_network(range(len(candidate_set.candidates))),
                            candidate_set.trips)
    result = {"mc": solve_mc, "so": solve_so, "ue": solve_ue}[args.routing](instance, cfg)
    cert = result.certificate
    results = {
        "total_cost": result.total_cost,
        "per_trip_cost": result.per_trip_cost,
        "per_trip_used_range": result.per_trip_used_range,
        "path_flows": result.assignment.path_flow_map(),
        "edge_flows": {f"{i}-{j}": f for (i, j), f in result.assignment.edge_flows},
        "iterations": result.iterations,
        "relative_gap": result.relative_gap,
        "certificate": dataclasses.asdict(cert),
    }
    return results, [
        f"routing={args.routing} total_cost={result.total_cost:.6f} "
        f"iterations={result.iterations} relative_gap={result.relative_gap:.2e}",
        *(f"  trip {m}: cost={cost:.6f} used-range=[{lo:.6f}, {hi:.6f}]"
          for m, (cost, (lo, hi)) in enumerate(zip(result.per_trip_cost,
                                                    result.per_trip_used_range))),
        f"certificate: {cert.kind} satisfied={cert.satisfied} "
        f"max_violation={cert.max_violation:.2e}",
    ]


def _parse_subset(text: str):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise BadParams(f"--subset expects comma-separated indices, got {text!r}") from exc


def cmd_lambda(args, cfg, instance, candidate_set, labels):
    state = DesignState.create(candidate_set, _parse_subset(args.subset))
    row, = _rows([lambda_eval(args.routing, state, cfg)], labels)
    return ({**row, "evaluations": [row]},
            [f"lambda[{args.routing}]({{{row['subset_names']}}}) = {row['value']:.6f}"])


def cmd_check(args, cfg, instance, candidate_set, labels):
    checker = check_monotonicity if args.property == "monotone" else check_supermodularity
    report = checker(args.routing, candidate_set, tol=args.tol, mode=args.mode,
                     seed=args.seed, trials=args.trials, cfg=cfg)
    results = {**_fields(report), "evaluations": _rows(report.evaluations, labels),
               "witnesses": [{**_fields(w), "x_name": None if w.x is None else labels[w.x]}
                             for w in report.witnesses]}
    lines = [f"{report.property} [{args.routing}]: {report.verdict} "
             f"(tolerance {report.tolerance:.2e}, "
             f"{report.pairs_checked} comparisons, {len(report.witnesses)} witness(es))"]
    for w in report.witnesses[:5]:
        xs = "" if w.x is None else f" x={labels[w.x]}"
        lines.append(f"  witness: A={list(w.subset_a)} B={list(w.subset_b)}{xs} "
                     f"lhs={w.lhs:.6f} rhs={w.rhs:.6f} margin={w.margin:.6f}")
    return results, lines


def cmd_design(args, cfg, instance, candidate_set, labels):
    result = greedy_designer(args.routing, candidate_set, args.budget, cfg)
    results = {**_fields(result), "pick_names": [labels[i] for i in result.picks],
               "evaluations": _rows(result.evaluations, labels)}
    lines = [f"greedy[{args.routing}] budget={args.budget}: "
             f"picks={list(result.picks)} values={[round(v, 6) for v in result.values]}"]
    if result.best_value is not None:
        lines.append(f"exhaustive optimum: subset={list(result.best_subset)} "
                     f"value={result.best_value:.6f}")
    return results, lines


def cmd_scenario() -> int:
    for name, desc in scenario_descriptions():
        print(f"{name:16s} {desc}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="netdesign",
                     description="Routing and path-addition analysis for transport networks")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_source(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--scenario", choices=SCENARIO_NAMES)
        group.add_argument("--network", metavar="FILE")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="scenario parameter (repeatable)")

    def add_solver_opts(p):
        p.add_argument("--gap-tol", type=float, default=None)
        p.add_argument("--max-iters", type=int, default=None,
                       help="so/ue Newton steps before the solve gives up")
        p.add_argument("--out", metavar="FILE", help="write the JSON report here")

    p_solve = sub.add_parser("solve", help="solve one routing problem")
    p_solve.add_argument("--routing", required=True, choices=ROUTINGS)
    add_source(p_solve)
    add_solver_opts(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_lambda = sub.add_parser("lambda", help="objective value of a candidate subset")
    p_lambda.add_argument("--routing", required=True, choices=ROUTINGS)
    add_source(p_lambda)
    add_solver_opts(p_lambda)
    p_lambda.add_argument("--subset", default="", metavar="I,J,...")
    p_lambda.add_argument("--csv", metavar="FILE", help="write per-subset CSV here")
    p_lambda.set_defaults(func=cmd_lambda)

    p_check = sub.add_parser("check", help="monotonicity/supermodularity report")
    p_check.add_argument("--property", required=True, choices=("monotone", "supermodular"))
    p_check.add_argument("--routing", required=True, choices=ROUTINGS)
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
    p_design.add_argument("--routing", required=True, choices=ROUTINGS)
    add_source(p_design)
    add_solver_opts(p_design)
    p_design.add_argument("--budget", type=int, required=True)
    p_design.add_argument("--csv", metavar="FILE")
    p_design.set_defaults(func=cmd_design)

    p_scn = sub.add_parser("scenario", help="scenario utilities")
    p_scn.add_argument("action", choices=("list",))
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parsing keeps no state in it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return cmd_scenario() if args.cmd == "scenario" else _run(args)
    except SolverError as exc:
        print(f"netdesign: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except NetdesignError as exc:
        print(f"netdesign: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
