"""Spans around the package's layer boundaries, for the traced run only.

``Tracer.install`` replaces each public function at the module attribute
its caller looks up (``netdesign.routing.enumerate_trip_paths``, not the
one in ``netdesign.network``) with a wrapper that records a span: name,
start, end, parent span and operation id, plus a count where the layer
has one. Spans stay in memory until the run ends. ``uninstall`` puts the
original functions back, so untraced operations run the package as is.
"""

from __future__ import annotations

import time
from collections import defaultdict

import netdesign.cli as nd_cli
import netdesign.design as nd_design
import netdesign.routing as nd_routing

NAME, START, END, PARENT, OP, COUNT = range(6)


def _paths(args, result):
    return len(result)


def _solve(args, result):
    flows = result.assignment.flows
    return (result.iterations, sum(1 for f in flows if f > 0.0), len(flows))


def _lp(args, result):
    return (result.iterations, len(args[0]))


def _subset(args, result):
    routing, state = args[0], args[1]
    return (routing, state.network.edge_pairs, state.candidate_set.trips)


# (module, attribute, span name, counter)
BINDINGS = (
    (nd_routing, "enumerate_trip_paths", "network.enumerate", _paths),
    (nd_design, "graph_union", "network.union", None),
    (nd_routing, "solve_lp", "simplex.lp", _lp),
    (nd_routing, "verify_certificate", "routing.certify", None),
    (nd_cli, "load_file", "jsonio.load", None),
    (nd_cli, "candidate_set_from_json", "jsonio.load", None),
    (nd_cli, "main", "cli.main", None),
) + tuple(
    (module, f"solve_{r}", f"routing.{r}", _solve)
    for module in (nd_routing, nd_design, nd_cli) for r in ("mc", "so", "ue")
) + tuple(
    (module, attr, name, counter)
    for module in (nd_design, nd_cli)
    for attr, name, counter in (("lambda_eval", "design.lambda_eval", _subset),
                                ("check_monotonicity", "design.check", None),
                                ("check_supermodularity", "design.check", None),
                                ("greedy_designer", "design.greedy", None))
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNT] = counter(args, result)
            return result

        return traced

    def install(self):
        for module, attr, name, counter in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def root(self, op):
        """Context for one operation's root span."""
        return _Root(self, op)


class _Root:
    def __init__(self, tracer, op):
        self.tracer = tracer
        self.op = op

    def __enter__(self):
        t = self.tracer
        t.op = self.op
        self.rec = ["bench.op", 0.0, 0.0, -1, self.op, None]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[START] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[END] = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.op = None
        return False


# span name -> the per-layer metric its self time belongs to
SELF_METRIC = {
    "network.enumerate": "network.enumerate_s",
    "network.union": "network.union_s",
    "routing.mc": "routing.self_s",
    "routing.so": "routing.self_s",
    "routing.ue": "routing.self_s",
    "routing.certify": "routing.certify_s",
    "simplex.lp": "simplex.lp_s",
    "design.lambda_eval": "design.self_s",
    "design.check": "design.self_s",
    "design.greedy": "design.self_s",
    "jsonio.load": "jsonio.load_s",
    "cli.main": "cli.self_s",
    "bench.op": "bench.self_s",
}


def layer_totals(spans, op_scale):
    """Per-layer sums over all spans: self times, inclusive solve times and
    counts. Self time is a span's duration less its children's durations;
    children of one span never overlap, since calls nest. Every duration
    is multiplied by ``op_scale[op]`` of its operation."""
    child_time = defaultdict(float)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    tot = defaultdict(float)
    distinct = defaultdict(set)
    for idx, rec in enumerate(spans):
        name = rec[NAME]
        scale = op_scale[rec[OP]]
        dur = (rec[END] - rec[START]) * scale
        tot[SELF_METRIC[name]] += dur - child_time[idx] * scale
        tot["trace.spans"] += 1
        count = rec[COUNT]
        if name == "network.enumerate":
            tot["network.paths_enumerated"] += count
        elif name == "network.union":
            tot["network.unions"] += 1
        elif name in ("routing.mc", "routing.so", "routing.ue"):
            tot[f"{name}_s"] += dur
            tot["routing.solves"] += 1
            iterations, used, columns = count
            if name != "routing.mc":
                tot["routing.iterations"] += iterations
            tot["routing.paths_used"] += used
            tot["routing.columns"] += columns
        elif name == "simplex.lp":
            tot["simplex.pivots"] += count[0]
            tot["simplex.columns"] += count[1]
        elif name == "design.lambda_eval":
            tot["design.lambda_evals"] += 1
            distinct[rec[OP]].add(count)
        elif name == "bench.op":
            tot["trace.op_s"] += dur
    tot["design.distinct_subsets"] = float(sum(len(s) for s in distinct.values()))
    return tot
