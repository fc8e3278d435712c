"""The benchmark's traced run against the package it wraps.

``perfbench/tracing.py`` replaces package functions at the module
attributes their callers look up. A rename or a call that bypasses one of
those attributes would crash a traced run or leave its routing metrics at
zero, so one small traced session is run here.
"""

import contextlib
import importlib.util
import io
import json
import os

import netdesign.cli as nd_cli
import netdesign.design as nd_design
import netdesign.routing as nd_routing
from netdesign.design import candidate_set_to_json
from netdesign.routing import Instance
from netdesign.scenarios import materialize

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_session_records_every_routing_layer():
    tracing = _tracing()
    congested = materialize("counterexample", {"costing": "greenshields"}).candidate_set
    capacitated = materialize("counterexample", {"costing": "mc"}).candidate_set
    mc_instance = Instance(capacitated.subset_network(0b11), capacitated.trips)
    tracer = tracing.Tracer()
    tracer.install()  # raises AttributeError on a binding that does not resolve
    try:
        saved = list(tracer._saved)
        assert len(saved) == len(tracing.BINDINGS)
        for module, attr, original in saved:
            assert original.__module__.startswith("netdesign.")
            assert getattr(module, attr) is not original
        with tracer.root(0):
            report = nd_design.check_supermodularity("so", congested)
            result = nd_routing.solve_mc(mc_instance)
            certificate = nd_routing.verify_certificate(mc_instance, result)
    finally:
        tracer.uninstall()
    for module, attr, original in saved:
        assert getattr(module, attr) is original
    assert report.evaluations and certificate.satisfied

    names = [rec[tracing.NAME] for rec in tracer.spans]
    for name in ("design.check", "design.lambda_eval", "routing.so", "routing.mc",
                 "routing.certify"):
        assert name in names
    totals = tracing.layer_totals(tracer.spans, {0: 1.0})
    assert 1 <= totals["design.lambda_evals"] <= len(report.evaluations)
    assert totals["routing.solves"] == names.count("routing.so") + 1
    for metric in ("routing.so_s", "routing.mc_s", "routing.certify_s",
                   "routing.iterations", "routing.paths_used"):
        assert totals[metric] > 0.0


def test_traced_cli_session_records_the_cli_bindings(tmp_path):
    # the command pipeline must look each bound name up on netdesign.cli
    # when it runs, or the traced run would miss its spans
    tracing = _tracing()
    doc = tmp_path / "design.json"
    doc.write_text(json.dumps(candidate_set_to_json(
        materialize("counterexample", {"costing": "greenshields"}).candidate_set)))
    originals = {(module, attr): getattr(module, attr) for module, attr, *_ in tracing.BINDINGS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root(0), contextlib.redirect_stdout(io.StringIO()):
            codes = [nd_cli.main(["check", "--property", "supermodular", "--routing", "so",
                                  "--network", str(doc)]),
                     nd_cli.main(["solve", "--scenario", "counterexample", "--routing", "mc"])]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert {key: getattr(*key) for key in originals} == originals
    assert sorted(attr for module, attr in originals if module is nd_cli) == [
        "candidate_set_from_json", "check_monotonicity", "check_supermodularity",
        "greedy_designer", "lambda_eval", "load_file", "main", "solve_mc", "solve_so", "solve_ue"]

    names = [rec[tracing.NAME] for rec in tracer.spans]
    for name in ("cli.main", "jsonio.load", "design.check", "design.lambda_eval",
                 "routing.so", "routing.mc"):
        assert name in names
    assert names.count("cli.main") == 2
    assert names.count("jsonio.load") == 2  # load_file, then candidate_set_from_json
