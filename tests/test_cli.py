import dataclasses
import hashlib
import json
import sys

import pytest

from netdesign import cli, design, simplex
from netdesign.cli import emit_plot_data, main
from netdesign.jsonio import instance_to_json
from netdesign.scenarios import materialize


def run(argv):
    return main(argv)


def _no_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def read_report(path):
    """A report parsed by a strict JSON reader: NaN and Infinity are errors."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def test_solve_pigou_ue(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["solve", "--scenario", "pigou", "--routing", "ue", "--out", str(out)])
    assert code == 0
    assert "total_cost=1.000000" in capsys.readouterr().out
    report = read_report(out)
    assert report["format_version"] == 3
    assert report["results"]["total_cost"] == pytest.approx(1.0)
    assert report["results"]["path_flows"]["0-2-3"] == pytest.approx(1.0)


def test_solve_mc_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["solve", "--scenario", "counterexample", "--routing", "mc", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["results"]["certificate"]["satisfied"] is True
    assert report["results"]["total_cost"] == pytest.approx(5.0)  # every candidate added


def test_solve_braess_so(capsys):
    code = run(["solve", "--scenario", "braess", "--routing", "so"])
    assert code == 0
    assert "total_cost=498.000000" in capsys.readouterr().out


def test_solve_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["solve", "--scenario", "counterexample", "--routing", "so",
                    "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    read_report(a)


def test_check_supermodular_counterexample(tmp_path, capsys):
    out = tmp_path / "check.json"
    csv_path = tmp_path / "check.csv"
    code = run(["check", "--property", "supermodular", "--scenario", "counterexample",
                "--routing", "mc", "--out", str(out), "--csv", str(csv_path)])
    assert code == 0
    assert "VIOLATED" in capsys.readouterr().out
    report = read_report(out)
    first = report["results"]["witnesses"][0]
    assert first["subset_a"] == []
    assert first["subset_b"] == [1]
    assert first["x"] == 0
    assert first["x_name"] == "orange"
    assert first["margin"] == pytest.approx(-2.0)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "subset_bitmask,subset_names,routing,lambda_value"
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert values == [9.0, 9.0, 7.0, 5.0]


def test_check_expectation_gate():
    base = ["check", "--property", "supermodular", "--scenario", "counterexample",
            "--routing", "mc"]
    assert run(base + ["--expect", "violated"]) == 0
    assert run(base + ["--expect", "holds"]) == 1


def test_check_monotone_braess_ue():
    code = run(["check", "--property", "monotone", "--scenario", "braess",
                "--routing", "ue", "--expect", "violated"])
    assert code == 0


def test_lambda_subset(tmp_path):
    out = tmp_path / "lambda.json"
    code = run(["lambda", "--scenario", "counterexample", "--routing", "mc",
                "--subset", "1", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["results"]["value"] == pytest.approx(7.0)
    assert report["results"]["subset_names"] == "blue"


def test_lambda_so_defaults_to_greenshields(capsys):
    code = run(["lambda", "--scenario", "counterexample", "--routing", "so"])
    assert code == 0
    assert "30.0000" in capsys.readouterr().out


def test_lambda_bad_subset():
    assert run(["lambda", "--scenario", "counterexample", "--routing", "mc",
                "--subset", "7"]) == 64


@pytest.mark.parametrize("subset, index", [("7", 7), ("-1", -1), ("7,-1", 7), ("0,2", 2)])
def test_lambda_subset_out_of_range_names_the_first_bad_index(capsys, subset, index):
    assert run(["lambda", "--scenario", "counterexample", "--routing", "mc",
                "--subset", subset]) == 64
    assert capsys.readouterr().err == (
        f"netdesign: error: candidate index {index} out of range (0..1)\n")


def test_design_greedy(tmp_path, capsys):
    out = tmp_path / "design.json"
    code = run(["design", "--scenario", "counterexample", "--routing", "mc",
                "--budget", "2", "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["results"]["picks"] == [1, 0]
    assert report["results"]["values"] == [9.0, 7.0, 5.0]
    assert report["results"]["best_value"] == pytest.approx(5.0)


def test_scenario_list(capsys):
    assert run(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("braess", "pigou", "counterexample", "parallel"):
        assert name in out


def test_malformed_network_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["solve", "--network", str(bad), "--routing", "so"]) == 64


def test_missing_network_file(tmp_path):
    assert run(["solve", "--network", str(tmp_path / "nope.json"), "--routing", "so"]) == 64


def test_unknown_scenario_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(["solve", "--scenario", "nonesuch", "--routing", "so"])
    assert err.value.code == 64


def test_bad_param_value():
    assert run(["solve", "--scenario", "braess", "--routing", "ue",
                "--param", "with_edge=maybe"]) == 64


@pytest.mark.parametrize("argv, message", [
    (["--scenario", "parallel", "--param", "n=3", "--param", "n=5"],
     "--param key 'n' given more than once"),
    (["--scenario", "braess", "--param", "with_edge=true", "--param", "with_edge=false"],
     "--param key 'with_edge' given more than once"),
    (["--network", "NETWORK", "--param", "n=5", "--param", "bogus=1"], "--param needs --scenario"),
    (["--network", "NETWORK", "--param", "bogus"], "--param needs --scenario"),
], ids=["repeated-n", "repeated-with_edge", "network-with-params", "network-with-malformed-param"])
def test_param_can_not_silently_change_the_run(tmp_path, capsys, pigou, argv, message):
    # a repeated key used to override the earlier value, and a network
    # file used to ignore every --param
    path = tmp_path / "pigou.json"
    path.write_text(json.dumps(instance_to_json(pigou.instance.network, pigou.instance.trips)))
    out = tmp_path / "report.json"
    argv = [str(path) if a == "NETWORK" else a for a in argv]
    assert run(["solve", "--routing", "ue", *argv, "--out", str(out)]) == 64
    assert capsys.readouterr() == ("", f"netdesign: error: {message}\n")
    assert not out.exists()


def test_network_file_solve(tmp_path, pigou):
    doc = instance_to_json(pigou.instance.network, pigou.instance.trips)
    path = tmp_path / "pigou.json"
    path.write_text(json.dumps(doc))
    code = run(["solve", "--network", str(path), "--routing", "ue",
                "--out", str(tmp_path / "r.json")])
    assert code == 0
    report = read_report(tmp_path / "r.json")
    assert report["results"]["total_cost"] == pytest.approx(1.0)


def test_design_document_check(tmp_path):
    from netdesign.design import candidate_set_to_json

    cs = materialize("counterexample", {"costing": "mc"}).candidate_set
    path = tmp_path / "design.json"
    path.write_text(json.dumps(candidate_set_to_json(cs)))
    code = run(["check", "--property", "supermodular", "--network", str(path),
                "--routing", "mc", "--expect", "violated"])
    assert code == 0


def test_design_document_solve_routes_the_full_union(tmp_path):
    # only solve builds the union of all members; lambda and check do not
    from netdesign.design import candidate_set_to_json

    cs = materialize("counterexample", {"costing": "mc"}).candidate_set
    path = tmp_path / "design.json"
    path.write_text(json.dumps(candidate_set_to_json(cs)))
    assert run(["solve", "--network", str(path), "--routing", "mc",
                "--out", str(tmp_path / "solve.json")]) == 0
    assert run(["lambda", "--network", str(path), "--routing", "mc", "--subset", "0,1",
                "--out", str(tmp_path / "lambda.json")]) == 0
    solved = read_report(tmp_path / "solve.json")["results"]["total_cost"]
    full = read_report(tmp_path / "lambda.json")["results"]["value"]
    assert solved == full == pytest.approx(5.0)


@pytest.mark.parametrize("member", ["spanning_tree", "candidate"])
def test_design_document_with_many_path_member_exits_as_usage(tmp_path, capsys, member):
    # a 6x6 bidirectional grid holds more paths than DEFAULT_PATH_LIMIT;
    # as a member it is invalid, which is an input error, not a solver one
    from netdesign.costs import Constant
    from netdesign.jsonio import design_to_json
    from netdesign.network import Trip, build_grid_template

    grid = build_grid_template(6, 6, Constant(1.0), 10.0).network
    line = [(c, c + 1) for c in range(5)] + [(r * 6 + 5, r * 6 + 11) for r in range(5)]
    tree, candidate = (grid.edge_pairs, line) if member == "spanning_tree" else (
        line, grid.edge_pairs)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design_to_json(grid, [Trip(0, 35, 1.0)], tree, [(0, candidate)])))
    assert run(["check", "--property", "monotone", "--network", str(path),
                "--routing", "mc"]) == 64
    assert "expected exactly one path, found more than one" in capsys.readouterr().err


@pytest.mark.parametrize("extra, message", [
    ([3, 0], "candidate 0 edge (3, 0) is not in the template"),
    ([0, 2], "candidate 0 edge (0, 2) is listed twice"),
])
def test_design_document_with_bad_member_edge_exits_as_usage(tmp_path, capsys, extra, message):
    from netdesign.design import candidate_set_to_json

    doc = candidate_set_to_json(materialize("braess").candidate_set)
    doc["candidates"][0]["edges"].append(extra)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    assert run(["check", "--property", "monotone", "--network", str(path),
                "--routing", "ue"]) == 64
    assert capsys.readouterr().err == f"netdesign: error: {message}\n"


def test_instance_only_command_needs_candidates(tmp_path, pigou):
    doc = instance_to_json(pigou.instance.network, pigou.instance.trips)
    path = tmp_path / "pigou.json"
    path.write_text(json.dumps(doc))
    assert run(["lambda", "--network", str(path), "--routing", "ue"]) == 64


def _document(kind):
    from netdesign.design import candidate_set_to_json

    if kind == "instance":
        pigou = materialize("pigou")
        return instance_to_json(pigou.instance.network, pigou.instance.trips)
    return candidate_set_to_json(materialize("braess").candidate_set)


@pytest.mark.parametrize("kind", ["instance", "design"])
@pytest.mark.parametrize("command", [
    ["solve", "--routing", "so"],
    ["lambda", "--routing", "ue"],
    ["check", "--property", "monotone", "--routing", "mc"],
    ["design", "--routing", "so", "--budget", "1"],
])
def test_trip_off_the_network_exits_as_usage(tmp_path, capsys, kind, command):
    doc = _document(kind)
    doc["trips"][0]["sink"] = 99
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run([*command, "--network", str(path)]) == 64
    assert capsys.readouterr().err == "netdesign: error: trip 0 endpoint(s) [99] not in the nodes\n"


@pytest.mark.parametrize("kind", ["instance", "design"])
def test_empty_trip_list_exits_as_usage(tmp_path, capsys, kind):
    doc = _document(kind)
    doc["trips"] = []
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", "--routing", "so", "--network", str(path)]) == 64
    assert capsys.readouterr().err == "netdesign: error: trips must list at least one trip\n"


def test_solver_error_exit_code():
    code = run(["solve", "--scenario", "counterexample", "--routing", "so",
                "--max-iters", "1", "--gap-tol", "1e-12"])
    assert code == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy overflow warning escapes
@pytest.mark.parametrize("routing, field, value", [
    ("so", "demand", 1e300),
    ("ue", "demand", 1e300),
    ("ue", "b", 1e308),
    ("mc", "demand", 1e300),
])
def test_overflowing_solve_exits_as_solver_error(tmp_path, capsys, routing, field, value):
    # finite numbers whose objective overflows: the so/ue gap is NaN, which
    # used to pass for converged, and the mc total is inf; both used to
    # write Infinity into the report
    if routing == "mc":  # constant costs, and a cheapest path that fits
        from netdesign.costs import Constant
        from netdesign.network import Edge, Network, Trip

        net = Network({0, 1, 2}, [Edge(0, 1, Constant(1e10)), Edge(1, 2, Constant(1e10)),
                                  Edge(0, 2, Constant(3e10))])
        doc = instance_to_json(net, (Trip(0, 2, 1.0),))
    else:
        braess = materialize("braess")
        doc = instance_to_json(braess.instance.network, braess.instance.trips)
    if field == "demand":
        doc["trips"][0]["demand"] = value
    else:
        doc["edges"][0]["cost"]["b"] = value  # the affine edge (0, 1)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "solve.json"
    assert run(["solve", "--routing", routing, "--network", str(path), "--out", str(out)]) == 2
    assert "solver error: no convergence" in capsys.readouterr().err
    assert not out.exists()


def test_simplex_pivot_budget_exits_as_solver_error(tmp_path, monkeypatch, capsys):
    # the cheap route's capacity is below the demand, so the start does not
    # fit and the solve reaches the simplex; built-in mc scenarios fit
    from netdesign.costs import Constant
    from netdesign.network import Edge, Network, Trip

    net = Network({0, 1, 2, 3}, [
        Edge(0, 1, Constant(1.0), 1.0), Edge(1, 3, Constant(1.0), 1.0),
        Edge(0, 2, Constant(3.0), 10.0), Edge(2, 3, Constant(3.0), 10.0)])
    path = tmp_path / "split.json"
    path.write_text(json.dumps(instance_to_json(net, (Trip(0, 3, 2.0),))))
    monkeypatch.setattr(simplex, "PIVOTS_PER_ROW", 0)
    code = run(["solve", "--network", str(path), "--routing", "mc"])
    assert code == 2
    assert "solver error: no convergence" in capsys.readouterr().err


def test_uncertified_value_exits_as_solver_error(monkeypatch, capsys):
    # a verdict's tolerance assumes every value it compares is certified
    solve = design.solve_mc

    def uncertified(instance, cfg):
        result = solve(instance, cfg)
        return dataclasses.replace(result, certificate=dataclasses.replace(
            result.certificate, max_violation=0.5, satisfied=False))

    monkeypatch.setattr(design, "solve_mc", uncertified)
    code = run(["check", "--property", "supermodular", "--scenario", "counterexample",
                "--routing", "mc"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("netdesign: solver error: mc value of subset [] is not certified "
                          "(max_violation 5.000e-01, tolerance ")


def test_cached_parser_matches_fresh_parsers(tmp_path, capsys):
    # one parser serves every call in a process; a usage error leaves
    # nothing behind that changes the next call
    commands = [["solve", "--scenario", "pigou", "--routing", "xx"],
                ["solve", "--scenario", "pigou", "--routing", "ue"],
                ["check", "--property", "monotone", "--scenario", "braess", "--routing", "ue",
                 "--trials", "x"],
                ["check", "--property", "monotone", "--scenario", "braess", "--routing", "ue"]]

    def session(fresh):
        outputs = []
        for k, argv in enumerate(commands):
            if fresh:
                cli._parser.cache_clear()
            out = tmp_path / f"{fresh}-{k}.json"
            try:
                code = run(argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err,
                            out.read_bytes() if out.exists() else None))
        return outputs

    cached = session(False)
    assert cli._parser() is cli._parser()
    assert cached == session(True)
    assert [code for code, *_ in cached] == [64, 0, 64, 0]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays help out differently in other Python versions")
def test_help_texts_are_unchanged(monkeypatch, capsys):
    # the choices come from routing.ROUTINGS and scenarios.SCENARIO_NAMES;
    # the digest is of the help texts the literal choice tuples gave
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for command in ([], ["solve"], ["lambda"], ["check"], ["design"], ["scenario"]):
        with pytest.raises(SystemExit) as exc:
            run([*command, "--help"])
        assert exc.value.code == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "c94755ca0b5ec55a7c869c0ae99687c93ac32284caff2aafa0ebb133b532bafa"


# Reports of counterexample under mc: every value is an exact sum of
# constant edge costs, so the bytes depend on no BLAS or summation order.
PINNED_REPORTS = [
    (["solve"], "ddab0fff3dae3cd22da34786de71e540653ef707a2165b4d9a49f19fe6566241", None),
    (["lambda", "--subset", "1"],
     "dd7ee3353b9161ed7648de53a1232385b152b9d5335539e254f17e6451daefaf",
     "dd0e7b74b7e259231d53886b8b6c826c90c8ac6197afd2cee28bede92b06c6ac"),
    (["check", "--property", "monotone"],
     "456aca454258bc5d86cc427ef4531257af27a2e58ea3c18a602a3f2c5af3ca86",
     "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0"),
    (["check", "--property", "monotone", "--mode", "sampled", "--seed", "3", "--trials", "20"],
     "5d77e4428aef7686bc89cfcc7331bc2bb526ed30156c85fe294f684101d9705b",
     "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0"),
    (["check", "--property", "supermodular"],
     "9f769865612b52fd61e5dfd4b75fd038e5c0ea4a984b5732aa8ff6d12f1ca8ce",
     "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0"),
    (["check", "--property", "supermodular", "--mode", "sampled", "--seed", "3",
      "--trials", "20"],
     "44e6c08efc243dee2730914a580bf345fbe01ba7d6fb1aea693624e2b3deb57d",
     "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0"),
    (["design", "--budget", "2"],
     "416ccd86daefcc152f0046a3d335cf7561ce94bb65e57fb159c4711682a5895b",
     "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0"),
]


@pytest.mark.parametrize("command, report_sha, csv_sha", PINNED_REPORTS,
                         ids=["solve", "lambda", "monotone", "monotone-sampled", "supermodular",
                              "supermodular-sampled", "design"])
def test_report_bytes_are_pinned(tmp_path, command, report_sha, csv_sha):
    out, plot = tmp_path / "report.json", tmp_path / "report.csv"
    argv = [*command, "--routing", "mc", "--scenario", "counterexample",
            "--param", "costing=mc", "--out", str(out)]
    if csv_sha is not None:
        argv += ["--csv", str(plot)]
    assert run(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == report_sha
    if csv_sha is not None:
        assert hashlib.sha256(plot.read_bytes()).hexdigest() == csv_sha


def test_emit_plot_data_empty_report():
    assert emit_plot_data({}) == "subset_bitmask,subset_names,routing,lambda_value\n"


def test_csv_congestion_ladder(tmp_path):
    csv_path = tmp_path / "so.csv"
    code = run(["check", "--property", "supermodular", "--scenario", "counterexample",
                "--routing", "so", "--csv", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    targets = [30.0, 29.28, 27.47, 24.97]
    assert len(values) == 4
    for got, want in zip(values, targets):
        assert got == pytest.approx(want, abs=0.01)


def test_mc_on_flow_dependent_scenario_is_usage_error():
    assert run(["solve", "--scenario", "pigou", "--routing", "mc"]) == 64


def test_check_parallel_scenario_via_cli(tmp_path):
    code = run(["check", "--property", "supermodular", "--scenario", "parallel",
                "--routing", "ue", "--param", "n=5", "--expect", "holds",
                "--out", str(tmp_path / "parallel.json")])
    assert code == 0
    report = read_report(tmp_path / "parallel.json")
    assert report["results"]["verdict"] == "HOLDS"
    assert report["params"] == {"n": 5, "l": 1.0, "v_max": 1.0, "u": 10.0, "d": 5.0}


@pytest.mark.parametrize("demand", ["1" + "0" * 400, "1" + "0" * 5000],
                         ids=["past-float-range", "past-int-digit-limit"])
def test_oversized_number_is_format_error(tmp_path, capsys, demand):
    # float() overflows on the first and json's int() refuses the second;
    # both used to escape as exceptions
    text = ('{"nodes": [0, 1], "edges": [{"from": 0, "to": 1, "cost": {"kind": '
            '"constant", "c": 1.0}, "capacity": "inf"}], "trips": [{"source": 0, '
            '"sink": 1, "demand": ' + demand + '}]}')
    path = tmp_path / "huge.json"
    path.write_text(text)
    assert run(["solve", "--network", str(path), "--routing", "mc"]) == 64
    assert capsys.readouterr().err.startswith("netdesign: error: ")


def test_invalid_edge_capacity_is_format_error(tmp_path):
    doc = {
        "nodes": [0, 1],
        "edges": [{"from": 0, "to": 1,
                   "cost": {"kind": "constant", "c": 1.0}, "capacity": 0}],
        "trips": [{"source": 0, "sink": 1, "demand": 1.0}],
    }
    path = tmp_path / "zero_cap.json"
    path.write_text(json.dumps(doc))
    assert run(["solve", "--network", str(path), "--routing", "mc"]) == 64


def test_exit_codes_driving_the_binary(tmp_path):
    import subprocess
    import sys

    def invoke(*argv):
        return subprocess.run([sys.executable, "-m", "netdesign.cli", *argv],
                              capture_output=True, text=True)

    ok = invoke("solve", "--scenario", "pigou", "--routing", "ue")
    assert ok.returncode == 0
    assert "total_cost=1.000000" in ok.stdout

    expect = invoke("check", "--property", "supermodular", "--scenario",
                    "counterexample", "--routing", "mc", "--expect", "holds")
    assert expect.returncode == 1

    bad = tmp_path / "broken.json"
    bad.write_text("[1, 2")
    usage = invoke("solve", "--network", str(bad), "--routing", "so")
    assert usage.returncode == 64

    solver = invoke("solve", "--scenario", "counterexample", "--routing", "so",
                    "--max-iters", "1", "--gap-tol", "1e-12")
    assert solver.returncode == 2


def test_check_report_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run(["check", "--property", "supermodular", "--scenario",
                    "counterexample", "--routing", "so", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    read_report(a)


@pytest.mark.parametrize("prop", ["monotone", "supermodular"])
@pytest.mark.parametrize("option", ["--trials=0", "--trials=-3", "--trials=100001", "--tol=nan",
                                    "--tol=-1", "--tol=inf"])
def test_check_rejects_out_of_range_options(prop, option, tmp_path):
    # each used to print HOLDS over no comparisons, write a NaN tolerance,
    # or (past the trials cap) list every comparison before evaluating any
    out = tmp_path / "check.json"
    assert run(["check", "--property", prop, "--scenario", "counterexample", "--routing",
                "mc", "--mode", "sampled", option, "--out", str(out)]) == 64
    assert not out.exists()


def test_infinite_gap_tolerance_is_usage_error(tmp_path):
    out = tmp_path / "solve.json"
    assert run(["solve", "--scenario", "pigou", "--routing", "ue", "--gap-tol", "inf",
                "--out", str(out)]) == 64
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["solve", "--routing", "mc"], "--out"),
    (["check", "--property", "monotone", "--routing", "mc"], "--out"),
    (["check", "--property", "monotone", "--routing", "mc"], "--csv"),
])
def test_unwritable_report_path_exits_as_usage(tmp_path, capsys, argv, flag):
    target = tmp_path / "missing" / "report"
    assert run([*argv, "--scenario", "counterexample", flag, str(target)]) == 64
    assert capsys.readouterr().err.startswith(f"netdesign: error: cannot write {target}: ")



def _package_errors():
    import inspect

    from netdesign import errors

    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.NetdesignError) and cls is not errors.NetdesignError]


@pytest.mark.parametrize("cls", _package_errors(), ids=lambda cls: cls.__name__)
def test_error_class_decides_exit_code(monkeypatch, capsys, cls):
    from netdesign.errors import SolverError

    def fail(*args, **kwargs):
        exc = cls.__new__(cls)
        exc.args = ("injected",)
        raise exc

    monkeypatch.setattr(cli, "solve_so", fail)
    code = run(["solve", "--scenario", "pigou", "--routing", "so"])
    err = capsys.readouterr().err
    if issubclass(cls, SolverError):
        assert (code, err) == (2, "netdesign: solver error: injected\n")
    else:
        assert (code, err) == (64, "netdesign: error: injected\n")


def test_readme_lists_every_solver_error():
    import pathlib
    import re

    from netdesign.errors import SolverError

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    paragraph = re.search(r"\nExit codes:(.*?)\n\n", readme, re.S).group(1)
    listed = set(re.findall(r"`([A-Z]\w+)`", paragraph)) - {"SolverError"}
    solver = {cls.__name__ for cls in _package_errors()
              if issubclass(cls, SolverError) and cls is not SolverError}
    assert listed == solver
    assert len(solver) == 8


def _dead_end_grid(k):
    """A k x k two-way grid on node ids 10 onwards, as edge pairs."""
    from netdesign.costs import Constant
    from netdesign.network import build_grid_template

    grid = build_grid_template(k, k, Constant(1.0)).network
    return [(i + 10, j + 10) for i, j in grid.edge_pairs]


def _invoke_with_timeout(argv, seconds=20):
    import subprocess
    import sys

    return subprocess.run([sys.executable, "-m", "netdesign.cli", *argv],
                          capture_output=True, text=True, timeout=seconds)


def test_design_document_validation_skips_dead_end_region(tmp_path):
    # the grid hangs off the source by 0 -> 10 and reaches nothing else; the
    # tree's one path is 0 -> 1, and every grid node lies on no trip's path.
    # Enumerating the grid's simple paths to rule out a second one took 47 s
    # at k = 6
    k = 7
    pairs = [(0, 1), (0, 10)] + _dead_end_grid(k)
    doc = {
        "nodes": [0, 1] + list(range(10, 10 + k * k)),
        "edges": [{"from": i, "to": j, "cost": {"kind": "constant", "c": 1.0},
                   "capacity": "inf"} for i, j in pairs],
        "trips": [{"source": 0, "sink": 1, "demand": 1.0}],
        "spanning_tree": [list(p) for p in pairs],
        "candidates": [],
    }
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc))
    done = _invoke_with_timeout(["check", "--property", "monotone", "--routing", "mc",
                                 "--network", str(path)])
    assert done.returncode == 64
    stray = list(range(10, 10 + k * k))
    assert done.stderr == (f"netdesign: error: spanning_tree is invalid: "
                           f"nodes {stray} lie on no trip's path\n")


def test_pricing_backs_out_of_dead_end_region(tmp_path):
    # every edge costs 0 at the zero-flow start, so all are tight; from
    # node 1 the tie walk enters the grid (10 < 999), whose simple paths
    # all lead back to 1. Backing up through them took 52 s at k = 6
    k = 7
    pairs = [(0, 1), (1, 999), (1, 10), (10, 1)] + _dead_end_grid(k)
    doc = {
        "nodes": [0, 1, 999] + list(range(10, 10 + k * k)),
        "edges": [{"from": i, "to": j, "cost": {"kind": "affine", "a": 0.0, "b": 1.0},
                   "capacity": "inf"} for i, j in pairs],
        "trips": [{"source": 0, "sink": 999, "demand": 1.0}],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "solve.json"
    done = _invoke_with_timeout(["solve", "--routing", "ue", "--network", str(path),
                                 "--out", str(out)])
    assert done.returncode == 0
    assert read_report(out)["results"]["path_flows"] == {"0-1-999": 1.0}
