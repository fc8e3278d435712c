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


COUNTEREXAMPLE_MC = ["--routing", "mc", "--scenario", "counterexample", "--param", "costing=mc"]
SUPERMODULAR = ["check", "--property", "supermodular"]

# Reports of counterexample under mc: every value is an exact sum of
# constant edge costs, so the bytes depend on no BLAS or summation order.
PINNED_REPORTS = [
    pytest.param(["solve", *COUNTEREXAMPLE_MC],
                 "ddab0fff3dae3cd22da34786de71e540653ef707a2165b4d9a49f19fe6566241", None,
                 id="solve"),
    pytest.param(["lambda", "--subset", "1", *COUNTEREXAMPLE_MC],
                 "dd7ee3353b9161ed7648de53a1232385b152b9d5335539e254f17e6451daefaf",
                 "dd0e7b74b7e259231d53886b8b6c826c90c8ac6197afd2cee28bede92b06c6ac",
                 id="lambda"),
    pytest.param(["check", "--property", "monotone", *COUNTEREXAMPLE_MC],
                 "456aca454258bc5d86cc427ef4531257af27a2e58ea3c18a602a3f2c5af3ca86",
                 "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0",
                 id="monotone"),
    pytest.param(["check", "--property", "monotone", "--mode", "sampled", "--seed", "3",
                  "--trials", "20", *COUNTEREXAMPLE_MC],
                 "5d77e4428aef7686bc89cfcc7331bc2bb526ed30156c85fe294f684101d9705b",
                 "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0",
                 id="monotone-sampled"),
    pytest.param([*SUPERMODULAR, *COUNTEREXAMPLE_MC],
                 "9f769865612b52fd61e5dfd4b75fd038e5c0ea4a984b5732aa8ff6d12f1ca8ce",
                 "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0",
                 id="supermodular"),
    pytest.param(["check", "--property", "supermodular", "--mode", "sampled", "--seed", "3",
                  "--trials", "20", *COUNTEREXAMPLE_MC],
                 "44e6c08efc243dee2730914a580bf345fbe01ba7d6fb1aea693624e2b3deb57d",
                 "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0",
                 id="supermodular-sampled"),
    pytest.param(["design", "--budget", "2", *COUNTEREXAMPLE_MC],
                 "416ccd86daefcc152f0046a3d335cf7561ce94bb65e57fb159c4711682a5895b",
                 "8d9df440d73457285d88520709473f745247c0ae1f9db420206233eb911a8fa0",
                 id="design"),
]

# The exhaustive supermodularity check and lambda on the full subset of
# every design scenario under each routing it accepts, beyond those above;
# their so and ue values come from the Newton solves.
PINNED_REPORTS += [
    pytest.param([*SUPERMODULAR, "--routing", "so", "--scenario", "braess"],
                 "989bfcaa917cf77ccf637843e9d40efc55b019d65a31fe85344e4c5c6c38c3a5",
                 "6ccf2c12d06cfdabdaf8dc30a2a9c17720f17b0cbbc01db83a7a59a84588260a",
                 id="braess-so-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "so", "--scenario", "braess"],
                 "593eeb944db02ddaf47adc5e2387133d78039ff06420db1d6036e87beace2fb5",
                 "04bddaeb2483514721206242293177adbe59d7b4101b7c3c0ec0b417ff959cca",
                 id="braess-so-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "ue", "--scenario", "braess"],
                 "86b47f212ad4897a1cda6617fea452d7bf8ca9f0053b4c7983c012e3b9a3c5db",
                 "03e287a1aa4497daf94f46d495748146dd896b6598dedbd6fa295a850a4fb80a",
                 id="braess-ue-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "ue", "--scenario", "braess"],
                 "dd5981a5a95e47dfb1657ec0eed380e534a51a72c912fb750c30107622eadc86",
                 "d2301a91b178af991635e9ab1b06db9cd27eff6af677f53a8335557a8e0ca6ef",
                 id="braess-ue-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "mc", "--scenario", "fig3"],
                 "5a0f432bdf6e14997f13d4ebcc569729502b5296311162e47fb118b3d5621bfe",
                 "9851f41cdcb56b72ddfa09fd0caf8859991fa3f47a9ecb9b4e5db00e2cf0b5ac",
                 id="fig3-mc-supermodular"),
    pytest.param(["lambda", "--subset", "0", "--routing", "mc", "--scenario", "fig3"],
                 "08f5e862d10bd3f06f709ad2a79add9ffab44bfb53a6a6b8391f4e896b36f83a",
                 "dbe8bc0db6258a83c09bdba8d34f578116eb68635959817307c75be0548e49da",
                 id="fig3-mc-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "so", "--scenario", "fig3"],
                 "c2ab892ab8735ac0ab01e504b024ff7b5c4d8c8903d4c72321c028584ec2c560",
                 "0328e2cc1b110155730bfecb2ee4aa2ee504590e496c4b23c58935b1fd15f8cc",
                 id="fig3-so-supermodular"),
    pytest.param(["lambda", "--subset", "0", "--routing", "so", "--scenario", "fig3"],
                 "d9ca0cf030d258681e5ff97ee008f084ab33f70f9b0744744f621dccfdc62e1a",
                 "774b5dcbd6ecfd407a2c65be006b9228f8d672ae13cac97f292944ef6bde9522",
                 id="fig3-so-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "ue", "--scenario", "fig3"],
                 "2aa03e16da1e275604fa924de4d97ac13d845a32b7347678af032dc851a3cdc5",
                 "148df258b896e15c70e482ace8d4fbf15a8580f699b977a850c3f029427c3355",
                 id="fig3-ue-supermodular"),
    pytest.param(["lambda", "--subset", "0", "--routing", "ue", "--scenario", "fig3"],
                 "1fc744b8085d4099d9e0cf7312dbd8686c3cc2fc062fcb898e8df9bac778eb2f",
                 "d70fe453a7d9bb7467e7e5c5e8e3e6a2fb65aa8400ac22472e853c906d6cefae",
                 id="fig3-ue-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "mc", "--scenario", "fig4"],
                 "ea301d6302a933dcf3c5b1ed2f4316434a1d0b5f0eb1748aa680bcc6a6d090a5",
                 "f1a857faed6b8cb324156e51e690959edf1e883a446edfac7f3af87f80db63bd",
                 id="fig4-mc-supermodular"),
    pytest.param(["lambda", "--subset", "0", "--routing", "mc", "--scenario", "fig4"],
                 "8efbd2f0c216614f9f6c7f74aa536b4b3295cc6f11bbd3059e7d031db6f88f95",
                 "f0c5b1ffb27a6817d025555261ebdc1e191da033826a1df5ff75772a5c7aa4d0",
                 id="fig4-mc-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "so", "--scenario", "fig4"],
                 "b8660a4d4945495a02b65b1928aecf6cd28af5cba7e7d1539ca2de5ae0cbc700",
                 "f5f3bdda36eee5f62d2ee2d974d11394d8bffe7c368099aa05724c7e77676e9a",
                 id="fig4-so-supermodular"),
    pytest.param(["lambda", "--subset", "0", "--routing", "so", "--scenario", "fig4"],
                 "cb5fbc0d858ab329fccefa263cd74745b033e55b098349ded0989fbd4f52ae56",
                 "6c296efc0d74d22a0d805bfd33666b5ac14d83aba4f861fa8b5e547329da7121",
                 id="fig4-so-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "ue", "--scenario", "fig4"],
                 "8924c15e7f97927d4e4122e127708951ba35b6c95d93b3c43c04594bb10652d4",
                 "4edddd562228c9485bfddae9efa48e24a94076e56f095d42e8256c9313d6a845",
                 id="fig4-ue-supermodular"),
    pytest.param(["lambda", "--subset", "0", "--routing", "ue", "--scenario", "fig4"],
                 "06d7e0d606068c8a709d29eb4b9821e55b281df3391fabb0f1e623b2edd683c1",
                 "051eb94b874478a619f57b4078affaafd5f6603174ab702a72104334edc2a0fe",
                 id="fig4-ue-lambda-full"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "mc", "--scenario", "counterexample",
                  "--param", "costing=mc"],
                 "534104b99b89760933e2b5d5022ce11a0a9bb5e866ea2e9d3f49863d8425df1b",
                 "439af651ff440ae70e18049dc4bdfa6d8ff249b5cd3c85b522c32a2e508c798f",
                 id="counterexample-mc-mc-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "so", "--scenario", "counterexample",
                  "--param", "costing=mc"],
                 "d7d742178f6b5f5d968449bb0c61d6017416794c704d072c77b83130ce8ce585",
                 "e49d5c82bcd05586398495bf1cfb4ce44b2c114a35cebfe9159b707d978d3d45",
                 id="counterexample-mc-so-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "so", "--scenario", "counterexample",
                  "--param", "costing=mc"],
                 "7e652b87982fcf79e357ee6f26c1f6d9e58725f33a00ba93e6b7078531abc1e7",
                 "886e40e0783d2c958c9445fbcf20ab7d0548e7ddaad14b03284b9f92ddaa7499",
                 id="counterexample-mc-so-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "ue", "--scenario", "counterexample",
                  "--param", "costing=mc"],
                 "dac88491bd12a0cad5749198aafdc1da50686d9d239180c8586642346af94d75",
                 "d43855b1c00c086701f7be344e9d592f180a48ef2a93f028a85ca51af1842478",
                 id="counterexample-mc-ue-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "ue", "--scenario", "counterexample",
                  "--param", "costing=mc"],
                 "4c97c5330dea582a84625b7f9cdfac5328db166c780b73bf2c15fdf0096cdb16",
                 "c83f17d79560d9457b211007fbc57ab6c8c577f02d440fd349c0391ad0d9ccf1",
                 id="counterexample-mc-ue-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "so", "--scenario", "counterexample",
                  "--param", "costing=greenshields"],
                 "48d1c8f18652bcae5f2ee3ee0c11ba1257d20878aad1ae1bd118609b3b9af77c",
                 "39a17c796b7d77d49fcf427ca5c0980523218cf5546c209ef49429fd207a1c40",
                 id="counterexample-greenshields-so-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "so", "--scenario", "counterexample",
                  "--param", "costing=greenshields"],
                 "539883d2a4f85c9490883b89eb2a6d6f9f0450407b47bb5c0c15c0a1b41d14be",
                 "9948e4ec33252c24f7eeeb56e954d7fc37ef8a95d03d09e4e13d42829c869810",
                 id="counterexample-greenshields-so-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "ue", "--scenario", "counterexample",
                  "--param", "costing=greenshields"],
                 "1b7ecdb9b8f5acd8348908abca64e2c2df06620371807279ec2f4dded5dadb1c",
                 "1e043d382dbb6516b6858e73f306391a1e5ef5529567c64f2b67e7d5570dbaf1",
                 id="counterexample-greenshields-ue-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "ue", "--scenario", "counterexample",
                  "--param", "costing=greenshields"],
                 "0c9a5d9af3ba7f3be35418435410cbd10147e9d47899ccab8daee25b53d3fbdb",
                 "0a564006c78c5d62c4971fb8893579804c9f57baa9ece3c2992ddc4f2a2335bb",
                 id="counterexample-greenshields-ue-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "so", "--scenario", "parallel", "--param", "n=3"],
                 "b059279410e64853323a8d064b5f639652de16e3376b87e72c8c027946c3e342",
                 "fe029d60fb2c1ec63488a0e4fcd512e5d47da20de04f53a20ee6ddf821cd74d1",
                 id="parallel-3-so-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "so", "--scenario", "parallel",
                  "--param", "n=3"],
                 "0db527ab3c90d0b311c127a7225004a3421547df2b7249a3fdccc7e0d78e491c",
                 "a2af7d023191e774c36c1e74aec600a115bf87d17b612790cc1a4f16370318fb",
                 id="parallel-3-so-lambda-full"),
    pytest.param([*SUPERMODULAR, "--routing", "ue", "--scenario", "parallel", "--param", "n=3"],
                 "a6da27629bc04676dfb17b9690f846c13645855f2c53fd323ffef5d25eed8670",
                 "73a12929d795707a65f7df0601a48827b20f2dd98a86081e03da0162aeae1568",
                 id="parallel-3-ue-supermodular"),
    pytest.param(["lambda", "--subset", "0,1", "--routing", "ue", "--scenario", "parallel",
                  "--param", "n=3"],
                 "2026c2adf6bc9843f504ab2f3c3e3d403c0f2bb240fecf2af20a0d368863d062",
                 "83f6bacdfa855620e98004bae90c6a88d9f8e5f9d4ac656582fbd9a4b3eadbd8",
                 id="parallel-3-ue-lambda-full"),
]


@pytest.mark.parametrize("command, report_sha, csv_sha", PINNED_REPORTS)
def test_report_bytes_are_pinned(tmp_path, command, report_sha, csv_sha):
    out, plot = tmp_path / "report.json", tmp_path / "report.csv"
    argv = [*command, "--out", str(out)]
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
