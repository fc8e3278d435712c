"""Documents and flags at the command line's front door: bounded fuzzes
and a long chain.

Small instance and design documents are mutated (keys deleted, values
swapped for other types, NaN, infinities and huge numbers, list entries
repeated, long chains), and the flags of each command on the built-in
scenarios are drawn from ordinary and odd values (NaN, infinities,
negatives, booleans, empty strings, values past a cap); each is run
through ``cli.main`` in-process. Every run must end in a documented exit
code; no exception may escape.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netdesign import cli
from netdesign.design import SAMPLED_TRIALS_CAP, candidate_set_to_json
from netdesign.jsonio import instance_to_json
from netdesign.scenarios import PARALLEL_ROUTES_CAP, materialize

EXIT_CODES = {0, 1, 2, 64}


def _seed_documents():
    docs = []
    for name, params in (("pigou", {}), ("braess", {})):
        s = materialize(name, params)
        docs.append(instance_to_json(s.instance.network, s.instance.trips))
    for name, params in (("counterexample", {"costing": "mc"}),
                         ("counterexample", {"costing": "greenshields"}),
                         ("fig3", {}), ("parallel", {"n": 3})):
        docs.append(candidate_set_to_json(materialize(name, params).candidate_set))
    return tuple(docs)


SEEDS = _seed_documents()

ODD_VALUES = (None, True, "x", [], {}, [0, 1], {"kind": "constant"}, math.nan,
              math.inf, -math.inf, 1e308, 10 ** 400, -1, 0, 0.5, 2 ** 63)


def chain(n, design):
    """A path 0 -> 1 -> ... -> n of edges with travel time 1 + x and one
    trip of demand 1 along it; as a design document the whole path is the
    spanning tree."""
    doc = {
        "nodes": list(range(n + 1)),
        "edges": [{"from": i, "to": i + 1, "cost": {"kind": "affine", "a": 1.0, "b": 1.0},
                   "capacity": "inf"} for i in range(n)],
        "trips": [{"source": 0, "sink": n, "demand": 1.0}],
    }
    if design:
        doc["spanning_tree"] = [[i, i + 1] for i in range(n)]
        doc["candidates"] = []
    return doc


def _spots(node):
    """(container, key) of every value inside the document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _spots(value)


@st.composite
def documents(draw):
    if draw(st.integers(0, 9)) == 0:
        doc = chain(draw(st.sampled_from((1, 40, 1500))), draw(st.booleans()))
    else:
        doc = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        spots = list(_spots(doc))
        if not spots:
            break
        container, key = draw(st.sampled_from(spots))
        action = draw(st.sampled_from(("delete", "replace", "repeat")))
        if action == "delete":
            del container[key]
        elif action == "repeat" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


COMMANDS = (
    ["solve", "--routing", "mc"],
    ["solve", "--routing", "so"],
    ["solve", "--routing", "ue"],
    ["lambda", "--routing", "ue", "--subset", "0"],
    ["check", "--property", "supermodular", "--routing", "mc"],
    ["design", "--routing", "so", "--budget", "1"],
)


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=documents(), command=st.sampled_from(COMMANDS))
def test_mutated_documents_exit_with_a_documented_code(tmp_path, doc, command):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main([*command, "--network", str(path), "--out", str(tmp_path / "out.json")])
    assert code in EXIT_CODES


def test_long_chain_design_document(tmp_path):
    # validating the 1,500-edge spanning tree walks the whole path, which a
    # recursive search could not
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain(1500, design=True)))
    out = tmp_path / "lambda.json"
    assert cli.main(["lambda", "--routing", "ue", "--network", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["value"] == 3000.0


# -- flag values ------------------------------------------------------------------

ODD_VALUES_OF_FLAGS = ("nan", "inf", "-inf", "-1", "0", "", "true", "x", "1e400", "1.5")
TRIALS_PAST_CAP = str(SAMPLED_TRIALS_CAP + 1)
ROUTES_PAST_CAP = (str(PARALLEL_ROUTES_CAP + 1), str(2 ** 63))

FLAG_VALUES = {
    "--gap-tol": ("1e-12", "1e-6", "0.5"),
    "--max-iters": ("1", "2", str(10 ** 30)),
    "--tol": ("1e-3", "10"),
    "--trials": ("1", "3", TRIALS_PAST_CAP),
    "--seed": ("7", str(2 ** 70)),
    "--budget": ("1", "2", "3"),
    "--subset": ("0", "1", "0,1", "1,0", "0,0", "7", ",", "0,,1", " "),
}
COMMAND_FLAGS = {
    "solve": ("--gap-tol", "--max-iters"),
    "lambda": ("--gap-tol", "--max-iters", "--subset"),
    "check": ("--gap-tol", "--max-iters", "--tol", "--trials", "--seed"),
    "design": ("--gap-tol", "--max-iters"),
}
SCENARIO_PARAMS = {
    "braess": ("with_edge=true", "with_edge=false"),
    "pigou": (),
    "fig3": (),
    "counterexample": ("costing=mc", "costing=greenshields"),
    "parallel": ("n=1", "n=2", "n=3", "d=9", "u=6", *(f"n={v}" for v in ROUTES_PAST_CAP)),
}
ODD_PARAMS = ("n=true", "n=false", "n=-1", "n=0", "n=nan", "n=2.0", "n=1e3", "d=nan", "d=inf",
              "d=-1", "d=true", "d=", "l=1e400", "v_max=x", "with_edge=1", "costing=so",
              "costing=", "=", "n", "oops=1")


@st.composite
def flag_lines(draw):
    """(argv, whether a value past a cap reaches its guard) for one command
    on a built-in scenario. Some of the command's flags are given, each
    with one of its ordinary values or, one time in four, an odd one, as
    ``--flag=value`` or as two arguments."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    scenario = draw(st.sampled_from(sorted(SCENARIO_PARAMS)))
    routing = draw(st.sampled_from(("mc", "so", "ue")))
    argv = [command, "--scenario", scenario, "--routing", routing]

    def value(choices, odd):
        return draw(st.sampled_from(choices if choices and draw(st.integers(0, 3)) else odd))

    flags = {flag: value(FLAG_VALUES[flag], ODD_VALUES_OF_FLAGS)
             for flag in COMMAND_FLAGS[command] if draw(st.booleans())}
    if command == "check":
        argv += ["--property", draw(st.sampled_from(("monotone", "supermodular")))]
        flags["--mode"] = draw(st.sampled_from(("exhaustive", "sampled")))
        flags["--expect"] = draw(st.sampled_from(("holds", "violated")))
    if command == "design":
        flags["--budget"] = value(FLAG_VALUES["--budget"], ODD_VALUES_OF_FLAGS)
    params = [value(SCENARIO_PARAMS[scenario], ODD_PARAMS) for _ in range(draw(st.integers(0, 2)))]
    for flag, text in [*flags.items(), *(("--param", p) for p in params)]:
        argv += [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]
    # a repeated --param key exits 64 before any scenario is built, so a
    # line whose last n is past the cap exits 64 whether or not n repeats
    n = dict(p.split("=", 1) for p in params if "=" in p).get("n")
    past_cap = ((scenario == "parallel" and n in ROUTES_PAST_CAP)
                or (flags.get("--mode") == "sampled" and flags.get("--trials") == TRIALS_PAST_CAP))
    return argv, past_cap


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(line=flag_lines())
def test_fuzzed_flags_exit_with_a_documented_code(tmp_path, line):
    argv, past_cap = line
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out.json")])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code in EXIT_CODES
    # a count past its cap is only ever seen rejected: the guards come
    # before any network is built or any comparison listed
    if past_cap:
        assert code == 64
