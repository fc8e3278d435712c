"""Documents at the command line's front door: a bounded fuzz and a long
chain.

Small instance and design documents are mutated (keys deleted, values
swapped for other types, NaN, infinities and huge numbers, list entries
repeated, long chains) and run through ``cli.main`` in-process. Every run
must end in a documented exit code; no exception may escape.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from netdesign import cli
from netdesign.design import candidate_set_to_json
from netdesign.jsonio import instance_to_json
from netdesign.scenarios import materialize

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
