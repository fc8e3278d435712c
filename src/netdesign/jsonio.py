"""JSON instance and design-problem formats.

Instance documents carry exactly the keys ``nodes``, ``edges`` and
``trips``, with at least one trip and every trip's ends among the nodes;
design documents additionally allow ``spanning_tree`` (edge pair list)
and ``candidates``. Unknown keys are rejected everywhere so a typo cannot
silently change an experiment.
"""

from __future__ import annotations

import json
import math
from typing import Sequence, Tuple

from .costs import cost_from_json, cost_to_json, parse_number
from .errors import FormatError
from .network import Edge, Network, Trip


def _require_keys(obj: dict, required: Sequence[str], optional: Sequence[str] = (),
                  what: str = "object") -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be an object, got {type(obj).__name__}")
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise FormatError(f"unknown keys {sorted(extra)} in {what}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise FormatError(f"missing keys {missing} in {what}")


def _capacity_from_json(value) -> float:
    if value == "inf":
        return math.inf
    return parse_number(value, "capacity")


def _capacity_to_json(value: float):
    return "inf" if math.isinf(value) else value


def edge_from_json(obj) -> Edge:
    _require_keys(obj, ("from", "to", "cost", "capacity"), what="edge")
    tail = obj["from"]
    head = obj["to"]
    if not isinstance(tail, int) or not isinstance(head, int) or isinstance(tail, bool) or isinstance(head, bool):
        raise FormatError(f"edge endpoints must be integers, got {tail!r}, {head!r}")
    try:
        return Edge(tail, head, cost_from_json(obj["cost"]), _capacity_from_json(obj["capacity"]))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def edge_to_json(edge: Edge) -> dict:
    return {
        "from": edge.tail,
        "to": edge.head,
        "cost": cost_to_json(edge.cost),
        "capacity": _capacity_to_json(edge.capacity),
    }


def trip_from_json(obj) -> Trip:
    _require_keys(obj, ("source", "sink", "demand"), what="trip")
    for k in ("source", "sink"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool):
            raise FormatError(f"trip {k} must be an integer, got {obj[k]!r}")
    try:
        return Trip(obj["source"], obj["sink"], parse_number(obj["demand"], "demand"))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def trip_to_json(trip: Trip) -> dict:
    return {"source": trip.source, "sink": trip.sink, "demand": trip.demand}


def instance_from_json(obj, what: str = "instance",
                       optional: Sequence[str] = ()) -> Tuple[Network, Tuple[Trip, ...]]:
    """The network and trips of an instance document, or of a document
    (``what``) that also allows the ``optional`` keys."""
    _require_keys(obj, ("nodes", "edges", "trips"), optional=optional, what=what)
    if not isinstance(obj["nodes"], list):
        raise FormatError("nodes must be a list of integers")
    for n in obj["nodes"]:
        if not isinstance(n, int) or isinstance(n, bool):
            raise FormatError(f"node ids must be integers, got {n!r}")
    if not isinstance(obj["edges"], list) or not isinstance(obj["trips"], list):
        raise FormatError("edges and trips must be lists")
    try:
        net = Network(obj["nodes"], [edge_from_json(e) for e in obj["edges"]])
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    trips = tuple(trip_from_json(t) for t in obj["trips"])
    if not trips:
        raise FormatError("trips must list at least one trip")
    for m, trip in enumerate(trips):
        missing = [n for n in (trip.source, trip.sink) if n not in net.nodes]
        if missing:
            raise FormatError(f"trip {m} endpoint(s) {missing} not in the nodes")
    return net, trips


def instance_to_json(net: Network, trips: Sequence[Trip]) -> dict:
    return {
        "nodes": sorted(net.nodes),
        "edges": [edge_to_json(e) for e in net.edges],
        "trips": [trip_to_json(t) for t in trips],
    }


def _edge_pair_list(value, what: str) -> Tuple[Tuple[int, int], ...]:
    if not isinstance(value, list):
        raise FormatError(f"{what} must be a list of [from, to] pairs")
    pairs = []
    for item in value:
        if (not isinstance(item, list) or len(item) != 2
                or any(not isinstance(v, int) or isinstance(v, bool) for v in item)):
            raise FormatError(f"{what} entries must be [from, to] integer pairs, got {item!r}")
        pairs.append((item[0], item[1]))
    return tuple(pairs)


def design_from_json(obj):
    """Parse a design document into template, trips, tree edges and candidates.

    Returns ``(network, trips, tree_pairs, candidate_specs)`` where
    ``tree_pairs`` is None when absent and ``candidate_specs`` is a tuple of
    ``(trip_index, edge_pairs)``. Graph validation happens at a higher level
    where the candidate-set semantics live.
    """
    net, trips = instance_from_json(
        obj, what="design document", optional=("spanning_tree", "candidates"))
    tree_pairs = None
    if "spanning_tree" in obj:
        tree_pairs = _edge_pair_list(obj["spanning_tree"], "spanning_tree")
    specs = ()
    if "candidates" in obj:
        if not isinstance(obj["candidates"], list):
            raise FormatError("candidates must be a list")
        out = []
        for cand in obj["candidates"]:
            _require_keys(cand, ("trip", "edges"), what="candidate")
            if not isinstance(cand["trip"], int) or isinstance(cand["trip"], bool):
                raise FormatError(f"candidate trip must be an integer, got {cand['trip']!r}")
            if not 0 <= cand["trip"] < len(trips):
                raise FormatError(f"candidate trip {cand['trip']} out of range")
            out.append((cand["trip"], _edge_pair_list(cand["edges"], "candidate edges")))
        specs = tuple(out)
    return net, trips, tree_pairs, specs


def design_to_json(net: Network, trips: Sequence[Trip],
                   tree_pairs: Sequence[Tuple[int, int]],
                   candidate_specs: Sequence[Tuple[int, Sequence[Tuple[int, int]]]]) -> dict:
    doc = instance_to_json(net, trips)
    doc["spanning_tree"] = [list(p) for p in tree_pairs]
    doc["candidates"] = [
        {"trip": m, "edges": [list(p) for p in pairs]} for m, pairs in candidate_specs
    ]
    return doc


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past the digit limit of int()
        raise FormatError(f"invalid JSON: {exc}") from exc


def load_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
