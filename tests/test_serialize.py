import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowmatch import (BipartiteGraph, EdgeFamily, Network, NetworkFamily,
                          RainbowMatching, Regimentation, StPath,
                          build_network)
from rainbowmatch.generators import sharpness_family
from rainbowmatch.serialize import (CertificateError, ParseError,
                                    dumps_canonical, family_dumps,
                                    family_from_json, family_loads,
                                    load_instance,
                                    matching_certificate,
                                    matching_from_certificate,
                                    network_dot, network_family_from_json,
                                    regimentation_certificate,
                                    regimentation_from_certificate,
                                    vertex_from_json, vertex_to_json)

from .helpers import abstract_family, network_family_to_json


def test_vertex_codec():
    assert vertex_to_json("s") == "s"
    assert vertex_to_json((1, 2)) == [1, 2]
    assert vertex_from_json("v1") == "v1"
    assert vertex_from_json([1, 2]) == (1, 2)
    with pytest.raises(ParseError):
        vertex_from_json([1, 2, 3])
    with pytest.raises(ParseError):
        vertex_from_json(7)
    for raw in ([1.5, 2], [1, True], [False, 1]):
        with pytest.raises(ParseError):
            vertex_from_json(raw)


def test_family_round_trip():
    _, fam = sharpness_family(3, 3)
    text = family_dumps(fam)
    again = family_loads(text)
    assert again.sets == fam.sets
    assert family_dumps(again) == text


def test_family_parse_errors():
    with pytest.raises(ParseError):
        family_loads("[]")
    with pytest.raises(ParseError):
        family_loads(json.dumps({"left": 2, "right": 2}))
    with pytest.raises(ParseError):
        family_loads(json.dumps({"left": 2, "right": 2, "sets": []}))
    with pytest.raises(ParseError):
        family_loads(json.dumps({"left": 1, "right": 1, "sets": [[[1, 9]]]}))
    with pytest.raises(ParseError):
        family_loads(json.dumps({"left": 1, "right": 1, "sets": [[[1]]]}))
    # numbers are never coerced: floats, booleans and strings are refused
    for edge in ([1.9, 1], [True, 2], [1, 2.0], ["1", 1]):
        with pytest.raises(ParseError):
            family_loads(json.dumps({"left": 2, "right": 2, "sets": [[edge]]}))
    for left in (2.7, True, "2", None):
        with pytest.raises(ParseError):
            family_loads(json.dumps({"left": left, "right": 2, "sets": [[[1, 1]]]}))
    with pytest.raises(ParseError):
        family_loads(json.dumps({"left": 2, "right": 2.0, "sets": [[[1, 1]]]}))


def _random_payload(rng):
    left, right = rng.randint(1, 5), rng.randint(1, 5)
    edges = [[a, b] for a in range(1, left + 1) for b in range(1, right + 1)]
    sets = []
    for _ in range(rng.randint(1, 9)):
        roll = rng.random()
        if roll < 0.15:
            sets.append([])
        elif roll < 0.3 and sets:
            sets.append(list(rng.choice(sets)))     # a duplicate member
        else:
            member = rng.sample(edges, rng.randint(1, len(edges)))
            member += rng.sample(member, rng.randint(0, len(member)))  # repeats
            rng.shuffle(member)
            sets.append(member)
    return {"left": left, "right": right, "sets": sets}


def test_reader_matches_public_constructors():
    # the reader builds its family with core._trusted, skipping the
    # constructor's checks; the result must be the family the public
    # constructors build from the same JSON edges
    rng = random.Random(20260)
    duplicates = empties = 0
    for _ in range(400):
        payload = _random_payload(rng)
        raw = payload["sets"]
        public = EdgeFamily(
            BipartiteGraph(payload["left"], payload["right"],
                           [e for member in raw for e in member]),
            tuple(raw))
        read = family_from_json(payload)
        assert read == public
        assert hash(read) == hash(public)
        assert read.sets == public.sets and read.graph == public.graph
        assert all(type(a) is int and type(b) is int
                   for member in read.sets for a, b in member)
        duplicates += len(set(public.sets)) < len(public.sets)
        empties += frozenset() in public.sets
    assert duplicates and empties


_OK = [[1, 1], [2, 2]]


@pytest.mark.parametrize("bad_member, message", [
    ([[1, 2], [1.5, 1]], "set 2 edge endpoint must be an integer, got 1.5"),
    ([[1, 2], [1, 2.0]], "set 2 edge endpoint must be an integer, got 2.0"),
    ([[True, 1]], "set 2 edge endpoint must be an integer, got True"),
    ([[2, False]], "set 2 edge endpoint must be an integer, got False"),
    ([["1", 1]], "set 2 edge endpoint must be an integer, got '1'"),
    ([[1, "2"]], "set 2 edge endpoint must be an integer, got '2'"),
    ([[0.5, "x"]], "set 2 edge endpoint must be an integer, got 0.5"),
    ([[1, 2, 1]], "set 2 holds a malformed edge: [1, 2, 1]"),
    ([[1]], "set 2 holds a malformed edge: [1]"),
    ([7], "set 2 holds a malformed edge: 7"),
    ([[3, 1]], "edge (3, 1) lies outside the vertex ranges"),
    ([[1, 0]], "edge (1, 0) lies outside the vertex ranges"),
    ({"1": [1, 1]}, "set 2 must be a list of edges"),
    (None, "set 2 must be a list of edges"),
])
def test_family_parse_error_messages(bad_member, message):
    payload = {"left": 2, "right": 2, "sets": [_OK, bad_member]}
    with pytest.raises(ParseError) as info:
        family_from_json(payload)
    assert str(info.value) == message


def test_deeply_nested_json_is_a_parse_error():
    deep = "[" * 200_000 + "]" * 200_000
    for read in (family_loads, load_instance):
        with pytest.raises(ParseError, match="invalid JSON"):
            read(deep)


def test_load_instance_dispatch():
    fam = load_instance(json.dumps(
        {"left": 2, "right": 2, "sets": [[[1, 1]]]}))
    assert isinstance(fam, EdgeFamily)
    nf = load_instance(json.dumps(
        {"inner": ["v"], "sets": [[["s", "v"], ["v", "t"]]]}))
    assert isinstance(nf, NetworkFamily)
    assert nf.network.inner == ("v",)
    assert nf.sets[0] == {("s", "v"), ("v", "t")}


def test_network_family_round_trip():
    nf = abstract_family(("u", "v"),
                         [{("s", "u"), ("u", "v"), ("v", "t")}, {("v", "u")}])
    payload = network_family_to_json(nf)
    again = network_family_from_json(payload)
    assert again.sets == nf.sets
    assert again.network.inner == nf.network.inner
    assert network_family_to_json(again) == payload


def test_network_family_shape_errors():
    for payload in ({"inner": ["v"], "sets": None},
                    {"inner": "v", "sets": []},
                    {"inner": None, "sets": []},
                    {"inner": ["v"], "sets": [None]},
                    {"inner": [[1.0, 1]], "sets": []}):
        with pytest.raises(ParseError):
            network_family_from_json(payload)


def test_matching_certificate_round_trip():
    rm = RainbowMatching({3: (1, 2), 1: (2, 1)})
    payload = matching_certificate(rm, trail=[{"op": "swap"}])
    assert payload["schema"] == "rainbow/1"
    assert payload["assignment"][0] == {"set": 1, "edge": [2, 1]}
    again = matching_from_certificate(payload)
    assert again == rm
    with pytest.raises(CertificateError):
        matching_from_certificate({"assignment": [{"set": 1}]})
    with pytest.raises(CertificateError):
        matching_from_certificate(
            {"assignment": [{"set": 1, "edge": [1, 1]},
                            {"set": 2, "edge": [1, 1]}]})
    for entry in ({"set": 1, "edge": [1.9, 1]}, {"set": True, "edge": [1, 1]},
                  {"set": 1, "edge": 7}, {"set": 1, "edge": [1, 1, 77]},
                  {"set": 1, "edge": [1]}, {"set": 1, "edge": "11"}):
        with pytest.raises(CertificateError):
            matching_from_certificate({"assignment": [entry]})
    for assignment in (None, 5, {"1": [1, 1]}):
        with pytest.raises(CertificateError):
            matching_from_certificate({"assignment": assignment})
    # a repeated member was cut down to its last entry
    with pytest.raises(CertificateError, match="member 1 appears twice"):
        matching_from_certificate(
            {"assignment": [{"set": 1, "edge": [1, 1]},
                            {"set": 1, "edge": [2, 2]}]})


def test_regimentation_certificate_round_trip():
    reg = Regimentation((StPath(("s", (1, 1), "t")),), {2: 0})
    payload = regimentation_certificate(reg)
    assert payload["paths"] == [["s", [1, 1], "t"]]
    again = regimentation_from_certificate(payload)
    assert again == reg
    with pytest.raises(CertificateError):
        regimentation_from_certificate({"paths": [["s"]], "assignment": {}})
    with pytest.raises(CertificateError):
        regimentation_from_certificate({"assignment": {}})
    for bad in ({"paths": [["s", "t"]], "assignment": [[1, 0]]},
                {"paths": None, "assignment": {}},
                {"paths": [["s", [1, 1], "t"]], "assignment": {"2": 0.0}},
                {"paths": [["s", [1, 1], "t"]], "assignment": {" 1_0": 0}},
                {"paths": [["s", [1, 1], "t"]], "assignment": {"+\u0663": 0}},
                {"paths": [["s", [1, 1], "t"]], "assignment": {"02": 0}}):
        with pytest.raises(CertificateError):
            regimentation_from_certificate(bad)


def test_dot_output_is_deterministic():
    fam = EdgeFamily(
        load_instance(json.dumps({"left": 2, "right": 2,
                                  "sets": [[[1, 1]], [[2, 1], [1, 2]]]})).graph,
        (frozenset({(1, 1)}), frozenset({(2, 1), (1, 2)})))
    rm = RainbowMatching({1: (1, 1)})
    net = build_network(fam, rm).network
    dot = network_dot(net)
    assert dot == network_dot(net)
    assert 'e_1_1 [shape=box, label="a1b1"]' in dot
    assert dot.endswith("}\n")


def test_dot_of_a_labelled_network_dashes_its_backward_arc():
    net = Network(inner=("u", "v"),
                  arcs=[("s", "u"), ("u", "v"), ("v", "u"), ("v", "t")])
    reg = Regimentation((StPath(("s", "u", "v", "t")),), {})
    assert network_dot(net, reg) == (
        'digraph network {\n'
        '  rankdir=LR;\n'
        '  s [shape=circle, label="s"];\n'
        '  u [shape=box, label="u"];\n'
        '  v [shape=box, label="v"];\n'
        '  t [shape=circle, label="t"];\n'
        '  s -> u;\n'
        '  u -> v;\n'
        '  v -> u [style=dashed, color=crimson, xlabel="backward"];\n'
        '  v -> t;\n'
        '}\n')


def test_canonical_dump_has_lf_and_trailing_newline():
    text = dumps_canonical({"a": [1, 2]})
    assert "\r" not in text
    assert text.endswith("\n")


_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=True, allow_infinity=True), st.text())
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        # a non-str key sends the whole payload to json.dumps
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(),
                                  st.booleans(), st.none()), inner, max_size=3)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_payloads)
# two-item lists of exact ints take a path of their own
@example([1, 2])
@example((1, 2))
@example([True, 1])
@example([1.0, 2])
@example([2**70, -3])
@example({"sets": [[[1, 2], [3, 4]], []], "edge": (5, 6)})
def test_canonical_dump_is_json_dumps_with_indent_2(payload):
    assert dumps_canonical(payload) == json.dumps(payload, indent=2) + "\n"
