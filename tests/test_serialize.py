import json

import pytest

from rainbowmatch import (EdgeFamily, NetworkFamily, RainbowMatching,
                          Regimentation, StPath, build_network)
from rainbowmatch.generators import sharpness_family
from rainbowmatch.serialize import (CertificateError, ParseError,
                                    dumps_canonical, family_dumps,
                                    family_loads, load_instance,
                                    matching_certificate,
                                    matching_from_certificate,
                                    network_dot, network_family_from_json,
                                    network_family_to_json,
                                    regimentation_certificate,
                                    regimentation_from_certificate,
                                    vertex_from_json, vertex_to_json)

from .helpers import abstract_family


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


def test_load_instance_dispatch():
    fam = load_instance(json.dumps(
        {"left": 2, "right": 2, "sets": [[[1, 1]]]}))
    assert isinstance(fam, EdgeFamily)
    nf = load_instance(json.dumps(
        {"inner": ["v"], "sets": [[["s", "v"], ["v", "t"]]]}))
    assert isinstance(nf, NetworkFamily)
    assert nf.network.inner == ("v",)
    assert nf.member(1) == {("s", "v"), ("v", "t")}


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
    payload = matching_certificate(rm, trail=[{"op": "oracle"}])
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
                  {"set": 1, "edge": 7}):
        with pytest.raises(CertificateError):
            matching_from_certificate({"assignment": [entry]})
    for assignment in (None, 5, {"1": [1, 1]}):
        with pytest.raises(CertificateError):
            matching_from_certificate({"assignment": assignment})


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
    net, nf = build_network(fam.graph, fam, rm)
    dot = network_dot(net, nf)
    assert dot == network_dot(net, nf)
    assert 'e_1_1 [shape=box, label="a1b1"]' in dot
    assert dot.endswith("}\n")


def test_canonical_dump_has_lf_and_trailing_newline():
    text = dumps_canonical({"a": [1, 2]})
    assert "\r" not in text
    assert text.endswith("\n")
