"""File formats: bipartite and network instances, certificates, DOT export.

Bipartite instance:   {"left": int, "right": int, "sets": [[[a, b], ...], ...]}
Network instance:     {"inner": [vertex, ...], "sets": [[[u, v], ...], ...]}
Matching certificate: {"schema": "rainbow/1",
                       "assignment": [{"set": i, "edge": [a, b]}, ...],
                       "trail": [...]}
Regimentation cert.:  {"schema": "rainbow/1", "paths": [[vertex, ...], ...],
                       "assignment": {"member": path_index, ...}}

Vertices serialize as strings for labels and [a, b] pairs for matching
edges; the source and target are always "s" and "t".  Serialization is
canonical (sorted edges, two-space indent, LF endings, trailing newline)
so generate/parse/serialize round-trips are byte-identical.
"""

from __future__ import annotations

import json
from typing import Any

from .core import BipartiteGraph, Edge, EdgeFamily, RainbowMatching, _trusted
from .network import SOURCE, TARGET, Network, NetworkFamily, StPath
from .regiment import Regimentation, _backward_mask

SCHEMA = "rainbow/1"

# the most vertices an instance may declare on one side: the oracles
# allocate per-vertex tables, so a larger side only runs out of memory
_MAX_SIDE = 2 ** 16
# the most inner vertices a network instance may declare: a member mask
# holds about |V|**2 bits, so 2**10 keeps one mask under about 128 KiB
_MAX_INNER = 2 ** 10
# the most row entries a bipartite instance may need: the hypothesis check
# builds one row list of left + 1 entries per member
_MAX_ROWS = 2 ** 22
# the most mask bits a network instance may need: (inner + 2)**2 per member;
# conjecture_search refuses an edge table (edges squared bits) past it too
_MAX_MASK_BITS = 2 ** 28


class ParseError(ValueError):
    """An input file does not match its expected shape."""


class CertificateError(ValueError):
    """A certificate file is malformed."""


def dumps_canonical(payload: Any) -> str:
    """json.dumps(payload, indent=2) plus a newline, byte for byte; like
    json, it writes a tuple as a list.

    Any indent sends json to its pure-Python encoder, so the layout is
    written here: strings through json's C string encoder, exact ints by
    int.__repr__.  Everything else, a dict with a key json would convert
    included, goes to json.dumps with its newlines re-indented.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii


def _write(value: Any, indent: str, out: list[str]) -> None:
    """Append value's indent=2 text to out; indent is the newline and the
    spaces that start value's last line."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)) and len(value) == 2 \
            and type(value[0]) is int and type(value[1]) is int:
        # an edge, the commonest list in an instance, in one piece
        out.append(f"[{indent}  {value[0]},{indent}  {value[1]}{indent}]")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        opener = "[" + inner
        for item in value:
            out.append(opener)
            _write(item, inner, out)
            opener = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict) and value \
            and all(isinstance(key, str) for key in value):
        inner = indent + "  "
        opener = "{" + inner
        for key, item in value.items():
            out.append(opener + _encode_str(key) + ": ")
            _write(item, inner, out)
            opener = "," + inner
        out.append(indent + "}")
    else:
        # json writes no raw newline inside a string, so each one it
        # writes is layout
        out.append(json.dumps(value, indent=2).replace("\n", indent))


def _strict_int(raw: Any, what: str) -> int:
    """raw itself when it is a JSON integer; floats, booleans and strings are refused."""
    if type(raw) is not int:
        raise ParseError(f"{what} must be an integer, got {raw!r}")
    return raw


def _json_loads(text: str, error: type[ValueError] = ParseError) -> Any:
    """The JSON value in text; unreadable text raises error."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer past the digit limit;
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise error(f"invalid JSON: {exc}") from exc


# -- bipartite instances ----------------------------------------------------

def family_to_json(fam: EdgeFamily) -> dict:
    return {
        "left": fam.graph.left_size,
        "right": fam.graph.right_size,
        "sets": [[list(e) for e in sorted(s)] for s in fam.sets],
    }


def family_from_json(payload: Any) -> EdgeFamily:
    if not isinstance(payload, dict):
        raise ParseError("instance must be a JSON object")
    try:
        left = payload["left"]
        right = payload["right"]
        raw_sets = payload["sets"]
    except KeyError as exc:
        raise ParseError(f"instance is missing a field: {exc}") from exc
    left = _strict_int(left, "left")
    right = _strict_int(right, "right")
    if max(left, right) > _MAX_SIDE:
        raise ParseError(f"a side may hold at most {_MAX_SIDE} vertices")
    if not isinstance(raw_sets, list) or not raw_sets:
        raise ParseError("instance needs a nonempty list of sets")
    if len(raw_sets) * (left + 1) > _MAX_ROWS:
        raise ParseError(f"members times (left + 1) may be at most {_MAX_ROWS}")
    # one pass checks shape and integer type; the messages are built only
    # on the error path
    sets = []
    for idx, raw in enumerate(raw_sets, start=1):
        if not isinstance(raw, list):
            raise ParseError(f"set {idx} must be a list of edges")
        edges = set()
        for e in raw:
            if not (isinstance(e, list) and len(e) == 2):
                raise ParseError(f"set {idx} holds a malformed edge: {e!r}")
            a, b = e
            if type(a) is not int or type(b) is not int:
                _strict_int(a, f"set {idx} edge endpoint")
                _strict_int(b, f"set {idx} edge endpoint")
            edges.add((a, b))
        sets.append(frozenset(edges))
    try:
        graph = BipartiteGraph(left, right, frozenset().union(*sets))
        # int pairs, checked above, and the graph is the members' union
        return _trusted(EdgeFamily, graph=graph, sets=tuple(sets))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def family_dumps(fam: EdgeFamily) -> str:
    return dumps_canonical(family_to_json(fam))


def family_loads(text: str) -> EdgeFamily:
    return family_from_json(_json_loads(text))


# -- vertices and network instances -----------------------------------------

def vertex_to_json(v):
    return list(v) if isinstance(v, tuple) else v


def vertex_from_json(raw):
    if isinstance(raw, list):
        if len(raw) != 2:
            raise ParseError(f"malformed vertex: {raw!r}")
        return (_strict_int(raw[0], "vertex index"),
                _strict_int(raw[1], "vertex index"))
    if isinstance(raw, str):
        return raw
    raise ParseError(f"malformed vertex: {raw!r}")


def network_family_from_json(payload: Any) -> NetworkFamily:
    if not isinstance(payload, dict) or "inner" not in payload or "sets" not in payload:
        raise ParseError("network instance needs 'inner' and 'sets'")
    if not isinstance(payload["inner"], list) or not isinstance(payload["sets"], list):
        raise ParseError("network instance 'inner' and 'sets' must be lists")
    if len(payload["inner"]) > _MAX_INNER:
        raise ParseError(f"a network may hold at most {_MAX_INNER} inner vertices")
    if len(payload["sets"]) * (len(payload["inner"]) + 2) ** 2 > _MAX_MASK_BITS:
        raise ParseError("members times (inner + 2)**2 may be at most "
                         f"{_MAX_MASK_BITS}")
    inner = tuple(vertex_from_json(v) for v in payload["inner"])
    sets = []
    for idx, raw in enumerate(payload["sets"], start=1):
        if not isinstance(raw, list):
            raise ParseError(f"set {idx} must be a list of arcs")
        arcs = []
        for arc in raw:
            if not (isinstance(arc, list) and len(arc) == 2):
                raise ParseError(f"set {idx} holds a malformed arc: {arc!r}")
            arcs.append((vertex_from_json(arc[0]), vertex_from_json(arc[1])))
        sets.append(arcs)
    try:
        # the arcs in file order, so a bad file always reports the same arc
        net = Network(inner=inner, arcs=[arc for s in sets for arc in s])
        return NetworkFamily(net, sets)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_instance(text: str) -> EdgeFamily | NetworkFamily:
    """Parse either instance flavor, keyed on the fields present."""
    payload = _json_loads(text)
    if isinstance(payload, dict) and "inner" in payload:
        return network_family_from_json(payload)
    return family_from_json(payload)


# -- certificates ------------------------------------------------------------

def matching_certificate(rm: RainbowMatching, trail: list | None = None) -> dict:
    return {
        "schema": SCHEMA,
        "assignment": [{"set": i, "edge": list(e)}
                       for i, e in sorted(rm.assignment.items())],
        "trail": trail or [],
    }


def matching_from_certificate(payload: Any) -> RainbowMatching:
    if not isinstance(payload, dict) or not isinstance(payload.get("assignment"), list):
        raise CertificateError("matching certificate needs an 'assignment' list")
    assignment: dict[int, Edge] = {}
    for entry in payload["assignment"]:
        try:
            # unpacking refuses an edge of any other length than two
            a, b = entry["edge"]
            member = _strict_int(entry["set"], "set")
            edge = (_strict_int(a, "edge endpoint"), _strict_int(b, "edge endpoint"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed assignment entry: {entry!r}") from exc
        if member in assignment:
            raise CertificateError(f"member {member} appears twice")
        assignment[member] = edge
    try:
        return RainbowMatching(assignment)
    except ValueError as exc:
        raise CertificateError(str(exc)) from exc


def regimentation_certificate(r: Regimentation) -> dict:
    return {
        "schema": SCHEMA,
        "paths": [[vertex_to_json(v) for v in q.vertices] for q in r.paths],
        "assignment": {str(i): pos for i, pos in sorted(r.assignment.items())},
    }


def _member_key(raw: str) -> int:
    """A member position written as an object key: plain ASCII digits in
    canonical form, so " 1_0" or "+1" is refused, not read as 10 or 1."""
    if not (isinstance(raw, str) and raw.isascii() and raw.isdigit()
            and str(int(raw)) == raw):
        raise ParseError(f"member key must be a canonical decimal: {raw!r}")
    return int(raw)


def regimentation_from_certificate(payload: Any) -> Regimentation:
    if not isinstance(payload, dict) or "paths" not in payload or "assignment" not in payload:
        raise CertificateError("regimentation certificate needs 'paths' and 'assignment'")
    if not isinstance(payload["paths"], list) or not isinstance(payload["assignment"], dict):
        raise CertificateError("regimentation certificate needs a list of 'paths' "
                               "and an object as 'assignment'")
    for raw in payload["paths"]:
        if not isinstance(raw, list):
            raise CertificateError(f"a path must be a list of vertices, got {raw!r}")
    try:
        paths = tuple(StPath(tuple(vertex_from_json(v) for v in raw))
                      for raw in payload["paths"])
        assignment = {_member_key(i): _strict_int(pos, "path index")
                      for i, pos in payload["assignment"].items()}
    except (ParseError, TypeError, ValueError) as exc:
        raise CertificateError(str(exc)) from exc
    return Regimentation(paths, assignment)


# -- DOT export ---------------------------------------------------------------

def _dot_id(v) -> str:
    if v == SOURCE:
        return "s"
    if v == TARGET:
        return "t"
    if isinstance(v, tuple):
        return f"e_{v[0]}_{v[1]}"
    return str(v).replace('"', "")


def _dot_label(v) -> str:
    if isinstance(v, tuple):
        return f"a{v[0]}b{v[1]}"
    return str(v)


def network_dot(net: Network, regimentation: Regimentation | None = None) -> str:
    """Graphviz rendering; inner vertices are labeled by their matching
    edges, and arcs running backward along a certificate path are dashed."""
    backward = 0
    if regimentation is not None:
        # the certificate is not verified here: vertices the network lacks
        # are skipped, and arcs among the others are still marked
        for q in regimentation.paths:
            backward |= _backward_mask(
                net, [net._ranks[v] for v in q.vertices if v in net._ranks])
    lines = ["digraph network {", "  rankdir=LR;"]
    lines.append('  s [shape=circle, label="s"];')
    for v in net.inner:
        lines.append(f'  {_dot_id(v)} [shape=box, label="{_dot_label(v)}"];')
    lines.append('  t [shape=circle, label="t"];')
    for (u, v), bit in net._labels(net.mask):
        attrs = ""
        if bit & backward:
            attrs = ' [style=dashed, color=crimson, xlabel="backward"]'
        lines.append(f"  {_dot_id(u)} -> {_dot_id(v)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
