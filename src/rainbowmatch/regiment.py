"""Regimentation certificates and their structure theory.

A regimentation is a set of internally disjoint source-target paths
covering every network vertex, together with an assignment of "essential"
members onto the paths: each path with c arcs gets exactly c - 1 members,
each containing all of the path's arcs.  This module verifies such
certificates, builds the one the structure lemmas force, and turns the
structural consequences they must satisfy into executable checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Mapping

from .core import _require_ints
from .network import (SOURCE, TARGET, Network, NetworkFamily, StPath,
                      _mask_has_path, _network_of, _only_path, _path_ranks)
from .paths import exhaustive_rainbow_path


@dataclass(frozen=True)
class Regimentation:
    """Certificate: disjoint covering paths plus the essential assignment.

    assignment maps member position (1-based) to the index of its path in
    paths (0-based).
    """

    paths: tuple[StPath, ...]
    assignment: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        assignment = dict(self.assignment)
        _require_ints([*assignment, *assignment.values()],
                      "a member or path index")
        object.__setattr__(self, "assignment", assignment)


def _arc_mask(size: int, ranks) -> int:
    """Mask of the arcs joining consecutive ranks: a path's own arcs."""
    return sum(1 << (u * size + v) for u, v in zip(ranks, ranks[1:]))


def _backward_mask(net: Network, ranks) -> int:
    """Mask of the network arcs joining two of the path ranks against the
    path's direction."""
    back = earlier = 0
    for u in ranks:
        back |= earlier << (u * net._size)
        earlier |= 1 << u
    return back & net.mask


def _least_backward_arc(nf, reg, positions) -> tuple | None:
    """(position, path index, head spot, tail spot) of the least backward
    arc of the first member among positions that holds one, or None: bits
    ascend in rank order, and no arc enters s or leaves t, so a backward
    arc lies inside exactly one of reg's paths."""
    net = nf.network
    ranks = [_path_ranks(net, q) for q in reg.paths]
    backs = [_backward_mask(net, path) for path in ranks]
    every = reduce(or_, backs, 0)
    pos = next((p for p in sorted(positions) if nf.masks[p - 1] & every), None)
    if pos is None:
        return None
    bit = nf.masks[pos - 1] & every
    bit &= -bit
    index = next(i for i, back in enumerate(backs) if back & bit)
    tail, head = divmod(bit.bit_length() - 1, net._size)
    return pos, index, ranks[index].index(head), ranks[index].index(tail)


def _useless_mask(size: int, ranks) -> int:
    """Arcs from off-path inner vertices into the path's second vertex, and
    from its second-to-last vertex out to off-path inner vertices.

    This is the abstract set over the off-path vertices; it is not
    intersected with the arcs actually present, because callers use it as
    a containment mask.
    """
    into, out_of = ranks[1], ranks[-2]
    mask = 0
    for v in set(range(1, size - 1)).difference(ranks):
        mask |= 1 << (v * size + into) | 1 << (out_of * size + v)
    return mask


def verify_regimentation(net: Network, nf: NetworkFamily,
                         r: Regimentation) -> str | None:
    """None when the certificate is valid, else the first violated
    requirement: "paths" (not source-target paths through distinct
    network vertices), "disjoint", "assignment" (dangling references),
    then conditions "1" (vertex cover), "2" (arc containment), "3"
    (representative count).

    Path arcs need not belong to the network: condition 2 pins the arcs of
    every assigned path inside a member anyway, and a bare source-target
    path carrying no members is legitimate cover.
    """
    net = _network_of(net, nf)
    size = net._size
    ranks = [_path_ranks(net, q) for q in r.paths]
    if None in ranks:
        return "paths"
    ends = 1 | 1 << (size - 1)
    covered = 0
    for path in ranks:
        on_path = sum(1 << v for v in path)
        if covered & on_path & ~ends:
            return "disjoint"
        covered |= on_path
    for member, pos in r.assignment.items():
        if not 1 <= member <= len(nf) or not 0 <= pos < len(r.paths):
            return "assignment"
    if covered != (1 << size) - 1:
        return "1"
    needs = [_arc_mask(size, path) for path in ranks]
    for member, pos in r.assignment.items():
        if nf.masks[member - 1] & needs[pos] != needs[pos]:
            return "2"
    counts = Counter(r.assignment.values())
    for pos, path in enumerate(ranks):
        if counts.get(pos, 0) != len(path) - 2:
            return "3"
    return None


def find_regimentation(net: Network, nf: NetworkFamily) -> Regimentation | None:
    """Build the certificate the structure lemmas force; None when it does
    not verify.

    Without a rainbow source-target path, a member is essential exactly
    when it contains a source-target path, and it then contains exactly
    its assigned one.  So the members holding a single path, grouped by
    that path and ordered by the path's lowest-ranked interior vertex,
    are the only candidate; verify_regimentation decides.  While a
    rainbow path exists the result may be None even if some other
    certificate verifies.
    """
    net = _network_of(net, nf)
    if not net.inner:
        # the bare source-target path covers everything and carries no members
        return Regimentation((StPath((SOURCE, TARGET)),), {})
    groups: dict[tuple[int, ...], list[int]] = {}
    for member, mask in enumerate(nf.masks, start=1):
        path = _only_path(mask, net._size)
        if path is not None:
            groups.setdefault(path, []).append(member)
    order = sorted(groups, key=lambda ranks: min(ranks[1:-1], default=0))
    certificate = Regimentation(
        tuple(net._path(ranks) for ranks in order),
        {m: pos for pos, ranks in enumerate(order) for m in groups[ranks]})
    if verify_regimentation(net, nf, certificate) is not None:
        return None
    return certificate


@dataclass(frozen=True)
class StructureLemmaReport:
    """One boolean per structural consequence of a verified certificate.

    When the family still has a rainbow source-target path the
    consequences do not apply and every field past hypothesis_met is None.
    """

    hypothesis_met: bool
    counting_ok: bool | None = None
    backward_ok: bool | None = None
    only_path_ok: bool | None = None
    essential_iff_path_ok: bool | None = None

    @property
    def all_ok(self) -> bool:
        return (self.hypothesis_met
                and bool(self.counting_ok) and bool(self.backward_ok)
                and bool(self.only_path_ok) and bool(self.essential_iff_path_ok))


def check_structure_lemmas(net: Network, nf: NetworkFamily,
                           r: Regimentation) -> StructureLemmaReport:
    """Check, by enumeration, the consequences a verified certificate must
    satisfy when no rainbow source-target path exists:

    - counting: as many essential members as inner vertices;
    - backward: inessential members only hold backward arcs, and members
      assigned to a path stay inside its arcs, backward arcs, and the
      useless arcs around it;
    - only path: an essential member contains exactly its assigned path
      (network._only_path, by deleting the path's arcs one at a time);
    - essential iff path: a member is essential exactly when it contains a
      source-target path.

    The no-rainbow-path hypothesis is established by exhaustive search,
    never assumed; networks here come from files, so more than 8 inner
    vertices raise ValueError.
    """
    net = _network_of(net, nf)
    if verify_regimentation(net, nf, r) is not None:
        raise ValueError("certificate does not verify")
    if len(net.inner) > 8:
        raise ValueError(f"{len(net.inner)} inner vertices exceed the search bound 8")
    if exhaustive_rainbow_path(net, nf) is not None:
        return StructureLemmaReport(hypothesis_met=False)
    essential = set(r.assignment)
    counting_ok = len(essential) == len(net.inner)
    masks, size = nf.masks, net._size
    ranks = [_path_ranks(net, q) for q in r.paths]
    all_backward = reduce(or_, (_backward_mask(net, path) for path in ranks), 0)
    backward_ok = not any(mask & ~all_backward
                          for i, mask in enumerate(masks, start=1)
                          if i not in essential)
    for pos, path in enumerate(ranks):
        allowed = _arc_mask(size, path) | _useless_mask(size, path) | all_backward
        for member, target in r.assignment.items():
            if target == pos and masks[member - 1] & ~allowed:
                backward_ok = False
    only_path_ok = all(_only_path(masks[member - 1], size) == tuple(ranks[pos])
                       for member, pos in r.assignment.items())
    essential_iff = all((i in essential) == _mask_has_path(mask, size)
                        for i, mask in enumerate(masks, start=1))
    return StructureLemmaReport(True, counting_ok, backward_ok,
                                only_path_ok, essential_iff)
