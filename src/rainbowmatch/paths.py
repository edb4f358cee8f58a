"""Rainbow source-target path search.

Two engines: a greedy rainbow tree that is complete whenever the family
has inner-count + k members and every k-union contains a source-target
path, and an exhaustive backtracking oracle used to certify that no
rainbow path exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .network import (BoundExceeded, Network, NetworkFamily, StPath,
                      is_st_path, st_paths)


@dataclass(frozen=True)
class RainbowStPath:
    """Source-target path whose arcs are represented by distinct members.

    representation maps arc position (0-based) to member position (1-based).
    """

    path: StPath
    representation: Mapping[int, int]

    def __post_init__(self) -> None:
        rep = {int(j): int(m) for j, m in dict(self.representation).items()}
        object.__setattr__(self, "representation", rep)
        if sorted(rep) != list(range(len(self.path.arcs))):
            raise ValueError("representation must cover every arc position")
        if len(set(rep.values())) != len(rep):
            raise ValueError("representation must use distinct members")


def verify_rainbow_path(nf: NetworkFamily, rp: RainbowStPath) -> bool:
    """Independent validity check: a real source-target path over the
    network, injectively represented, every arc owned by its member."""
    if not is_st_path(nf.network, rp.path, require_arcs=False):
        return False
    arcs = rp.path.arcs
    members = list(rp.representation.values())
    if len(set(members)) != len(members):
        return False
    for j, m in rp.representation.items():
        if not 1 <= m <= len(nf) or arcs[j] not in nf.member(m):
            return False
    return True


@dataclass(frozen=True)
class GreedyStuck:
    """A maximal rainbow tree that never reached the target.

    tree maps each reached vertex to (parent, representing member);
    unrepresented lists the member positions left unused.
    """

    tree: Mapping
    unrepresented: tuple[int, ...]


def greedy_rainbow_tree(net: Network, nf: NetworkFamily) -> RainbowStPath | GreedyStuck:
    """Grow a rainbow tree from the source, one arc per unused member.

    Among extendable (member, arc) pairs the least (member position, arc
    rank) wins, so runs are reproducible.  Stops as soon as the target
    joins the tree, returning the source-target path inside the tree with
    its representation, or reports the stuck tree.
    """
    parent: dict = {}
    tree = {net.source}
    used: set[int] = set()
    while net.target not in tree:
        best = None
        for pos in range(1, len(nf) + 1):
            if pos in used:
                continue
            for arc in nf.member(pos):
                u, v = arc
                if u in tree and v not in tree:
                    key = (pos, net.arc_key(arc))
                    if best is None or key < best[0]:
                        best = (key, pos, arc)
        if best is None:
            left = tuple(sorted(set(range(1, len(nf) + 1)) - used))
            return GreedyStuck(dict(parent), left)
        _, pos, (u, v) = best
        parent[v] = (u, pos)
        tree.add(v)
        used.add(pos)
    verts = [net.target]
    reps_reversed = []
    while verts[-1] != net.source:
        up, member = parent[verts[-1]]
        reps_reversed.append(member)
        verts.append(up)
    verts.reverse()
    reps_reversed.reverse()
    return RainbowStPath(StPath(tuple(verts)),
                         {j: m for j, m in enumerate(reps_reversed)})


def exhaustive_rainbow_path(net: Network, nf: NetworkFamily,
                            bound: int = 8) -> RainbowStPath | None:
    """Complete search; None means no rainbow source-target path exists.

    Deterministic: the least path by vertex ranks that admits any
    representation wins, carrying its lexicographically least
    representation (by member position, arc by arc).
    """
    if len(net.inner) > bound:
        raise BoundExceeded(
            f"{len(net.inner)} inner vertices exceed the bound {bound}")
    owners: dict = {}
    for pos in range(1, len(nf) + 1):
        for arc in nf.member(pos):
            owners.setdefault(arc, []).append(pos)
    for p in st_paths(nf.union(), net):
        arcs = p.arcs
        used: set[int] = set()
        rep: dict[int, int] = {}

        def assign(j: int) -> bool:
            if j == len(arcs):
                return True
            for pos in owners.get(arcs[j], ()):
                if pos in used:
                    continue
                used.add(pos)
                rep[j] = pos
                if assign(j + 1):
                    return True
                used.discard(pos)
                del rep[j]
            return False

        if assign(0):
            return RainbowStPath(p, dict(rep))
    return None
