"""Rainbow source-target path search.

Two engines: a greedy rainbow tree that is complete whenever the family
has inner-count + k members and every k-union contains a source-target
path, and an exact search (Hall's count, a least-owner pass, then the
Kuhn-checked least owners after a stall) used to certify that no rainbow
path exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Mapping

from .core import _least_owners, _require_ints, _trusted
from .network import (Network, NetworkFamily, StPath, _network_of,
                      _path_ranks, _rank_paths)


@dataclass(frozen=True)
class RainbowStPath:
    """Source-target path whose arcs are represented by distinct members.

    representation maps arc position (0-based) to member position (1-based).
    """

    path: StPath
    representation: Mapping[int, int]

    def __post_init__(self) -> None:
        rep = dict(self.representation)
        _require_ints([*rep, *rep.values()], "an arc position or member")
        object.__setattr__(self, "representation", rep)
        if sorted(rep) != list(range(len(self.path.arcs))):
            raise ValueError("representation must cover every arc position")
        if len(set(rep.values())) != len(rep):
            raise ValueError("representation must use distinct members")


def verify_rainbow_path(nf: NetworkFamily, rp: RainbowStPath) -> bool:
    """Independent validity check: a source-target path through distinct
    network vertices whose arc positions 0 .. arcs - 1 are represented by
    distinct members (ints, not bools), each owning its arc."""
    ranks = _path_ranks(nf.network, rp.path)
    rep = rp.representation
    if ranks is None or len(rep) != len(ranks) - 1:
        return False
    size, masks = nf.network._size, nf.masks
    arcs, members = len(rep), len(masks)
    used = 0
    for j, m in rep.items():
        if (type(j) is not int or type(m) is not int
                or not 0 <= j < arcs or not 1 <= m <= members
                or used >> m & 1
                or not masks[m - 1] >> (ranks[j] * size + ranks[j + 1]) & 1):
            return False
        used |= 1 << m
    return True


@dataclass(frozen=True)
class GreedyStuck:
    """A maximal rainbow tree that never reached the target.

    tree maps each reached vertex to (parent, representing member);
    unrepresented lists the member positions left unused.
    """

    tree: Mapping
    unrepresented: tuple[int, ...]


@lru_cache(maxsize=32)
def _tree_masks(size: int) -> tuple[int, int]:
    """(arcs out of rank 0, arcs into rank 0) over size vertices."""
    return (1 << size) - 1, sum(1 << (u * size) for u in range(size))


def greedy_rainbow_tree(net: Network, nf: NetworkFamily) -> RainbowStPath | GreedyStuck:
    """Grow a rainbow tree from the source, one arc per unused member.

    Among extendable (member, arc) pairs the least (member position, arc
    rank) wins, so runs are reproducible.  Stops as soon as the target
    joins the tree, returning the source-target path inside the tree with
    its representation, or reports the stuck tree.
    """
    net = _network_of(net, nf)
    size = net._size
    target = size - 1
    row, column = _tree_masks(size)
    masks = nf.masks
    unused = list(range(1, len(masks) + 1))
    parent: dict[int, tuple[int, int]] = {}
    closed = column            # arcs into the tree
    frontier = row & ~closed   # arcs from the tree to vertices outside it
    while target not in parent:
        for pos in unused:
            hit = masks[pos - 1] & frontier
            if hit:
                break
        else:
            verts = net.vertices
            return GreedyStuck({verts[v]: (verts[u], m)
                                for v, (u, m) in parent.items()},
                               tuple(unused))
        u, v = divmod((hit & -hit).bit_length() - 1, size)
        parent[v] = (u, pos)
        unused.remove(pos)
        closed |= column << v
        frontier = (frontier | row << (v * size)) & ~closed
    ranks = [target]
    reps_reversed = []
    while ranks[-1]:
        up, member = parent[ranks[-1]]
        reps_reversed.append(member)
        ranks.append(up)
    # unchecked, as in both engines: verify_rainbow_path is the one check
    return _trusted(RainbowStPath, path=net._path(reversed(ranks)),
                    representation=dict(enumerate(reversed(reps_reversed))))


def exhaustive_rainbow_path(net: Network, nf: NetworkFamily) -> RainbowStPath | None:
    """Complete search; None means no rainbow source-target path exists.

    Deterministic: the least path by vertex ranks that admits any
    representation wins, carrying its lexicographically least
    representation (by member position, arc by arc).
    """
    net = _network_of(net, nf)
    size = net._size
    masks = nf.masks
    owners: dict[int, int] = {}   # arc bit -> mask of owning member positions
    for ranks in _rank_paths(reduce(or_, masks, 0), size):
        rows, anyone = [], 0
        for u, v in zip(ranks, ranks[1:]):
            bit = 1 << (u * size + v)
            own = owners.get(bit)
            if own is None:
                own = owners[bit] = sum([1 << pos for pos, m in
                                         enumerate(masks, start=1) if m & bit])
            rows.append(own)
            anyone |= own
        if anyone.bit_count() < len(rows):   # Hall's count
            continue
        rep, used = [], 0
        for own in rows:   # each arc takes its least unused owner
            low = own & ~used & -(own & ~used)
            if not low:   # stalled: the Kuhn kernel decides the least owners
                rep = _least_owners(rows)
                break
            used |= low
            rep.append(low.bit_length() - 1)
        if rep is not None:
            return _trusted(RainbowStPath, path=net._path(ranks),
                            representation=dict(enumerate(rep)))
    return None
