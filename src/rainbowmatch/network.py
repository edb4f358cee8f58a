"""Source-target networks over a rainbow matching.

A network built over a matching has the matching's edges as inner
vertices; each non-matching graph edge of a family member turns into an
arc, and source-target paths correspond to augmenting alternating paths.
The source and target are always SOURCE ("s") and TARGET ("t").  The
module stops at arcs: an arc's ends already tell which graph edges lie
on it, and the solver reads a member's edge back from them.

Inside, vertices are their ranks (source 0, inner vertices 1..r, target
r + 1) and arc (u, v) is bit rank(u) * |V| + rank(v) of an integer mask,
so ascending bits run in arc_key order.  A family member is one such
mask; the tuple and frozenset views are built only where callers ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator

from .core import Edge, EdgeFamily, RainbowMatching, is_valid_rainbow

SOURCE = "s"
TARGET = "t"

# Inner vertices are matching edges when the network is built over one,
# or plain string labels for standalone networks.
Vertex = str | Edge
Arc = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class Network:
    """Digraph from SOURCE to TARGET through the inner vertices.

    No inner vertex is named SOURCE or TARGET, no arc enters the source,
    none leaves the target, and self-loops are rejected.  Vertex order
    (source, inner..., target) fixes the deterministic ranking used by
    every search in the package, and with it each arc's bit (see the
    module docstring).
    """

    inner: tuple
    arcs: frozenset

    def __post_init__(self) -> None:
        if isinstance(self.inner, str):
            raise ValueError("inner is a vertex sequence, not a string")
        inner, arcs = tuple(self.inner), tuple(self.arcs)
        if any(isinstance(arc, (str, set, frozenset)) for arc in arcs):
            raise ValueError("an arc is a (tail, head) pair, not a string or a set")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "arcs", frozenset((u, v) for u, v in arcs))
        if SOURCE in inner or TARGET in inner:
            raise ValueError("source and target cannot be inner vertices")
        if len(set(inner)) != len(inner):
            raise ValueError("inner vertices repeat")
        verts = (SOURCE, *inner, TARGET)
        ranks = {v: i for i, v in enumerate(verts)}
        for u, v in self.arcs:
            if u not in ranks or v not in ranks:
                raise ValueError(f"arc ({u!r}, {v!r}) leaves the vertex set")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if v == SOURCE:
                raise ValueError("no arc may enter the source")
            if u == TARGET:
                raise ValueError("no arc may leave the target")
        size = len(verts)
        self._index(verts, ranks, {(u, v): 1 << (ranks[u] * size + ranks[v])
                                   for u, v in self.arcs})

    def _index(self, verts: tuple, ranks: dict, bits: dict) -> None:
        self.__dict__.update(_verts=verts, _ranks=ranks, _size=len(verts),
                             _bit=bits, _arc_mask=sum(bits.values()))

    @classmethod
    def _from_mask(cls, inner: tuple, mask: int) -> "Network":
        """The network over inner whose arcs are the set bits of mask.

        The checks are skipped: the caller derives mask from ranks and
        never sets a bit into the source, out of the target or on the
        diagonal.
        """
        verts = (SOURCE, *inner, TARGET)
        size = len(verts)
        bits = {}
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = divmod(low.bit_length() - 1, size)
            bits[(verts[u], verts[v])] = low
        net = object.__new__(cls)
        net.__dict__.update(inner=inner, arcs=frozenset(bits))
        net._index(verts, {v: i for i, v in enumerate(verts)}, bits)
        return net

    @property
    def vertices(self) -> tuple:
        return self._verts

    def rank(self, v) -> int:
        try:
            return self._ranks[v]
        except KeyError:
            raise ValueError(f"{v!r} is not a vertex of the network") from None

    def arc_key(self, arc) -> tuple[int, int]:
        return (self.rank(arc[0]), self.rank(arc[1]))

    def sorted_arcs(self, arcs: Iterable | None = None) -> list:
        pool = self.arcs if arcs is None else arcs
        return sorted(pool, key=self.arc_key)

    def _mask_over(self, arcs: Iterable) -> int:
        """Mask of any arcs between network vertices, network arcs or not."""
        size = self._size
        mask = 0
        for u, v in arcs:
            mask |= 1 << (self.rank(u) * size + self.rank(v))
        return mask

    def _arcs_of(self, mask: int) -> frozenset:
        return frozenset(arc for arc, bit in self._bit.items() if mask & bit)

    def _path(self, ranks: Iterable[int]) -> "StPath":
        """The path through the vertices of the given ranks, unchecked:
        verify_rainbow_path and verify_regimentation check paths."""
        path = object.__new__(StPath)
        path.__dict__["vertices"] = tuple(map(self._verts.__getitem__, ranks))
        return path


@lru_cache(maxsize=32)
def _powers(size: int) -> tuple[int, ...]:
    return tuple(1 << i for i in range(size * size))


def _mask_has_path(mask: int, size: int) -> bool:
    """Whether the arcs of mask join rank 0 to rank size - 1."""
    row = (1 << size) - 1
    seen = todo = 1
    while todo:
        low = todo & -todo
        todo ^= low
        fresh = mask >> ((low.bit_length() - 1) * size) & row & ~seen
        seen |= fresh
        todo |= fresh
    return bool(seen >> (size - 1) & 1)


def _rank_paths(mask: int, size: int) -> Iterator[tuple[int, ...]]:
    """Simple source-target paths over the arcs of mask, as vertex-rank
    tuples in lexicographic order."""
    row = (1 << size) - 1
    target = size - 1
    trail = [0]

    def walk(u: int, on_trail: int) -> Iterator[tuple[int, ...]]:
        heads = mask >> (u * size) & row & ~on_trail
        while heads:
            low = heads & -heads
            heads ^= low
            v = low.bit_length() - 1
            if v == target:
                yield (*trail, v)
            else:
                trail.append(v)
                yield from walk(v, on_trail | low)
                trail.pop()

    yield from walk(0, 1)


@dataclass(frozen=True)
class StPath:
    """Directed path given by its vertex sequence (source first, target last)."""

    vertices: tuple

    def __post_init__(self) -> None:
        if isinstance(self.vertices, str):
            raise ValueError("a path is a vertex sequence, not a string")
        verts = tuple(self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        if len(set(verts)) != len(verts):
            raise ValueError("a path may not repeat a vertex")

    @property
    def arcs(self) -> tuple:
        return tuple(zip(self.vertices, self.vertices[1:]))

    @property
    def interior(self) -> tuple:
        return self.vertices[1:-1]


def _path_ranks(net: Network, path: StPath) -> list[int] | None:
    """The ranks of path's vertices when it runs from the source to the
    target through distinct vertices of net, else None.  Its arcs need not
    be network arcs: certificate paths only need to live over the vertex
    set."""
    verts = path.vertices
    if len(verts) < 2 or verts[0] != SOURCE or verts[-1] != TARGET:
        return None
    ranks = net._ranks
    out = []
    seen = 0
    for v in verts:
        rank = ranks.get(v)
        if rank is None or seen >> rank & 1:
            return None
        seen |= 1 << rank
        out.append(rank)
    return out


@dataclass(frozen=True, init=False)
class NetworkFamily:
    """Ordered multiset of arc sets over a shared network.

    masks holds one arc mask per member; sets is the frozenset view,
    built on first use for families not given as sets.  origin maps member
    positions (1-based) to edge-family indices for families from
    build_network; it is None for families built from arc sets or masks.
    Every public function taking a network with a family refuses
    (ValueError) a network that is neither the family's nor equal to it.
    """

    network: Network
    masks: tuple[int, ...]
    origin: tuple[int, ...] | None

    def __init__(self, network: Network, sets) -> None:
        sets = tuple(frozenset(s) for s in sets)
        try:
            masks = tuple(sum(map(network._bit.__getitem__, s)) for s in sets)
        except KeyError:
            idx = next(i for i, s in enumerate(sets, start=1)
                       if not s <= network.arcs)
            raise ValueError(f"member {idx} uses arcs outside the network") from None
        self.__dict__.update(network=network, masks=masks, origin=None,
                             _sets=sets)

    @classmethod
    def from_masks(cls, network: Network, masks: Iterable[int]) -> "NetworkFamily":
        """The family whose members are the given arc masks over network
        (bit rank(u) * |V| + rank(v) is the arc (u, v)).  Each mask must be
        a nonnegative int, not a bool, with no bit outside the network's
        arcs."""
        masks = tuple(masks)
        outside = ~network._arc_mask
        for idx, mask in enumerate(masks, start=1):
            if type(mask) is not int or mask < 0:
                raise ValueError(
                    f"member {idx} must be a nonnegative int mask, got {mask!r}")
            if mask & outside:
                raise ValueError(f"member {idx} uses arcs outside the network")
        return cls._over(network, masks, None)

    @classmethod
    def _over(cls, network: Network, masks: tuple,
              origin: tuple | None) -> "NetworkFamily":
        """A family over masks of network arcs, unchecked."""
        nf = object.__new__(cls)
        nf.__dict__.update(network=network, masks=masks, origin=origin,
                           _sets=None)
        return nf

    @property
    def sets(self) -> tuple:
        if self._sets is None:
            self.__dict__["_sets"] = tuple(self.network._arcs_of(m)
                                           for m in self.masks)
        return self._sets

    def __len__(self) -> int:
        return len(self.masks)


def _network_of(net: Network, nf: NetworkFamily) -> Network:
    """nf's own network, when net is it or equal to it; any other network
    raises ValueError, because nf's masks are bits of its own network."""
    if net is not nf.network and net != nf.network:
        raise ValueError("the network is not the family's network")
    return nf.network


def has_st_path(arcs: Iterable, source=SOURCE, target=TARGET) -> bool:
    """Reachability over exactly the given arcs."""
    out: dict = {}
    for u, v in arcs:
        out.setdefault(u, set()).add(v)
    seen = {source}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in out.get(u, ()):
                if v == target:
                    return True
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return False


def build_network(fam: EdgeFamily,
                  rm: RainbowMatching) -> tuple[Network, NetworkFamily]:
    """Build the network over rm's matching for the unrepresented members.

    The inner vertices are exactly the matching's edges.  Every non-matching
    edge of an unrepresented member becomes an arc: matched endpoints point
    at their matching edges, an unmatched A-endpoint contributes the source,
    an unmatched B-endpoint the target; (source, target) encodes a directly
    addable edge.  The family keeps only arc masks: an arc's ends tell
    which graph edges lie on it.
    """
    if not is_valid_rainbow(fam, rm):
        raise ValueError("not a valid rainbow matching of the family")
    inner = tuple(sorted(rm.matching().edges))
    size = len(inner) + 2
    # edge (a, b) becomes bit a_row[a] + b_rank[b]: unmatched A-vertices
    # sit at the source's row, unmatched B-vertices at the target's column
    a_row = [0] * (fam.graph.left_size + 1)
    b_rank = [size - 1] * (fam.graph.right_size + 1)
    for rank, (a, b) in enumerate(inner, start=1):
        a_row[a] = rank * size
        b_rank[b] = rank
    powers = _powers(size)
    # exactly the matching edges land on the diagonal, as self-loops
    off_diagonal = ~sum(powers[rank * (size + 1)] for rank in range(1, size - 1))
    unrepresented = tuple(i for i in range(1, len(fam) + 1) if i not in rm.assignment)
    masks = []
    for i in unrepresented:
        mask = 0
        for a, b in fam.member(i):
            mask |= powers[a_row[a] + b_rank[b]]
        masks.append(mask & off_diagonal)
    masks = tuple(masks)
    net = Network._from_mask(inner, reduce(or_, masks, 0))
    nf = NetworkFamily._over(net, masks, unrepresented)
    return net, nf
