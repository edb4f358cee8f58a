"""Source-target networks over a rainbow matching.

A network built over a matching has the matching's edges as inner
vertices (a standalone network has string labels); each non-matching
graph edge of a family member turns into an arc, and source-target paths
correspond to augmenting alternating paths.  The source and target are
always SOURCE ("s") and TARGET ("t").  The module stops at arcs: an
arc's ends already tell which graph edges lie on it, and the solver
reads a member's edge back from them.

Inside, vertices are their ranks (source 0, inner vertices 1..r, target
r + 1) and arc (u, v) is bit rank(u) * |V| + rank(v) of an integer mask,
so ascending bits run in rank order.  A network is its inner vertices
plus the mask of its arcs, and a family member is one mask over them;
the frozenset views of arcs are built only where callers ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator

from .core import EdgeFamily, RainbowMatching, _trusted, is_valid_rainbow

SOURCE = "s"
TARGET = "t"


@dataclass(frozen=True, init=False)
class Network:
    """Digraph from SOURCE to TARGET through the inner vertices.

    No inner vertex is named SOURCE or TARGET, no arc enters the source,
    none leaves the target, and self-loops are rejected.  Vertex order
    (source, inner..., target) fixes the deterministic ranking used by
    every search in the package, and with it each arc's bit in mask (see
    the module docstring); arcs is the view of mask built on first use.
    """

    inner: tuple
    mask: int

    def __init__(self, inner, arcs) -> None:
        if isinstance(inner, str):
            raise ValueError("inner is a vertex sequence, not a string")
        inner, arcs = tuple(inner), tuple(arcs)
        if any(isinstance(arc, (str, set, frozenset)) for arc in arcs):
            raise ValueError("an arc is a (tail, head) pair, not a string or a set")
        arcs = dict.fromkeys((u, v) for u, v in arcs)  # in the caller's order
        if SOURCE in inner or TARGET in inner:
            raise ValueError("source and target cannot be inner vertices")
        if len(set(inner)) != len(inner):
            raise ValueError("inner vertices repeat")
        self.__dict__["inner"] = inner
        ranks, size = self._ranks, self._size
        for u, v in arcs:
            if u not in ranks or v not in ranks:
                raise ValueError(f"arc ({u!r}, {v!r}) leaves the vertex set")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if v == SOURCE:
                raise ValueError("no arc may enter the source")
            if u == TARGET:
                raise ValueError("no arc may leave the target")
        self.__dict__["mask"] = sum(1 << (ranks[u] * size + ranks[v]) for u, v in arcs)

    @cached_property
    def vertices(self) -> tuple:
        return (SOURCE, *self.inner, TARGET)

    @cached_property
    def _ranks(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _size(self) -> int:
        return len(self.inner) + 2

    @cached_property
    def arcs(self) -> frozenset:
        return frozenset(self._bit)

    @cached_property
    def _bit(self) -> dict:
        return dict(self._labels(self.mask))

    def _labels(self, mask: int) -> Iterator[tuple[tuple, int]]:
        """(arc, bit) for each set bit of mask, ascending: rank order."""
        verts, size = self.vertices, self._size
        while mask:
            low = mask & -mask
            mask ^= low
            u, v = divmod(low.bit_length() - 1, size)
            yield (verts[u], verts[v]), low

    def _path(self, ranks: Iterable[int]) -> "StPath":
        """The path through the vertices of the given ranks, unchecked:
        verify_rainbow_path and verify_regimentation check paths."""
        return _trusted(StPath, vertices=tuple(map(self.vertices.__getitem__, ranks)))


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


def _only_path(mask: int, size: int) -> tuple[int, ...] | None:
    """The ranks of the one source-target path over the arcs of mask, or
    None when there is no such path or more than one.

    A search from the source finds a path P.  Any other simple path misses
    an arc of P (a simple path holding every arc of P is P), so P is the
    only one exactly when deleting any one of its arcs cuts the target off.
    """
    row = (1 << size) - 1
    parent = [0] * size
    seen = todo = 1
    while todo:
        low = todo & -todo
        todo ^= low
        u = low.bit_length() - 1
        fresh = mask >> (u * size) & row & ~seen
        seen |= fresh
        todo |= fresh
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            parent[bit.bit_length() - 1] = u
    if not seen >> (size - 1) & 1:
        return None
    ranks = [size - 1]
    while ranks[-1]:
        ranks.append(parent[ranks[-1]])
    ranks.reverse()
    for u, v in zip(ranks, ranks[1:]):
        if _mask_has_path(mask & ~(1 << (u * size + v)), size):
            return None
    return tuple(ranks)


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
    built from the masks on first use.  origin maps member positions
    (1-based) to edge-family indices for families from build_network; it
    is None for families built from arc sets or masks.
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
        self.__dict__.update(network=network, masks=masks, origin=None)

    @classmethod
    def from_masks(cls, network: Network, masks: Iterable[int]) -> "NetworkFamily":
        """The family whose members are the given arc masks over network
        (bit rank(u) * |V| + rank(v) is the arc (u, v)).  Each mask must be
        a nonnegative int, not a bool, with no bit outside the network's
        arcs."""
        masks = tuple(masks)
        outside = ~network.mask
        for idx, mask in enumerate(masks, start=1):
            if type(mask) is not int or mask < 0:
                raise ValueError(
                    f"member {idx} must be a nonnegative int mask, got {mask!r}")
            if mask & outside:
                raise ValueError(f"member {idx} uses arcs outside the network")
        return _trusted(cls, network=network, masks=masks, origin=None)

    @cached_property
    def sets(self) -> tuple:
        net = self.network
        return tuple(frozenset(arc for arc, _ in net._labels(m)) for m in self.masks)

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


def build_network(fam: EdgeFamily, rm: RainbowMatching) -> NetworkFamily:
    """The unrepresented members as a family over the network of rm's
    matching; the network is the family's .network.

    The inner vertices are exactly the matching's edges.  Every non-matching
    edge of an unrepresented member becomes an arc: matched endpoints point
    at their matching edges, an unmatched A-endpoint contributes the source,
    an unmatched B-endpoint the target; (source, target) encodes a directly
    addable edge.  The family keeps only arc masks: an arc's ends tell
    which graph edges lie on it.
    """
    if not is_valid_rainbow(fam, rm):
        raise ValueError("not a valid rainbow matching of the family")
    inner = tuple(sorted(rm.edges))
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
    # rank-built masks off the diagonal: no arc into s, out of t or a loop
    net = _trusted(Network, inner=inner, mask=reduce(or_, masks, 0))
    return _trusted(NetworkFamily, network=net, masks=masks, origin=unrepresented)
