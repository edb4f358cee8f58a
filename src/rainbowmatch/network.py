"""Source-target networks over a rainbow matching.

A network built over a matching has the matching's edges as inner
vertices; each non-matching graph edge of a family member turns into an
arc, and source-target paths correspond to augmenting alternating paths.
The source and target are always SOURCE ("s") and TARGET ("t").  The
module also implements the symmetric-difference augmentation and the
repair of a doubly represented candidate.

Inside, vertices are their ranks (source 0, inner vertices 1..r, target
r + 1) and arc (u, v) is bit rank(u) * |V| + rank(v) of an integer mask,
so ascending bits run in arc_key order.  A family member is one such
mask; the tuple and frozenset views are built only where callers ask.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .core import (Edge, BipartiteGraph, EdgeFamily, RainbowMatching,
                   _as_edge, is_valid_rainbow)

SOURCE = "s"
TARGET = "t"

# Inner vertices are matching edges when the network is built over one,
# or plain string labels for standalone networks.
Vertex = str | Edge
Arc = tuple[Vertex, Vertex]


class BoundExceeded(RuntimeError):
    """Exhaustive search refused: the instance is above the size bound."""


class PreimageError(ValueError):
    """An arc has no recorded graph-edge witness for the chosen member."""


class RepresentationClash(Exception):
    """Two edges would represent the same member.

    Carries the raw (member, edge) pairs so the caller can repair the
    candidate with rectify_double_representation.
    """

    def __init__(self, member: int, pairs: Sequence[tuple[int, Edge]]):
        super().__init__(f"member {member} would be represented twice")
        self.member = member
        self.pairs = tuple(pairs)


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
        inner = tuple(self.inner)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "arcs", frozenset((u, v) for u, v in self.arcs))
        if SOURCE in inner or TARGET in inner:
            raise ValueError("source and target cannot be inner vertices")
        if len(set(inner)) != len(inner):
            raise ValueError("inner vertices repeat")
        verts = {SOURCE, *inner, TARGET}
        for u, v in self.arcs:
            if u not in verts or v not in verts:
                raise ValueError(f"arc ({u!r}, {v!r}) leaves the vertex set")
            if u == v:
                raise ValueError("self-loops are not allowed")
            if v == SOURCE:
                raise ValueError("no arc may enter the source")
            if u == TARGET:
                raise ValueError("no arc may leave the target")
        ranks = {v: i for i, v in enumerate((SOURCE, *inner, TARGET))}
        size = len(ranks)
        self._index(ranks, {(u, v): 1 << (ranks[u] * size + ranks[v])
                            for u, v in self.arcs})

    def _index(self, ranks: dict, bits: dict) -> None:
        self.__dict__.update(_ranks=ranks, _size=len(ranks), _bit=bits)

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
        net._index({v: i for i, v in enumerate(verts)}, bits)
        return net

    @property
    def vertices(self) -> tuple:
        return (SOURCE, *self.inner, TARGET)

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
        verts = self.vertices
        return StPath(tuple(verts[i] for i in ranks))


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


def is_st_path(net: Network, path: StPath) -> bool:
    """Whether path runs from the source to the target through inner
    vertices of net.  Its arcs need not be network arcs: certificate paths
    only need to live over the vertex set."""
    verts = path.vertices
    return (verts[0] == SOURCE and verts[-1] == TARGET
            and set(path.interior) <= set(net.inner))


@dataclass(frozen=True, init=False)
class NetworkFamily:
    """Ordered multiset of arc sets over a shared network.

    masks holds one arc mask per member; sets is the frozenset view.
    Families from build_network also carry preimages, mapping (member
    position, arc) to the graph edges producing the arc, and origin,
    mapping member positions back to the originating edge-family indices;
    both are None for families built from arc sets.  Positions are 1-based.
    """

    network: Network
    masks: tuple[int, ...]
    preimages: Mapping | None
    origin: tuple[int, ...] | None

    def __init__(self, network: Network, sets) -> None:
        sets = tuple(frozenset(s) for s in sets)
        try:
            masks = tuple(sum(map(network._bit.__getitem__, s)) for s in sets)
        except KeyError:
            idx = next(i for i, s in enumerate(sets, start=1)
                       if not s <= network.arcs)
            raise ValueError(f"member {idx} uses arcs outside the network") from None
        self._fill(network, masks, None, None, sets)

    def _fill(self, network, masks, preimages, origin, sets) -> None:
        self.__dict__.update(network=network, masks=masks, preimages=preimages,
                             origin=origin, _sets=sets)

    @classmethod
    def _over(cls, network: Network, masks: tuple, preimages: Mapping,
              origin: tuple) -> "NetworkFamily":
        """A family given by masks that hold network arcs only."""
        nf = object.__new__(cls)
        nf._fill(network, masks, preimages, origin, None)
        return nf

    @property
    def sets(self) -> tuple:
        if self._sets is None:
            self.__dict__["_sets"] = tuple(self.network._arcs_of(m)
                                           for m in self.masks)
        return self._sets

    def __len__(self) -> int:
        return len(self.masks)

    def member(self, position: int) -> frozenset:
        if not 1 <= position <= len(self.masks):
            raise IndexError(f"member position {position} out of range 1..{len(self.masks)}")
        return self.sets[position - 1]

    def union(self, positions: Iterable[int] | None = None) -> frozenset:
        chosen = self.sets if positions is None else [self.member(p) for p in positions]
        return frozenset().union(*chosen) if chosen else frozenset()


class _Preimages(Mapping):
    """(member position, arc) -> the member's graph edges that map onto the
    arc, read from the member on lookup; the keys are exactly the set bits
    of the masks."""

    def __init__(self, net: Network, masks: tuple, members: tuple,
                 a_row: list, b_rank: list):
        self._net, self._masks, self._members = net, masks, members
        self._a_row, self._b_rank = a_row, b_rank

    def __getitem__(self, key) -> frozenset:
        try:
            pos, arc = key
            mask = self._masks[pos - 1] if 1 <= pos <= len(self._masks) else 0
            bit = self._net._bit.get(arc, 0)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if not mask & bit:
            raise KeyError(key)
        index = bit.bit_length() - 1
        a_row, b_rank = self._a_row, self._b_rank
        return frozenset(h for h in self._members[pos - 1]
                         if a_row[h[0]] + b_rank[h[1]] == index)

    def __iter__(self) -> Iterator:
        for pos, mask in enumerate(self._masks, start=1):
            for arc, bit in self._net._bit.items():
                if mask & bit:
                    yield (pos, arc)

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self._masks)


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


def build_network(g: BipartiteGraph, fam: EdgeFamily,
                  rm: RainbowMatching) -> tuple[Network, NetworkFamily]:
    """Build the network over rm's matching for the unrepresented members.

    The inner vertices are exactly the matching's edges.  Every non-matching
    edge of an unrepresented member becomes an arc: matched endpoints point
    at their matching edges, an unmatched A-endpoint contributes the source,
    an unmatched B-endpoint the target; (source, target) encodes a directly
    addable edge.  The graph-edge witnesses of a (member, arc) pair are
    read from the member on lookup in preimages.
    """
    if g != fam.graph:
        raise ValueError("graph does not match the family's ambient graph")
    if not is_valid_rainbow(fam, rm):
        raise ValueError("not a valid rainbow matching of the family")
    inner = tuple(sorted(rm.matching().edges))
    size = len(inner) + 2
    # edge (a, b) becomes bit a_row[a] + b_rank[b]: unmatched A-vertices
    # sit at the source's row, unmatched B-vertices at the target's column
    a_row = [0] * (g.left_size + 1)
    b_rank = [size - 1] * (g.right_size + 1)
    for rank, (a, b) in enumerate(inner, start=1):
        a_row[a] = rank * size
        b_rank[b] = rank
    powers = _powers(size)
    # exactly the matching edges land on the diagonal, as self-loops
    off_diagonal = ~sum(powers[rank * (size + 1)] for rank in range(1, size - 1))
    unrepresented = tuple(i for i in range(1, len(fam) + 1) if i not in rm.assignment)
    members = tuple(fam.member(i) for i in unrepresented)
    masks = []
    for s in members:
        mask = 0
        for a, b in s:
            mask |= powers[a_row[a] + b_rank[b]]
        masks.append(mask & off_diagonal)
    masks = tuple(masks)
    net = Network._from_mask(inner, reduce(or_, masks, 0))
    nf = NetworkFamily._over(net, masks,
                             _Preimages(net, masks, members, a_row, b_rank),
                             unrepresented)
    return net, nf


@dataclass(frozen=True)
class AlternatingPath:
    """Path in the bipartite graph with vertices tagged ("A", i) or ("B", j).

    Sides alternate; edges at even positions are the non-matching ones when
    the path augments a matching.
    """

    vertices: tuple

    def __post_init__(self) -> None:
        verts = tuple((str(side), int(i)) for side, i in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("an alternating path needs at least two vertices")
        if len(set(verts)) != len(verts):
            raise ValueError("an alternating path may not repeat a vertex")
        for (s1, _), (s2, _) in zip(verts, verts[1:]):
            if s1 not in ("A", "B") or s2 not in ("A", "B") or s1 == s2:
                raise ValueError("sides must alternate between A and B")

    def edges(self) -> tuple[Edge, ...]:
        out = []
        for (s1, i1), (_, i2) in zip(self.vertices, self.vertices[1:]):
            out.append((i1, i2) if s1 == "A" else (i2, i1))
        return tuple(out)

    def new_edges(self) -> tuple[Edge, ...]:
        return self.edges()[0::2]

    def matched_edges(self) -> tuple[Edge, ...]:
        return self.edges()[1::2]


def alternating_from_edges(edges: Sequence[Edge],
                           rm: RainbowMatching) -> AlternatingPath:
    """Assemble the alternating path whose non-matching edges are the given
    sequence, consecutive ones linked through rm's matching edges.

    Validates that the walk starts at an unmatched A-vertex, ends at an
    unmatched B-vertex, and that each link is an actual matching edge.
    """
    if not edges:
        raise ValueError("need at least one edge")
    edges = [_as_edge(e) for e in edges]
    matched = rm.matching().edges
    a_owner = {e[0]: e for e in matched}
    b_owner = {e[1]: e for e in matched}
    if edges[0][0] in a_owner:
        raise ValueError("path must start at an unmatched A-vertex")
    if edges[-1][1] in b_owner:
        raise ValueError("path must end at an unmatched B-vertex")
    for prev, nxt in zip(edges, edges[1:]):
        link = b_owner.get(prev[1])
        if link is None or link[0] != nxt[0]:
            raise ValueError("consecutive edges are not joined by a matching edge")
    verts = []
    for a, b in edges:
        verts.extend([("A", a), ("B", b)])
    return AlternatingPath(tuple(verts))


def path_to_alternating(p: StPath, nf: NetworkFamily, rep: Mapping[int, int],
                        rm: RainbowMatching,
                        chosen: Mapping[int, Edge] | None = None) -> AlternatingPath:
    """Translate a source-target path into an augmenting alternating path.

    rep maps each arc position (0-based) of p to the 1-based member
    position owning that arc.  The graph edge realizing an arc defaults to
    the lexicographically least recorded preimage and can be pinned per
    position through chosen.
    """
    arcs = p.arcs
    if sorted(rep) != list(range(len(arcs))):
        raise ValueError("rep must cover every arc position exactly once")
    members = list(rep.values())
    if len(set(members)) != len(members):
        raise ValueError("rep must use pairwise distinct members")
    if nf.preimages is None:
        raise PreimageError("family has no recorded preimages")
    edges = []
    for j, arc in enumerate(arcs):
        pool = nf.preimages.get((rep[j], arc), frozenset())
        if not pool:
            raise PreimageError(f"no preimage recorded for member {rep[j]} on arc {arc}")
        if chosen is not None and j in chosen:
            e = _as_edge(chosen[j])
            if e not in pool:
                raise PreimageError(f"edge {e} is not a recorded preimage of arc {arc}")
        else:
            e = min(pool)
        edges.append(e)
    return alternating_from_edges(edges, rm)


def augment(rm: RainbowMatching, alt: AlternatingPath,
            new_reps: Sequence[int]) -> RainbowMatching:
    """Symmetric difference of rm's matching with an augmenting path.

    new_reps lists, in path order, the member represented by each new edge.
    Members whose matching edge disappears lose their representation.  The
    result is one edge larger; if some member would end up represented
    twice a RepresentationClash is raised, carrying the candidate pairs so
    the caller can rectify first.
    """
    edges = alt.edges()
    if len(edges) % 2 == 0:
        raise ValueError("an augmenting path has an odd number of edges")
    new, old = edges[0::2], edges[1::2]
    matched = rm.matching().edges
    if not set(old) <= matched:
        raise ValueError("every other edge must belong to the matching")
    if set(new) & matched:
        raise ValueError("new edges must avoid the matching")
    side0, i0 = alt.vertices[0]
    side1, i1 = alt.vertices[-1]
    if side0 != "A" or side1 != "B":
        raise ValueError("an augmenting path runs from the A-side to the B-side")
    if i0 in {e[0] for e in matched} or i1 in {e[1] for e in matched}:
        raise ValueError("path endpoints must be unmatched")
    reps = tuple(int(i) for i in new_reps)
    if len(reps) != len(new):
        raise ValueError("need exactly one representative per new edge")
    removed = set(old)
    pairs = [(i, e) for i, e in sorted(rm.assignment.items()) if e not in removed]
    pairs += list(zip(reps, new))
    counts = Counter(i for i, _ in pairs)
    doubled = sorted(i for i, c in counts.items() if c > 1)
    if doubled:
        raise RepresentationClash(doubled[0], pairs)
    result = RainbowMatching(dict(pairs))
    if len(result) != len(rm) + 1:
        raise ValueError("augmentation must grow the matching by exactly one")
    return result


@dataclass(frozen=True)
class RectifyCycle:
    """Repair cycle for a doubly represented candidate.

    chord joins the A-side of the last matched edge in the run to the
    B-side of the first one; run_edges[j] bridges matched_run[j] and
    matched_run[j+1]; run_members represent the run edges after the toggle.
    """

    chord: Edge
    chord_member: int
    matched_run: tuple[Edge, ...]
    run_edges: tuple[Edge, ...]
    run_members: tuple[int, ...]


def rectify_double_representation(pairs: Sequence[tuple[int, Edge]],
                                  cycle: RectifyCycle) -> RainbowMatching:
    """Toggle the repair cycle on a candidate with one doubled member.

    The doubled member keeps only its edge outside the cycle's matched run,
    which must contain the other copy; size is preserved.
    """
    pairs = [(int(i), _as_edge(e)) for i, e in pairs]
    counts = Counter(i for i, _ in pairs)
    doubled = sorted(i for i, c in counts.items() if c > 1)
    if len(doubled) != 1 or counts[doubled[0]] != 2:
        raise ValueError("exactly one member must be represented exactly twice")
    run = tuple(_as_edge(e) for e in cycle.matched_run)
    bridge = tuple(_as_edge(e) for e in cycle.run_edges)
    chord = _as_edge(cycle.chord)
    if len(run) < 2 or len(bridge) != len(run) - 1 or len(cycle.run_members) != len(bridge):
        raise ValueError("cycle data sizes are inconsistent")
    if chord != (run[-1][0], run[0][1]):
        raise ValueError("chord does not close the cycle")
    for j, e in enumerate(bridge):
        if e != (run[j][0], run[j + 1][1]):
            raise ValueError("run edge does not bridge its matched pair")
    held = {e for _, e in pairs}
    if not set(run) <= held:
        raise ValueError("the matched run must lie inside the candidate")
    if ({chord} | set(bridge)) & held:
        raise ValueError("the cycle's new edges are already present")
    drop = set(run)
    out = [(i, e) for i, e in pairs if e not in drop]
    out.append((int(cycle.chord_member), chord))
    out.extend((int(i), e) for i, e in zip(cycle.run_members, bridge))
    after = Counter(i for i, _ in out)
    if any(c > 1 for c in after.values()):
        raise ValueError("cycle members collide with surviving representatives")
    result = RainbowMatching(dict(out))
    if len(result) != len(pairs):
        raise ValueError("rectification must preserve the candidate's size")
    return result

