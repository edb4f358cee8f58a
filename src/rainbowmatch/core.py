"""Bipartite graphs, matchings, multiset edge families, and exact oracles.

Family members are identified by 1-based position.  A family may contain
the same edge set at two positions; they count as distinct members for
every purpose (rainbow choices, union conditions, certificates).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

Edge = tuple[int, int]


def _as_edge(e: Iterable[int]) -> Edge:
    a, b = e
    if type(a) is not int or type(b) is not int:
        raise ValueError(f"an edge endpoint must be an int, got {e!r}")
    return (a, b)


def _trusted(cls, **fields):
    """A cls instance holding fields, unchecked.  Public constructors check
    what callers pass; values the package derived itself are built here,
    and each call site says why its fields meet cls's invariants."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _require_ints(values: Iterable, what: str) -> None:
    """Refuse any value that is not an int: int() would read a float or a
    bool as another integer."""
    for x in values:
        if type(x) is not int:
            raise ValueError(f"{what} must be an int, got {x!r}")


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph on sides A = {1..left_size} and B = {1..right_size}.

    Edges are (a, b) pairs of 1-based indices into the two sides.
    """

    left_size: int
    right_size: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        _require_ints((self.left_size, self.right_size), "a side size")
        if self.left_size < 1 or self.right_size < 1:
            raise ValueError("both sides need at least one vertex")
        edges = frozenset(_as_edge(e) for e in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if not (1 <= a <= self.left_size and 1 <= b <= self.right_size):
                raise ValueError(f"edge ({a}, {b}) lies outside the vertex ranges")

    @classmethod
    def complete(cls, left_size: int, right_size: int | None = None) -> "BipartiteGraph":
        """K_{left,right}; the right side defaults to the left's size."""
        rs = left_size if right_size is None else right_size
        _require_ints((left_size, rs), "a side size")
        return cls(left_size, rs,
                   frozenset((a, b) for a in range(1, left_size + 1)
                             for b in range(1, rs + 1)))


@dataclass(frozen=True)
class EdgeFamily:
    """Ordered multiset of edge sets over a fixed ambient graph."""

    graph: BipartiteGraph
    sets: tuple[frozenset[Edge], ...]

    def __post_init__(self) -> None:
        sets = tuple(frozenset(_as_edge(e) for e in s) for s in self.sets)
        object.__setattr__(self, "sets", sets)
        for idx, s in enumerate(sets, start=1):
            if not s <= self.graph.edges:
                raise ValueError(f"member {idx} uses edges outside the graph")

    def __len__(self) -> int:
        return len(self.sets)

    def member(self, index: int) -> frozenset[Edge]:
        """1-based member access; the index is the member's identity."""
        if not 1 <= index <= len(self.sets):
            raise IndexError(f"member index {index} out of range 1..{len(self.sets)}")
        return self.sets[index - 1]

    def union(self, indices: Iterable[int] | None = None) -> frozenset[Edge]:
        chosen = self.sets if indices is None else [self.member(i) for i in indices]
        return frozenset().union(*chosen) if chosen else frozenset()


@dataclass(frozen=True)
class RainbowMatching:
    """Injective choice of one edge from some members whose image is a matching.

    assignment maps member index (1-based) to the edge representing it.
    """

    assignment: Mapping[int, Edge]

    def __post_init__(self) -> None:
        assignment = {i: _as_edge(e) for i, e in dict(self.assignment).items()}
        _require_ints(assignment, "a member")
        object.__setattr__(self, "assignment", assignment)
        edges = set(assignment.values())
        if len(edges) != len(assignment):
            raise ValueError("two members are assigned the same edge")
        if len({a for a, _ in edges}) != len(edges) \
                or len({b for _, b in edges}) != len(edges):
            raise ValueError("matching edges share a vertex")

    def __len__(self) -> int:
        return len(self.assignment)

    @property
    def edges(self) -> frozenset[Edge]:
        """The matching: the assigned edges."""
        return frozenset(self.assignment.values())


def is_valid_rainbow(fam: EdgeFamily, rm: RainbowMatching,
                     size: int | None = None) -> bool:
    """Check rm against fam: each assigned edge must belong to its member.

    Injectivity and the matching property are already enforced by the
    RainbowMatching constructor; this adds the family-membership half and
    an optional exact-size requirement.
    """
    if size is not None:
        _require_ints((size,), "a size parameter")
        if len(rm) != size:
            return False
    for i, e in rm.assignment.items():
        if not 1 <= i <= len(fam) or e not in fam.member(i):
            return False
    return True


def _rows(g: BipartiteGraph, edges: Iterable[Edge]) -> list[int]:
    """Bitmask adjacency: bit b of rows[a] is the edge (a, b); rows[0] is 0."""
    rows = [0] * (g.left_size + 1)
    for a, b in edges:
        rows[a] |= 1 << b
    return rows


@lru_cache(maxsize=16)
def _edge_table(g: BipartiteGraph) -> tuple[tuple[Edge, ...], dict[Edge, int],
                                           tuple[int, ...]]:
    """The graph's edges in sorted order, each edge's bit (1 << its position
    there), and for each position the mask of the edges sharing no vertex
    with that edge.  An edge mask over g is an int in these bits."""
    edges = tuple(sorted(g.edges))
    bits = {e: 1 << i for i, e in enumerate(edges)}
    # per-vertex edge masks: an edge's entry is every edge off its two ends
    at_a, at_b = [0] * (g.left_size + 1), [0] * (g.right_size + 1)
    for (a, b), bit in bits.items():
        at_a[a] |= bit
        at_b[b] |= bit
    full = (1 << len(edges)) - 1
    disjoint = tuple(full & ~(at_a[a] | at_b[b]) for a, b in edges)
    return edges, bits, disjoint


def _mask_rows(g: BipartiteGraph, bits: dict[Edge, int], mask: int) -> list[int]:
    """_rows of the edges whose bits (from _edge_table) are set in mask."""
    rows = [0] * (g.left_size + 1)
    for (a, b), bit in bits.items():
        if mask & bit:
            rows[a] |= 1 << b
    return rows


def _kuhn(rows: list[int], owner: list[int], matched: int, goal: int) -> int:
    """Grow a matching inside rows by Kuhn augmentation; the package's one
    matching kernel.

    owner[b] is the left vertex matched to right vertex b (0 when free) and
    is updated in place; matched is the mask of matched left vertices, and
    the grown mask is returned.  Free left vertices are tried in ascending
    order, right vertices lowest bit first, with one visited mask per
    top-level augment; the scan stops once goal left vertices are matched.
    Started from any matching, one such pass leaves a maximum one.
    """
    visited = 0

    def augment(a: int) -> bool:
        nonlocal visited
        row = rows[a]
        avail = row & ~visited
        while avail:
            bit = avail & -avail
            visited |= bit
            b = bit.bit_length() - 1
            if not owner[b] or augment(owner[b]):
                owner[b] = a
                return True
            avail = row & ~visited
        return False

    size = matched.bit_count()
    for a in range(1, len(rows)):
        if size >= goal:
            break
        if rows[a] and not matched >> a & 1:
            visited = 0
            if augment(a):
                matched |= 1 << a
                size += 1
    return matched


def _least_owners(rows: list[int]) -> list[int] | None:
    """The lexicographically least distinct owners of rows (masks over
    owner positions from 1), or None when there are none: each row in
    turn takes its least unused owner with which _kuhn still finds
    distinct owners for every later row."""
    width = max(rows).bit_length()

    def fits(j: int, used: int) -> bool:   # rows j.. have distinct owners not in used
        later = len(rows) - j
        rest = [0] + [row & ~used for row in rows[j:]]
        return _kuhn(rest, [0] * width, 0, later).bit_count() == later

    if not fits(0, 0):
        return None
    picked, used = [], 0
    for j, row in enumerate(rows, start=1):
        free = row & ~used
        low = free & -free
        while free != low and not fits(j, used | low):   # the last one fits
            free ^= low
            low = free & -free
        used |= low
        picked.append(low.bit_length() - 1)
    return picked


def _first_short_union(members: list, floors: tuple[int, ...], grow,
                       empty) -> tuple[int, ...] | None:
    """First index set K (1-based, ascending) whose union is smaller than
    floors[|K| - 1], or None; the package's one walk over k-unions.

    grow(union, member) returns (grown union, its size), and empty is the
    union of no members.  Index sets of at most len(floors) members are
    walked depth-first in lexicographic order, each prefix's union carried
    down the walk.  floors must be nonnegative and nondecreasing; zero
    floors are never failed, and prefixes too late to reach the first
    positive floor are not walked.  A prefix whose union already reaches
    the last floor is not extended, since a union's size only grows.
    """
    first, last, m, goal = floors.count(0), len(floors) - 1, len(members), floors[-1]

    def walk(start: int, depth: int, union) -> tuple[int, ...] | None:
        floor, extends = floors[depth], depth < last
        # a prefix of depth + 1 members still needs first - depth more
        for i in range(start, m - first + depth if depth < first else m):
            grown, size = grow(union, members[i])
            if size < floor:
                return (i + 1,)
            if size < goal and extends:
                found = walk(i + 1, depth + 1, grown)
                if found is not None:
                    return (i + 1, *found)
        return None

    return walk(0, 0, empty)


def _short_matching_union(g: BipartiteGraph, sets, floors) -> tuple[int, ...] | None:
    """_first_short_union over edge sets, a union's size being its matching
    number capped at floors[-1].  A union is its _rows, Kuhn owners and
    matched mask: a prefix's matching is one of every extension, so each
    step only augments."""
    goal = floors[-1]

    def grow(union, rows):
        union_rows, owner, matched = union
        grown = [x | y for x, y in zip(union_rows, rows)]
        mates = owner.copy()
        matched = _kuhn(grown, mates, matched, goal)
        return (grown, mates, matched), matched.bit_count()

    return _first_short_union(
        [_rows(g, s) for s in sets], floors, grow,
        ([0] * (g.left_size + 1), [0] * (g.right_size + 1), 0))


def max_matching(g: BipartiteGraph,
                 edge_subset: Iterable[Edge] | None = None) -> frozenset[Edge]:
    """Edges of a maximum-cardinality matching inside edge_subset (default:
    all edges); its size is the matching number.

    Runs the Kuhn kernel from the empty matching, scanning A-vertices in
    ascending order and B-vertices lowest first, so the result is
    deterministic for a fixed input.
    """
    edges = g.edges
    if edge_subset is not None:
        edges = frozenset(_as_edge(e) for e in edge_subset)
        if not edges <= g.edges:
            raise ValueError("edge_subset must lie inside the graph")
    owner = [0] * (g.right_size + 1)
    _kuhn(_rows(g, edges), owner, 0, g.left_size)
    return frozenset((a, b) for b, a in enumerate(owner) if a)


def _rainbow_walk(masks: list[int], disjoint: tuple[int, ...],
                  goal: int) -> list[tuple[int, int]]:
    """A largest rainbow choice over edge masks, as (member position from
    0, edge position) pairs; the walk stops once goal members are chosen.

    Complete backtracking over partial choice functions, the edges still
    free carried down as one mask (disjoint is _edge_table's).  Members are
    explored fewest-edges-first, each member's edges in ascending position,
    and branches that cannot beat the incumbent are cut.  The result is a
    largest choice whenever it has fewer than goal members.
    """
    m = len(masks)
    order = sorted(range(m), key=lambda i: (masks[i].bit_count(), i))
    best: list[tuple[int, int]] = []
    chosen: list[tuple[int, int]] = []

    def walk(pos: int, free: int) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen.copy()
            if len(best) >= goal:
                return True
        if pos == m or len(chosen) + (m - pos) <= len(best):
            return False
        index = order[pos]
        avail = masks[index] & free
        while avail:
            low = avail & -avail
            avail ^= low
            j = low.bit_length() - 1
            chosen.append((index, j))
            finished = walk(pos + 1, free & disjoint[j])
            chosen.pop()
            if finished:
                return True
        return walk(pos + 1, free)

    walk(0, -1)
    for x, (_, i) in enumerate(best):
        for _, j in best[x + 1:]:
            if not disjoint[i] >> j & 1:
                raise RuntimeError("the rainbow walk chose two edges sharing a vertex")
    return best


def rainbow_matching_max(fam: EdgeFamily) -> tuple[int, RainbowMatching]:
    """Maximum rainbow matching size, with a witness, by exhaustive search.

    This is the project's brute-force oracle: _rainbow_walk over the
    members' edge masks, stopped at the ceiling min(|fam|, matching number
    of the union).  Deterministic for a fixed input.
    """
    edges, bits, disjoint = _edge_table(fam.graph)
    masks = [sum(map(bits.__getitem__, s)) for s in fam.sets]
    ceiling = min(len(fam), len(max_matching(fam.graph, fam.union())))
    best = _rainbow_walk(masks, disjoint, ceiling)
    return len(best), RainbowMatching({i + 1: edges[j] for i, j in best})


def cooperative_condition(fam: EdgeFamily, k: int, n: int) -> tuple[int, ...] | None:
    """Does every k-member union contain a matching of size n?

    Returns None on success, otherwise the lexicographically least failing
    index set (1-based, ascending).  Runs the one k-union walk with the
    matching grower graded_union_condition shares (_short_matching_union).
    """
    _require_ints((k, n), "a size parameter")
    m = len(fam)
    if not 1 <= k <= m:
        raise ValueError(f"k must satisfy 1 <= k <= {m}")
    if n <= 0:
        return None
    return _short_matching_union(fam.graph, fam.sets, (0,) * (k - 1) + (n,))
