"""Counterexample search for the two open strengthenings.

Target "c4.1": families of 2k-1 edge sets whose every subfamily K has
matching number at least min(|K|, k) should admit a rainbow matching of
size k.  The graded hypothesis quantifies over all subsets and is checked
exactly, which caps exhaustive runs at small k.

Target "c4.3": families of 2k-1 edge sets each with matching number at
least k, duplicated onto a disjoint vertex copy (member i becomes its
union with its own copy), should admit a full rainbow matching of size
2k-1.

Both searches either exhaust a small instance space or sample seeded
random instances up to a budget; any counterexample returned has been
re-verified.  The instance stream is deterministic per seed.

No search can falsify a settled pair: c4.1 at k <= 2 (k = 2 is the
theorem at n = k = 2) and c4.3 at k <= 3 (shrink members to k-matchings;
Drisko's theorem, JCTA 84, 1998, then gives k of them a rainbow
k-matching in the first copy, and the other k - 1 a rainbow
(k - 1)-matching in the second).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .core import (BipartiteGraph, EdgeFamily, _edge_table, _first_short_union,
                   _kuhn, _mask_rows, _rainbow_walk, _require_ints,
                   _short_matching_union, _trusted, max_matching,
                   rainbow_matching_max)
from .generators import _random_picks
from .rng import SplitMix64
from .serialize import _MAX_MASK_BITS

TARGETS = ("c4.1", "c4.3")

# the most unions one _nu_table stores; a miss past it is computed, not stored
_TABLE_CAP = 2 ** 16


@dataclass(frozen=True)
class SearchResult:
    """Outcome plus coverage statistics of one search run."""

    target: str
    counterexample: EdgeFamily | None
    instances: int
    hypothesis_passed: int
    exhaustive: bool
    oracle_size: int | None = None

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def graded_union_condition(fam: EdgeFamily, k: int) -> bool:
    """Every nonempty subfamily K must satisfy nu(union K) >= min(|K|, k).

    Only subfamilies of at most k members are walked: a larger K contains
    a k-subset, whose union's matching number already bounds nu(union K)
    from below by k.  The walk is core's one k-union walk with the
    matching grower cooperative_condition uses.
    """
    _require_ints((k,), "a size parameter")
    if k < 1:
        raise ValueError("need k >= 1")
    return _short_matching_union(fam.graph, fam.sets,
                                 tuple(range(1, min(k, len(fam)) + 1))) is None


@lru_cache(maxsize=8)
def _doubled_graph(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph(
        2 * g.left_size, 2 * g.right_size,
        g.edges | frozenset((a + g.left_size, b + g.right_size) for a, b in g.edges))


@lru_cache(maxsize=8)
def _nu_table(g: BipartiteGraph, goal: int) -> dict[int, int]:
    """min(nu(mask), goal) by edge mask over g (in _edge_table bits), for
    the unions the search has met; at most _TABLE_CAP entries."""
    return {}


def doubled_family(fam: EdgeFamily) -> EdgeFamily:
    """Each member unioned with its own copy on a disjoint vertex copy."""
    g = fam.graph
    sets = tuple(
        s | frozenset((a + g.left_size, b + g.right_size) for a, b in s)
        for s in fam.sets)
    # a member of fam's graph and its copy both lie in the doubled graph
    return _trusted(EdgeFamily, graph=_doubled_graph(g), sets=sets)


def conjecture_search(target: str, k: int, graph: BipartiteGraph | None = None,
                      budget: int = 100_000, seed: int = 0,
                      exhaustive: bool = False) -> SearchResult:
    """Search for a counterexample to one of the two strengthenings.

    Exhaustive mode enumerates all multisets of 2k-1 nonempty edge subsets
    of the graph (the checked statements are invariant under member order);
    it refuses spaces larger than the budget.  Sampling mode draws budget
    seeded random families.  Instances run as edge masks (_edge_table).  The
    hypothesis is core's k-union walk, _first_short_union, with each union
    one integer OR of member masks and its matching number, capped at k,
    read from the graph's _nu_table (at most _TABLE_CAP entries; a miss is
    one Kuhn run stopped at k).  A graph
    whose edge table would pass _MAX_MASK_BITS bits (edges squared, on the
    doubled graph for c4.3) is refused before anything is built.  A
    counterexample found becomes an EdgeFamily, re-verified through the
    public functions before it is returned.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    _require_ints((k, budget), "a size parameter")
    if k < 1:
        raise ValueError("need k >= 1")
    if budget < 0:
        raise ValueError("need budget >= 0")
    side = 2 if exhaustive else k + 1
    edges = side * side if graph is None else len(graph.edges)
    if target == "c4.3":
        edges *= 2
    if edges * edges > _MAX_MASK_BITS:
        # no count goes in the message: past 4300 digits str() refuses it
        raise ValueError(f"the {target} search's edge table (edges squared "
                         f"bits) would pass {_MAX_MASK_BITS} bits")
    if graph is None:
        graph = BipartiteGraph.complete(side)
    members = 2 * k - 1
    _, bits, disjoint = _edge_table(graph)
    powers, width = tuple(bits.values()), len(bits)
    table, blank = _nu_table(graph, k), [0] * (graph.right_size + 1)
    if target == "c4.1":
        floors, needed, shift = tuple(range(1, k + 1)), k, 0
    else:
        # the doubled graph's sorted edges are the edges, then their copies
        # in the same order, so mask m doubles to m | m << width
        floors, needed, shift = (k,), members, width
        disjoint = _edge_table(_doubled_graph(graph))[2]

    def grow(union: int, mask: int) -> tuple[int, int]:
        union |= mask
        try:
            return union, table[union]
        except KeyError:
            size = _kuhn(_mask_rows(graph, bits, union), blank.copy(), 0, k).bit_count()
            if len(table) < _TABLE_CAP:
                table[union] = size
            return union, size

    def rainbow_size(masks) -> int | None:
        # None when masks fail the hypothesis, which puts the union's
        # matching number at needed or above: needed is the walk's ceiling
        if _first_short_union(masks, floors, grow, 0) is not None:
            return None
        if shift:
            masks = [mask | mask << shift for mask in masks]
        return len(_rainbow_walk(masks, disjoint, needed))

    instances = 0
    passed = 0
    if exhaustive:
        # 2**width - 1 nonempty subsets, counted before any is built
        space = math.comb((1 << width) + members - 2, members)
        if space > budget:
            try:
                count = f"{space} multisets"
            except ValueError:   # past the digits str() converts
                count = f"at least 2**{space.bit_length() - 1} multisets"
            raise ValueError(
                f"exhaustive space has {count}, above the budget {budget}")
        subsets = [sum(c) for size in range(1, width + 1)
                   for c in itertools.combinations(powers, size)]
        draws = itertools.combinations_with_replacement(subsets, members)
    else:
        rng = SplitMix64(seed)
        draws = ([sum(itertools.compress(powers, keep))
                  for keep in _random_picks(graph, members, rng, 600)]
                 for _ in range(budget))
    for masks in draws:
        instances += 1
        size = rainbow_size(masks)
        if size is None:
            continue
        passed += 1
        if size < needed:
            fam = EdgeFamily(graph, tuple(
                frozenset(e for e, bit in bits.items() if mask & bit) for mask in masks))
            return _verified(target, k, fam, instances, passed, exhaustive, size)
    return SearchResult(target, None, instances, passed, exhaustive)


def _verified(target: str, k: int, fam: EdgeFamily, instances: int,
              passed: int, exhaustive: bool, size: int) -> SearchResult:
    """fam's result once the public functions confirm hypothesis and size."""
    if target == "c4.1":
        ok, checked, needed = graded_union_condition(fam, k), fam, k
    else:
        ok = all(len(max_matching(fam.graph, s)) >= k for s in fam.sets)
        checked, needed = doubled_family(fam), 2 * k - 1
    if not ok or rainbow_matching_max(checked)[0] != size or size >= needed:
        raise RuntimeError("counterexample failed re-verification")
    return SearchResult(target, fam, instances, passed, exhaustive, oracle_size=size)

