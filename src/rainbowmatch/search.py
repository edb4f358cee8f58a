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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .core import (BipartiteGraph, EdgeFamily, _first_short_union, _nu,
                   rainbow_matching_max)
from .generators import random_family
from .rng import SplitMix64

TARGETS = ("c4.1", "c4.3")


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
    from below by k.
    """
    return _first_short_union(fam, tuple(range(1, min(k, len(fam)) + 1))) is None


@lru_cache(maxsize=8)
def _doubled_graph(g: BipartiteGraph) -> BipartiteGraph:
    return BipartiteGraph(
        2 * g.left_size, 2 * g.right_size,
        g.edges | frozenset((a + g.left_size, b + g.right_size) for a, b in g.edges))


def doubled_family(fam: EdgeFamily) -> EdgeFamily:
    """Each member unioned with its own copy on a disjoint vertex copy."""
    g = fam.graph
    sets = tuple(
        s | frozenset((a + g.left_size, b + g.right_size) for a, b in s)
        for s in fam.sets)
    return EdgeFamily._of_int_pairs(_doubled_graph(g), sets)


def _check_c41(fam: EdgeFamily, k: int) -> tuple[bool, int | None]:
    if not graded_union_condition(fam, k):
        return False, None
    size, _ = rainbow_matching_max(fam)
    return True, size


def _check_c43(fam: EdgeFamily, k: int) -> tuple[bool, int | None]:
    if any(_nu(fam.graph, s) < k for s in fam.sets):
        return False, None
    size, _ = rainbow_matching_max(doubled_family(fam))
    return True, size


def conjecture_search(target: str, k: int, graph: BipartiteGraph | None = None,
                      budget: int = 100_000, seed: int = 0,
                      exhaustive: bool = False) -> SearchResult:
    """Search for a counterexample to one of the two strengthenings.

    Exhaustive mode enumerates all multisets of 2k-1 nonempty edge subsets
    of the graph (the checked statements are invariant under member order);
    it refuses spaces larger than the budget.  Sampling mode draws budget
    seeded random families.  A found counterexample is re-verified before
    being returned.
    """
    if target not in TARGETS:
        raise ValueError(f"target must be one of {TARGETS}")
    if k < 1:
        raise ValueError("need k >= 1")
    if budget < 0:
        raise ValueError("need budget >= 0")
    if graph is None:
        graph = BipartiteGraph.complete(2 if exhaustive else k + 1)
    members = 2 * k - 1
    check = _check_c41 if target == "c4.1" else _check_c43
    needed = k if target == "c4.1" else members

    instances = 0
    passed = 0
    if exhaustive:
        edges = sorted(graph.edges)
        subsets = [frozenset(c) for size in range(1, len(edges) + 1)
                   for c in itertools.combinations(edges, size)]
        space = _multiset_count(len(subsets), members)
        if space > budget:
            raise ValueError(
                f"exhaustive space has {space} multisets, above the budget {budget}")
        for combo in itertools.combinations_with_replacement(subsets, members):
            instances += 1
            fam = EdgeFamily._of_int_pairs(graph, combo)
            ok, size = check(fam, k)
            if not ok:
                continue
            passed += 1
            if size < needed:
                return _verified(target, k, fam, instances, passed, True, size)
        return SearchResult(target, None, instances, passed, True)
    rng = SplitMix64(seed)
    for _ in range(budget):
        instances += 1
        fam = random_family(graph, members, rng, permille=600)
        ok, size = check(fam, k)
        if not ok:
            continue
        passed += 1
        if size < needed:
            return _verified(target, k, fam, instances, passed, False, size)
    return SearchResult(target, None, instances, passed, False)


def _verified(target: str, k: int, fam: EdgeFamily, instances: int,
              passed: int, exhaustive: bool, size: int) -> SearchResult:
    check = _check_c41 if target == "c4.1" else _check_c43
    ok, size2 = check(fam, k)
    needed = k if target == "c4.1" else 2 * k - 1
    if not ok or size2 != size or size2 >= needed:
        raise RuntimeError("counterexample failed re-verification")
    return SearchResult(target, fam, instances, passed, exhaustive, oracle_size=size)


def _multiset_count(options: int, slots: int) -> int:
    out = 1
    for i in range(slots):
        out = out * (options + i) // (i + 1)
    return out
