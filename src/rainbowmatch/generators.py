"""Instance generators: the extremal family, random matching families of
the two classical shapes, and a rejection sampler for the cooperative
hypothesis.  Every generator is a pure function of its parameters and
seed."""

from __future__ import annotations

from itertools import compress

from .core import (BipartiteGraph, EdgeFamily, _edge_table, _require_ints,
                   _trusted, cooperative_condition)
from .rng import SplitMix64
from .serialize import _MAX_ROWS

# draws random_cooperative_family makes before it gives up
_ATTEMPTS = 200


def _refuse_oversized(members: int, side: int) -> None:
    """Refuse, before it is built, a family of members over a graph with
    side left vertices whose members times (side + 1) pass _MAX_ROWS: the
    reader refuses such a file, and building one runs out of memory."""
    if members * (side + 1) > _MAX_ROWS:
        raise ValueError(f"members times (side + 1) may be at most {_MAX_ROWS}")


def sharpness_family(n: int, k: int) -> tuple[BipartiteGraph, EdgeFamily]:
    """The 2n+k-4 member family on K_{n,n} witnessing that the member count
    2n+k-3 cannot be lowered: n-1 copies of the diagonal matching, n-2
    copies of the shifted matching, and k-1 copies of the singleton
    {a_1 b_2}.  Every union of at least k members has a matching of size
    n, yet the largest rainbow matching has size n-1.
    """
    _require_ints((n, k), "a size parameter")
    if n < 2 or k < 2:
        raise ValueError("need n >= 2 and k >= 2")
    _refuse_oversized(2 * n + k - 4, n)
    g = BipartiteGraph.complete(n)
    diagonal = frozenset((i, i) for i in range(1, n + 1))
    shifted = frozenset((i, i % n + 1) for i in range(1, n + 1))
    singleton = frozenset({(1, 2)})
    sets = [diagonal] * (n - 1) + [shifted] * (n - 2) + [singleton] * (k - 1)
    return g, EdgeFamily(g, tuple(sets))


def drisko_family(n: int, seed: int = 0) -> EdgeFamily:
    """2n-1 uniformly random perfect matchings of K_{n,n}."""
    _require_ints((n,), "a size parameter")
    if n < 1:
        raise ValueError("need n >= 1")
    _refuse_oversized(2 * n - 1, n)
    g = BipartiteGraph.complete(n)
    rng = SplitMix64(seed)
    sets = []
    for _ in range(2 * n - 1):
        cols = list(range(1, n + 1))
        rng.shuffle(cols)
        sets.append(frozenset((i + 1, cols[i]) for i in range(n)))
    return EdgeFamily(g, tuple(sets))


def staircase_family(k: int, seed: int = 0) -> EdgeFamily:
    """2k-1 random matchings in K_{k,k} with sizes min(i, k) for i = 1..2k-1."""
    _require_ints((k,), "a size parameter")
    if k < 1:
        raise ValueError("need k >= 1")
    _refuse_oversized(2 * k - 1, k)
    g = BipartiteGraph.complete(k)
    rng = SplitMix64(seed)
    sets = []
    for i in range(1, 2 * k):
        size = min(i, k)
        rows = list(range(1, k + 1))
        cols = list(range(1, k + 1))
        rng.shuffle(rows)
        rng.shuffle(cols)
        sets.append(frozenset(zip(rows[:size], cols[:size])))
    return EdgeFamily(g, tuple(sets))


def _random_picks(graph: BipartiteGraph, members: int, rng: SplitMix64,
                  permille: int) -> list[list[bool]]:
    """members edge subsets as keep flags over the graph's sorted edges
    (_edge_table order), one draws(1000, width) per subset: an edge is kept
    when its draw is below permille, and a subset left empty gets the one
    edge at below(width) instead.  The search sums the flags into masks."""
    width = len(_edge_table(graph)[0])
    if not width:
        raise ValueError("the graph has no edges to draw from")
    picks = []
    for _ in range(members):
        keep = [d < permille for d in rng.draws(1000, width)]
        if not any(keep):
            keep[rng.below(width)] = True
        picks.append(keep)
    return picks


def random_family(graph: BipartiteGraph, members: int, rng: SplitMix64,
                  permille: int) -> EdgeFamily:
    """members edge subsets, each edge kept with probability permille/1000;
    a subset left empty gets one uniformly drawn edge instead."""
    edges = _edge_table(graph)[0]
    # each member is a subset of the graph's own edges
    return _trusted(EdgeFamily, graph=graph, sets=tuple(
        frozenset(compress(edges, keep))
        for keep in _random_picks(graph, members, rng, permille)))


def random_cooperative_family(n: int, k: int, graph: BipartiteGraph,
                              seed: int = 0,
                              density: float = 0.6) -> EdgeFamily | None:
    """Rejection-sample a family of 2n+k-3 nonempty edge subsets whose
    every k-union has matching number at least n; None when all _ATTEMPTS
    draws fail.  Deterministic per seed."""
    _require_ints((n, k), "a size parameter")
    if type(density) not in (int, float) or not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    _refuse_oversized(2 * n + k - 3, graph.left_size)
    rng = SplitMix64(seed)
    permille = round(density * 1000)
    for _ in range(_ATTEMPTS):
        fam = random_family(graph, 2 * n + k - 3, rng, permille)
        if cooperative_condition(fam, k, n) is None:
            return fam
    return None
