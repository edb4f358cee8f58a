"""Independent brute-force oracles and tiny instance builders for tests.

Everything here stays deliberately naive: subset enumeration instead of
augmenting paths, Berge's criterion instead of path tracing, tuple and
set arcs instead of bitmasks, so the package's own algorithms are checked
against a different route.
"""

from __future__ import annotations

import itertools
from collections import Counter

from rainbowmatch import (SOURCE, TARGET, BipartiteGraph, Edge, EdgeFamily,
                          GreedyStuck, Network, NetworkFamily, RainbowMatching,
                          RainbowStPath, Regimentation, StPath, max_matching)
from rainbowmatch.serialize import vertex_to_json


def is_matching(edges) -> bool:
    left = [a for a, _ in edges]
    right = [b for _, b in edges]
    return len(set(left)) == len(left) and len(set(right)) == len(right)


def brute_matching_number(edges) -> int:
    """Largest matching by enumerating every edge subset."""
    edges = sorted(edges)
    best = 0
    # no matching outgrows either side's set of endpoints
    top = min(len({a for a, _ in edges}), len({b for _, b in edges}))
    for r in range(top, 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(edges, r):
            if is_matching(combo):
                best = r
                break
    return best


def dict_kuhn_matching(edges) -> frozenset:
    """Reference for max_matching's exact edge set: Kuhn's augmenting paths
    on dict adjacency, A-vertices ascending, B-neighbours ascending, a
    fresh banned set per top-level augment."""
    adj: dict = {}
    for a, b in sorted(edges):
        adj.setdefault(a, []).append(b)
    match_of_b: dict = {}

    def try_augment(a, banned) -> bool:
        for b in adj[a]:
            if b in banned:
                continue
            banned.add(b)
            if b not in match_of_b or try_augment(match_of_b[b], banned):
                match_of_b[b] = a
                return True
        return False

    for a in sorted(adj):
        try_augment(a, set())
    return frozenset((a, b) for b, a in match_of_b.items())


def brute_rainbow_number(fam: EdgeFamily) -> int:
    """Largest rainbow matching by enumerating every partial choice."""
    m = len(fam)
    best = 0
    for r in range(m, 0, -1):
        if r <= best:
            break
        for picked in itertools.combinations(range(1, m + 1), r):
            pools = [sorted(fam.member(i)) for i in picked]
            for combo in itertools.product(*pools):
                if len(set(combo)) == len(combo) and is_matching(combo):
                    best = r
                    break
            if best == r:
                break
    return best


def naive_rainbow_matching_max(fam: EdgeFamily) -> tuple[int, RainbowMatching]:
    """Reference for rainbow_matching_max's size and witness: the same
    backtracking with the used vertices kept in two sets."""
    m = len(fam)
    if m == 0:
        return 0, RainbowMatching({})
    order = sorted(range(1, m + 1), key=lambda i: (len(fam.member(i)), i))
    members = [(i, sorted(fam.member(i))) for i in order]
    ceiling = min(m, len(max_matching(fam.graph, fam.union())))
    best: dict[int, Edge] = {}
    chosen: dict[int, Edge] = {}
    used_a: set[int] = set()
    used_b: set[int] = set()

    def walk(pos: int) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = dict(chosen)
            if len(best) >= ceiling:
                return True
        if pos == m or len(chosen) + (m - pos) <= len(best):
            return False
        index, edges = members[pos]
        for a, b in edges:
            if a in used_a or b in used_b:
                continue
            used_a.add(a)
            used_b.add(b)
            chosen[index] = (a, b)
            finished = walk(pos + 1)
            used_a.discard(a)
            used_b.discard(b)
            del chosen[index]
            if finished:
                return True
        return walk(pos + 1)

    walk(0)
    return len(best), RainbowMatching(best)


def set_random_family(graph: BipartiteGraph, members: int, rng,
                      permille: int) -> tuple[frozenset, ...]:
    """Reference for random_family's draw, on sets: each edge in sorted
    order kept when rng.below(1000) < permille, a member left empty
    replaced by the sorted edge at rng.below(len(edges))."""
    edges = sorted(graph.edges)
    sets = []
    for _ in range(members):
        chosen = {e for e in edges if rng.below(1000) < permille}
        if not chosen:
            chosen = {edges[rng.below(len(edges))]}
        sets.append(frozenset(chosen))
    return tuple(sets)


def has_augmenting_path(edge_pool, matching_edges) -> bool:
    """Berge's criterion: the matching is augmentable inside the pool iff
    it is not maximum there."""
    return brute_matching_number(set(edge_pool) | set(matching_edges)) > len(matching_edges)


def family_on(graph: BipartiteGraph, *sets) -> EdgeFamily:
    return EdgeFamily(graph, tuple(frozenset(s) for s in sets))


def abstract_family(inner, member_arc_sets, full_arcs=None) -> NetworkFamily:
    """Standalone network family; the network carries either the given arc
    space or the union of the members."""
    sets = tuple(frozenset(s) for s in member_arc_sets)
    if full_arcs is None:
        arcs = frozenset().union(*sets) if sets else frozenset()
    else:
        arcs = frozenset(full_arcs)
    net = Network(inner=tuple(inner), arcs=arcs)
    return NetworkFamily(net, sets)


def network_family_to_json(nf: NetworkFamily) -> dict:
    """nf as a network instance payload, each member's arcs in rank order:
    the writer the reader network_family_from_json is tested against."""
    net, ranks = nf.network, nf.network._ranks
    return {
        "inner": [vertex_to_json(v) for v in net.inner],
        "sets": [[[vertex_to_json(u), vertex_to_json(v)]
                  for u, v in sorted(s, key=lambda a: (ranks[a[0]], ranks[a[1]]))]
                 for s in nf.sets],
    }


def arc_union(nf: NetworkFamily, positions=None) -> frozenset:
    """Union of the arc sets at the given 1-based positions (default: all)."""
    chosen = nf.sets if positions is None else [nf.sets[p - 1] for p in positions]
    return frozenset().union(*chosen)


def all_arcs_over(inner) -> list:
    """Every legal arc over source, target, and the given inner vertices."""
    verts = ["s", *inner, "t"]
    return [(u, v) for u in verts for v in verts
            if u != v and u != "t" and v != "s"]


def _ordered_partitions(items: tuple):
    """Partitions of items into ordered blocks: the block holding the
    earliest remaining item comes first, by ascending size then
    lexicographic content, then every ordering of the block, then the
    rest recursively."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(range(len(rest)), r):
            block = (first,) + tuple(rest[i] for i in extra)
            leftover = tuple(rest[i] for i in range(len(rest)) if i not in extra)
            for ordering in itertools.permutations(block):
                for tail in _ordered_partitions(leftover):
                    yield (ordering,) + tail


def brute_regimentation(net: Network, nf: NetworkFamily) -> Regimentation | None:
    """First certificate in a fixed search order, or None: every partition
    of the inner vertices into ordered blocks (each block a path), then
    every choice of c - 1 distinct members per c-arc path among those
    containing it.  Unlike the package's build, this finds a certificate
    whenever one exists, rainbow path or not."""
    if not net.inner:
        return Regimentation((StPath((SOURCE, TARGET)),), {})
    members = range(1, len(nf) + 1)
    for system in _ordered_partitions(net.inner):
        paths = [StPath((SOURCE, *block, TARGET)) for block in system]
        pools = [[m for m in members if set(q.arcs) <= nf.sets[m - 1]]
                 for q in paths]
        choices = [itertools.combinations(pool, len(q.arcs) - 1)
                   for q, pool in zip(paths, pools)]
        for picked in itertools.product(*choices):
            flat = [m for combo in picked for m in combo]
            if len(set(flat)) == len(flat):
                return Regimentation(tuple(paths),
                                     {m: j for j, combo in enumerate(picked)
                                      for m in combo})
    return None


# -- tuple and set based network references ---------------------------------

def label_mask(net: Network, arcs) -> int:
    """Mask of arcs named by their end vertices, network arcs or not: arc
    (u, v) is bit index(u) * |V| + index(v) in net.vertices order."""
    verts = list(net.vertices)
    return sum(1 << (verts.index(u) * len(verts) + verts.index(v))
               for u, v in set(arcs))


def naive_backward_arcs(net: Network, q: StPath) -> frozenset:
    """Arcs of the network joining two path vertices against q's direction."""
    pos = {v: i for i, v in enumerate(q.vertices)}
    return frozenset((u, v) for (u, v) in net.arcs
                     if u in pos and v in pos and pos[v] < pos[u])


def naive_useless_arcs(net: Network, q: StPath) -> frozenset:
    """Arcs from off-path inner vertices into q's second vertex, and from
    q's second-to-last vertex out to off-path inner vertices, present in
    the network or not."""
    on_path = set(q.vertices)
    off = [v for v in net.inner if v not in on_path]
    s_q = q.vertices[1]
    t_q = q.vertices[-2]
    return frozenset({(v, s_q) for v in off} | {(t_q, u) for u in off})


def naive_verify_regimentation(net: Network, nf: NetworkFamily,
                               r: Regimentation) -> str | None:
    """Reference for verify_regimentation's verdict on label sets: the
    first of "paths", "disjoint", "assignment", "1", "2", "3" violated,
    or None."""
    for q in r.paths:
        verts = q.vertices
        if verts[0] != SOURCE or verts[-1] != TARGET \
                or len(set(verts)) != len(verts) \
                or not set(verts) <= set(net.vertices):
            return "paths"
    interiors = [set(q.interior) for q in r.paths]
    for i, j in itertools.combinations(range(len(r.paths)), 2):
        if interiors[i] & interiors[j]:
            return "disjoint"
    for member, pos in r.assignment.items():
        if not 1 <= member <= len(nf) or not 0 <= pos < len(r.paths):
            return "assignment"
    covered = set()
    for q in r.paths:
        covered.update(q.vertices)
    if covered != set(net.vertices):
        return "1"
    needs = [label_mask(net, q.arcs) for q in r.paths]
    for member, pos in r.assignment.items():
        if nf.masks[member - 1] & needs[pos] != needs[pos]:
            return "2"
    counts = Counter(r.assignment.values())
    for pos, q in enumerate(r.paths):
        if counts.get(pos, 0) != len(q.arcs) - 1:
            return "3"
    return None


def naive_least_backward_arc(net: Network, nf: NetworkFamily,
                             reg: Regimentation, ie_positions) -> tuple | None:
    """(position, path index, head spot, tail spot) of the first arc, over
    the positions ascending and each member's arcs in rank order, that
    runs backward along some certificate path (the first such path), or
    None."""
    ranks = net._ranks
    found = None
    for pos in sorted(ie_positions):
        for arc in sorted(nf.sets[pos - 1],
                          key=lambda a: (ranks[a[0]], ranks[a[1]])):
            for index, q in enumerate(reg.paths):
                spots = {v: i for i, v in enumerate(q.vertices)}
                if arc[0] in spots and arc[1] in spots \
                        and spots[arc[1]] < spots[arc[0]]:
                    found = (pos, index, spots[arc[1]], spots[arc[0]])
                    break
            if found:
                break
        if found:
            break
    return found


def naive_build_network(fam: EdgeFamily, rm: RainbowMatching) -> tuple:
    """(inner, member arc sets, preimages, origin) of the network over rm's
    matching, with every graph-edge witness recorded per (member, arc)."""
    matched = rm.edges
    a_owner = {e[0]: e for e in matched}
    b_owner = {e[1]: e for e in matched}
    origin = tuple(i for i in range(1, len(fam) + 1) if i not in rm.assignment)
    sets = []
    preimages: dict = {}
    for pos, i in enumerate(origin, start=1):
        arcs = set()
        for h in sorted(fam.member(i)):
            if h in matched:
                continue
            arc = (a_owner.get(h[0], SOURCE), b_owner.get(h[1], TARGET))
            arcs.add(arc)
            preimages.setdefault((pos, arc), set()).add(h)
        sets.append(frozenset(arcs))
    return (tuple(sorted(matched)), tuple(sets),
            {key: frozenset(v) for key, v in preimages.items()}, origin)


def naive_st_paths(arcs, net: Network):
    """Simple source-target paths over the arcs, lexicographic by rank."""
    out: dict = {}
    for u, v in arcs:
        out.setdefault(u, []).append(v)
    for u in out:
        out[u].sort(key=net._ranks.__getitem__)
    trail = [SOURCE]

    def walk(u):
        for v in out.get(u, ()):
            if v == TARGET:
                yield StPath(tuple(trail) + (v,))
            elif v not in trail:
                trail.append(v)
                yield from walk(v)
                trail.pop()

    yield from walk(SOURCE)


def naive_greedy_rainbow_tree(net: Network, nf: NetworkFamily):
    """Rainbow tree grown by scanning every (unused member, arc) pair for
    the least (member position, arc rank) that leaves the tree."""
    parent: dict = {}
    tree = {SOURCE}
    used: set[int] = set()
    while TARGET not in tree:
        best = None
        for pos in range(1, len(nf) + 1):
            if pos in used:
                continue
            for arc in nf.sets[pos - 1]:
                u, v = arc
                if u in tree and v not in tree:
                    key = (pos, net._ranks[u], net._ranks[v])
                    if best is None or key < best[0]:
                        best = (key, pos, arc)
        if best is None:
            left = tuple(sorted(set(range(1, len(nf) + 1)) - used))
            return GreedyStuck(dict(parent), left)
        _, pos, (u, v) = best
        parent[v] = (u, pos)
        tree.add(v)
        used.add(pos)
    verts = [TARGET]
    reps = []
    while verts[-1] != SOURCE:
        up, member = parent[verts[-1]]
        reps.append(member)
        verts.append(up)
    return RainbowStPath(StPath(tuple(reversed(verts))),
                         dict(enumerate(reversed(reps))))


def naive_exhaustive_rainbow_path(net: Network, nf: NetworkFamily):
    """First path of naive_st_paths over the union that admits distinct
    owners, with its least owner choice, or None."""
    for p in naive_st_paths(arc_union(nf), net):
        pools = [[pos for pos in range(1, len(nf) + 1) if arc in nf.sets[pos - 1]]
                 for arc in p.arcs]
        for choice in itertools.product(*pools):
            if len(set(choice)) == len(choice):
                return RainbowStPath(p, dict(enumerate(choice)))
    return None


def naive_splitmix64(seed: int, count: int) -> tuple[list[int], int]:
    """The first count outputs from seed and the state after them, one
    step at a time by the formula in rainbowmatch.rng's docstring."""
    state, out = seed % 2**64, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out, state
