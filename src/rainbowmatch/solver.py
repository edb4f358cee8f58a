"""Constructive engine for the cooperative rainbow-matching theorem.

Given 2n + k - 3 edge sets (at most k - 2 empty, 1 < k <= n) whose every
k-union contains a matching of size n, a rainbow matching of size n is
grown by repeated augmentation: build the network over the current
matching, search for a rainbow source-target path, translate and apply
it; when no such path exists the family is regimented and one of the
local exchange steps applies (representation swap, direct addition,
cycle exchange, or augment-then-rectify).  The oracle mode and the
hybrid fallback go through exhaustive search instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (BipartiteGraph, EdgeFamily, RainbowMatching,
                   cooperative_condition, is_valid_rainbow, max_matching,
                   rainbow_matching_max)
from .network import (TARGET, RectifyCycle, RepresentationClash,
                      alternating_from_edges,
                      augment, build_network, path_to_alternating,
                      rectify_double_representation)
from .dichotomy import TheoremViolation, path_or_certificate
from .paths import RainbowStPath

MODES = ("constructive", "oracle", "hybrid")


@dataclass(frozen=True)
class HypothesisFailure:
    """A k-member union with matching number below n."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class ViolationReport:
    """Hypothesis holds, yet the oracle finds no rainbow matching of size n.

    This is the falsification channel; producing one would contradict the
    arrow statement the solver implements.
    """

    detail: str
    oracle_size: int


class ConstructiveStall(RuntimeError):
    """The constructive loop cannot continue (budget or unexpected state)."""


def _log(trail: list | None, event: dict) -> None:
    if trail is not None:
        trail.append(event)


def solve_main(g: BipartiteGraph, fam: EdgeFamily, k: int, n: int,
               mode: str = "hybrid", budget: int | None = None,
               trail: list | None = None
               ) -> RainbowMatching | HypothesisFailure | ViolationReport:
    """Produce a verified rainbow matching of size n, or report why not.

    Parameter errors (sizes, ranges, emptiness bound) raise ValueError;
    a failing k-union is returned as HypothesisFailure.  In constructive
    mode a stalled loop raises ConstructiveStall; hybrid mode falls back
    to the oracle instead.  trail, when given, collects an audit log of
    augmentations, swaps, rectifications, and fallbacks.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if g != fam.graph:
        raise ValueError("graph does not match the family's ambient graph")
    if not 1 < k <= n:
        raise ValueError("parameters must satisfy 1 < k <= n")
    if len(fam) != 2 * n + k - 3:
        raise ValueError(f"family must have 2n+k-3 = {2 * n + k - 3} members")
    empty = sum(1 for s in fam.sets if not s)
    if empty > k - 2:
        raise ValueError(f"at most k-2 = {k - 2} members may be empty")
    failing = cooperative_condition(fam, k, n)
    if failing is not None:
        return HypothesisFailure(failing)
    if mode == "oracle":
        return _oracle_solve(fam, n, trail)
    if budget is None:
        budget = 4 * n * len(fam)
    try:
        rm = _constructive(g, fam, k, n, budget, trail)
    except ConstructiveStall as stall:
        if mode == "constructive":
            raise
        _log(trail, {"op": "fallback", "reason": str(stall)})
        return _oracle_solve(fam, n, trail)
    if not is_valid_rainbow(fam, rm, size=n):
        raise ConstructiveStall("constructed matching failed re-verification")
    return rm


def _oracle_solve(fam: EdgeFamily, n: int,
                  trail: list | None) -> RainbowMatching | ViolationReport:
    size, witness = rainbow_matching_max(fam)
    if size < n:
        return ViolationReport(
            detail="cooperative condition holds but the brute-force oracle "
                   f"finds only a rainbow matching of size {size} < {n}",
            oracle_size=size)
    trimmed = dict(sorted(witness.assignment.items())[:n])
    rm = RainbowMatching(trimmed)
    assert is_valid_rainbow(fam, rm, size=n)
    _log(trail, {"op": "oracle", "size": n})
    return rm


def _constructive(g: BipartiteGraph, fam: EdgeFamily, k: int, n: int,
                  budget: int, trail: list | None) -> RainbowMatching:
    rm = RainbowMatching({})
    steps = 0
    while len(rm) < n:
        steps += 1
        if steps > budget:
            raise ConstructiveStall(f"iteration budget {budget} exhausted")
        net, nf = build_network(g, fam, rm)
        found = path_or_certificate(net, nf)
        if isinstance(found, RainbowStPath):
            nxt = _augment_via_path(found, nf, rm, trail)
        else:
            if len(nf) != len(net.inner) + k - 1:
                raise ConstructiveStall(
                    "no rainbow path although the family exceeds the critical size")
            if isinstance(found, TheoremViolation):
                raise ConstructiveStall(
                    "neither rainbow path nor regimentation certificate")
            nxt = _regimented_step(g, fam, n, rm, net, nf, found, trail)
        if len(nxt) not in (len(rm), len(rm) + 1):
            raise ConstructiveStall("a step broke the monotone size invariant")
        if not is_valid_rainbow(fam, nxt):
            raise ConstructiveStall("a step produced an invalid rainbow matching")
        rm = nxt
    return rm


def _augment_via_path(found, nf, rm: RainbowMatching,
                      trail: list | None) -> RainbowMatching:
    """Translate a rainbow source-target path and apply it.

    New edges represent previously unrepresented members, so no clash is
    possible on this route.
    """
    rep = dict(found.representation)
    member_ids = [nf.origin[rep[j] - 1] for j in range(len(found.path.arcs))]
    alt = path_to_alternating(found.path, nf, rep, rm)
    result = augment(rm, alt, member_ids)
    _log(trail, {"op": "augment", "path": [list(v) if isinstance(v, tuple) else v
                                           for v in found.path.vertices],
                 "members": member_ids, "size": len(result)})
    return result


def _certificate_pool(reg, nf, path_index: int) -> list[int]:
    """Family ids of the members assigned to the given certificate path."""
    return [nf.origin[pos - 1]
            for pos in sorted(p for p in reg.assignment
                              if reg.assignment[p] == path_index)]


def _regimented_step(g: BipartiteGraph, fam: EdgeFamily, n: int,
                     rm: RainbowMatching, net, nf, reg,
                     trail: list | None) -> RainbowMatching:
    """One local improvement step under a regimentation certificate."""
    matched = rm.matching().edges
    represented_by = {e: i for i, e in rm.assignment.items()}
    matched_a = {e[0] for e in matched}
    b_owner = {e[1]: e for e in matched}
    essential = set(reg.assignment)
    ie_positions = [p for p in range(1, len(nf) + 1) if p not in essential]
    ie_ids = [nf.origin[p - 1] for p in ie_positions]

    ie_arcs_empty = all(not nf.member(p) for p in ie_positions)
    if ie_arcs_empty:
        # every inessential member's edges already sit inside the matching:
        # trade the representation of one such edge and retry
        s1 = next((i for i in sorted(ie_ids) if fam.member(i)), None)
        if s1 is None:
            raise ConstructiveStall("every inessential member is empty")
        f = min(fam.member(s1))
        if f not in represented_by:
            raise ConstructiveStall(
                "inessential member holds a non-matching edge unexpectedly")
        s0 = represented_by[f]
        assignment = dict(rm.assignment)
        del assignment[s0]
        assignment[s1] = f
        _log(trail, {"op": "swap", "edge": list(f), "freed": s0,
                     "represents": s1, "size": len(rm)})
        return RainbowMatching(assignment)

    # least inessential arc that runs backward along a certificate path;
    # every inessential arc is backward when no rainbow path exists
    found = None
    for pos in sorted(ie_positions):
        for arc in net.sorted_arcs(nf.member(pos)):
            for index, q in enumerate(reg.paths):
                spots = {v: i for i, v in enumerate(q.vertices)}
                if arc[0] in spots and arc[1] in spots \
                        and spots[arc[1]] < spots[arc[0]]:
                    found = (pos, arc, index, spots[arc[1]], spots[arc[0]])
                    break
            if found:
                break
        if found:
            break
    if found is None:
        raise ConstructiveStall("no inessential arc runs backward on a certificate path")
    owner_pos, pq, back_index, lo, hi = found
    back_path = reg.paths[back_index]
    owner_id = nf.origin[owner_pos - 1]
    p_edge, q_edge = pq
    sp = represented_by[p_edge]
    run = list(back_path.vertices[lo:hi + 1])
    run_edges = [(run[i][0], run[i + 1][1]) for i in range(len(run) - 1)]

    union_ids = sorted(set(ie_ids) | {sp})
    big = max_matching(g, fam.union(union_ids))
    if len(big) < n:
        raise ConstructiveStall("cooperative condition broke mid-loop")
    ax = min((e for e in big.edges if e[0] not in matched_a), default=None)
    if ax is None:
        raise ConstructiveStall("no unmatched-endpoint edge in the union matching")
    a, x = ax

    if x not in b_owner:
        # ax is directly addable
        direct = next((i for i in sorted(ie_ids) if ax in fam.member(i)), None)
        if direct is not None:
            assignment = dict(rm.assignment)
            assignment[direct] = ax
            _log(trail, {"op": "augment-direct", "edge": list(ax),
                         "represents": direct, "size": len(rm) + 1})
            return RainbowMatching(assignment)
        if ax not in fam.member(sp):
            raise ConstructiveStall("union matching edge escaped its members")
        # exchange the certificate-path run between the backward arc's ends,
        # freeing sp's edge so ax can represent sp
        pool = _certificate_pool(reg, nf, back_index)
        if len(run_edges) > len(pool):
            raise ConstructiveStall("certificate lacks members for the exchange run")
        pairs = [(i, e) for i, e in sorted(rm.assignment.items())
                 if e not in set(run)]
        pairs += [(sp, ax), (owner_id, (p_edge[0], q_edge[1]))]
        pairs += list(zip(pool[:len(run_edges)], run_edges))
        counts = Counter(i for i, _ in pairs)
        if any(c > 1 for c in counts.values()):
            raise ConstructiveStall("exchange produced a representation clash")
        result = RainbowMatching(dict(pairs))
        _log(trail, {"op": "augment-exchange", "edge": list(ax),
                     "run": [list(e) for e in run], "size": len(result)})
        return result

    # x is matched: walk from its matching edge to the target
    h = b_owner[x]
    if ax not in fam.member(sp):
        raise ConstructiveStall("source-arc witness escaped the doubled member")
    walk_path = next((q for q in reg.paths if h in q.vertices), None)
    if walk_path is None:
        raise ConstructiveStall("matched edge missing from the certificate cover")
    walk_index = reg.paths.index(walk_path)
    start = walk_path.vertices.index(h)
    tail = walk_path.vertices[start:]
    tail_arcs = list(zip(tail, tail[1:]))
    pool = _certificate_pool(reg, nf, walk_index)
    if len(tail_arcs) > len(pool):
        raise ConstructiveStall("certificate lacks members to represent the walk")
    walk_ids = pool[:len(tail_arcs)]
    edges = [ax]
    for (u, w), member_id in zip(tail_arcs, walk_ids):
        if w == TARGET:
            pos = nf.origin.index(member_id) + 1
            witnesses = nf.preimages.get((pos, (u, w)), frozenset())
            if not witnesses:
                raise ConstructiveStall("missing preimage for the closing arc")
            edges.append(min(witnesses))
        else:
            edges.append((u[0], w[1]))
    alt = alternating_from_edges(edges, rm)
    try:
        result = augment(rm, alt, [sp] + walk_ids)
        _log(trail, {"op": "augment", "edge": list(ax),
                     "members": [sp] + walk_ids, "size": len(result)})
        return result
    except RepresentationClash as clash:
        pool = [i for i in _certificate_pool(reg, nf, back_index)
                if i not in set(walk_ids)]
        if len(run_edges) > len(pool):
            raise ConstructiveStall("certificate lacks members for the repair cycle")
        cycle = RectifyCycle(chord=(p_edge[0], q_edge[1]), chord_member=owner_id,
                             matched_run=tuple(run), run_edges=tuple(run_edges),
                             run_members=tuple(pool[:len(run_edges)]))
        result = rectify_double_representation(clash.pairs, cycle)
        _log(trail, {"op": "rectify", "doubled": clash.member,
                     "run": [list(e) for e in run], "size": len(result)})
        return result


@dataclass(frozen=True)
class ArrowCheck:
    """Instance-level verdict on an arrow statement (m, k, n) -> q."""

    status: str  # "holds" | "hypothesis-failure" | "counterexample"
    failing_indices: tuple[int, ...] | None = None
    oracle_size: int | None = None
    witness: RainbowMatching | None = None


def verify_arrow_statement(m: int, k: int, n: int, q: int,
                           fam: EdgeFamily) -> ArrowCheck:
    """Check on one instance: if every k-union has matching number at least
    n, does a rainbow matching of size q exist?  The conclusion is settled
    by the brute-force oracle."""
    if len(fam) != m:
        raise ValueError(f"family size {len(fam)} does not match m = {m}")
    if any(not s for s in fam.sets):
        raise ValueError("members must be nonempty")
    if not 1 <= k <= m:
        raise ValueError(f"k must satisfy 1 <= k <= {m}")
    failing = cooperative_condition(fam, k, n)
    if failing is not None:
        return ArrowCheck("hypothesis-failure", failing_indices=failing)
    size, witness = rainbow_matching_max(fam)
    status = "holds" if size >= q else "counterexample"
    return ArrowCheck(status, oracle_size=size, witness=witness)
