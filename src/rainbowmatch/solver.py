"""Constructive engine for the cooperative rainbow-matching theorem.

Given 2n + k - 3 edge sets (at most k - 2 empty, 1 < k <= n) whose every
k-union contains a matching of size n, a rainbow matching of size n is
grown by repeated augmentation: build the network over the current
matching, search for a rainbow source-target path and augment along it;
when no such path exists the family is regimented and one of the local
exchange steps applies (representation swap, direct addition, cycle
exchange, walk, or walk-and-rectify).  Each step only describes its move:
the edges it drops, the (member, edge) pairs it adds and its trail event,
each arc it uses read back as its member's least edge on it (_witness).
The round (_constructive) applies the move as one _exchange, checks that
a swap keeps the size and every other step adds one edge, and logs it.
There is no other route to an answer: a construction that stalls is
reported as a ViolationReport, with the brute-force oracle's size beside
the reason.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .core import (Edge, EdgeFamily, RainbowMatching, _require_ints,
                   cooperative_condition, is_valid_rainbow, max_matching,
                   rainbow_matching_max)
from .network import SOURCE, TARGET, build_network
from .dichotomy import TheoremViolation, path_or_certificate
from .paths import RainbowStPath
from .regiment import _least_backward_arc


@dataclass(frozen=True)
class HypothesisFailure:
    """A k-member union with matching number below n."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class ViolationReport:
    """Hypothesis holds, yet the construction found no rainbow matching of
    size n.

    This is the falsification channel; producing one would contradict the
    theorem (oracle_size < n) or a step of its proof (oracle_size >= n).
    """

    detail: str
    oracle_size: int


class ConstructiveStall(RuntimeError):
    """The constructive loop cannot continue (budget or unexpected state);
    solve_main reports it as a ViolationReport."""


def _exchange(rm: RainbowMatching, drop: Iterable[Edge],
              add: Iterable[tuple[int, Edge]]) -> RainbowMatching:
    """The rainbow matching left when the edges in drop leave rm and the
    (member, edge) pairs in add join it.

    Every constructive move is one such exchange.  A member that would be
    represented twice, or a result that is not a matching, raises
    ValueError.
    """
    add = list(add)
    _require_ints([i for i, _ in add], "a member id")
    drop = set(drop)
    out = sorted(p for p in rm.assignment.items() if p[1] not in drop) + add
    counts = Counter(i for i, _ in out)
    doubled = sorted(i for i, c in counts.items() if c > 1)
    if doubled:
        raise ValueError(f"member {doubled[0]} would be represented twice")
    return RainbowMatching(dict(out))


def solve_main(fam: EdgeFamily, k: int, n: int, trail: list | None = None
               ) -> RainbowMatching | HypothesisFailure | ViolationReport:
    """Produce a verified rainbow matching of size n, or report why not.

    Parameter errors (sizes, ranges, emptiness bound) raise ValueError;
    a failing k-union is returned as HypothesisFailure.  A stalled
    construction (4 * n * len(fam) steps at most, or a step that fails its
    checks) is returned as a ViolationReport naming the stall and the
    brute-force oracle's size.  trail, when given, collects an audit log of
    augmentations, swaps and rectifications.
    """
    _require_ints((k, n), "a size parameter")
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
    try:
        return _constructive(fam, k, n, trail)
    except ConstructiveStall as stall:
        size, _ = rainbow_matching_max(fam)
        return ViolationReport(
            detail=f"construction stalled: {stall}; the brute-force oracle "
                   f"finds a rainbow matching of size {size} "
                   f"({'>=' if size >= n else '<'} n = {n})",
            oracle_size=size)


def _constructive(fam: EdgeFamily, k: int, n: int,
                  trail: list | None) -> RainbowMatching:
    """Grow rm one move per round: apply it, check it, log it."""
    budget = 4 * n * len(fam)
    rm = RainbowMatching({})
    steps = 0
    while len(rm) < n:
        steps += 1
        if steps > budget:
            raise ConstructiveStall(f"iteration budget {budget} exhausted")
        nf = build_network(fam, rm)
        found = path_or_certificate(nf)
        try:
            if isinstance(found, RainbowStPath):
                drop, add, event = _augment_via_path(fam, found, nf, rm)
            else:
                if len(nf) != len(nf.network.inner) + k - 1:
                    raise ConstructiveStall(
                        "no rainbow path although the family exceeds the critical size")
                if isinstance(found, TheoremViolation):
                    raise ConstructiveStall(
                        "neither rainbow path nor regimentation certificate")
                drop, add, event = _regimented_step(fam, n, rm, nf, found)
            nxt = _exchange(rm, drop, add)
        except ValueError as exc:
            # the exchange refused the move: a doubled member or no matching
            raise ConstructiveStall(f"step refused: {exc}") from exc
        # a swap trades one representation; every other move adds one edge
        growth = 0 if event["op"] == "swap" else 1
        if len(nxt) != len(rm) + growth:
            raise ConstructiveStall(f"step {event['op']} changed the size by "
                                    f"{len(nxt) - len(rm)}, not {growth}")
        if not is_valid_rainbow(fam, nxt):
            raise ConstructiveStall("a step produced an invalid rainbow matching")
        if trail is not None:
            trail.append({**event, "size": len(nxt)})
        rm = nxt
    if not is_valid_rainbow(fam, rm, size=n):
        raise ConstructiveStall("constructed matching failed re-verification")
    return rm


def _witness(fam: EdgeFamily, i: int, arc, rm: RainbowMatching) -> Edge:
    """The least edge of member i on arc of the network over rm.

    An inner vertex is a matching edge: as the arc's tail it fixes the
    edge's A-vertex, as its head the B-vertex.  The source stands for any
    unmatched A-vertex and the target for any unmatched B-vertex.
    """
    u, v = arc
    if u == v or u == TARGET or v == SOURCE:
        edge = None  # a self-loop, an arc into s or an arc out of t
    elif u != SOURCE and v != TARGET:
        edge = (u[0], v[1]) if (u[0], v[1]) in fam.member(i) else None
    else:
        matched_a = {a for a, _ in rm.assignment.values()}
        matched_b = {b for _, b in rm.assignment.values()}
        edge = min((e for e in fam.member(i)
                    if (e[0] not in matched_a if u == SOURCE else e[0] == u[0])
                    and (e[1] not in matched_b if v == TARGET else e[1] == v[1])),
                   default=None)
    if edge is None:
        raise ConstructiveStall(f"member {i} has no edge on arc {arc}")
    return edge


def _augment_via_path(fam: EdgeFamily, found, nf, rm: RainbowMatching):
    """The move (drop, add, event) that augments along a rainbow
    source-target path: each arc realized by its member's least edge on it
    and each inner vertex, a matching edge, dropped.

    New edges represent previously unrepresented members, so no clash is
    possible on this route.
    """
    arcs = found.path.arcs
    member_ids = [nf.origin[found.representation[j] - 1] for j in range(len(arcs))]
    edges = [_witness(fam, i, arc, rm) for i, arc in zip(member_ids, arcs)]
    return found.path.interior, list(zip(member_ids, edges)), {
        "op": "augment", "path": found.path.vertices, "members": member_ids}


def _certificate_pool(reg, nf, path_index: int) -> list[int]:
    """Family ids of the members assigned to the given certificate path."""
    return [nf.origin[pos - 1]
            for pos in sorted(p for p in reg.assignment
                              if reg.assignment[p] == path_index)]


def _regimented_step(fam: EdgeFamily, n: int, rm: RainbowMatching, nf, reg):
    """The move (drop, add, event) of one local improvement step under a
    regimentation certificate."""
    matched = rm.edges
    represented_by = {e: i for i, e in rm.assignment.items()}
    matched_a = {e[0] for e in matched}
    b_owner = {e[1]: e for e in matched}
    essential = set(reg.assignment)
    ie_positions = [p for p in range(1, len(nf) + 1) if p not in essential]
    ie_ids = [nf.origin[p - 1] for p in ie_positions]

    if not any(nf.masks[p - 1] for p in ie_positions):
        # every inessential member's edges already sit inside the matching:
        # trade the representation of one such edge and retry
        s1 = next((i for i in sorted(ie_ids) if fam.member(i)), None)
        if s1 is None:
            raise ConstructiveStall("every inessential member is empty")
        f = min(fam.member(s1))
        if f not in represented_by:
            raise ConstructiveStall(
                "inessential member holds a non-matching edge unexpectedly")
        return [f], [(s1, f)], {"op": "swap", "edge": f,
                                "freed": represented_by[f], "represents": s1}

    # least inessential arc that runs backward along a certificate path;
    # every inessential arc is backward when no rainbow path exists
    found = _least_backward_arc(nf, reg, ie_positions)
    if found is None:
        raise ConstructiveStall("no inessential arc runs backward on a certificate path")
    owner_pos, back_index, lo, hi = found
    # the matched run from the backward arc's head to its tail, closed into
    # a cycle by the arc's own edge (the chord) and one bridge per step
    run = reg.paths[back_index].vertices[lo:hi + 1]
    chord = (nf.origin[owner_pos - 1], (run[-1][0], run[0][1]))
    bridges = [(run[i][0], run[i + 1][1]) for i in range(len(run) - 1)]
    sp = represented_by[run[-1]]

    union_ids = sorted(set(ie_ids) | {sp})
    big = max_matching(fam.graph, fam.union(union_ids))
    if len(big) < n:
        raise ConstructiveStall("cooperative condition broke mid-loop")
    ax = min((e for e in big if e[0] not in matched_a), default=None)
    if ax is None:
        raise ConstructiveStall("no unmatched-endpoint edge in the union matching")
    a, x = ax

    if x not in b_owner:
        # ax is directly addable
        direct = next((i for i in sorted(ie_ids) if ax in fam.member(i)), None)
        if direct is not None:
            return [], [(direct, ax)], {"op": "augment-direct", "edge": ax,
                                        "represents": direct}
        if ax not in fam.member(sp):
            raise ConstructiveStall("union matching edge escaped its members")
        # exchange the certificate-path run between the backward arc's ends,
        # freeing sp's edge so ax can represent sp
        pool = _certificate_pool(reg, nf, back_index)
        if len(bridges) > len(pool):
            raise ConstructiveStall("certificate lacks members for the exchange run")
        return run, [(sp, ax), chord, *zip(pool, bridges)], {
            "op": "augment-exchange", "edge": ax, "run": run}

    # x is matched: walk from its matching edge to the target
    h = b_owner[x]
    if ax not in fam.member(sp):
        raise ConstructiveStall("source-arc witness escaped the doubled member")
    walk_index = next((i for i, q in enumerate(reg.paths) if h in q.vertices), None)
    if walk_index is None:
        raise ConstructiveStall("matched edge missing from the certificate cover")
    tail = reg.paths[walk_index].vertices
    tail = tail[tail.index(h):]
    tail_arcs = list(zip(tail, tail[1:]))
    pool = _certificate_pool(reg, nf, walk_index)
    if len(tail_arcs) > len(pool):
        raise ConstructiveStall("certificate lacks members to represent the walk")
    walk_ids = pool[:len(tail_arcs)]
    edges = [ax] + [_witness(fam, i, arc, rm)
                    for arc, i in zip(tail_arcs, walk_ids)]
    walk = list(zip([sp] + walk_ids, edges))
    if run[-1] in tail[:-1]:
        # the walk drops sp's old edge, so sp is represented once
        return tail[:-1], walk, {"op": "augment", "edge": ax,
                                 "members": [sp] + walk_ids}
    # sp keeps run[-1] beside ax: the cycle along the backward arc drops the
    # run, sp's old edge with it, and closes it with the chord and bridges
    pool = [i for i in _certificate_pool(reg, nf, back_index)
            if i not in set(walk_ids)]
    if len(bridges) > len(pool):
        raise ConstructiveStall("certificate lacks members for the repair cycle")
    return [*tail[:-1], *run], walk + [chord, *zip(pool, bridges)], {
        "op": "rectify", "doubled": sp, "run": run}


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
    _require_ints((m, k, n, q), "a size parameter")
    if len(fam) != m:
        raise ValueError(f"family size {len(fam)} does not match m = {m}")
    if any(not s for s in fam.sets):
        raise ValueError("members must be nonempty")
    if not 1 <= k <= m:
        raise ValueError(f"k must satisfy 1 <= k <= {m}")
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    failing = cooperative_condition(fam, k, n)
    if failing is not None:
        return ArrowCheck("hypothesis-failure", failing_indices=failing)
    size, witness = rainbow_matching_max(fam)
    status = "holds" if size >= q else "counterexample"
    return ArrowCheck(status, oracle_size=size, witness=witness)
