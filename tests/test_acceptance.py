"""Acceptance suite: one test per criterion, each printing a PASS line.

The exhaustive sweeps enumerate families as multisets over a fixed
full-arc network per inner-vertex count: every checked statement is
invariant under member reordering, and its outcome depends only on the
inner vertex set and the members' arcs, so this covers all ordered
families over all sub-networks of each size.  Run with -s to see the
per-criterion lines.
"""

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import pytest

from rainbowmatch import (BipartiteGraph, EdgeFamily, Network, NetworkFamily,
                          RainbowMatching, RainbowStPath, Regimentation,
                          check_structure_lemmas, cooperative_condition,
                          dichotomy, exhaustive_rainbow_path,
                          greedy_rainbow_tree, has_st_path, is_valid_rainbow,
                          rainbow_matching_max, solve_main,
                          verify_rainbow_path)
from rainbowmatch.cli import main as cli_main
from rainbowmatch.generators import (drisko_family, random_cooperative_family,
                                     sharpness_family, staircase_family)
from rainbowmatch.search import conjecture_search


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _arc_space(inner):
    verts = ["s", *inner, "t"]
    return [(u, v) for u in verts for v in verts
            if u != v and u != "t" and v != "s"]


@lru_cache(maxsize=None)
def _stratum_tables(inner_count):
    """(inner, haspath, pair, net, member_mask) for the full-arc network
    on inner_count inner vertices: per arc-subset index, whether the
    subset holds a path, whether two subsets' union does, and the
    subset's arc mask over net."""
    inner = tuple("uv"[i] for i in range(inner_count))
    arcs = _arc_space(inner)
    n = 1 << len(arcs)
    subsets = [frozenset(a for i, a in enumerate(arcs) if m >> i & 1)
               for m in range(n)]
    haspath = [has_st_path(s, "s", "t") for s in subsets]
    pair = [[haspath[a | b] for b in range(n)] for a in range(n)]
    net = Network(inner=inner, arcs=frozenset(arcs))
    member_mask = [NetworkFamily(net, (s,)).masks[0] for s in subsets]
    return inner, haspath, pair, net, member_mask


def _multisets_passing(haspath, pair, count, k, firsts=None):
    """Multisets of `count` masks whose every k-union contains a path, in
    lexicographic order; firsts restricts the least mask (default: all)."""
    n = len(haspath)
    firsts = range(n) if firsts is None else firsts
    if count == 0:
        yield ()
        return
    if count == 1:
        for a in firsts:
            if k > 1 or haspath[a]:
                yield (a,)
        return
    if count == 2:
        for a in firsts:
            for b in range(a, n):
                if k == 1:
                    if haspath[a] and haspath[b]:
                        yield (a, b)
                elif pair[a][b]:
                    yield (a, b)
        return
    if count == 3:
        for a in firsts:
            pa = pair[a]
            for b in range(a, n):
                if k == 1 and not (haspath[a] and haspath[b]):
                    continue
                if k == 2 and not pa[b]:
                    continue
                pb = pair[b]
                for c in range(b, n):
                    if k == 1:
                        if haspath[c]:
                            yield (a, b, c)
                    elif pa[c] and pb[c]:
                        yield (a, b, c)
        return
    if count == 4 and k == 2:
        for a in firsts:
            pa = pair[a]
            for b in range(a, n):
                if not pa[b]:
                    continue
                pb = pair[b]
                for c in range(b, n):
                    if not (pa[c] and pb[c]):
                        continue
                    pc = pair[c]
                    for d in range(c, n):
                        if pa[d] and pb[d] and pc[d]:
                            yield (a, b, c, d)
        return
    raise NotImplementedError(count)


@pytest.fixture(scope="module")
def dichotomy_sweep():
    """Criterion 4's exhaustive run; certificates are kept for criterion 8."""
    outcomes = {"path": 0, "certificate": 0, "violation": 0}
    certificates = []
    for inner_count in (0, 1, 2):
        _, haspath, pair, net, member_mask = _stratum_tables(inner_count)
        for k in (1, 2):
            size = inner_count + k - 1
            for masks in _multisets_passing(haspath, pair, size, k):
                nf = NetworkFamily.from_masks(net, [member_mask[m] for m in masks])
                out = dichotomy(net, nf, k)
                if isinstance(out, RainbowStPath):
                    outcomes["path"] += 1
                elif isinstance(out, Regimentation):
                    outcomes["certificate"] += 1
                    certificates.append((net, nf, out))
                else:
                    outcomes["violation"] += 1
    return outcomes, certificates


def test_criterion_1_sharpness_reproduction():
    checked = 0
    for n in (2, 3, 4, 5):
        for k in (2, 3, 4):
            _, fam = sharpness_family(n, k)
            for size in range(k, len(fam) + 1):
                assert cooperative_condition(fam, size, n) is None, (n, k, size)
            value, witness = rainbow_matching_max(fam)
            assert value == n - 1, (n, k, value)
            assert is_valid_rainbow(fam, witness, size=n - 1)
            checked += 1
    report(1, checked == 12,
           f"{checked} extremal families: all large unions reach n, "
           "largest rainbow matching is n-1")


def test_criterion_2_main_theorem_exhaustive():
    g = BipartiteGraph.complete(2)
    nonempty = [frozenset(c) for size in (1, 2, 3, 4)
                for c in itertools.combinations(sorted(g.edges), size)]
    families = passing = 0
    for combo in itertools.combinations_with_replacement(nonempty, 3):
        families += 1
        fam = EdgeFamily(g, combo)
        if cooperative_condition(fam, 2, 2) is not None:
            continue
        passing += 1
        assert rainbow_matching_max(fam)[0] >= 2, combo
        # a stalled construction would come back as a ViolationReport
        out = solve_main(fam, 2, 2)
        assert isinstance(out, RainbowMatching), combo
        assert is_valid_rainbow(fam, out, size=2), combo
    report(2, families == 680 and passing > 0,
           f"{passing}/{families} cooperative triples over K22, "
           "all solved with verified size-2 witnesses, zero violations")


def test_criterion_3_main_theorem_randomized():
    solved = 0
    goal_per_cell = 500
    for n, k in ((3, 2), (3, 3), (4, 2)):
        graphs = (BipartiteGraph.complete(n), BipartiteGraph.complete(n, n + 1))
        for gi, g in enumerate(graphs):
            collected = 0
            oracle_checked = 0
            seed = 10_000 * n + 1_000 * k + 100_000 * gi
            while collected < goal_per_cell:
                seed += 1
                fam = random_cooperative_family(n, k, g, seed=seed, density=0.55)
                if fam is None:
                    continue
                collected += 1
                trail = []
                out = solve_main(fam, k, n, trail=trail)
                assert isinstance(out, RainbowMatching), (n, k, seed)
                assert is_valid_rainbow(fam, out, size=n), (n, k, seed)
                # a swap keeps the size, every other step adds one edge
                sizes = [0] + [e["size"] for e in trail]
                assert [b - a for a, b in zip(sizes, sizes[1:])] == [
                    0 if e["op"] == "swap" else 1 for e in trail], (n, k, seed)
                solved += 1
                if oracle_checked < 50:  # 100 per (n, k) across both graphs
                    oracle_checked += 1
                    value, _ = rainbow_matching_max(fam)
                    assert value >= n
                    assert (len(out) == value) == (value == n)
    report(3, solved == 3000,
           f"{solved} random cooperative instances solved and verified, "
           "witness sizes consistent with the oracle on the subsample")


def test_criterion_4_dichotomy_exhaustive(dichotomy_sweep):
    outcomes, certificates = dichotomy_sweep
    total = outcomes["path"] + outcomes["certificate"] + outcomes["violation"]
    report(4, outcomes["violation"] == 0 and total == 328_123,
           f"{total} critical-size families: {outcomes['path']} paths, "
           f"{outcomes['certificate']} certificates, "
           f"{outcomes['violation']} violations")


def _greedy_slice(inner_count, k, first, stop):
    """Criterion 5's checks on the (inner_count, k) stratum's multisets
    whose least mask lies in range(first, stop); the number checked.
    Module-level, so worker processes can import it by name."""
    inner, haspath, pair, net, member_mask = _stratum_tables(inner_count)
    checked = 0
    for masks in _multisets_passing(haspath, pair, inner_count + k, k,
                                    range(first, stop)):
        nf = NetworkFamily.from_masks(net, [member_mask[m] for m in masks])
        out = greedy_rainbow_tree(net, nf)
        assert isinstance(out, RainbowStPath), (inner, k, masks)
        assert verify_rainbow_path(nf, out), (inner, k, masks)
        checked += 1
    return checked


def test_criterion_5_greedy_completeness():
    # each stratum's least-mask range in up to 32 contiguous slices: the
    # low slices carry the most multisets, so narrow ones keep every
    # worker busy; the counts merge in slice order
    slices = []
    for inner_count in (0, 1, 2):
        n = len(_stratum_tables(inner_count)[1])
        step = -(-n // 32)
        for k in (1, 2):
            slices += [(inner_count, k, first, min(first + step, n))
                       for first in range(0, n, step)]
    with ProcessPoolExecutor(min(os.cpu_count() or 1, len(slices))) as pool:
        checked = sum(pool.map(_greedy_slice, *zip(*slices)))
    report(5, checked == 9_888_863,
           f"greedy returned an independently verified rainbow path on "
           f"{checked} instances at one past the critical size")


def test_criterion_6_drisko():
    for n in (2, 3, 4):
        for seed in range(500):
            fam = drisko_family(n, seed)
            assert rainbow_matching_max(fam)[0] == n, (n, seed)
    report(6, True, "1500 random full-matching families all reach n")


def test_criterion_7_staircase():
    for k in (2, 3):
        for seed in range(500):
            fam = staircase_family(k, seed)
            assert rainbow_matching_max(fam)[0] >= k, (k, seed)
    report(7, True, "1000 staircase families all reach k")


def test_criterion_8_structure_lemmas(dichotomy_sweep):
    _, certificates = dichotomy_sweep
    checked = 0
    for net, nf, cert in certificates:
        assert exhaustive_rainbow_path(net, nf) is None
        rep = check_structure_lemmas(net, nf, cert)
        assert rep.hypothesis_met
        assert rep.counting_ok, (nf.sets,)
        assert rep.backward_ok, (nf.sets,)
        assert rep.only_path_ok, (nf.sets,)
        assert rep.essential_iff_path_ok, (nf.sets,)
        checked += 1
    report(8, checked == len(certificates) and checked > 0,
           f"counting, backward-containment, only-path, and "
           f"essential-iff-path checks hold on all {checked} certificates "
           "from criterion 4")


def test_criterion_9_conjecture_harness():
    exhaustive = conjecture_search("c4.1", k=2,
                                   graph=BipartiteGraph.complete(2),
                                   budget=10_000, exhaustive=True)
    assert not exhaustive.found
    sampled = conjecture_search("c4.1", k=2, graph=BipartiteGraph.complete(3),
                                budget=100_000, seed=2024)
    assert not sampled.found
    report(9, True,
           f"no counterexample; exhaustive K22 {exhaustive.instances} "
           f"instances ({exhaustive.hypothesis_passed} eligible), sampled "
           f"K33 {sampled.instances} instances "
           f"({sampled.hypothesis_passed} eligible)")


def test_criterion_10_determinism(tmp_path, capsys):
    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    transcripts = []
    for _ in range(2):
        gen = run("gen", "--family", "drisko", "--n", "3", "--seed", "31")
        instance = tmp_path / "inst.json"
        instance.write_text(gen)
        solved = run("solve", "--input", str(instance), "--n", "3", "--k", "2")
        searched = run("search", "--conjecture", "c4.3", "--k", "2",
                       "--budget", "50", "--seed", "8")
        transcripts.append((gen, solved, searched))
    identical = transcripts[0] == transcripts[1]
    cert = json.loads(transcripts[0][1])
    report(10, identical and cert["schema"] == "rainbow/1",
           "generate, solve, and search transcripts byte-identical "
           "across consecutive runs")
