import itertools
import random

import pytest

from rainbowmatch import (BipartiteGraph, EdgeFamily, max_matching,
                          rainbow_matching_max, search)
from rainbowmatch.core import _edge_table
from rainbowmatch.search import (conjecture_search, doubled_family,
                                 graded_union_condition)

from .helpers import brute_matching_number, family_on

K22 = BipartiteGraph.complete(2)


def test_graded_union_condition():
    fam = family_on(K22, {(1, 1)}, {(2, 2)}, {(1, 2), (2, 1)})
    assert graded_union_condition(fam, 2)
    weak = family_on(K22, {(1, 1)}, {(1, 1)}, {(1, 2), (2, 1)})
    assert not graded_union_condition(weak, 2)  # the pair {1,2} stays at 1


def naive_graded_union_condition(fam, k):
    """The definition itself: every nonempty subfamily, of every size."""
    m = len(fam)
    return all(brute_matching_number(fam.union(picked)) >= min(size, k)
               for size in range(1, m + 1)
               for picked in itertools.combinations(range(1, m + 1), size))


def test_graded_union_condition_matches_definition():
    # the walk stops at |K| = k; the oracle checks every size up to m
    rng = random.Random(13)
    g = BipartiteGraph.complete(3)
    edges = sorted(g.edges)
    verdicts = []
    for _ in range(400):
        m, k = rng.randint(1, 6), rng.randint(1, 4)
        fam = EdgeFamily(g, tuple(
            frozenset(rng.sample(edges, rng.randint(1, 4))) for _ in range(m)))
        verdict = graded_union_condition(fam, k)
        assert verdict == naive_graded_union_condition(fam, k), (fam.sets, k)
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_doubled_family_structure():
    fam = family_on(K22, {(1, 1), (2, 2)})
    doubled = doubled_family(fam)
    # built with core._trusted: the checked constructor agrees
    checked = EdgeFamily(search._doubled_graph(K22), doubled.sets)
    assert doubled == checked and hash(doubled) == hash(checked)
    assert doubled.graph.left_size == doubled.graph.right_size == 4
    assert doubled.sets[0] == {(1, 1), (2, 2), (3, 3), (4, 4)}
    # three disjoint perfect-matching members admit a full rainbow matching
    trio = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1), (2, 2)})
    assert len(max_matching(trio.graph, trio.sets[0])) == 2
    size, _ = rainbow_matching_max(doubled_family(trio))
    assert size == 3


def _k_matchings(g, k):
    return [frozenset(c) for c in itertools.combinations(sorted(g.edges), k)
            if len({a for a, _ in c}) == len({b for _, b in c}) == k]


@pytest.mark.parametrize("n, k, matchings, families", [
    (3, 2, 18, 1_140),
    (3, 3, 6, 252),
    (4, 2, 72, 64_824),
])
def test_c43_holds_on_k_matching_members(n, k, matchings, families):
    """c4.3 with every member a k-matching, exhaustively on K_{n,n}.

    Adding edges to a member keeps both c4.3's hypothesis and its
    conclusion, so a counterexample would shrink to one made of
    k-matchings; these are all such families for the listed cases.  K_{4,4}
    at k = 3 has about 75 million multisets and waits for an enumerator
    that prunes prefixes and symmetric images."""
    g = BipartiteGraph.complete(n)
    members = _k_matchings(g, k)
    assert len(members) == matchings
    checked = 0
    for combo in itertools.combinations_with_replacement(members, 2 * k - 1):
        fam = EdgeFamily(g, combo)
        size, _ = rainbow_matching_max(doubled_family(fam))
        assert size >= 2 * k - 1, combo
        checked += 1
    assert checked == families


def test_search_c41_base_case():
    result = conjecture_search("c4.1", k=1, budget=200, seed=3)
    assert not result.found
    assert result.instances == 200


def test_search_c41_exhaustive_k22():
    result = conjecture_search("c4.1", k=2, graph=K22, budget=10_000,
                               exhaustive=True)
    assert not result.found
    assert result.exhaustive
    assert result.instances == 680  # multisets of 3 nonempty edge subsets
    assert 0 < result.hypothesis_passed < result.instances


def test_search_c43_sampled():
    result = conjecture_search("c4.3", k=2, budget=300, seed=11)
    assert not result.found
    assert result.instances == 300
    assert result.hypothesis_passed > 0


def test_search_is_deterministic():
    a = conjecture_search("c4.1", k=2, budget=150, seed=5)
    b = conjecture_search("c4.1", k=2, budget=150, seed=5)
    assert (a.instances, a.hypothesis_passed, a.found) == \
        (b.instances, b.hypothesis_passed, b.found)


@pytest.mark.parametrize("target, seed, budget, expected", [
    ("c4.1", 5, 150, (150, 150)),
    ("c4.3", 11, 300, (300, 283)),
    ("c4.3", 8, 50, (50, 48)),
])
def test_search_stream_is_pinned(target, seed, budget, expected):
    # the sampler, the hypothesis checks and the oracle together fix these
    # counts on the default K_{3,3}
    result = conjecture_search(target, k=2, budget=budget, seed=seed)
    assert not result.found
    assert (result.instances, result.hypothesis_passed) == expected


G7 = BipartiteGraph(3, 4, frozenset({(1, 1), (1, 2), (2, 2), (2, 3), (3, 3),
                                     (3, 4), (1, 4)}))
# hypothesis_passed of 300 sampled instances on K_{k+1,k+1}, K_{k+1,k+2}
# and G7, with seeds 3 and 2024 on each
SAMPLED_PASSES = {
    ("c4.1", 1): (300, 300, 300, 300, 300, 300),
    ("c4.1", 2): (300, 300, 300, 300, 299, 300),
    ("c4.1", 3): (300, 300, 300, 300, 269, 271),
    ("c4.3", 1): (300, 300, 300, 300, 300, 300),
    ("c4.3", 2): (289, 278, 297, 298, 257, 250),
    ("c4.3", 3): (286, 289, 299, 299, 15, 10),
}


def test_doubled_edge_table_is_the_edges_then_their_copies():
    # c4.3 doubles a member mask m as m | m << |E|, which needs this order
    for g in (K22, BipartiteGraph.complete(3), BipartiteGraph.complete(2, 3), G7):
        edges, _, _ = _edge_table(g)
        doubled, bits, disjoint = _edge_table(search._doubled_graph(g))
        assert doubled == edges + tuple((a + g.left_size, b + g.right_size)
                                        for a, b in edges)
        assert list(bits) == list(doubled)
        for i, (a, b) in enumerate(doubled):
            assert bits[a, b] == 1 << i
            assert disjoint[i] == sum(1 << j for j, (c, d) in enumerate(doubled)
                                      if c != a and d != b)


@pytest.mark.parametrize("target, k", sorted(SAMPLED_PASSES))
def test_search_counts_are_pinned_across_graphs(target, k):
    graphs = (BipartiteGraph.complete(k + 1), BipartiteGraph.complete(k + 1, k + 2), G7)
    counts = []
    for g in graphs:
        for seed in (3, 2024):
            result = conjecture_search(target, k=k, graph=g, budget=300, seed=seed)
            assert not result.found and result.instances == 300
            counts.append(result.hypothesis_passed)
    assert tuple(counts) == SAMPLED_PASSES[target, k]


def _mask_edges(g, mask):
    edges = _edge_table(g)[0]
    return frozenset(e for i, e in enumerate(edges) if mask >> i & 1)


def _reference_verdict(target, g, masks, k):
    fam = EdgeFamily(g, tuple(_mask_edges(g, mask) for mask in masks))
    if target == "c4.1":
        return graded_union_condition(fam, k)
    return all(len(max_matching(g, s)) >= k for s in fam.sets)


def record_verdicts(monkeypatch):
    """Wrap the k-union walk as the search calls it; the list gets (masks,
    verdict) for every instance the search checks."""
    seen, walk = [], search._first_short_union

    def recorded(masks, floors, grow, empty):
        failing = walk(masks, floors, grow, empty)
        seen.append((list(masks), failing is None))
        return failing

    monkeypatch.setattr(search, "_first_short_union", recorded)
    return seen


THINNED = BipartiteGraph(3, 3, frozenset({(1, 1), (1, 2), (2, 1), (2, 3), (3, 2),
                                          (3, 3)}))


@pytest.mark.parametrize("target", search.TARGETS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_memoized_hypothesis_matches_its_references(monkeypatch, target, k):
    # the verdicts against the public checks, the stored values against the
    # brute-force matching number, capped at the goal k
    search._nu_table.cache_clear()
    seen = record_verdicts(monkeypatch)
    graphs = (BipartiteGraph.complete(2, 3), BipartiteGraph.complete(3),
              BipartiteGraph.complete(3, 4), THINNED)
    for g in graphs:
        for seed in (4, 31):
            seen.clear()
            result = conjecture_search(target, k=k, graph=g, budget=40, seed=seed)
            assert not result.found and len(seen) == result.instances == 40
            for masks, verdict in seen:
                assert verdict == _reference_verdict(target, g, masks, k), masks
            assert result.hypothesis_passed == sum(v for _, v in seen)
        table = search._nu_table(g, k)
        assert table
        for mask, size in table.items():
            assert size == min(brute_matching_number(_mask_edges(g, mask)), k)
    search._nu_table.cache_clear()


@pytest.mark.parametrize("target", search.TARGETS)
@pytest.mark.parametrize("k", [1, 2])
def test_exhaustive_memoized_hypothesis_matches_its_references(monkeypatch,
                                                               target, k):
    seen = record_verdicts(monkeypatch)
    result = conjecture_search(target, k=k, graph=K22, budget=10_000, exhaustive=True)
    subsets = [sum(c) for r in range(1, 5) for c in itertools.combinations((1, 2, 4, 8), r)]
    multisets = list(itertools.combinations_with_replacement(subsets, 2 * k - 1))
    assert [tuple(masks) for masks, _ in seen] == multisets
    verdicts = [_reference_verdict(target, K22, masks, k) for masks in multisets]
    assert [v for _, v in seen] == verdicts
    assert (result.instances, result.hypothesis_passed) == (len(multisets), sum(verdicts))


@pytest.mark.parametrize("target", search.TARGETS)
def test_matching_number_table_stores_at_most_its_cap(monkeypatch, target):
    K33 = BipartiteGraph.complete(3)
    search._nu_table.cache_clear()
    full = conjecture_search(target, k=2, graph=K33, budget=200, seed=5)
    assert len(search._nu_table(K33, 2)) > 5
    search._nu_table.cache_clear()
    monkeypatch.setattr(search, "_TABLE_CAP", 5)
    capped = conjecture_search(target, k=2, graph=K33, budget=200, seed=5)
    assert len(search._nu_table(K33, 2)) == 5
    assert (capped.instances, capped.hypothesis_passed) == \
        (full.instances, full.hypothesis_passed)
    search._nu_table.cache_clear()


def test_search_refuses_an_edge_table_past_the_mask_bound(monkeypatch):
    # refused before any graph is built: K_{k+1,k+1} at k = 10**30 would
    # not fit in memory
    for target in search.TARGETS:
        with pytest.raises(ValueError, match="edge table"):
            conjecture_search(target, k=10 ** 30, budget=0)
    # edges squared bits, counted on the doubled graph for c4.3: with the
    # bound at 18**2, K_{3,3} doubles to exactly 18 edges
    monkeypatch.setattr(search, "_MAX_MASK_BITS", 18 ** 2)
    assert conjecture_search("c4.3", k=2, graph=BipartiteGraph.complete(3),
                             budget=1).instances == 1
    assert conjecture_search("c4.1", k=3, budget=1).instances == 1   # K_{4,4}
    assert conjecture_search("c4.1", k=2, graph=BipartiteGraph.complete(3, 6),
                             budget=1).instances == 1
    for target, k, graph in (("c4.3", 2, BipartiteGraph.complete(3, 4)),
                             ("c4.1", 4, None),
                             ("c4.1", 2, BipartiteGraph.complete(3, 7))):
        with pytest.raises(ValueError, match="edge table"):
            conjecture_search(target, k=k, graph=graph, budget=1)


@pytest.mark.parametrize("target, k, expected", [
    ("c4.1", 1, (15, 15)),
    ("c4.1", 2, (680, 428)),
    ("c4.3", 1, (15, 15)),
    ("c4.3", 2, (680, 84)),
])
def test_exhaustive_search_counts_are_pinned(target, k, expected):
    result = conjecture_search(target, k=k, graph=K22, budget=10_000, exhaustive=True)
    assert not result.found and result.exhaustive
    assert (result.instances, result.hypothesis_passed) == expected


def test_search_validates_arguments():
    with pytest.raises(ValueError):
        conjecture_search("c9.9", k=2)
    with pytest.raises(ValueError):
        conjecture_search("c4.1", k=0)
    with pytest.raises(ValueError):
        # the K_{3,3} exhaustive space dwarfs any sane budget
        conjecture_search("c4.1", k=2, graph=BipartiteGraph.complete(3),
                          budget=10_000, exhaustive=True)
    with pytest.raises(ValueError, match="above the budget"):
        # counted before its 2**25 - 1 nonempty edge subsets are built
        conjecture_search("c4.1", k=1, graph=BipartiteGraph.complete(5),
                          budget=10_000, exhaustive=True)
    with pytest.raises(ValueError, match="above the budget 10$"):
        # a count of over 4300 digits, more than str() converts
        conjecture_search("c4.1", 1, graph=BipartiteGraph.complete(120),
                          budget=10, exhaustive=True)


def test_exhaustive_budget_boundary_is_the_multiset_count():
    # K22 has 15 nonempty edge subsets, so 3 members make C(17, 3) = 680
    # multisets: one short of that refuses, and exactly that runs them all
    with pytest.raises(ValueError, match="680 multisets"):
        conjecture_search("c4.1", k=2, graph=K22, budget=679, exhaustive=True)
    result = conjecture_search("c4.1", k=2, graph=K22, budget=680, exhaustive=True)
    assert (result.instances, result.hypothesis_passed) == (680, 428)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_search_refuses_negative_budget(exhaustive):
    # a sampled search used to report "no counterexample" on 0 instances
    with pytest.raises(ValueError):
        conjecture_search("c4.1", k=2, graph=K22, budget=-5, exhaustive=exhaustive)
    assert conjecture_search("c4.1", k=2, graph=K22, budget=0).instances == 0


def test_search_counterexample_detection_on_planted_instance():
    # feed the checker a family violating the graded bound on purpose, via
    # a tiny graph where the conjecture's premise cannot be met: k = 2 on a
    # single-edge graph never passes the hypothesis, so nothing is found
    tiny = BipartiteGraph(1, 1, frozenset({(1, 1)}))
    result = conjecture_search("c4.1", k=2, graph=tiny, budget=50,
                               exhaustive=True)
    assert not result.found
    assert result.hypothesis_passed == 0


def plant_counterexample(monkeypatch, public=0):
    """Make the search's private rainbow walk choose nothing, so a
    counterexample is planted on the first family that passes the
    hypothesis.  The public oracle, which re-verifies it, reports size
    public, or stays the real one when public is None."""
    monkeypatch.setattr(search, "_rainbow_walk", lambda masks, disjoint, goal: [])
    if public is not None:
        monkeypatch.setattr(search, "rainbow_matching_max",
                            lambda fam: (public, None))


@pytest.mark.parametrize("target", ["c4.1", "c4.3"])
def test_search_returns_planted_counterexample(monkeypatch, target):
    K33 = BipartiteGraph.complete(3)
    plant_counterexample(monkeypatch)
    result = conjecture_search(target, k=2, graph=K33, budget=200, seed=5)
    assert result.found and result.target == target
    assert result.oracle_size == 0
    assert result.hypothesis_passed == 1
    assert not result.exhaustive
    assert len(result.counterexample) == 3
    monkeypatch.undo()
    # every earlier instance failed the hypothesis, and the planted one
    # passes it with the real oracle too
    before = conjecture_search(target, k=2, graph=K33,
                               budget=result.instances - 1, seed=5)
    assert before.hypothesis_passed == 0
    upto = conjecture_search(target, k=2, graph=K33,
                             budget=result.instances, seed=5)
    assert not upto.found and upto.hypothesis_passed == 1


def test_search_exhaustive_counterexample_counts(monkeypatch):
    plant_counterexample(monkeypatch)
    result = conjecture_search("c4.1", k=2, graph=K22, budget=10_000,
                               exhaustive=True)
    assert result.found and result.exhaustive
    assert graded_union_condition(result.counterexample, 2)
    assert result.hypothesis_passed == 1
    assert 1 <= result.instances <= 680


def test_search_refuses_counterexample_that_does_not_reverify(monkeypatch):
    # the private walk under-reports; the public oracle reports another size
    plant_counterexample(monkeypatch, public=1)
    with pytest.raises(RuntimeError, match="re-verification"):
        conjecture_search("c4.1", k=2, graph=BipartiteGraph.complete(3),
                          budget=200, seed=5)


@pytest.mark.parametrize("target", ["c4.1", "c4.3"])
def test_search_refuses_counterexample_the_public_oracle_rejects(monkeypatch,
                                                                 target):
    # only the private walk under-reports; the real public oracle finds the
    # full size on re-verification
    plant_counterexample(monkeypatch, public=None)
    with pytest.raises(RuntimeError, match="counterexample failed re-verification"):
        conjecture_search(target, k=2, graph=BipartiteGraph.complete(3),
                          budget=200, seed=5)
