import itertools
import random

import pytest

from rainbowmatch import (BipartiteGraph, EdgeFamily, matching_number,
                          rainbow_matching_max, search)
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
    assert doubled.graph.left_size == doubled.graph.right_size == 4
    assert doubled.sets[0] == {(1, 1), (2, 2), (3, 3), (4, 4)}
    # three disjoint perfect-matching members admit a full rainbow matching
    trio = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1), (2, 2)})
    assert matching_number(trio.graph, trio.sets[0]) == 2
    size, _ = rainbow_matching_max(doubled_family(trio))
    assert size == 3


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


def test_search_validates_arguments():
    with pytest.raises(ValueError):
        conjecture_search("c9.9", k=2)
    with pytest.raises(ValueError):
        conjecture_search("c4.1", k=0)
    with pytest.raises(ValueError):
        # the K_{3,3} exhaustive space dwarfs any sane budget
        conjecture_search("c4.1", k=2, graph=BipartiteGraph.complete(3),
                          budget=10_000, exhaustive=True)


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


def under_reporting_oracle(monkeypatch, sizes=None):
    """Make the search's rainbow oracle report size 0, or the given sizes
    call by call, so a counterexample is planted on the first family that
    passes the hypothesis."""
    sizes = iter(sizes) if sizes is not None else itertools.repeat(0)
    monkeypatch.setattr(search, "rainbow_matching_max",
                        lambda fam: (next(sizes), None))


@pytest.mark.parametrize("target", ["c4.1", "c4.3"])
def test_search_returns_planted_counterexample(monkeypatch, target):
    K33 = BipartiteGraph.complete(3)
    under_reporting_oracle(monkeypatch)
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
    under_reporting_oracle(monkeypatch)
    result = conjecture_search("c4.1", k=2, graph=K22, budget=10_000,
                               exhaustive=True)
    assert result.found and result.exhaustive
    assert graded_union_condition(result.counterexample, 2)
    assert result.hypothesis_passed == 1
    assert 1 <= result.instances <= 680


def test_search_refuses_counterexample_that_does_not_reverify(monkeypatch):
    # the oracle under-reports once, then disagrees on the re-check
    under_reporting_oracle(monkeypatch, sizes=[0, 1])
    with pytest.raises(RuntimeError, match="re-verification"):
        conjecture_search("c4.1", k=2, graph=BipartiteGraph.complete(3),
                          budget=200, seed=5)
