import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (BipartiteGraph, EdgeFamily, RainbowMatching,
                          conjecture_search,
                          cooperative_condition, dichotomy,
                          graded_union_condition, is_valid_rainbow,
                          max_matching, rainbow_matching_max, solve_main,
                          verify_arrow_statement)
from rainbowmatch.core import _edge_table
from rainbowmatch.generators import (drisko_family, random_cooperative_family,
                                     sharpness_family, staircase_family)
from rainbowmatch.search import doubled_family

from .helpers import (abstract_family, brute_matching_number,
                      brute_rainbow_number, dict_kuhn_matching, family_on,
                      naive_rainbow_matching_max)

K22 = BipartiteGraph.complete(2)
K33 = BipartiteGraph.complete(3)


def test_graph_validation():
    with pytest.raises(ValueError):
        BipartiteGraph(0, 2)
    with pytest.raises(ValueError):
        BipartiteGraph(2, 2, frozenset({(3, 1)}))
    assert len(BipartiteGraph.complete(3, 2).edges) == 6


def _fam22():
    return family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1)})


def _dichotomy(k):
    # one member at one inner vertex: the critical size for k = 1
    nf = abstract_family(("v",), [{("s", "v"), ("v", "t")}])
    return dichotomy(nf.network, nf, k)


@pytest.mark.parametrize("call", [
    lambda: BipartiteGraph(True, 2, frozenset({(1, 1)})),
    lambda: BipartiteGraph(2.0, 2),
    lambda: BipartiteGraph.complete(2, 2.0),
    lambda: solve_main(_fam22(), 2, 2.0),
    lambda: cooperative_condition(_fam22(), 2, True),
    lambda: verify_arrow_statement(3.0, True, 1, 1, _fam22()),
    lambda: sharpness_family(2, 2.0),
    lambda: drisko_family(True),
    lambda: staircase_family(2.0),
    lambda: random_cooperative_family(2, True, K22),
    lambda: conjecture_search("c4.1", k=True, budget=4),
    lambda: conjecture_search("c4.1", k=2, budget=4.0),
    lambda: random_cooperative_family(2, 2, K22, density=1.7),
    lambda: random_cooperative_family(2, 2, K22, density=-0.1),
    lambda: random_cooperative_family(2, 2, K22, density=True),
    lambda: graded_union_condition(_fam22(), True),
    lambda: graded_union_condition(_fam22(), 1.5),
    lambda: _dichotomy(True),
    lambda: _dichotomy(1.0),
    lambda: is_valid_rainbow(_fam22(), RainbowMatching({3: (1, 1)}), size=True),
], ids=["bool-side", "float-side", "float-complete-side", "float-solve-n",
        "bool-condition-n", "float-arrow-m", "float-sharpness-k",
        "bool-drisko-n", "float-staircase-k", "bool-random-k",
        "bool-search-k", "float-search-budget", "density-above-1",
        "density-below-0", "bool-density", "bool-graded-k", "float-graded-k",
        "bool-dichotomy-k", "float-dichotomy-k", "bool-rainbow-size"])
def test_size_parameters_refuse_floats_and_bools(call):
    # each was coerced or clamped: True read as 1, 2.0 failed later
    with pytest.raises(ValueError, match="must be an int|density must lie"):
        call()


@pytest.mark.parametrize("k", [0, -1])
def test_k_parameters_refuse_values_below_one(k):
    # graded_union_condition read k <= 0 as a vacuous pass
    with pytest.raises(ValueError, match="need k >= 1"):
        graded_union_condition(_fam22(), k)
    with pytest.raises(ValueError, match="need k >= 1"):
        _dichotomy(k)


def test_matching_rejects_shared_vertices():
    with pytest.raises(ValueError, match="matching edges share a vertex"):
        RainbowMatching({1: (1, 1), 2: (1, 2)})
    with pytest.raises(ValueError, match="matching edges share a vertex"):
        RainbowMatching({1: (1, 1), 2: (2, 1)})
    rm = RainbowMatching({1: (1, 1), 2: (2, 2)})
    assert len(rm) == 2
    assert rm.edges == {(1, 1), (2, 2)}


def test_family_members_are_positional():
    fam = family_on(K22, {(1, 1)}, {(1, 1)})
    assert len(fam) == 2
    assert fam.member(1) == fam.member(2)
    with pytest.raises(IndexError):
        fam.member(3)
    with pytest.raises(ValueError):
        family_on(K22, {(3, 3)})


def test_rainbow_matching_validation():
    with pytest.raises(ValueError):
        RainbowMatching({1: (1, 1), 2: (1, 1)})  # shared edge
    with pytest.raises(ValueError):
        RainbowMatching({1: (1, 1), 2: (1, 2)})  # image not a matching
    rm = RainbowMatching({2: (1, 1), 5: (2, 2)})
    assert sorted(rm.assignment) == [2, 5]
    fam = family_on(K22, {(1, 2)}, {(1, 1)}, {(1, 2)}, {(2, 1)}, {(2, 2)})
    assert is_valid_rainbow(fam, rm)
    assert not is_valid_rainbow(fam, rm, size=3)
    assert not is_valid_rainbow(fam, RainbowMatching({1: (1, 1)}))


def test_max_matching_examples():
    assert len(max_matching(K22)) == 2  # perfect matching of K_{2,2}
    assert len(max_matching(K22, frozenset())) == 0
    assert len(max_matching(K22, {(1, 1), (1, 2)})) == 1  # a star
    with pytest.raises(ValueError):
        max_matching(K22, {(3, 3)})


def test_max_matching_deterministic():
    first = max_matching(K33, {(1, 1), (1, 2), (2, 1), (3, 3)})
    second = max_matching(K33, {(1, 1), (1, 2), (2, 1), (3, 3)})
    assert first == second


@settings(max_examples=150, deadline=None)
@given(st.sets(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=8))
def test_max_matching_agrees_with_brute_force(edges):
    g = BipartiteGraph(4, 4, frozenset(edges))
    assert len(max_matching(g, edges)) == brute_matching_number(edges)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(4, 4), (3, 5)]), st.randoms(use_true_random=False))
def test_max_matching_edge_set_matches_reference(shape, rng):
    # the regimented step picks min() of this edge set, so the exact set is
    # part of the solver's determinism, not just its size
    g = BipartiteGraph.complete(*shape)
    density = rng.random()
    edges = frozenset(e for e in sorted(g.edges) if rng.random() < density)
    assert max_matching(g, edges) == dict_kuhn_matching(edges)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.sets(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=25))
def test_matching_number_agrees_with_hopcroft_karp(left, right, edges):
    nx = pytest.importorskip("networkx")
    edges = {(a, b) for a, b in edges if a <= left and b <= right}
    g = BipartiteGraph(left, right, frozenset(edges))
    top = [("a", a) for a in range(1, left + 1)]
    graph = nx.Graph()
    graph.add_nodes_from(top)
    graph.add_nodes_from(("b", b) for b in range(1, right + 1))
    graph.add_edges_from((("a", a), ("b", b)) for a, b in edges)
    mate = nx.bipartite.hopcroft_karp_matching(graph, top_nodes=top)
    assert len(max_matching(g)) == len(mate) // 2


def test_rainbow_oracle_examples():
    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2)})
    size, witness = rainbow_matching_max(fam)
    assert size == 1
    assert is_valid_rainbow(fam, witness, size=1)

    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1)})
    size, witness = rainbow_matching_max(fam)
    assert size == 2
    assert is_valid_rainbow(fam, witness, size=2)

    assert rainbow_matching_max(EdgeFamily(K22, ()))[0] == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                        min_size=0, max_size=4),
                min_size=0, max_size=4))
def test_rainbow_oracle_agrees_with_enumeration(sets):
    fam = EdgeFamily(K33, tuple(frozenset(s) for s in sets))
    size, witness = rainbow_matching_max(fam)
    assert size == brute_rainbow_number(fam)
    assert is_valid_rainbow(fam, witness, size=size)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                        min_size=1, max_size=4),
                min_size=1, max_size=5),
       st.randoms(use_true_random=False))
def test_rainbow_value_is_order_invariant(sets, rng):
    fam = EdgeFamily(K33, tuple(frozenset(s) for s in sets))
    shuffled = list(fam.sets)
    rng.shuffle(shuffled)
    permuted = EdgeFamily(K33, tuple(shuffled))
    assert rainbow_matching_max(fam)[0] == rainbow_matching_max(permuted)[0]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                        min_size=1, max_size=5),
                min_size=1, max_size=5))
def test_rainbow_at_most_min_of_both_oracles(sets):
    fam = EdgeFamily(K33, tuple(frozenset(s) for s in sets))
    size, _ = rainbow_matching_max(fam)
    assert size <= min(len(fam), len(max_matching(K33, fam.union())))


def _seeded_families(count: int, seed: int):
    """Families on graphs from K_{1,1} to K_{4,4}, square or not, complete
    or thinned, with 1-6 members; some members repeat an earlier one and
    some are empty."""
    rng = random.Random(seed)
    for _ in range(count):
        left, right = rng.randint(1, 4), rng.randint(1, 4)
        full = sorted(BipartiteGraph.complete(left, right).edges)
        kept = full if rng.random() < 0.5 else [e for e in full if rng.random() < 0.7]
        g = BipartiteGraph(left, right, frozenset(kept))
        sets = []
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            if sets and roll < 0.2:
                sets.append(rng.choice(sets))
            elif roll < 0.3:
                sets.append(frozenset())
            else:
                density = rng.random()
                sets.append(frozenset(e for e in kept if rng.random() < density))
        yield EdgeFamily(g, tuple(sets))


def test_rainbow_witness_matches_set_based_reference():
    # the witness is what check and the conjecture search report, so the
    # exact assignment is pinned, not only the size
    families = list(_seeded_families(2400, seed=29))
    shapes = {(fam.graph.left_size, fam.graph.right_size) for fam in families}
    assert any(a != b for a, b in shapes)
    assert any(frozenset() in fam.sets for fam in families)
    assert any(len(set(fam.sets)) < len(fam) for fam in families)
    # doubled families are what the c4.3 search hands the rainbow walk
    doubled = [doubled_family(fam) for fam in families[::4]]
    for fam in families + doubled:
        size, witness = rainbow_matching_max(fam)
        ref_size, ref_witness = naive_rainbow_matching_max(fam)
        assert (size, witness.assignment) == (ref_size, ref_witness.assignment), fam
        assert is_valid_rainbow(fam, witness, size=size)
    for fam in families:
        for s in (*fam.sets, fam.union()):
            assert len(max_matching(fam.graph, s)) == brute_matching_number(s)


def test_edge_table_disjoint_masks_match_their_definition():
    # each entry is the mask of the edges sharing no vertex with its edge
    rng = random.Random(41)
    graphs = [BipartiteGraph(3, 5), BipartiteGraph.complete(1),
              BipartiteGraph.complete(4, 7)]
    for _ in range(60):
        left, right = rng.randint(1, 7), rng.randint(1, 7)
        density = rng.choice((0.2, 0.5, 0.9))
        graphs.append(BipartiteGraph(left, right, frozenset(
            (a, b) for a in range(1, left + 1) for b in range(1, right + 1)
            if rng.random() < density)))
    for g in graphs:
        edges, bits, disjoint = _edge_table(g)
        assert edges == tuple(sorted(g.edges))
        assert disjoint == tuple(
            sum(bits[c, d] for c, d in edges if c != a and d != b)
            for a, b in edges), g
    assert _edge_table(graphs[0]) == ((), {}, ())
    assert any(g.left_size != g.right_size and g.edges for g in graphs)


def test_matching_number_still_validates_its_input():
    with pytest.raises(ValueError):
        max_matching(K22, {(1.0, 1)})
    with pytest.raises(ValueError):
        max_matching(K22, {(True, 1)})
    with pytest.raises(ValueError):
        max_matching(K22, {(1, 1), (3, 1)})
    with pytest.raises(ValueError):
        max_matching(K22, {(1, 2.0)})
    assert len(max_matching(K22, [(1, 1), (2, 2)])) == 2


def test_cooperative_condition_examples():
    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2)})
    assert cooperative_condition(fam, 2, 2) is None

    fam = family_on(K22, {(1, 1)}, {(1, 2)}, {(1, 1)})
    assert cooperative_condition(fam, 2, 2) == (1, 2)

    assert cooperative_condition(fam, 2, 0) is None
    with pytest.raises(ValueError):
        cooperative_condition(fam, 0, 1)
    with pytest.raises(ValueError):
        cooperative_condition(fam, 4, 1)


def test_cooperative_condition_full_k_reduces_to_union():
    for sets in itertools.combinations_with_replacement(
            [{(1, 1)}, {(1, 2), (2, 1)}, {(2, 2)}], 3):
        fam = EdgeFamily(K22, tuple(frozenset(s) for s in sets))
        verdict = cooperative_condition(fam, len(fam), 2)
        expected = len(max_matching(K22, fam.union())) >= 2
        assert (verdict is None) == expected


def naive_cooperative_condition(fam, k, n):
    for picked in itertools.combinations(range(1, len(fam) + 1), k):
        if brute_matching_number(fam.union(picked)) < n:
            return picked
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cooperative_condition_matches_naive_oracle(data):
    sets = data.draw(st.lists(
        st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4),
        min_size=1, max_size=6))
    fam = EdgeFamily(K33, tuple(frozenset(s) for s in sets))
    m = len(fam)
    k = data.draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))
    n = data.draw(st.integers(0, 3))
    assert cooperative_condition(fam, k, n) == naive_cooperative_condition(fam, k, n)


def test_cooperative_condition_oracle_sample_has_failures():
    # the property above must see both verdicts, and failures past the
    # first index set, for the lexicographic order to be checked
    rng = random.Random(5)
    edges = sorted(K33.edges)
    verdicts = []
    for _ in range(300):
        m = rng.randint(1, 6)
        fam = EdgeFamily(K33, tuple(
            frozenset(rng.sample(edges, rng.randint(0, 3))) for _ in range(m)))
        k, n = rng.randint(1, m), rng.randint(1, 3)
        verdict = cooperative_condition(fam, k, n)
        assert verdict == naive_cooperative_condition(fam, k, n)
        verdicts.append(verdict)
    assert None in verdicts
    assert any(v is not None and v != tuple(range(1, len(v) + 1))
               for v in verdicts)
