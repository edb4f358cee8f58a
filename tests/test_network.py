import dataclasses
import random

import pytest

import rainbowmatch
from rainbowmatch import (SOURCE, TARGET, BipartiteGraph, Network,
                          NetworkFamily, RainbowMatching, RainbowStPath,
                          StPath, build_network, has_st_path)
from rainbowmatch.network import _rank_paths
from rainbowmatch.solver import (ConstructiveStall, RepresentationClash,
                                 _augment_via_path, _exchange, _witness)

from rainbowmatch.generators import random_cooperative_family

from .helpers import (all_arcs_over, family_on, has_augmenting_path,
                      naive_build_network, naive_st_paths)

K22 = BipartiteGraph.complete(2)
K33 = BipartiteGraph.complete(3)


def test_network_validation():
    with pytest.raises(ValueError):
        Network(inner=("v",), arcs={("t", "v")})  # arc out of the target
    with pytest.raises(ValueError):
        Network(inner=("v",), arcs={("v", "s")})  # arc into the source
    with pytest.raises(ValueError):
        Network(inner=("v", "v"), arcs=frozenset())
    with pytest.raises(ValueError):
        Network(inner=("v",), arcs={("v", "v")})
    with pytest.raises(ValueError):
        Network(inner=(), arcs={"st"})  # a string is not a (tail, head) pair
    with pytest.raises(ValueError):
        Network(inner=("u", "v"), arcs={("s", "u"), "uv", ("v", "t")})
    with pytest.raises(ValueError):
        # a set has no tail and head: its order would follow string hashing
        Network(inner=("u", "v"), arcs=[frozenset({"u", "v"})])
    with pytest.raises(ValueError):
        Network(inner=("u", "v"), arcs=[{"s", "u"}])
    with pytest.raises(ValueError):
        Network(inner="uv", arcs=[])  # a string is not a vertex sequence
    net = Network(inner=("u", "v"), arcs={("s", "u"), ("u", "v"), ("v", "t")})
    assert net.vertices == ("s", "u", "v", "t")
    assert net.rank("u") < net.rank("v") < net.rank("t")


def test_st_path_validation():
    with pytest.raises(ValueError):
        StPath(("s",))
    with pytest.raises(ValueError):
        StPath(("s", "v", "v", "t"))
    with pytest.raises(ValueError):
        StPath("st")  # a string is not a vertex sequence
    with pytest.raises(ValueError):
        StPath("svt")
    p = StPath(("s", "v", "t"))
    assert p.arcs == (("s", "v"), ("v", "t"))
    assert p.interior == ("v",)


def test_network_surface_has_one_source_and_target():
    assert [f.name for f in dataclasses.fields(Network)] == ["inner", "arcs"]
    net = Network(inner=("v",), arcs={("s", "v"), ("v", "t")})
    sets = (frozenset({("s", "v")}),)
    assert [f.name for f in dataclasses.fields(NetworkFamily)] == [
        "network", "masks", "origin"]
    with pytest.raises(TypeError):
        NetworkFamily(net, sets, preimages={})
    nf = NetworkFamily(net, sets)
    assert nf.origin is None
    # the network layer stops at arcs: the solver reads edges and exchanges
    for gone in ("_Preimages", "_least_witness", "_exchange", "RepresentationClash"):
        assert not hasattr(rainbowmatch.network, gone)
    for gone in ("contract_source_edge", "uncontract_path", "st_paths",
                 "check_exchange_lemma", "is_st_path", "AlternatingPath",
                 "alternating_from_edges", "path_to_alternating",
                 "RectifyCycle", "rectify_double_representation",
                 "PreimageError", "augment", "ConstructiveStall",
                 "RepresentationClash", "backward_arcs", "useless_arcs"):
        assert not hasattr(rainbowmatch, gone)
        assert gone not in rainbowmatch.__all__
    names = rainbowmatch.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(rainbowmatch, name) for name in names)
    for label in (SOURCE, TARGET):
        with pytest.raises(ValueError):
            Network(inner=(label,), arcs=frozenset())


def test_network_family_requires_ambient_arcs():
    net = Network(inner=("v",), arcs={("s", "v")})
    with pytest.raises(ValueError):
        NetworkFamily(net, (frozenset({("v", "t")}),))


def test_network_family_from_masks_matches_the_set_built_family():
    inner = ("u", "v")
    net = Network(inner=inner, arcs={("s", "u"), ("u", "v"), ("v", "t"), ("s", "t")})
    rng = random.Random(3)
    arcs = sorted(net.arcs, key=net.arc_key)
    for _ in range(50):
        sets = tuple(frozenset(a for a in arcs if rng.random() < 0.5)
                     for _ in range(rng.randint(0, 4)))
        by_sets = NetworkFamily(net, sets)
        by_masks = NetworkFamily.from_masks(net, list(by_sets.masks))
        assert by_masks == by_sets
        assert by_masks.origin is None
        assert by_masks.sets == sets
    outside = net._mask_over([("u", "t")])
    inside = by_sets.masks[0] if by_sets.masks else 0
    for bad in (True, 1.0, "1", None, -1, -2, outside, inside | outside):
        with pytest.raises(ValueError, match="member 2"):
            NetworkFamily.from_masks(net, (0, bad))


def test_build_network_four_cases():
    # one matched edge; the other member's edges hit all remaining cases
    fam = family_on(K22, {(1, 1)}, {(1, 2), (2, 1), (2, 2)})
    rm = RainbowMatching({1: (1, 1)})
    net, nf = build_network(fam, rm)
    assert net.inner == ((1, 1),)
    assert net.arcs == {((1, 1), "t"), ("s", (1, 1)), ("s", "t")}
    assert nf.origin == (2,)
    assert _witness(fam, 2, ("s", (1, 1)), rm) == (2, 1)
    assert _witness(fam, 2, ((1, 1), "t"), rm) == (1, 2)
    assert _witness(fam, 2, ("s", "t"), rm) == (2, 2)


def test_build_network_matched_to_matched():
    fam = family_on(K33, {(1, 1)}, {(2, 2)}, {(1, 2)})
    rm = RainbowMatching({1: (1, 1), 2: (2, 2)})
    _, nf = build_network(fam, rm)
    assert nf.sets[0] == {((1, 1), (2, 2))}


def test_build_network_trivial_cases():
    fam = family_on(K22, {(1, 1)})
    net, nf = build_network(fam, RainbowMatching({}))
    assert net.inner == ()
    assert nf.sets[0] == {("s", "t")}

    # member holding only matching edges maps to the empty arc set
    fam = family_on(K22, {(1, 1)}, {(1, 1)})
    _, nf = build_network(fam, RainbowMatching({1: (1, 1)}))
    assert nf.sets[0] == frozenset()


def test_build_network_rejects_foreign_matching():
    fam = family_on(K22, {(1, 1)})
    with pytest.raises(ValueError):
        build_network(fam, RainbowMatching({1: (2, 2)}))


def _translated(fam, graph, rm, path, rep):
    """The step _augment_via_path takes: the least witness of each arc and
    the result of augmenting along them."""
    _, nf = build_network(fam, rm)
    p = StPath(path)
    edges = [_witness(fam, nf.origin[rep[j] - 1], arc, rm)
             for j, arc in enumerate(p.arcs)]
    trail = []
    out = _augment_via_path(fam, RainbowStPath(p, rep), nf, rm, trail)
    assert trail[-1]["members"] == [nf.origin[rep[j] - 1] for j in sorted(rep)]
    return edges, out


def test_path_to_alternating_translation():
    fam = family_on(K22, {(1, 1)}, {(2, 1)}, {(1, 2)})
    rm = RainbowMatching({1: (1, 1)})
    edges, out = _translated(fam, K22, rm, ("s", (1, 1), "t"), {0: 1, 1: 2})
    assert edges == [(2, 1), (1, 2)]
    assert out.assignment == {2: (2, 1), 3: (1, 2)}


def test_path_to_alternating_single_edge():
    fam = family_on(K22, {(2, 2)})
    edges, out = _translated(fam, K22, RainbowMatching({}), ("s", "t"), {0: 1})
    assert edges == [(2, 2)]
    assert out.assignment == {1: (2, 2)}


def test_path_to_alternating_five_edges():
    fam = family_on(K33, {(1, 1)}, {(2, 2)}, {(3, 1)}, {(1, 2)}, {(2, 3)})
    rm = RainbowMatching({1: (1, 1), 2: (2, 2)})
    edges, out = _translated(fam, K33, rm, ("s", (1, 1), (2, 2), "t"),
                             {0: 1, 1: 2, 2: 3})
    assert edges == [(3, 1), (1, 2), (2, 3)]
    # alternation: the new edges augment the matching
    assert has_augmenting_path(edges, rm.matching().edges)
    assert out.assignment == {3: (3, 1), 4: (1, 2), 5: (2, 3)}


def test_path_to_alternating_least_preimage():
    # two unmatched A-vertices witness the same source arc: the least wins
    g = BipartiteGraph.complete(3, 2)
    fam = family_on(g, {(1, 1)}, {(2, 1), (3, 1)}, {(1, 2)})
    rm = RainbowMatching({1: (1, 1)})
    edges, out = _translated(fam, g, rm, ("s", (1, 1), "t"), {0: 1, 1: 2})
    assert edges[0] == (2, 1)
    assert out.assignment == {2: (2, 1), 3: (1, 2)}


def test_path_to_alternating_rejects_bad_rep():
    fam = family_on(K22, {(1, 1)}, {(2, 1)}, {(1, 2)})
    rm = RainbowMatching({1: (1, 1)})
    with pytest.raises(RepresentationClash):  # member reused
        _exchange(rm.assignment.items(), [(1, 1)], [(2, (2, 1)), (2, (1, 2))])
    with pytest.raises(ConstructiveStall):
        _witness(fam, 3, ("s", (1, 1)), rm)  # wrong owner: no preimage


def test_augment_examples():
    # augmenting is the exchange that drops the path's matched links
    rm = RainbowMatching({1: (1, 1)})
    out = _exchange(rm.assignment.items(), [(1, 1)], [(2, (2, 1)), (3, (1, 2))])
    assert out.matching().edges == {(2, 1), (1, 2)}
    assert out.assignment == {2: (2, 1), 3: (1, 2)}

    single = _exchange((), (), [(1, (1, 1))])
    assert len(single) == 1
    with pytest.raises(ValueError):  # (1, 1) kept: the result is no matching
        _exchange(rm.assignment.items(), [], [(2, (2, 1)), (3, (1, 2))])


def test_augment_clash_carries_pairs():
    # member 5's edge survives the toggle, and the path tries to reuse member 5
    rm = RainbowMatching({1: (1, 1), 5: (3, 3)})
    with pytest.raises(RepresentationClash) as caught:
        _exchange(rm.assignment.items(), [(1, 1)], [(2, (2, 1)), (5, (1, 2))])
    assert caught.value.member == 5
    assert ((5, (3, 3)) in caught.value.pairs) and ((5, (1, 2)) in caught.value.pairs)


def test_rectify_double_representation():
    # candidate: member 7 doubled via (3,3) and (5,4); repair along the run
    pairs = [(7, (3, 3)), (2, (1, 1)), (3, (2, 2)), (7, (5, 4)), (4, (4, 5))]
    run = ((1, 1), (2, 2), (3, 3))
    out = _exchange(pairs, run, [(9, (3, 1)), (10, (1, 2)), (11, (2, 3))])
    assert out.assignment == {7: (5, 4), 9: (3, 1), 10: (1, 2), 11: (2, 3),
                              4: (4, 5)}
    assert len(out) == len(pairs)


def test_rectify_shortest_cycle_swaps_two_edges():
    pairs = [(1, (1, 1)), (2, (2, 2)), (1, (3, 4))]
    out = _exchange(pairs, ((1, 1), (2, 2)), [(5, (2, 1)), (6, (1, 2))])
    assert out.assignment == {1: (3, 4), 5: (2, 1), 6: (1, 2)}


def test_rectify_requires_double_representation():
    # the run must hold the doubled member's other copy
    pairs = [(1, (1, 1)), (2, (2, 2)), (1, (3, 4)), (3, (3, 3))]
    with pytest.raises(RepresentationClash) as caught:
        _exchange(pairs, ((2, 2), (3, 3)), [(5, (3, 2)), (6, (2, 3))])
    assert caught.value.member == 1


def test_round_trip_path_existence():
    # network paths exist exactly when the matching is augmentable
    rng = random.Random(11)
    edges = sorted(K33.edges)
    matchings = [frozenset(), frozenset({(1, 1)}), frozenset({(1, 1), (2, 2)}),
                 frozenset({(1, 2), (2, 1), (3, 3)})]
    for matched in matchings:
        rm = RainbowMatching({i + 1: e for i, e in enumerate(sorted(matched))})
        for _ in range(80):
            member = frozenset(e for e in edges if rng.random() < 0.4)
            sets = tuple(frozenset({e}) for e in sorted(matched)) + (member,)
            fam = family_on(K33, *sets)
            net, nf = build_network(fam, rm)
            pos = len(nf)  # the free member is always last
            network_side = has_st_path(nf.sets[pos - 1], SOURCE, TARGET)
            graph_side = has_augmenting_path(member, matched)
            assert network_side == graph_side


def test_st_paths_enumeration_is_lexicographic():
    net = Network(inner=("u", "v"),
                  arcs={("s", "u"), ("s", "v"), ("u", "v"), ("u", "t"),
                        ("v", "t"), ("s", "t")})
    expected = [("s", "u", "v", "t"), ("s", "u", "t"), ("s", "v", "t"),
                ("s", "t")]
    # the order exhaustive_rainbow_path and find_regimentation rely on
    found = [net._path(ranks).vertices
             for ranks in _rank_paths(net._mask_over(net.arcs), net._size)]
    assert found == expected
    assert [p.vertices for p in naive_st_paths(net.arcs, net)] == expected


def _random_rainbow_matching(fam, rng) -> RainbowMatching:
    """A partial rainbow matching: members in random order, each taking a
    random edge that keeps the matching, or skipped."""
    assignment = {}
    used_a, used_b = set(), set()
    for i in rng.sample(range(1, len(fam) + 1), len(fam)):
        free = [e for e in sorted(fam.member(i))
                if e[0] not in used_a and e[1] not in used_b]
        if free and rng.random() < 0.6:
            a, b = rng.choice(free)
            assignment[i] = (a, b)
            used_a.add(a)
            used_b.add(b)
    return RainbowMatching(assignment)


def test_build_network_matches_naive_reference():
    rng = random.Random(31)
    compared = several = 0
    for seed in range(400):
        n = rng.randint(2, 5)
        k = rng.randint(2, n)
        g = BipartiteGraph.complete(n, n + rng.randint(0, 1))
        fam = random_cooperative_family(n, k, g, seed=seed, density=0.5)
        if fam is None:
            continue
        rm = _random_rainbow_matching(fam, rng)
        net, nf = build_network(fam, rm)
        inner, sets, preimages, origin = naive_build_network(fam, rm)
        assert net.inner == inner
        assert nf.sets == sets
        assert nf.origin == origin
        assert net.arcs == frozenset().union(*sets)
        every_arc = [(u, v) for u in net.vertices for v in net.vertices]
        for pos, i in enumerate(nf.origin, start=1):
            for arc in every_arc:
                key = (pos, arc)
                if key in preimages:
                    assert _witness(fam, i, arc, rm) == min(preimages[key]), key
                else:
                    with pytest.raises(ConstructiveStall):
                        _witness(fam, i, arc, rm)
        several += any(len(edges) > 1 for edges in preimages.values())
        outside = [a for a in all_arcs_over(net.inner) if a not in net.arcs]
        if outside:
            with pytest.raises(ValueError):
                NetworkFamily(net, sets + (frozenset({outside[0]}),))
        compared += 1
    assert compared > 300
    assert several > 50  # families where some key has competing witnesses
