import importlib
import itertools
import random
import sys

import pytest

from rainbowmatch import (BipartiteGraph, GreedyStuck, Network,
                          NetworkFamily, RainbowMatching, RainbowStPath,
                          Regimentation, SplitMix64, StPath,
                          TheoremViolation, UnionPathError,
                          check_structure_lemmas, dichotomy,
                          exhaustive_rainbow_path, find_regimentation,
                          greedy_rainbow_tree, has_st_path,
                          verify_rainbow_path, verify_regimentation)
from rainbowmatch.core import _trusted
from rainbowmatch.solver import _exchange

from .helpers import (abstract_family, all_arcs_over, arc_union,
                      naive_exhaustive_rainbow_path, naive_greedy_rainbow_tree)


def test_rainbow_path_validation():
    p = StPath(("s", "v", "t"))
    with pytest.raises(ValueError):
        RainbowStPath(p, {0: 1})  # missing a position
    with pytest.raises(ValueError):
        RainbowStPath(p, {0: 1, 1: 1})  # member reused
    rp = RainbowStPath(p, {0: 2, 1: 1})
    nf = abstract_family(("v",), [{("v", "t")}, {("s", "v")}])
    assert verify_rainbow_path(nf, rp)
    assert not verify_rainbow_path(nf, RainbowStPath(p, {0: 1, 1: 2}))


def _spine_family():
    """Members 1 and 2 own the spine s -> u -> v -> t between them; member
    3 owns only (s, u)."""
    return abstract_family(("u", "v"), [{("s", "u"), ("v", "t")},
                                        {("u", "v")}, {("s", "u")}])


@pytest.mark.parametrize("ranks, rep", [
    ((0, 1, 2, 3), {0: 1, 1: 2, 2: 1}),             # member 1 twice
    ((0, 1, 2, 1, 3), {0: 1, 1: 2, 2: 3, 3: 1}),    # vertex u twice
    ((0, 1, 2, 3), {0: 1, 1: 2}),                   # arc 2 unrepresented
    ((0, 1, 2, 3), {1: 2, 2: 1}),                   # arc 0 unrepresented
    ((0, 1, 2, 3), {0: 3, 1: 2, 2: 1, 3: 1}),       # a fourth position
    ((0, 1, 2, 3), {0: 3, 1: 2, 3: 1}),             # arc 2 missed, 3 extra
    ((0, 1, 2, 3), {-1: 3, 1: 2, 2: 1}),            # a negative position
    ((0, 1, 2, 3), {0: 3, True: 2, 2: 1}),          # a bool position
    ((0, 1, 2, 3), {0: 3, 1.0: 2, 2: 1}),           # a float position
    ((0, 1, 2, 3), {0: 3, 1: True, 2: 1}),          # a bool member
    ((0, 1, 2, 3), {0: 3, 1: 2.0, 2: 1}),           # a float member
    ((0, 1, 2, 3), {0: 3, 1: 2, 2: 4}),             # past the last member
    ((0, 1, 2, 3), {0: 0, 1: 2, 2: 1}),             # member 0
    ((0, 1, 2, 3), {0: 3, 1: 1, 2: 2}),             # arcs not owned
    ((0, 1, 2), {0: 3, 1: 2}),                      # ends at v
    ((1, 2, 3), {0: 2, 1: 1}),                      # starts at u
    ((0, 3), {0: 1}),                               # s -> t, not an arc
    ((3, 0), {0: 1}),                               # backwards
    ((), {}),                                       # no vertices
    ((0,), {}),                                     # the source alone
])
def test_verifier_refuses_malformed_results(ranks, rep):
    nf = _spine_family()
    good = _trusted(RainbowStPath, path=nf.network._path((0, 1, 2, 3)),
                    representation={0: 3, 1: 2, 2: 1})
    assert verify_rainbow_path(nf, good)
    bad = _trusted(RainbowStPath, path=nf.network._path(ranks), representation=rep)
    assert not verify_rainbow_path(nf, bad)


def test_verifier_refuses_vertices_outside_the_network():
    nf = _spine_family()
    # rank 2 of the wider network is w, which nf's network does not hold
    wider = abstract_family(("u", "w", "v"), [{("s", "u")}]).network
    for ranks, rep in (((0, 1, 2, 4), {0: 3, 1: 2, 2: 1}),
                       ((0, 2, 4), {0: 3, 1: 1})):
        bad = _trusted(RainbowStPath, path=wider._path(ranks), representation=rep)
        assert bad.path.vertices[-1] == "t"
        assert not verify_rainbow_path(nf, bad)


@pytest.mark.parametrize("build", [
    lambda: Regimentation((StPath(("s", "v", "t")),), {True: 0.9, 2.7: 0}),
    lambda: RainbowStPath(StPath(("s", "v", "t")), {0.5: 1, True: 2.9}),
    lambda: _exchange(RainbowMatching({}), (), [(True, (1, 1))]),
    lambda: _exchange(RainbowMatching({}), (), [(1.0, (1, 1))]),
    lambda: RainbowMatching({True: (1, 2)}),
    lambda: RainbowMatching({1: (1.9, 2)}),
    lambda: BipartiteGraph(2, 2, {(1.5, True)}),
    lambda: BipartiteGraph(2, 2, {(1, True)}),
    lambda: SplitMix64(2.7),
    lambda: SplitMix64(True),
], ids=["regimentation", "rainbow-path", "bool-member", "float-member",
        "bool-rainbow-member", "float-rainbow-edge", "float-graph-edge",
        "bool-graph-edge", "float-seed", "bool-seed"])
def test_constructors_refuse_non_int_indices(build):
    # int() would read each of these as another integer
    with pytest.raises(ValueError, match="must be an int"):
        build()


def test_greedy_single_arc():
    nf = abstract_family((), [{("s", "t")}])
    out = greedy_rainbow_tree(nf.network, nf)
    assert isinstance(out, RainbowStPath)
    assert out.path.vertices == ("s", "t")
    assert out.representation == {0: 1}


def test_greedy_three_members():
    nf = abstract_family(("v",),
                         [{("s", "v")}, {("v", "t")}, {("s", "v"), ("v", "t")}])
    out = greedy_rainbow_tree(nf.network, nf)
    assert isinstance(out, RainbowStPath)
    assert out.path.vertices == ("s", "v", "t")
    assert out.representation == {0: 1, 1: 2}
    assert verify_rainbow_path(nf, out)


def test_greedy_stuck_tree():
    nf = abstract_family(("v",), [{("s", "v")}],
                         full_arcs=all_arcs_over(("v",)))
    out = greedy_rainbow_tree(nf.network, nf)
    assert isinstance(out, GreedyStuck)
    assert set(out.tree) == {"v"}
    assert out.unrepresented == ()


def test_exhaustive_examples():
    one_member = abstract_family(("v",), [{("s", "v"), ("v", "t")}])
    assert exhaustive_rainbow_path(one_member.network, one_member) is None

    two = abstract_family(("v",), [{("s", "v")}, {("v", "t")}])
    found = exhaustive_rainbow_path(two.network, two)
    assert found is not None and found.path.vertices == ("s", "v", "t")

    regimented = abstract_family(("u", "v"),
                                 [{("s", "u"), ("u", "t")},
                                  {("s", "v"), ("v", "t")}])
    assert exhaustive_rainbow_path(regimented.network, regimented) is None


def test_exhaustive_agrees_with_greedy_success():
    rng = random.Random(5)
    for _ in range(200):
        inner = tuple(f"v{i}" for i in range(rng.randint(0, 3)))
        pool = all_arcs_over(inner)
        members = [frozenset(a for a in pool if rng.random() < 0.4)
                   for _ in range(rng.randint(1, 5))]
        nf = abstract_family(inner, members, full_arcs=pool)
        greedy = greedy_rainbow_tree(nf.network, nf)
        if isinstance(greedy, RainbowStPath):
            assert verify_rainbow_path(nf, greedy)
            assert exhaustive_rainbow_path(nf.network, nf) is not None


def test_dichotomy_path_and_certificate():
    # two members at one inner vertex sit at the critical size for k = 2
    two = abstract_family(("v",), [{("s", "v")}, {("v", "t")}])
    out = dichotomy(two.network, two, 2)
    assert isinstance(out, RainbowStPath)

    single = abstract_family(("v",), [{("s", "v"), ("v", "t")}])
    out = dichotomy(single.network, single, 1)
    assert isinstance(out, Regimentation)
    assert out.assignment == {1: 0}

    # spec example brute-forced: a rainbow path exists, so the outcome is
    # Path (member 1 takes the first arc, member 2 the second)
    mixed = abstract_family(("v",), [{("s", "v"), ("v", "t")}, {("v", "t")}])
    out = dichotomy(mixed.network, mixed, 2)
    assert isinstance(out, RainbowStPath)
    assert out.representation == {0: 1, 1: 2}


def test_dichotomy_reports_a_theorem_violation(monkeypatch):
    # with the certificate search disabled, a critical-size family with no
    # rainbow path has neither outcome
    module = importlib.import_module("rainbowmatch.dichotomy")
    monkeypatch.setattr(module, "find_regimentation", lambda net, nf: None)
    single = abstract_family(("v",), [{("s", "v"), ("v", "t")}])
    out = dichotomy(single.network, single, 1)
    assert isinstance(out, TheoremViolation)


def test_dichotomy_checks_size_and_hypothesis():
    two = abstract_family(("v",), [{("s", "v")}, {("v", "t")}])
    with pytest.raises(ValueError):
        dichotomy(two.network, two, 3)  # 2 members but inner+k-1 = 3
    bad = abstract_family(("v",), [{("s", "v")}, {("s", "v")}],
                          full_arcs=all_arcs_over(("v",)))
    with pytest.raises(UnionPathError) as caught:
        dichotomy(bad.network, bad, 2)
    assert caught.value.indices == (1, 2)


def test_dichotomy_names_the_least_failing_k_set():
    # the walk against the first failing k-set of an unpruned combinations
    # loop, on seeded random families at the critical size
    rng = random.Random(53)
    seen = {"pass": 0, "fail": 0, "past first": 0, "pruned prefix": 0}
    for _ in range(600):
        inner = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
        k = rng.randint(1, 3)
        pool = all_arcs_over(inner)
        density = rng.choice((0.2, 0.35, 0.5))
        sets = [{a for a in pool if rng.random() < density}
                for _ in range(len(inner) + k - 1)]
        nf = abstract_family(inner, sets, full_arcs=pool)
        expected = next((picked for picked in itertools.combinations(
            range(1, len(sets) + 1), k) if not has_st_path(
                set().union(*(sets[p - 1] for p in picked)))), None)
        if expected is None:
            assert not isinstance(dichotomy(nf.network, nf, k), TheoremViolation)
            seen["pass"] += 1
            continue
        with pytest.raises(UnionPathError) as caught:
            dichotomy(nf.network, nf, k)
        assert caught.value.indices == expected, sets
        seen["fail"] += 1
        seen["past first"] += expected != tuple(range(1, k + 1))
        # a member before the failing set holds a path alone, so the walk
        # passed a prefix it did not extend
        seen["pruned prefix"] += k > 1 and any(
            has_st_path(sets[i]) for i in range(expected[0] - 1))
    assert all(seen.values()), seen


def test_dichotomy_zero_inner():
    empty_family = abstract_family((), [])
    out = dichotomy(empty_family.network, empty_family, 1)
    assert isinstance(out, Regimentation)
    assert out.paths == (StPath(("s", "t")),)

    one_empty = abstract_family((), [set()])
    out = dichotomy(one_empty.network, one_empty, 2)
    assert isinstance(out, Regimentation)

    one_full = abstract_family((), [{("s", "t")}])
    out = dichotomy(one_full.network, one_full, 2)
    assert isinstance(out, RainbowStPath)


def test_dichotomy_past_eight_inner_vertices():
    # nine copies of a ten-arc spine: no rainbow path, one certificate
    inner = tuple(f"v{i}" for i in range(9))
    spine = StPath(("s", *inner, "t"))
    nf = abstract_family(inner, [set(spine.arcs)] * 9)
    out = dichotomy(nf.network, nf, 1)
    assert isinstance(out, Regimentation)
    assert out.paths == (spine,)
    assert sorted(out.assignment) == list(range(1, 10))


_ONE = Network(inner=("u",), arcs={("s", "u"), ("u", "t")})
# a rainbow path s-u-t, and one member holding it alone (regimented)
_SPLIT = NetworkFamily(_ONE, [{("s", "u")}, {("u", "t")}])
_SOLO = NetworkFamily(_ONE, [{("s", "u"), ("u", "t")}])
_SOLO_CERT = Regimentation((StPath(("s", "u", "t")),), {1: 0})
_TAKE_NETWORK = {
    "greedy_rainbow_tree": lambda net: greedy_rainbow_tree(net, _SPLIT),
    "exhaustive_rainbow_path": lambda net: exhaustive_rainbow_path(net, _SPLIT),
    "dichotomy": lambda net: dichotomy(net, _SPLIT, 2),
    "find_regimentation": lambda net: find_regimentation(net, _SOLO),
    "verify_regimentation":
        lambda net: verify_regimentation(net, _SOLO, _SOLO_CERT),
    "check_structure_lemmas":
        lambda net: check_structure_lemmas(net, _SOLO, _SOLO_CERT),
}
_OTHER_NETWORKS = {
    "renamed": Network(inner=("x",), arcs={("s", "x"), ("x", "t")}),
    "two-inner": Network(inner=("u", "v"),
                         arcs={("s", "u"), ("u", "t"), ("s", "v"), ("v", "t")}),
    "extra-arc": Network(inner=("u",), arcs={("s", "u"), ("u", "t"), ("s", "t")}),
}


@pytest.mark.parametrize("other", sorted(_OTHER_NETWORKS))
@pytest.mark.parametrize("name", sorted(_TAKE_NETWORK))
def test_network_arguments_must_be_the_familys(name, other):
    # the family's masks are bits of its own network, so read over another
    # one they name other arcs: greedy would return s-x-t, and over two
    # inner vertices both engines would miss the path s-u-t
    with pytest.raises(ValueError, match="not the family's network"):
        _TAKE_NETWORK[name](_OTHER_NETWORKS[other])


@pytest.mark.parametrize("name", sorted(_TAKE_NETWORK))
def test_an_equal_network_is_the_familys(name):
    copy = Network(inner=["u"], arcs=[("u", "t"), ("s", "u")])
    assert copy is not _ONE and copy == _ONE
    call = _TAKE_NETWORK[name]
    assert call(copy) == call(_ONE)


def _family_space(inner, member_count, rng, trials, density=0.45):
    pool = all_arcs_over(inner)
    for _ in range(trials):
        yield [frozenset(a for a in pool if rng.random() < density)
               for _ in range(member_count)]


def test_dichotomy_never_violates_on_samples():
    rng = random.Random(17)
    for inner_count in (0, 1, 2, 3):
        inner = tuple(f"v{i}" for i in range(inner_count))
        pool = all_arcs_over(inner)
        for k in (1, 2):
            for members in _family_space(inner, inner_count + k - 1, rng, 120):
                nf = abstract_family(inner, members, full_arcs=pool)
                ok = all(has_st_path(arc_union(nf, c), "s", "t")
                         for c in itertools.combinations(
                             range(1, len(nf) + 1), k))
                if not ok:
                    continue
                out = dichotomy(nf.network, nf, k)
                assert not isinstance(out, TheoremViolation)
                if isinstance(out, RainbowStPath):
                    assert verify_rainbow_path(nf, out)


def test_greedy_complete_on_samples():
    rng = random.Random(19)
    for inner_count in (1, 2, 3):
        inner = tuple(f"v{i}" for i in range(inner_count))
        pool = all_arcs_over(inner)
        for k in (1, 2, 3):
            for members in _family_space(inner, inner_count + k, rng, 120):
                nf = abstract_family(inner, members, full_arcs=pool)
                ok = all(has_st_path(arc_union(nf, c), "s", "t")
                         for c in itertools.combinations(
                             range(1, len(nf) + 1), k))
                if not ok:
                    continue
                out = greedy_rainbow_tree(nf.network, nf)
                assert isinstance(out, RainbowStPath)
                assert verify_rainbow_path(nf, out)


def test_outcomes_are_member_order_invariant():
    rng = random.Random(23)
    inner = ("u", "v")
    pool = all_arcs_over(inner)
    for members in _family_space(inner, 3, rng, 80):
        nf = abstract_family(inner, members, full_arcs=pool)
        shuffled = list(members)
        rng.shuffle(shuffled)
        nf2 = abstract_family(inner, shuffled, full_arcs=pool)
        a = exhaustive_rainbow_path(nf.network, nf) is None
        b = exhaustive_rainbow_path(nf2.network, nf2) is None
        assert a == b


def test_mask_engines_match_naive_references():
    # the bitmask engines against the tuple and set scans they replaced
    rng = random.Random(29)
    outcomes = set()
    for _ in range(1500):
        inner = tuple(f"v{i}" for i in range(rng.randint(0, 4)))
        pool = all_arcs_over(inner)
        density = rng.choice((0.15, 0.3, 0.5))
        members = [frozenset(a for a in pool if rng.random() < density)
                   for _ in range(rng.randint(0, len(inner) + 3))]
        nf = abstract_family(inner, members,
                             full_arcs=pool if rng.random() < 0.5 else None)
        net = nf.network
        greedy = greedy_rainbow_tree(net, nf)
        assert greedy == naive_greedy_rainbow_tree(net, nf), members
        exhaustive = exhaustive_rainbow_path(net, nf)
        assert exhaustive == naive_exhaustive_rainbow_path(net, nf), members
        # the engines build their results with core._trusted: each must
        # equal the checked public construction and pass the one complete
        # check
        for found in (greedy, exhaustive):
            if isinstance(found, RainbowStPath):
                assert found == RainbowStPath(StPath(found.path.vertices),
                                              found.representation), members
                assert verify_rainbow_path(nf, found), members
        outcomes.add((type(greedy).__name__, exhaustive is None))
    assert outcomes == {("RainbowStPath", False), ("GreedyStuck", False),
                        ("GreedyStuck", True)}


def _first_pass_holds(nf, rp) -> bool:
    """Whether giving each arc of rp's path its least unused owner never
    stalls."""
    used = set()
    for arc in rp.path.arcs:
        free = [pos for pos in range(1, len(nf) + 1)
                if arc in nf.sets[pos - 1] and pos not in used]
        if not free:
            return False
        used.add(free[0])
    return True


def test_exhaustive_matches_naive_on_repeated_members():
    # repeated members are interchangeable: the naive product over owners
    # tries each copy, the engine's Kuhn-checked least owners need not
    rng = random.Random(31)
    outcomes = set()
    for _ in range(2000):
        inner = tuple(f"v{i}" for i in range(rng.randint(0, 5)))
        pool = all_arcs_over(inner)
        density = rng.choice((0.15, 0.3, 0.5))
        members = []
        for _ in range(rng.randint(1, 4)):
            arcs = frozenset(a for a in pool if rng.random() < density)
            members += [arcs] * rng.randint(1, 4)
        rng.shuffle(members)
        nf = abstract_family(inner, members)
        out = exhaustive_rainbow_path(nf.network, nf)
        assert out == naive_exhaustive_rainbow_path(nf.network, nf), members
        if out is None:
            outcomes.add("none")
        else:
            outcomes.add("first pass" if _first_pass_holds(nf, out)
                         else "after a stall")
    assert outcomes == {"first pass", "after a stall", "none"}


def _profiled(fn, *args):
    """fn(*args) and the number of Python calls it made."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        return fn(*args), calls
    finally:
        sys.setprofile(None)


def test_exhaustive_search_is_not_factorial():
    inner = tuple(f"v{i}" for i in range(8))
    spine = StPath(("s", *inner, "t")).arcs
    # the last two arcs only member 1 owns: nine owners pass Hall's count,
    # yet no representation exists.  Members 2-9 differ by one back arc
    # each, so no two are interchangeable, and a backtracking search over
    # owner orders makes about 300,000 calls.
    distinct = abstract_family(inner, [set(spine)]
                               + [{*spine[:7], (inner[j], "v0")}
                                  for j in range(1, 8)]
                               + [set(spine[:7])])
    out, calls = _profiled(exhaustive_rainbow_path, distinct.network, distinct)
    assert out is None
    assert calls < 1000
    # member 1 owns every arc and must take the last one, which the
    # least-owner pass gives away; a search that retries each of the
    # eight equal members at every arc makes about 80,000 calls
    equal = abstract_family(inner, [set(spine)] + [set(spine[:8])] * 8)
    out, calls = _profiled(exhaustive_rainbow_path, equal.network, equal)
    assert out.representation == {**{j: j + 2 for j in range(8)}, 8: 1}
    assert calls < 1000
    # the same stall with members 2-8 told apart by one back arc each: no
    # two masks are equal, and a backtracking search over owner orders
    # makes about 80,000 calls
    unequal = abstract_family(inner, [set(spine)]
                              + [{*spine[:8], (inner[j], "v0")}
                                 for j in range(1, 8)]
                              + [set(spine[:8])])
    out, calls = _profiled(exhaustive_rainbow_path, unequal.network, unequal)
    assert out.representation == {0: 2, 1: 3, 2: 4, 3: 5, 4: 6, 5: 7, 6: 8,
                                  7: 9, 8: 1}
    assert calls < 1000
