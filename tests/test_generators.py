from pathlib import Path

import pytest

from rainbowmatch import (BipartiteGraph, EdgeFamily, cooperative_condition,
                          generators, max_matching, rainbow_matching_max)
from rainbowmatch.generators import (drisko_family, random_cooperative_family,
                                     random_family, sharpness_family,
                                     staircase_family)
from rainbowmatch.search import conjecture_search
from rainbowmatch.rng import SplitMix64
from rainbowmatch.serialize import family_dumps, family_loads

from .helpers import naive_splitmix64, set_random_family

DATA = Path(__file__).parent / "data"


def test_sharpness_family_shapes():
    g, fam = sharpness_family(2, 2)
    assert g.left_size == g.right_size == 2
    assert fam.sets == (frozenset({(1, 1), (2, 2)}), frozenset({(1, 2)}))

    _, fam = sharpness_family(3, 2)
    assert fam.sets == (frozenset({(1, 1), (2, 2), (3, 3)}),
                        frozenset({(1, 1), (2, 2), (3, 3)}),
                        frozenset({(1, 2), (2, 3), (3, 1)}),
                        frozenset({(1, 2)}))

    _, fam = sharpness_family(2, 4)
    assert fam.sets == (frozenset({(1, 1), (2, 2)}),) + (frozenset({(1, 2)}),) * 3

    with pytest.raises(ValueError):
        sharpness_family(1, 2)
    with pytest.raises(ValueError):
        sharpness_family(2, 1)


def test_generators_refuse_a_family_the_reader_would_refuse():
    # members times (side + 1) past 2**22, refused before anything is
    # built: neither K_{2**70, 2**70} nor 2**71 members would fit in memory
    for make in (lambda: sharpness_family(2, 2 ** 70),
                 lambda: sharpness_family(1500, 2),
                 lambda: drisko_family(2 ** 70),
                 lambda: staircase_family(2 ** 70),
                 lambda: random_cooperative_family(2 ** 70, 2,
                                                   BipartiteGraph.complete(3))):
        with pytest.raises(ValueError, match="members times"):
            make()


def test_generator_size_bound_is_members_times_side_plus_one(monkeypatch):
    # staircase k = 2 and drisko n = 2 write 3 members over a side of 2,
    # sharpness n = 2, k = 3 writes 3 members: 9 row entries each
    makers = (lambda: staircase_family(2), lambda: drisko_family(2),
              lambda: sharpness_family(2, 3)[1])
    monkeypatch.setattr(generators, "_MAX_ROWS", 9)
    for make in makers:
        assert len(make()) == 3
    monkeypatch.setattr(generators, "_MAX_ROWS", 8)
    for make in makers:
        with pytest.raises(ValueError, match="at most 8"):
            make()


def test_sharpness_family_is_sharp():
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 3)):
        g, fam = sharpness_family(n, k)
        assert len(fam) == 2 * n + k - 4
        for size in range(k, len(fam) + 1):
            assert cooperative_condition(fam, size, n) is None
        assert rainbow_matching_max(fam)[0] == n - 1


def test_drisko_family_examples():
    fam = drisko_family(1)
    assert len(fam) == 1 and rainbow_matching_max(fam)[0] == 1

    for seed in range(5):
        fam = drisko_family(2, seed)
        assert len(fam) == 3
        assert all(len(max_matching(fam.graph, s)) == 2 and len(s) == 2
                   for s in fam.sets)
        assert rainbow_matching_max(fam)[0] == 2


def test_drisko_golden_file():
    fam = drisko_family(3, 42)
    golden = (DATA / "drisko_n3_seed42.json").read_text()
    assert family_dumps(fam) == golden
    assert family_loads(golden).sets == fam.sets


def test_staircase_family_sizes():
    assert [len(s) for s in staircase_family(1).sets] == [1]
    assert [len(s) for s in staircase_family(2, 3).sets] == [1, 2, 2]
    assert [len(s) for s in staircase_family(3, 9).sets] == [1, 2, 3, 3, 3]
    fam = staircase_family(3, 5)
    assert all(len(max_matching(fam.graph, s)) == len(s) for s in fam.sets)


def test_random_cooperative_family():
    g = BipartiteGraph.complete(2)
    fam = random_cooperative_family(2, 2, g, seed=1, density=0.7)
    assert fam is not None
    assert len(fam) == 3
    assert all(fam.sets)
    assert cooperative_condition(fam, 2, 2) is None

    # a size-3 matching cannot exist on K_{2,2}
    assert random_cooperative_family(3, 2, g, seed=1) is None


@pytest.mark.parametrize("density", ["0.5", None])
def test_random_cooperative_family_refuses_a_density_that_is_no_number(density):
    # the range comparison raised TypeError on these
    with pytest.raises(ValueError, match="density must lie"):
        random_cooperative_family(2, 2, BipartiteGraph.complete(2),
                                  density=density)


def test_random_family_refuses_an_edgeless_graph():
    edgeless = BipartiteGraph(2, 2, frozenset())
    with pytest.raises(ValueError, match="no edges to draw from"):
        random_cooperative_family(2, 2, edgeless, seed=1)
    with pytest.raises(ValueError, match="no edges to draw from"):
        conjecture_search("c4.1", k=2, graph=edgeless, budget=10, seed=1)


def test_random_family_draw_is_pinned():
    # a drift in SplitMix64, in the edge order or in the empty-member
    # fallback changes these sets
    fam = random_family(BipartiteGraph.complete(3), 3, SplitMix64(42), permille=600)
    assert [sorted(s) for s in fam.sets] == [
        [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)],
        [(1, 2), (2, 1), (2, 2), (3, 1)],
        [(1, 1), (1, 2), (3, 2)]]
    fam = random_family(BipartiteGraph.complete(2, 3), 4, SplitMix64(7), permille=300)
    assert [sorted(s) for s in fam.sets] == [[(2, 1)], [(1, 2), (2, 2)], [(1, 3)], [(1, 2)]]


def test_random_family_draws_what_the_set_sampler_draws():
    # the flag sampler keeps the stream: same members, same final RNG state
    graphs = [BipartiteGraph.complete(1), BipartiteGraph.complete(3),
              BipartiteGraph.complete(2, 5), BipartiteGraph.complete(8),
              BipartiteGraph(3, 4, frozenset({(1, 1), (1, 2), (2, 2), (2, 3),
                                              (3, 3), (3, 4), (1, 4)}))]
    for seed in range(40):
        for g in graphs:
            for permille in (0, 1, 300, 600, 999, 1000):
                ours, theirs = SplitMix64(seed), SplitMix64(seed)
                fam = random_family(g, 1 + seed % 6, ours, permille)
                assert fam.sets == set_random_family(g, 1 + seed % 6, theirs,
                                                     permille)
                # built with core._trusted: the checked constructor agrees
                checked = EdgeFamily(g, fam.sets)
                assert fam == checked and hash(fam) == hash(checked)
                assert ours._state == theirs._state


def test_generators_are_seed_deterministic():
    assert drisko_family(4, 7).sets == drisko_family(4, 7).sets
    assert staircase_family(3, 11).sets == staircase_family(3, 11).sets
    g = BipartiteGraph.complete(3)
    a = random_cooperative_family(3, 2, g, seed=13)
    b = random_cooperative_family(3, 2, g, seed=13)
    assert a is not None and a.sets == b.sets
    assert drisko_family(4, 7).sets != drisko_family(4, 8).sets


def test_splitmix64_reference_stream():
    # first outputs from seed 0, fixed by the documented constants
    rng = SplitMix64(0)
    stream = [rng.next_u64() for _ in range(3)]
    assert stream == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert SplitMix64(42).below(10) == SplitMix64(42).below(10)


def _reference_below(rng, n, draws):
    """below() by the threshold formula it replaced; draws counts every
    64-bit value taken from rng."""
    threshold = (1 << 64) - ((1 << 64) % n)
    while True:
        r = rng.next_u64()
        draws.append(r)
        if r < threshold:
            return r % n


def test_below_keeps_the_threshold_stream():
    bounds = (1, 2, 3, 1000, 2**32 + 1, 2**63 + 5, 2**64)
    for seed in (0, 1, 42, 7919, 2**64 - 1):
        for n in bounds:
            ours, theirs = SplitMix64(seed), SplitMix64(seed)
            draws = []
            assert [ours.below(n) for _ in range(300)] == \
                [_reference_below(theirs, n, draws) for _ in range(300)], (seed, n)
            assert ours._state == theirs._state, (seed, n)
            if n == 2**63 + 5:  # about half of all draws are rejected
                assert len(draws) > 400, seed


@pytest.mark.parametrize("bound", [0, -1, 2**64 + 1, 2**65, 2.5, 3.0, True,
                                   False, "3", None])
def test_below_refuses_bounds_outside_one_to_two_to_the_64(bound):
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="need an int bound"):
        rng.below(bound)
    assert rng._state == SplitMix64(1)._state   # nothing was drawn


def test_block_is_the_scalar_stream():
    for seed in (0, 1, 42, 7919, 2**64 - 1):   # the last wraps the state
        for count in range(131):
            rng = SplitMix64(seed)
            values, state = naive_splitmix64(seed, count)
            assert rng.block(count) == values, (seed, count)
            assert rng._state == state, (seed, count)


def test_draws_keeps_the_threshold_stream():
    bounds = (1, 2, 3, 1000, 2**32 + 1, 2**63 + 5, 2**64)
    for seed in (0, 1, 42, 7919, 2**64 - 1):
        for n in bounds:
            for count in (0, 1, 9, 64, 130):
                ours, theirs = SplitMix64(seed), SplitMix64(seed)
                draws = []
                assert ours.draws(n, count) == \
                    [_reference_below(theirs, n, draws) for _ in range(count)], \
                    (seed, n, count)
                assert ours._state == theirs._state, (seed, n, count)
                if n == 2**63 + 5 and count == 130:   # top-ups ran
                    assert len(draws) > 130, seed


@pytest.mark.parametrize("n, count", [
    (2**64 + 1, 5), (0, 5), (2.0, 5), (True, 5),
    (1000, -1), (1000, 2.0), (1000, True), (1000, False), (1000, "3")])
def test_draws_refuses_a_bad_bound_or_count(n, count):
    rng = SplitMix64(1)
    message = "need a nonnegative int count" if n == 1000 else "need an int bound"
    with pytest.raises(ValueError, match=message):
        rng.draws(n, count)
    assert rng._state == SplitMix64(1)._state   # nothing was drawn
    if n == 1000:
        with pytest.raises(ValueError, match="need a nonnegative int count"):
            rng.block(count)
        assert rng._state == SplitMix64(1)._state
