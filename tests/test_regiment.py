import json
import random
import time
from collections import Counter

import pytest

from rainbowmatch import (Network, NetworkFamily, Regimentation, StPath,
                          check_structure_lemmas, exhaustive_rainbow_path,
                          find_regimentation, regiment, verify_regimentation)
from rainbowmatch.cli import main

from rainbowmatch.network import _only_path, _path_ranks
from rainbowmatch.regiment import (_backward_mask, _least_backward_arc,
                                   _useless_mask)

from .helpers import (abstract_family, all_arcs_over, brute_regimentation,
                      label_mask, naive_backward_arcs,
                      naive_least_backward_arc, naive_st_paths,
                      naive_useless_arcs, naive_verify_regimentation)


def test_backward_arcs_examples():
    net = Network(inner=("y1", "y2"),
                  arcs={("s", "y1"), ("y1", "y2"), ("y2", "t"), ("y2", "y1")})
    q = StPath(("s", "y1", "y2", "t"))
    assert _backward_mask(net, _path_ranks(net, q)) == label_mask(net, {("y2", "y1")})
    assert _backward_mask(net, _path_ranks(net, StPath(("s", "t")))) == 0
    forward_only = Network(inner=("y1", "y2"),
                           arcs={("s", "y1"), ("y1", "y2"), ("y2", "t")})
    assert _backward_mask(forward_only, _path_ranks(forward_only, q)) == 0


def _random_certified_family(rng):
    """An abstract family with a verified certificate: inner vertices split
    into ordered path blocks, c - 1 essential members per c-arc path, and
    one to four inessential members; every member also holds random arcs."""
    inner = [f"v{i}" for i in range(rng.randint(1, 5))]
    order = rng.sample(inner, len(inner))
    paths, start = [], 0
    while start < len(order):
        stop = rng.randint(start + 1, len(order))
        paths.append(StPath(("s", *order[start:stop], "t")))
        start = stop
    owners = [index for index, q in enumerate(paths)
              for _ in range(len(q.arcs) - 1)]
    owners += [None] * rng.randint(1, 4)
    rng.shuffle(owners)
    pool = all_arcs_over(inner)
    density = rng.choice((0.02, 0.2, 0.5))
    members, assignment = [], {}
    for pos, index in enumerate(owners, start=1):
        arcs = {a for a in pool if rng.random() < density}
        if index is not None:
            arcs |= set(paths[index].arcs)
            assignment[pos] = index
        members.append(arcs)
    nf = abstract_family(inner, members)
    reg = Regimentation(tuple(paths), assignment)
    assert verify_regimentation(nf.network, nf, reg) is None
    return nf, reg


def test_least_backward_arc_matches_naive_reference():
    # the solver's pick of the arc its regimented step exchanges along
    rng = random.Random(2003)
    hits = misses = 0
    for _ in range(500):
        nf, reg = _random_certified_family(rng)
        ie_positions = [p for p in range(1, len(nf) + 1)
                        if p not in reg.assignment]
        found = _least_backward_arc(nf, reg, ie_positions)
        assert found == naive_least_backward_arc(nf.network, nf, reg,
                                                 ie_positions), (nf.sets, reg)
        hits += found is not None
        misses += found is None
    assert hits > 100 and misses > 100


def test_useless_arcs_examples():
    def useless(net, q):
        return _useless_mask(net._size, _path_ranks(net, q))

    net = Network(inner=("y1", "y2", "z"),
                  arcs={("s", "y1"), ("y1", "y2"), ("y2", "t")})
    q = StPath(("s", "y1", "y2", "t"))
    assert useless(net, q) == label_mask(net, {("z", "y1"), ("y2", "z")})

    no_offpath = Network(inner=("y1", "y2"),
                         arcs={("s", "y1"), ("y1", "y2"), ("y2", "t")})
    assert useless(no_offpath, q) == 0

    single = Network(inner=("v", "z"), arcs={("s", "v"), ("v", "t")})
    assert useless(single, StPath(("s", "v", "t"))) == label_mask(
        single, {("z", "v"), ("v", "z")})


def _mutants(nf, reg):
    """One broken copy of a verified certificate per verdict it should
    draw: a foreign vertex, a shared interior vertex, an assignment past
    the end, a dropped path, a member on the wrong path, and a missing
    essential member."""
    paths, assignment = list(reg.paths), dict(reg.assignment)
    first = paths[0].vertices
    yield Regimentation([StPath((*first[:-1], "x", "t")), *paths[1:]], assignment)
    shared = next(q.interior[0] for q in paths if q.interior)
    yield Regimentation([*paths, StPath(("s", shared, "t"))], assignment)
    yield Regimentation(paths, {**assignment, len(nf) + 1: 0})
    last = len(paths) - 1
    yield Regimentation(paths[:-1], {m: p for m, p in assignment.items()
                                     if p != last})
    member = min(assignment)
    yield Regimentation(paths, {**assignment,
                                member: (assignment[member] + 1) % len(paths)})
    yield Regimentation(paths, {m: p for m, p in assignment.items()
                                if m != member})


def test_rank_certificate_checks_match_label_set_references():
    # verify_regimentation and the backward and useless masks read path
    # ranks; the references read vertex labels and arc sets
    rng = random.Random(1871)
    verdicts = Counter()
    for _ in range(500):
        nf, reg = _random_certified_family(rng)
        net = nf.network
        for q in reg.paths:
            ranks = _path_ranks(net, q)
            assert _backward_mask(net, ranks) == label_mask(
                net, naive_backward_arcs(net, q)), q
            assert _useless_mask(net._size, ranks) == label_mask(
                net, naive_useless_arcs(net, q)), q
        for cert in (reg, *_mutants(nf, reg)):
            verdict = verify_regimentation(net, nf, cert)
            assert verdict == naive_verify_regimentation(net, nf, cert), (
                nf.sets, cert)
            verdicts[verdict] += 1
    assert set(verdicts) == {None, "paths", "disjoint", "assignment",
                             "1", "2", "3"}, verdicts


def test_verify_regimentation_examples():
    nf = abstract_family(("v",), [{("s", "v"), ("v", "t")}])
    good = Regimentation((StPath(("s", "v", "t")),), {1: 0})
    assert verify_regimentation(nf.network, nf, good) is None

    empty_assignment = Regimentation((StPath(("s", "v", "t")),), {})
    assert verify_regimentation(nf.network, nf, empty_assignment) == "3"

    nf2 = abstract_family(("u", "v"),
                          [{("s", "u"), ("u", "t")}, {("s", "v"), ("v", "t")},
                           {("s", "u"), ("u", "v"), ("v", "t")}])
    shared = Regimentation((StPath(("s", "u", "t")), StPath(("s", "u", "v", "t"))),
                           {1: 0, 2: 1, 3: 1})
    assert verify_regimentation(nf2.network, nf2, shared) == "disjoint"


def test_verify_regimentation_cover_and_containment():
    nf = abstract_family(("u", "v"),
                         [{("s", "u"), ("u", "t")}, {("s", "v"), ("v", "t")}])
    missing_cover = Regimentation((StPath(("s", "u", "t")),), {1: 0})
    assert verify_regimentation(nf.network, nf, missing_cover) == "1"

    wrong_member = Regimentation(
        (StPath(("s", "u", "t")), StPath(("s", "v", "t"))), {1: 1, 2: 0})
    assert verify_regimentation(nf.network, nf, wrong_member) == "2"

    dangling = Regimentation((StPath(("s", "u", "t")), StPath(("s", "v", "t"))),
                             {1: 0, 5: 1})
    assert verify_regimentation(nf.network, nf, dangling) == "assignment"

    bad_path = Regimentation((StPath(("s", "u", "w", "t")),), {1: 0})
    assert verify_regimentation(nf.network, nf, bad_path) == "paths"


def test_verify_regimentation_refuses_a_repeated_vertex():
    # a walk through u twice meets conditions 1-3, so only the path check
    # stands between it and a valid verdict; the unchecked path that
    # find_regimentation builds does not refuse the repeat itself
    walk = {("s", "u"), ("u", "v"), ("v", "u"), ("u", "t")}
    nf = abstract_family(("u", "v"), [walk] * 3)
    cert = Regimentation((nf.network._path((0, 1, 2, 1, 3)),),
                         {1: 0, 2: 0, 3: 0})
    assert cert.paths[0].vertices == ("s", "u", "v", "u", "t")
    assert verify_regimentation(nf.network, nf, cert) == "paths"


def test_find_regimentation_examples():
    nf = abstract_family(("u", "v"),
                         [{("s", "u"), ("u", "t")}, {("s", "v"), ("v", "t")}])
    found = find_regimentation(nf.network, nf)
    assert found is not None
    assert {p.vertices for p in found.paths} == {("s", "u", "t"), ("s", "v", "t")}
    assert found.assignment == {1: 0, 2: 1}
    assert verify_regimentation(nf.network, nf, found) is None

    # no member contains a full candidate path, so condition (2) fails
    hopeless = abstract_family(("u", "v"),
                               [{("u", "t")}, {("v", "t")}],
                               full_arcs=all_arcs_over(("u", "v")))
    assert find_regimentation(hopeless.network, hopeless) is None

    # a rainbow path exists here, so only the exhaustive oracle certifies
    twins = abstract_family(("v",),
                            [{("s", "v"), ("v", "t")}, {("s", "v"), ("v", "t")}])
    found = brute_regimentation(twins.network, twins)
    assert found is not None
    assert len(found.assignment) == 1  # one essential, one inessential
    assert verify_regimentation(twins.network, twins, found) is None


def test_find_regimentation_zero_inner():
    nf = abstract_family((), [set()])
    found = find_regimentation(nf.network, nf)
    assert found is not None
    assert found.paths == (StPath(("s", "t")),)
    assert found.assignment == {}
    assert verify_regimentation(nf.network, nf, found) is None


def test_found_certificates_always_verify_and_count():
    rng = random.Random(123)
    for _ in range(150):
        inner = tuple(f"v{i}" for i in range(rng.randint(0, 3)))
        pool = all_arcs_over(inner)
        members = [frozenset(a for a in pool if rng.random() < 0.45)
                   for _ in range(rng.randint(0, 4))]
        nf = abstract_family(inner, members, full_arcs=pool)
        found = find_regimentation(nf.network, nf)
        if found is None:
            continue
        assert verify_regimentation(nf.network, nf, found) is None
        # counting identity, an arithmetic consequence of (1) and (3)
        assert len(found.assignment) == len(inner)


def _planted_family(rng, inner):
    """Members forced into a random regimentation: each c-arc path of a
    random ordered partition of inner gets c - 1 members holding it plus
    some of its backward arcs; a few inessential members hold backward
    arcs only."""
    order = list(inner)
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, len(order)), rng.randint(0, len(order) - 1)))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(order)])]
    net = Network(inner=inner, arcs=frozenset(all_arcs_over(inner)))
    members = []
    back = []
    for block in blocks:
        q = StPath(("s", *block, "t"))
        behind = sorted(naive_backward_arcs(net, q))
        back += behind
        for _ in range(len(q.arcs) - 1):
            members.append(set(q.arcs) | {a for a in behind if rng.random() < 0.3})
    for _ in range(rng.randint(0, 2)):
        members.append({a for a in back if rng.random() < 0.4})
    rng.shuffle(members)
    return members


def test_find_regimentation_matches_exhaustive_oracle():
    # without a rainbow path, the built certificate is the first one the
    # exhaustive partition search finds, or both find none
    rng = random.Random(2003)
    compared = certified = 0
    for trial in range(1200):
        inner = tuple(f"v{i}" for i in range(rng.randint(1, 4)))
        pool = all_arcs_over(inner)
        if trial % 2:
            members = _planted_family(rng, inner)
        else:
            members = [{a for a in pool if rng.random() < 0.3}
                       for _ in range(rng.randint(1, len(inner) + 2))]
        nf = abstract_family(inner, members, full_arcs=pool)
        if exhaustive_rainbow_path(nf.network, nf) is not None:
            continue
        found = find_regimentation(nf.network, nf)
        assert found == brute_regimentation(nf.network, nf), nf.sets
        compared += 1
        certified += found is not None
    assert compared >= 500 and certified >= 200


def test_structure_lemmas_two_inner_instance():
    nf = abstract_family(("u", "v"),
                         [{("s", "u"), ("u", "t")}, {("s", "v"), ("v", "t")}])
    found = find_regimentation(nf.network, nf)
    report = check_structure_lemmas(nf.network, nf, found)
    assert report.hypothesis_met
    assert report.all_ok


def test_structure_lemmas_hypothesis_not_met():
    nf = abstract_family(("v",), [{("s", "v"), ("v", "t")}, {("s", "v")}])
    cert = Regimentation((StPath(("s", "v", "t")),), {1: 0})
    assert verify_regimentation(nf.network, nf, cert) is None
    assert exhaustive_rainbow_path(nf.network, nf) is not None
    report = check_structure_lemmas(nf.network, nf, cert)
    assert not report.hypothesis_met
    assert report.counting_ok is None
    assert not report.all_ok


def test_structure_lemmas_backward_inessential_member():
    spine = {("s", "u"), ("u", "v"), ("v", "w"), ("w", "t")}
    nf = abstract_family(("u", "v", "w"),
                         [spine, spine, spine, {("w", "u")}])
    found = find_regimentation(nf.network, nf)
    assert found is not None
    report = check_structure_lemmas(nf.network, nf, found)
    assert report.hypothesis_met
    assert report.backward_ok
    assert report.all_ok


def test_structure_lemmas_report_failures_and_certify_exits_1(
        monkeypatch, tmp_path, capsys):
    # essential A = {sv, vt, st} and inessential B = {st} verify against
    # the path s-v-t, but B alone is a rainbow path; with the search
    # planted to find none, every lemma but counting must fail
    nf = abstract_family(("v",), [{("s", "v"), ("v", "t"), ("s", "t")},
                                  {("s", "t")}])
    cert = Regimentation((StPath(("s", "v", "t")),), {1: 0})
    assert verify_regimentation(nf.network, nf, cert) is None
    monkeypatch.setattr(regiment, "exhaustive_rainbow_path", lambda net, nf: None)
    report = check_structure_lemmas(nf.network, nf, cert)
    assert report.hypothesis_met and report.counting_ok
    assert (report.backward_ok, report.only_path_ok,
            report.essential_iff_path_ok) == (False, False, False)
    assert not report.all_ok
    # A alone: no inessential member, so only A's own arc (s, t), outside
    # its path, fails the backward lemma
    alone = abstract_family(("v",), [{("s", "v"), ("v", "t"), ("s", "t")}])
    report = check_structure_lemmas(alone.network, alone, cert)
    assert (report.counting_ok, report.backward_ok, report.only_path_ok,
            report.essential_iff_path_ok) == (True, False, False, True)

    instance = tmp_path / "net.json"
    instance.write_text(json.dumps(
        {"inner": ["v"], "sets": [[["s", "v"], ["v", "t"], ["s", "t"]],
                                  [["s", "t"]]]}))
    certificate = tmp_path / "cert.json"
    certificate.write_text(json.dumps(
        {"schema": "rainbow/1", "paths": [["s", "v", "t"]],
         "assignment": {"1": 0}}))
    code = main(["certify", "--input", str(instance),
                 "--regimentation", str(certificate)])
    assert code == 1
    assert capsys.readouterr().out == (
        "PASS (1)(2)(3); counting OK, backward FAIL, only-path FAIL, "
        "essential-iff-path FAIL\n")


def test_structure_lemmas_require_verified_certificate():
    nf = abstract_family(("v",), [{("s", "v"), ("v", "t")}])
    broken = Regimentation((StPath(("s", "v", "t")),), {})
    with pytest.raises(ValueError):
        check_structure_lemmas(nf.network, nf, broken)


def test_structure_lemmas_refuse_above_the_search_cap():
    # nine one-path members certify themselves, but the lemmas' exhaustive
    # search refuses more than eight inner vertices; the path search itself
    # takes a network of any size
    inner = tuple(f"v{i}" for i in range(9))
    nf = abstract_family(inner, [{("s", v), (v, "t")} for v in inner])
    cert = Regimentation(tuple(StPath(("s", v, "t")) for v in inner),
                         {i: i - 1 for i in range(1, 10)})
    assert verify_regimentation(nf.network, nf, cert) is None
    with pytest.raises(ValueError, match="9 inner vertices exceed"):
        check_structure_lemmas(nf.network, nf, cert)
    assert exhaustive_rainbow_path(nf.network, nf) is None


def check_exchange_lemma(nf_g: NetworkFamily, nf_h: NetworkFamily,
                         r_g: Regimentation, r_h: Regimentation) -> bool:
    """Swap-stability of certificates under exchanging a single member.

    The two families must differ by exactly one member in each direction
    (multiset difference), both certificates must verify, and neither
    family may have a rainbow source-target path.  Passes when the swapped
    members are both inessential, or both essential with the same assigned
    path.
    """
    if nf_g.network != nf_h.network:
        raise ValueError("families must live over the same network")
    count_g = Counter(nf_g.sets)
    count_h = Counter(nf_h.sets)
    only_g = list((count_g - count_h).elements())
    only_h = list((count_h - count_g).elements())
    if len(only_g) != 1 or len(only_h) != 1:
        raise ValueError("families must differ in exactly one member each way")
    g_set, h_set = only_g[0], only_h[0]
    for nf, r in ((nf_g, r_g), (nf_h, r_h)):
        if verify_regimentation(nf.network, nf, r) is not None:
            raise ValueError("a certificate does not verify")
        if exhaustive_rainbow_path(nf.network, nf) is not None:
            raise ValueError("a family still has a rainbow source-target path")

    def essential_path(nf: NetworkFamily, r: Regimentation, content) -> StPath | None:
        positions = [i for i in range(1, len(nf) + 1) if nf.sets[i - 1] == content]
        for i in positions:
            if i in r.assignment:
                return r.paths[r.assignment[i]]
        return None

    path_g = essential_path(nf_g, r_g, g_set)
    path_h = essential_path(nf_h, r_h, h_set)
    if path_g is None and path_h is None:
        return True
    return path_g is not None and path_h is not None and path_g == path_h


SPINE = frozenset({("s", "u"), ("u", "v"), ("v", "t")})
FULL2 = all_arcs_over(("u", "v"))


def test_exchange_lemma_equal_paths():
    nf_g = abstract_family(("u", "v"), [SPINE, SPINE], full_arcs=FULL2)
    nf_h = abstract_family(("u", "v"), [SPINE, SPINE | {("v", "u")}],
                           full_arcs=FULL2)
    r_g = Regimentation((StPath(("s", "u", "v", "t")),), {1: 0, 2: 0})
    r_h = Regimentation((StPath(("s", "u", "v", "t")),), {1: 0, 2: 0})
    assert check_exchange_lemma(nf_g, nf_h, r_g, r_h)


def test_exchange_lemma_both_inessential():
    nf_g = abstract_family(("u", "v"), [SPINE, SPINE, {("v", "u")}],
                           full_arcs=FULL2)
    nf_h = abstract_family(("u", "v"), [SPINE, SPINE, frozenset()],
                           full_arcs=FULL2)
    r = Regimentation((StPath(("s", "u", "v", "t")),), {1: 0, 2: 0})
    assert check_exchange_lemma(nf_g, nf_h, r, r)


def test_exchange_lemma_rejects_malformed_pairs():
    nf_g = abstract_family(("u", "v"), [SPINE, SPINE], full_arcs=FULL2)
    nf_h = abstract_family(("u", "v"), [SPINE | {("v", "u")}, frozenset()],
                           full_arcs=FULL2)
    r = Regimentation((StPath(("s", "u", "v", "t")),), {1: 0, 2: 0})
    with pytest.raises(ValueError):
        check_exchange_lemma(nf_g, nf_h, r, r)


def test_exchange_lemma_rejects_rainbow_path_families():
    nf_g = abstract_family(("v",), [{("s", "v"), ("v", "t")}, {("s", "v")}])
    nf_h = abstract_family(("v",), [{("s", "v"), ("v", "t")}, {("v", "t")}])
    r = Regimentation((StPath(("s", "v", "t")),), {1: 0})
    with pytest.raises(ValueError):
        check_exchange_lemma(nf_g, nf_h, r, r)


def test_only_path_pruning_property():
    # a path confined to another path's arcs, its backward arcs, arcs
    # disjoint from it, and its useless arcs must be that very path;
    # only paths with interior qualify (the useless set of the bare
    # source-target path opens both endpoints, and certificate paths
    # carrying members always have interior)
    rng = random.Random(29)
    for _ in range(120):
        inner = tuple(f"v{i}" for i in range(rng.randint(1, 5)))
        pool = all_arcs_over(inner)
        arcs = frozenset(a for a in pool if rng.random() < 0.5)
        net = Network(inner=inner, arcs=arcs)
        paths = list(naive_st_paths(arcs, net))
        for q in paths[:6]:
            if not q.interior:
                continue
            on_q = set(q.vertices)
            disjoint = {(u, v) for (u, v) in arcs
                        if u not in on_q and v not in on_q}
            allowed = (set(q.arcs) | naive_backward_arcs(net, q) | disjoint
                       | naive_useless_arcs(net, q))
            for p in paths:
                if set(p.arcs) <= allowed:
                    assert p == q


def _naive_only_path(arcs, net: Network):
    """The ranks of the arcs' one source-target path, from the full list
    of their simple paths; None unless there is exactly one."""
    paths = list(naive_st_paths(arcs, net))
    if len(paths) != 1:
        return None
    return tuple(net._ranks[v] for v in paths[0].vertices)


def test_only_path_matches_the_naive_path_list():
    # every arc subset over criterion 4's networks (at most two inner
    # vertices), then seeded random arc sets over up to six
    cases = []
    for inner in ((), ("u",), ("u", "v")):
        pool = all_arcs_over(inner)
        net = Network(inner=inner, arcs=pool)
        cases += [(net, [a for i, a in enumerate(pool) if pick >> i & 1])
                  for pick in range(1 << len(pool))]
    rng = random.Random(37)
    for _ in range(400):
        inner = tuple(f"v{i}" for i in range(rng.randint(0, 6)))
        pool = all_arcs_over(inner)
        density = rng.choice((0.1, 0.25, 0.5))
        cases.append((Network(inner=inner, arcs=pool),
                      [a for a in pool if rng.random() < density]))
    verdicts = Counter()
    for net, arcs in cases:
        expected = _naive_only_path(arcs, net)
        mask = NetworkFamily(net, [arcs]).masks[0]
        assert _only_path(mask, net._size) == expected, (net.inner, arcs)
        verdicts[len(net.inner), expected is None] += 1
    # both verdicts at every size: no path or several, and exactly one
    assert all(verdicts[r, True] and verdicts[r, False] for r in range(7))


def test_only_path_does_not_walk_a_dead_end_clique():
    # s -> v1, every arc among v1..v11 and none out of them, and
    # s -> v12 -> t: enumerating paths in rank order walks the clique's
    # paths before the one path; the growth is about ninefold per vertex
    inner = tuple(f"v{i}" for i in range(1, 13))
    clique = [(u, v) for u in inner[:-1] for v in inner[:-1] if u != v]
    nf = abstract_family(inner, [[("s", "v1"), *clique,
                                  ("s", "v12"), ("v12", "t")]])
    start = time.perf_counter()
    # the clique's vertices stay uncovered, so no certificate verifies
    assert find_regimentation(nf.network, nf) is None
    assert time.perf_counter() - start < 1.0
    assert _only_path(nf.masks[0], nf.network._size) == (0, 12, 13)
