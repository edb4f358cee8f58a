import importlib

import pytest

from rainbowmatch import (BipartiteGraph, EdgeFamily, HypothesisFailure,
                          RainbowMatching, RainbowStPath, TheoremViolation,
                          ViolationReport, build_network, exhaustive_rainbow_path,
                          find_regimentation, is_valid_rainbow,
                          rainbow_matching_max, solve_main,
                          verify_arrow_statement)
from rainbowmatch.generators import random_cooperative_family, sharpness_family
from rainbowmatch import solver
from rainbowmatch.solver import _exchange, _regimented_step
from rainbowmatch.serialize import family_from_json

from .helpers import brute_regimentation, family_on
from .test_cli_golden import _FILES

K22 = BipartiteGraph.complete(2)
K33 = BipartiteGraph.complete(3)


def test_solve_main_examples():
    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1)})
    out = solve_main(fam, 2, 2)
    assert isinstance(out, RainbowMatching)
    assert is_valid_rainbow(fam, out, size=2)

    bad = family_on(K22, {(1, 1)}, {(1, 1)}, {(1, 1)})
    out = solve_main(bad, 2, 2)
    assert out == HypothesisFailure((1, 2))

    pm = frozenset({(1, 1), (2, 2), (3, 3)})
    six = EdgeFamily(K33, (pm,) * 6)
    out = solve_main(six, 3, 3)
    assert is_valid_rainbow(six, out, size=3)


def test_solve_main_parameter_errors():
    fam = family_on(K22, {(1, 1)}, {(1, 2)}, {(2, 1)})
    with pytest.raises(ValueError):
        solve_main(fam, 1, 2)  # k must exceed 1
    with pytest.raises(ValueError):
        solve_main(fam, 3, 2)  # k must stay at most n
    with pytest.raises(ValueError):
        solve_main(fam, 2, 3)  # wrong family size for (n, k)
    with pytest.raises(ValueError):
        solve_main(family_on(K22, {(1, 1)}, set(), {(2, 1)}), 2, 2)


def _stall_every_path_step(monkeypatch):
    # a path step that swaps nothing passes the growth check and runs the
    # loop into its budget of 4 * n * len(fam) steps
    monkeypatch.setattr(solver, "_augment_via_path",
                        lambda fam, found, nf, rm: ((), (), {"op": "swap"}))


def test_solve_main_stalls_past_its_iteration_budget(monkeypatch):
    _stall_every_path_step(monkeypatch)
    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1)})
    trail = []
    out = solve_main(fam, 2, 2, trail=trail)
    assert isinstance(out, ViolationReport)
    assert out.oracle_size == 2
    assert "iteration budget 24 exhausted" in out.detail
    assert "size 2 (>= n = 2)" in out.detail
    assert trail == [{"op": "swap", "size": 0}] * 24


def test_non_growing_augment_stalls_at_once(monkeypatch):
    # an augment move must add exactly one edge: an empty one is refused
    # in the round that makes it
    monkeypatch.setattr(solver, "_augment_via_path",
                        lambda fam, found, nf, rm: ((), (), {"op": "augment"}))
    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1)})
    trail = []
    out = solve_main(fam, 2, 2, trail=trail)
    assert isinstance(out, ViolationReport)
    assert "step augment changed the size by 0, not 1" in out.detail
    assert trail == []


def test_stall_report_tells_a_false_theorem_from_a_broken_step(monkeypatch):
    # an oracle that under-reports stands in for a family the theorem fails
    _stall_every_path_step(monkeypatch)
    calls = []

    def planted(fam):
        calls.append(fam)
        return 1, RainbowMatching({1: (1, 1)})

    monkeypatch.setattr(solver, "rainbow_matching_max", planted)
    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1)})
    out = solve_main(fam, 2, 2)
    assert isinstance(out, ViolationReport)
    assert out.oracle_size == 1 < 2
    assert "size 1 (< n = 2)" in out.detail
    assert calls == [fam]


def _no_certificate(monkeypatch):
    module = importlib.import_module("rainbowmatch.dichotomy")
    monkeypatch.setattr(module, "find_regimentation", lambda net, nf: None)


def _theorem_violation(monkeypatch):
    monkeypatch.setattr(solver, "path_or_certificate",
                        lambda nf: TheoremViolation("planted"))


@pytest.mark.parametrize("fault, reason", [
    pytest.param(_no_certificate,
                 "neither rainbow path nor regimentation certificate",
                 id="_no_certificate"),
    pytest.param(_theorem_violation,
                 "no rainbow path although the family exceeds the critical size",
                 id="_theorem_violation")])
def test_missing_path_and_certificate_is_reported(monkeypatch, fault, reason):
    # the golden extremal order: its critical last round has no rainbow
    # path, so it stalls without a certificate; a planted violation stalls
    # the first round, which exceeds the critical size
    fam = family_from_json(_FILES["extremal"])
    fault(monkeypatch)
    out = solve_main(fam, 2, 4)
    assert isinstance(out, ViolationReport)
    assert reason in out.detail
    assert out.oracle_size == 4


def _swap_owners(monkeypatch):
    # hand each arc of a two-arc path to the other member, which does not
    # own it: the step finds no edge to realize the arc
    real = solver.path_or_certificate

    def swapped(nf):
        found = real(nf)
        if len(found.path.arcs) != 2:
            return found
        rep = found.representation
        return RainbowStPath(found.path, {0: rep[1], 1: rep[0]})

    monkeypatch.setattr(solver, "path_or_certificate", swapped)


def _reuse_member(monkeypatch):
    # let one member represent every new edge: the exchange refuses the clash
    real = solver._exchange

    def reused(rm, drop, add):
        add = list(add)
        return real(rm, drop, [(add[0][0], edge) for _, edge in add])

    monkeypatch.setattr(solver, "_exchange", reused)


@pytest.mark.parametrize("fault, reason", [
    pytest.param(_swap_owners, "has no edge on arc", id="_swap_owners"),
    pytest.param(_reuse_member,
                 "step refused: member 2 would be represented twice",
                 id="_reuse_member")])
def test_failing_step_is_reported_as_a_violation(monkeypatch, fault, reason):
    fam = family_on(K22, {(1, 1), (2, 2)}, {(2, 1)}, {(1, 2)})
    fault(monkeypatch)
    trail = []
    out = solve_main(fam, 2, 2, trail=trail)
    assert isinstance(out, ViolationReport)
    assert out.oracle_size == 2
    assert reason in out.detail
    assert [e["op"] for e in trail] == ["augment"]


def test_constructive_swap_step():
    # reaching size 2 here requires trading the representation of (1,1)
    fam = family_on(K22, {(1, 1), (2, 2)}, {(1, 2), (2, 1)}, {(1, 1)})
    trail = []
    out = solve_main(fam, 2, 2, trail=trail)
    assert is_valid_rainbow(fam, out, size=2)
    ops = [e["op"] for e in trail]
    assert "swap" in ops
    # growth contract: a swap keeps the size, every other step adds one
    sizes = [0] + [e["size"] for e in trail]
    assert [b - a for a, b in zip(sizes, sizes[1:])] == [
        0 if e["op"] == "swap" else 1 for e in trail]


def test_extremal_critical_round_at_scale():
    # the regimented order, shifted copies first and before the singleton,
    # holds nine interchangeable shifted and nine diagonal members: the
    # critical round must prove that no rainbow path exists among them
    n = 10
    g, base = sharpness_family(n, 2)
    shifted = frozenset((i, i % n + 1) for i in range(1, n + 1))
    rank = {shifted: 0, frozenset({(1, 2)}): 1}
    fam = EdgeFamily(g, tuple(sorted(base.sets + (shifted,),
                                     key=lambda s: rank.get(s, 2))))
    assert fam.sets[:n] == (shifted,) * (n - 1) + (frozenset({(1, 2)}),)
    trail = []
    out = solve_main(fam, 2, n, trail=trail)
    assert is_valid_rainbow(fam, out, size=n)
    assert [e["op"] for e in trail] == ["augment"] * 9 + ["swap", "augment"]


def test_solve_rounds_never_build_the_arc_view(monkeypatch):
    # every round's network is its inner tuple and its mask: no step, the
    # regimented swap included, reads the label view of the arcs
    n = 4
    g, base = sharpness_family(n, 2)
    shifted = frozenset((i, i % n + 1) for i in range(1, n + 1))
    rank = {shifted: 0, frozenset({(1, 2)}): 1}
    fam = EdgeFamily(g, tuple(sorted(base.sets + (shifted,),
                                     key=lambda s: rank.get(s, 2))))
    built = []

    def spy(fam, rm):
        nf = build_network(fam, rm)
        built.append(nf.network)
        return nf

    monkeypatch.setattr(solver, "build_network", spy)
    trail = []
    assert is_valid_rainbow(fam, solve_main(fam, 2, n, trail=trail), size=n)
    assert "swap" in [e["op"] for e in trail]
    assert len(built) == len(trail)
    for net in built:
        assert "arcs" not in net.__dict__ and "_bit" not in net.__dict__


def test_modes_agree_on_random_instances():
    checked = 0
    for (n, k) in ((2, 2), (3, 2), (3, 3), (4, 2)):
        g = BipartiteGraph.complete(n)
        for seed in range(40):
            fam = random_cooperative_family(n, k, g, seed=seed, density=0.5)
            if fam is None:
                continue
            checked += 1
            # the construction and the brute-force oracle agree that size
            # n is reachable
            out = solve_main(fam, k, n)
            assert isinstance(out, RainbowMatching)
            assert is_valid_rainbow(fam, out, size=n)
            assert len(out) <= rainbow_matching_max(fam)[0]
    assert checked >= 100


def _state(graph, sets, assignment, n):
    fam = EdgeFamily(graph, tuple(frozenset(s) for s in sets))
    rm = RainbowMatching(assignment)
    nf = build_network(fam, rm)
    net = nf.network
    assert exhaustive_rainbow_path(net, nf) is None
    reg = find_regimentation(net, nf)
    assert reg is not None
    return fam, rm, net, nf, reg


def test_regimented_step_exchange_branch():
    # the union matching offers an edge on two unmatched vertices owned by
    # the member represented at the backward arc's head: exchange the run
    fam, rm, net, nf, reg = _state(
        K33,
        [{(1, 1)},
         {(2, 2), (3, 3), (1, 2)},
         {(3, 1), (1, 2), (2, 3)},
         {(3, 1), (1, 2), (2, 3)},
         {(2, 1)}],
        {1: (1, 1), 2: (2, 2)}, 3)
    drop, add, event = _regimented_step(fam, 3, rm, nf, reg)
    out = _exchange(rm, drop, add)
    assert event["op"] == "augment-exchange"
    assert out.assignment == {2: (3, 3), 3: (1, 2), 5: (2, 1)}
    assert is_valid_rainbow(fam, out, size=3)


def test_regimented_step_walk_without_clash():
    # the offered edge ends at a matched vertex before the backward arc's
    # head, so the straight augmentation already yields a rainbow matching
    fam, rm, net, nf, reg = _state(
        K33,
        [{(1, 1)},
         {(2, 2), (3, 1), (1, 3)},
         {(3, 1), (1, 2), (2, 3)},
         {(3, 1), (1, 2), (2, 3)},
         {(2, 1)}],
        {1: (1, 1), 2: (2, 2)}, 3)
    drop, add, event = _regimented_step(fam, 3, rm, nf, reg)
    out = _exchange(rm, drop, add)
    assert event["op"] == "augment"
    assert out.assignment == {2: (3, 1), 3: (1, 2), 4: (2, 3)}
    assert is_valid_rainbow(fam, out, size=3)


def test_regimented_step_rectify_branch():
    # the offered edge lands on a matching edge covered by another
    # certificate path, so the walk alone would double one member: the one
    # move also exchanges the run along the backward arc
    g4 = BipartiteGraph.complete(4)
    spine = {(4, 1), (1, 2), (2, 4)}
    fam, rm, net, nf, reg = _state(
        g4,
        [{(1, 1)},
         {(2, 2), (4, 3), (1, 2), (3, 4)},
         {(3, 3)},
         spine, spine,
         {(4, 3), (3, 4)},
         {(2, 1)}],
        {1: (1, 1), 2: (2, 2), 3: (3, 3)}, 4)
    drop, add, event = _regimented_step(fam, 4, rm, nf, reg)
    out = _exchange(rm, drop, add)
    assert event["op"] == "rectify"
    assert out.assignment == {2: (4, 3), 4: (1, 2), 6: (3, 4), 7: (2, 1)}
    assert is_valid_rainbow(fam, out, size=4)


def test_regimented_step_direct_branch():
    # defensively reachable only with a certificate built while a rainbow
    # path still exists: the offered edge sits in an inessential member
    fam = EdgeFamily(K33, tuple(map(frozenset, [
        {(1, 1)},
        {(2, 2), (1, 2)},
        {(3, 1), (1, 2), (2, 3)},
        {(3, 1), (1, 2), (2, 3)},
        {(2, 1), (3, 3)}])))
    rm = RainbowMatching({1: (1, 1), 2: (2, 2)})
    nf = build_network(fam, rm)
    net = nf.network
    reg = brute_regimentation(net, nf)
    assert reg is not None
    drop, add, event = _regimented_step(fam, 3, rm, nf, reg)
    out = _exchange(rm, drop, add)
    assert event["op"] == "augment-direct"
    assert out.assignment == {1: (1, 1), 2: (2, 2), 5: (3, 3)}
    assert is_valid_rainbow(fam, out, size=3)


def test_verify_arrow_statement_examples():
    _, sharp = sharpness_family(2, 2)
    verdict = verify_arrow_statement(2, 2, 2, 2, sharp)
    assert verdict.status == "counterexample"
    assert verdict.oracle_size == 1

    drisko = family_on(K22, {(1, 1), (2, 2)}, {(1, 1), (2, 2)},
                       {(1, 2), (2, 1)})
    verdict = verify_arrow_statement(3, 1, 2, 2, drisko)
    assert verdict.status == "holds"
    assert verdict.oracle_size == 2

    assert verify_arrow_statement(3, 1, 2, 0, drisko).status == "holds"

    failing = family_on(K22, {(1, 1)}, {(1, 1)}, {(1, 1)})
    verdict = verify_arrow_statement(3, 2, 2, 2, failing)
    assert verdict.status == "hypothesis-failure"
    assert verdict.failing_indices == (1, 2)


def test_verify_arrow_statement_errors():
    fam = family_on(K22, {(1, 1)}, {(2, 2)})
    with pytest.raises(ValueError):
        verify_arrow_statement(3, 1, 2, 2, fam)  # size mismatch
    with pytest.raises(ValueError):
        verify_arrow_statement(2, 1, 2, 2, family_on(K22, {(1, 1)}, set()))
    with pytest.raises(ValueError):
        verify_arrow_statement(2, 3, 2, 2, fam)  # k out of range
    with pytest.raises(ValueError):
        verify_arrow_statement(2, 1, -5, 2, fam)  # n below 1
    with pytest.raises(ValueError):
        verify_arrow_statement(2, 1, 2, -2, fam)  # q below 0

