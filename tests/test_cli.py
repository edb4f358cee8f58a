import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from rainbowmatch import search, solver
from rainbowmatch.cli import build_parser, main
from rainbowmatch.serialize import family_from_json, family_loads


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sharp22(tmp_path, capsys):
    path = tmp_path / "sharp22.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "sharpness",
                           "--n", "2", "--k", "2")
    assert code == 0
    path.write_text(out)
    return path


@pytest.fixture()
def drisko2(tmp_path, capsys):
    path = tmp_path / "drisko2.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "drisko",
                           "--n", "2", "--seed", "42")
    assert code == 0
    path.write_text(out)
    return path


def test_gen_round_trip_is_byte_identical(capsys):
    for argv in (("gen", "--family", "sharpness", "--n", "3", "--k", "2"),
                 ("gen", "--family", "drisko", "--n", "3", "--seed", "9"),
                 ("gen", "--family", "staircase", "--k", "2", "--seed", "1")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        from rainbowmatch.serialize import family_dumps
        assert family_dumps(family_loads(out)) == out


def test_gen_is_deterministic_across_runs(capsys):
    first = run_cli(capsys, "gen", "--family", "drisko", "--n", "3",
                    "--seed", "7")
    second = run_cli(capsys, "gen", "--family", "drisko", "--n", "3",
                     "--seed", "7")
    assert first == second


def test_env_seed_override(capsys, monkeypatch):
    base = run_cli(capsys, "gen", "--family", "drisko", "--n", "2",
                   "--seed", "1")
    monkeypatch.setenv("RAINBOW_SEED", "99")
    overridden = run_cli(capsys, "gen", "--family", "drisko", "--n", "2",
                         "--seed", "1")
    monkeypatch.delenv("RAINBOW_SEED")
    plain99 = run_cli(capsys, "gen", "--family", "drisko", "--n", "2",
                      "--seed", "99")
    assert overridden == plain99
    assert overridden != base


@pytest.mark.parametrize("value", ["abc", ""])
def test_env_seed_must_be_an_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("RAINBOW_SEED", value)
    code, out, err = run_cli(capsys, "gen", "--family", "drisko", "--n", "2")
    assert code == 64
    assert out == ""
    assert "RAINBOW_SEED" in err


_DRISKO2 = ("gen", "--family", "drisko", "--n", "2")


@pytest.mark.parametrize("argv, env", [
    ((*_DRISKO2, "--seed", "0_7"), None),
    ((*_DRISKO2, "--seed", "+7"), None),
    ((*_DRISKO2, "--seed", " 7 "), None),
    ((*_DRISKO2, "--seed", "\u0667"), None),                # Arabic-Indic 7
    (("gen", "--family", "drisko", "--n", "\u0662", "--seed", "0_7"), None),
    (("gen", "--family", "sharpness", "--n", "2", "--k", "2.0"), None),
    (("solve", "--input", "x.json", "--n", "2", "--k", "-"), None),
    (("check", "--input", "x.json", "--m", "1e1", "--k", "2", "--n", "2",
      "--q", "1"), None),
    (("check", "--input", "x.json", "--m", "3", "--k", "2", "--n", "2",
      "--q", "--1"), None),
    (("search", "--conjecture", "c4.1", "--budget", "1_000"), None),
    (_DRISKO2, " +7 "),
    (_DRISKO2, "\u0667"),
    (_DRISKO2, "0_7"),
])
def test_integers_are_plain_ascii_decimals(capsys, monkeypatch, argv, env):
    # int() alone would read every one of these, most of them as 7
    if env is not None:
        monkeypatch.setenv("RAINBOW_SEED", env)
    try:
        code = main(list(argv))
    except SystemExit as exc:   # argparse usage error
        code = exc.code
    assert code == 64
    assert capsys.readouterr().out == ""


def test_negative_seed_still_parses(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, *_DRISKO2, "--seed", "-3")
    assert code == 0 and out
    monkeypatch.setenv("RAINBOW_SEED", "-3")
    assert run_cli(capsys, *_DRISKO2) == (0, out, "")


@pytest.mark.parametrize("argv", [
    ("search", "--conjecture", "c4.1", "--k", "0"),
    ("gen", "--family", "sharpness", "--n", "1", "--k", "2"),
    ("gen", "--family", "drisko", "--n", "0"),
    ("search", "--conjecture", "c4.1", "--budget", "-5"),
    ("search", "--conjecture", "c4.1", "--budget", "-5", "--exhaustive"),
])
def test_out_of_range_parameters_exit_65(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 65
    assert out == ""
    assert "parameter mismatch" in err


def test_gen_missing_flag_exits_64(capsys):
    code, _, err = run_cli(capsys, "gen", "--family", "sharpness", "--n", "3")
    assert code == 64
    assert "needs --n and --k" in err


@pytest.mark.parametrize("argv, flag", [
    (("--family", "sharpness", "--n", "3", "--k", "2", "--seed", "77"), "--seed"),
    (("--family", "drisko", "--n", "3", "--k", "99"), "--k"),
    (("--family", "staircase", "--k", "2", "--seed", "1", "--n", "9"), "--n"),
])
def test_gen_refuses_a_flag_its_family_does_not_take(capsys, argv, flag):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert (code, out) == (64, "")
    assert f"does not take {flag}" in err


def test_gen_reads_the_seed_only_for_seeded_families(capsys, monkeypatch):
    sharp = ("gen", "--family", "sharpness", "--n", "3", "--k", "2")
    plain = run_cli(capsys, *sharp)
    monkeypatch.setenv("RAINBOW_SEED", "abc")
    assert run_cli(capsys, *sharp) == plain
    assert run_cli(capsys, *_DRISKO2)[0] == 64
    monkeypatch.delenv("RAINBOW_SEED")
    # an omitted seed still means 0
    for argv in (_DRISKO2, ("gen", "--family", "staircase", "--k", "2")):
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--seed", "0")


def test_solve_paths_and_exit_codes(tmp_path, capsys, sharp22, drisko2):
    # sharpness file has 2 members, but (n=2, k=2) requires 3
    code, _, err = run_cli(capsys, "solve", "--input", str(sharp22),
                           "--n", "2", "--k", "2")
    assert code == 65
    assert "parameter mismatch" in err

    code, out, _ = run_cli(capsys, "solve", "--input", str(drisko2),
                           "--n", "2", "--k", "2")
    assert code == 0
    cert = json.loads(out)
    assert cert["schema"] == "rainbow/1"
    assert len(cert["assignment"]) == 2
    assert cert["trail"]

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(
        {"left": 2, "right": 2, "sets": [[[1, 1]], [[1, 1]], [[1, 1]]]}))
    code, out, _ = run_cli(capsys, "solve", "--input", str(failing),
                           "--n", "2", "--k", "2")
    assert code == 2
    assert json.loads(out)["hypothesis_failure"] == [1, 2]

    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json")
    code, _, err = run_cli(capsys, "solve", "--input", str(garbled),
                           "--n", "2", "--k", "2")
    assert code == 64

    code, _, err = run_cli(capsys, "solve", "--input", str(tmp_path / "no.json"),
                           "--n", "2", "--k", "2")
    assert code == 64


def test_check_command(capsys, sharp22, drisko2):
    code, out, _ = run_cli(capsys, "check", "--input", str(sharp22),
                           "--m", "2", "--k", "2", "--n", "2", "--q", "2")
    assert code == 0
    assert out.splitlines()[0] == "counterexample"
    assert json.loads("".join(out.splitlines()[1:]))["nu_r"] == 1

    code, out, _ = run_cli(capsys, "check", "--input", str(drisko2),
                           "--m", "3", "--k", "1", "--n", "2", "--q", "2")
    assert code == 0
    assert out.splitlines()[0] == "holds"


def test_check_rejects_empty_family(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"left": 2, "right": 2, "sets": []}))
    code, _, err = run_cli(capsys, "check", "--input", str(empty),
                           "--m", "0", "--k", "1", "--n", "1", "--q", "1")
    assert code == 64


def test_certify_command(tmp_path, capsys):
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(
        {"inner": ["v"], "sets": [[["s", "v"], ["v", "t"]]]}))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"schema": "rainbow/1",
                                "paths": [["s", "v", "t"]],
                                "assignment": {"1": 0}}))
    code, out, _ = run_cli(capsys, "certify", "--input", str(netfile),
                           "--regimentation", str(cert))
    assert code == 0
    assert out.startswith("PASS (1)(2)(3)")
    assert "counting OK" in out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "rainbow/1",
                               "paths": [["s", "v", "t"]],
                               "assignment": {}}))
    code, out, _ = run_cli(capsys, "certify", "--input", str(netfile),
                           "--regimentation", str(bad))
    assert code == 1
    assert out.strip() == "FAIL condition 3"

    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"paths": "nope"}))
    code, _, err = run_cli(capsys, "certify", "--input", str(netfile),
                           "--regimentation", str(malformed))
    assert code == 66


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, "search", "--conjecture", "c4.1",
                           "--k", "2", "--exhaustive", "--budget", "1000")
    assert code == 0
    assert out.startswith("no counterexample; 680 instances")


def test_search_command_prints_counterexample(capsys, monkeypatch):
    # a rainbow walk that under-reports, confirmed by the public oracle,
    # plants a counterexample on the first family passing the hypothesis
    monkeypatch.setattr(search, "_rainbow_walk", lambda masks, disjoint, goal: [])
    monkeypatch.setattr(search, "rainbow_matching_max", lambda fam: (0, None))
    monkeypatch.delenv("RAINBOW_SEED", raising=False)
    code, out, _ = run_cli(capsys, "search", "--conjecture", "c4.1",
                           "--k", "2", "--budget", "200", "--seed", "5")
    assert code == 0
    first, rest = out.split("\n", 1)
    assert first == "counterexample"
    report = json.loads(rest)
    assert report["conjecture"] == "c4.1" and report["oracle_size"] == 0
    expected = search.conjecture_search("c4.1", k=2, budget=200, seed=5)
    assert family_from_json(report["instance"]) == expected.counterexample


def test_export_dot(tmp_path, capsys, drisko2):
    code, out, _ = run_cli(capsys, "solve", "--input", str(drisko2),
                           "--n", "2", "--k", "2")
    assert code == 0
    cert = tmp_path / "matching.json"
    cert.write_text(out)
    code, dot, _ = run_cli(capsys, "export-dot", "--input", str(drisko2),
                           "--matching", str(cert))
    assert code == 0
    assert dot.startswith("digraph network {")
    assert "shape=box" in dot
    code, again, _ = run_cli(capsys, "export-dot", "--input", str(drisko2),
                             "--matching", str(cert))
    assert again == dot


def test_export_dot_marks_backward_arcs(tmp_path, capsys):
    # members over the matching {(1,1), (2,2)} produce the spine plus the
    # backward arc between the two matched edges
    instance = tmp_path / "inst.json"
    instance.write_text(json.dumps({
        "left": 3, "right": 3,
        "sets": [[[1, 1]], [[2, 2]],
                 [[3, 1], [1, 2], [2, 3]], [[3, 1], [1, 2], [2, 3]],
                 [[2, 1]]]}))
    matching = tmp_path / "matching.json"
    matching.write_text(json.dumps({
        "schema": "rainbow/1",
        "assignment": [{"set": 1, "edge": [1, 1]}, {"set": 2, "edge": [2, 2]}],
        "trail": []}))
    reg = tmp_path / "reg.json"
    reg.write_text(json.dumps({
        "schema": "rainbow/1",
        "paths": [["s", [1, 1], [2, 2], "t"]],
        "assignment": {"1": 0, "2": 0}}))
    code, plain, _ = run_cli(capsys, "export-dot", "--input", str(instance),
                             "--matching", str(matching))
    assert code == 0
    assert "style=dashed" not in plain
    code, marked, _ = run_cli(capsys, "export-dot", "--input", str(instance),
                              "--matching", str(matching),
                              "--regimentation", str(reg))
    assert code == 0
    assert "e_2_2 -> e_1_1 [style=dashed" in marked


def test_export_dot_refuses_a_matching_edge_of_the_wrong_length(tmp_path,
                                                                capsys, drisko2):
    matching = tmp_path / "matching.json"
    for edge in ([1, 1, 77], [1], []):
        matching.write_text(json.dumps({
            "schema": "rainbow/1", "assignment": [{"set": 1, "edge": edge}]}))
        code, out, err = run_cli(capsys, "export-dot", "--input", str(drisko2),
                                 "--matching", str(matching))
        assert (code, out) == (66, ""), edge
        assert "malformed certificate" in err

def test_identical_runs_are_byte_identical(tmp_path, capsys, drisko2):
    runs = [run_cli(capsys, "solve", "--input", str(drisko2),
                    "--n", "2", "--k", "2") for _ in range(2)]
    assert runs[0] == runs[1]


def test_solve_reports_a_stalled_construction_with_exit_3(capsys, monkeypatch,
                                                          drisko2):
    # a path step that never grows the matching stalls the construction
    monkeypatch.setattr(solver, "_augment_via_path",
                        lambda fam, found, nf, rm, trail: rm)
    code, out, err = run_cli(capsys, "solve", "--input", str(drisko2),
                             "--n", "2", "--k", "2")
    assert code == 3
    report = json.loads(out)
    assert set(report) == {"schema", "violation", "oracle_size"}
    assert report["oracle_size"] == 2
    assert "iteration budget" in report["violation"]
    assert err == ""


def test_solve_has_no_mode_flag(capsys, drisko2):
    with pytest.raises(SystemExit) as caught:
        main(["solve", "--input", str(drisko2), "--n", "2", "--k", "2",
              "--mode", "hybrid"])
    assert caught.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --mode hybrid" in captured.err

def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowmatch", "gen", "--family", "staircase",
         "--k", "2", "--seed", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    fam = family_loads(proc.stdout)
    assert [len(s) for s in fam.sets] == [1, 2, 2]


def test_usage_errors_exit_64():
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowmatch", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 64


def _run_module(*argv):
    return subprocess.run([sys.executable, "-m", "rainbowmatch", *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("instance", [
    {"left": 2, "right": 2, "sets": [[[1.9, 1]], [[True, 2]], [[2, 2]]]},
    {"left": 2.7, "right": 2, "sets": [[[1, 1]], [[2, 2]], [[1, 2]]]},
])
def test_solve_refuses_non_integer_vertices(tmp_path, instance):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    proc = _run_module("solve", "--input", str(path), "--n", "2", "--k", "2")
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("network, certificate, expected", [
    ({"inner": ["v"], "sets": None},
     {"paths": [["s", "v", "t"]], "assignment": {"1": 0}}, 64),
    ({"inner": "v", "sets": [[["s", "v"], ["v", "t"]]]},
     {"paths": [["s", "v", "t"]], "assignment": {"1": 0}}, 64),
    ({"inner": ["v"], "sets": [[["s", "v"], ["v", "t"]]]},
     {"paths": [["s", "v", "t"]], "assignment": [["1", 0]]}, 66),
    ({"inner": ["v"], "sets": [[["s", "v"], ["v", "t"]]] * 2},
     {"paths": [["s", "v", "t"]], "assignment": {"+1": 0}}, 66),
])
def test_certify_refuses_malformed_shapes(tmp_path, network, certificate,
                                          expected):
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(network))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"schema": "rainbow/1", **certificate}))
    proc = _run_module("certify", "--input", str(netfile),
                       "--regimentation", str(cert))
    assert proc.returncode == expected
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_certify_above_the_search_bound_exits_65(tmp_path):
    # the certificate verifies, but the structure lemmas need an exhaustive
    # search that refuses nine inner vertices
    inner = [f"v{i}" for i in range(9)]
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(
        {"inner": inner, "sets": [[["s", v], [v, "t"]] for v in inner]}))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({
        "schema": "rainbow/1", "paths": [["s", v, "t"] for v in inner],
        "assignment": {str(i): i - 1 for i in range(1, 10)}}))
    proc = _run_module("certify", "--input", str(netfile),
                       "--regimentation", str(cert))
    assert proc.returncode == 65
    assert proc.stdout == ""
    assert "parameter mismatch" in proc.stderr
    assert "Traceback" not in proc.stderr


_NETWORK = {"inner": ["v"], "sets": [[["s", "v"], ["v", "t"]]]}
_CERTIFICATE = {"schema": "rainbow/1", "paths": [["s", "v", "t"]],
                "assignment": {"1": 0}}
# bytes that are not UTF-8, and nesting past the JSON decoder's recursion limit
_UNREADABLE = {"not-utf8": b"\xff\xfe{}",
               "deep": b"[" * 200_000 + b"]" * 200_000}


@pytest.mark.parametrize("kind", sorted(_UNREADABLE))
def test_unreadable_instance_exits_64(tmp_path, kind):
    content = _UNREADABLE[kind]
    path = tmp_path / "inst.json"
    path.write_bytes(content)
    proc = _run_module("solve", "--input", str(path), "--n", "2", "--k", "2")
    assert proc.returncode == 64
    assert proc.stdout == ""
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr

    netfile = tmp_path / "net.json"
    netfile.write_bytes(content)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_CERTIFICATE))
    proc = _run_module("certify", "--input", str(netfile),
                       "--regimentation", str(cert))
    assert proc.returncode == 64
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("kind", sorted(_UNREADABLE))
def test_unreadable_certificate_exits_66(tmp_path, kind):
    content = _UNREADABLE[kind]
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(_NETWORK))
    cert = tmp_path / "cert.json"
    cert.write_bytes(content)
    proc = _run_module("certify", "--input", str(netfile),
                       "--regimentation", str(cert))
    assert proc.returncode == 66
    assert proc.stdout == ""
    assert "malformed certificate" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("side", [2 ** 62, 10 ** 19])
def test_a_huge_side_is_a_parse_error(tmp_path, capsys, side):
    # the oracles' per-vertex tables would raise MemoryError or OverflowError
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"left": side, "right": 2,
                                "sets": [[[1, 1]], [[2, 2]], [[1, 2]]]}))
    for argv in (("solve", "--n", "2", "--k", "2"),
                 ("check", "--m", "3", "--k", "2", "--n", "2", "--q", "2")):
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, out) == (64, ""), argv
        assert "a side may hold at most 65536 vertices" in err


def _past_digit_limit() -> str:
    if not hasattr(sys, "get_int_max_str_digits") or not sys.get_int_max_str_digits():
        pytest.skip("this Python has no integer digit limit")
    return "1" * (sys.get_int_max_str_digits() + 1)


def test_an_integer_past_the_digit_limit_is_unreadable(tmp_path, capsys, drisko2):
    digits = _past_digit_limit()
    path = tmp_path / "inst.json"
    path.write_text('{"left": %s, "right": 2, "sets": [[[1, 1]]]}' % digits)
    code, out, err = run_cli(capsys, "solve", "--input", str(path),
                             "--n", "2", "--k", "2")
    assert (code, out) == (64, "")
    assert "parse error: invalid JSON" in err

    matching = tmp_path / "matching.json"
    matching.write_text('{"schema": "rainbow/1", "assignment": '
                        '[{"set": %s, "edge": [1, 1]}]}' % digits)
    code, out, err = run_cli(capsys, "export-dot", "--input", str(drisko2),
                             "--matching", str(matching))
    assert (code, out) == (66, "")
    assert "malformed certificate: invalid JSON" in err


def test_malformed_regimentation_names_its_fault_once(tmp_path, capsys):
    netfile = tmp_path / "net.json"
    netfile.write_text(json.dumps(_NETWORK))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"paths": [["s"]], "assignment": {}}))
    code, out, err = run_cli(capsys, "certify", "--input", str(netfile),
                             "--regimentation", str(cert))
    assert (code, out) == (66, "")
    assert err == "malformed certificate: a path needs at least two vertices\n"

def test_parser_is_shared_across_calls(capsys, monkeypatch, drisko2):
    # main() reuses one parser per process; interleaved calls, a usage
    # error among them, must print what a fresh process prints
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("RAINBOW_SEED", raising=False)
    solve = ("solve", "--input", str(drisko2), "--n", "2", "--k", "2")
    calls = [solve,
             ("solve", "--input", str(drisko2), "--n", "two", "--k", "2"),
             ("gen", "--family", "staircase", "--k", "3", "--seed", "5"),
             ("search", "--conjecture", "c4.1", "--k", "2", "--exhaustive",
              "--budget", "1000"),
             solve]
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = _run_module(*argv)
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert build_parser() is not build_parser()


# -- every input file maps to a documented exit code -------------------------

_EXIT_CODES = {0, 1, 2, 3, 64, 65, 66}
_KEYS = ("left", "right", "sets", "inner", "paths", "assignment", "schema",
         "1", "2")

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner,
                      max_size=4),
    max_leaves=20)


def _mostly(good, other):
    """good three times in four, else other, so that most drawn files
    get past the first check and reach the deeper ones."""
    return st.integers(0, 3).flatmap(lambda r: other if r == 0 else good)


@st.composite
def _instance(draw):
    """A bipartite instance of the size solve expects for (n, k); in one
    draw in four an edge may stray outside the graph or be any JSON value."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(2, n))
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).map(list)
    if draw(_mostly(st.just(False), st.just(True))):
        edge |= (st.lists(st.integers(0, n + 1), min_size=2, max_size=2)
                 | _json_values)
    size = 2 * n + k - 3
    sets = draw(st.lists(st.lists(edge, min_size=1, max_size=n * n),
                         min_size=size, max_size=size + 1))
    return {"left": n, "right": n, "sets": sets}, n, k


_vertex = _mostly(st.sampled_from(["v", "w"]),
                  st.sampled_from(["s", "t", [1, 1]]) | _json_values)
_arc = _mostly(st.sampled_from([["s", "v"], ["s", "w"], ["v", "w"],
                                ["w", "v"], ["v", "t"], ["w", "t"]]),
               st.lists(_vertex, min_size=2, max_size=2) | _json_values)
_network = st.fixed_dictionaries({
    "inner": _mostly(st.just(["v", "w"]), st.lists(_vertex, max_size=3)),
    "sets": st.lists(st.lists(_arc, max_size=4), max_size=4)})
_certificate = st.fixed_dictionaries({
    "schema": st.just("rainbow/1"),
    "paths": st.lists(st.tuples(st.just("s"), st.lists(_vertex, max_size=2),
                                st.just("t"))
                      .map(lambda p: [p[0], *p[1], p[2]]), max_size=3),
    "assignment": st.dictionaries(
        _mostly(st.sampled_from(["1", "2", "3", "4"]), st.text(max_size=2)),
        _mostly(st.integers(0, 2), _json_values), max_size=4)})


def _file(payload):
    """File contents: mostly the payload as JSON, else any JSON value or
    any bytes."""
    return _mostly(payload.map(json.dumps),
                   _json_values.map(json.dumps) | st.binary(max_size=32))


_argument = st.integers(-1, 4).map(str) | st.sampled_from(["", "x", "2.5"])


@st.composite
def _solve_case(draw):
    payload, n, k = draw(_instance())
    text = draw(_file(st.just(payload)))
    n, k = draw(_mostly(st.just((n, k)), st.tuples(_argument, _argument)))
    return ("solve", "--n", str(n), "--k", str(k)), (text,)


_certify_case = st.tuples(st.just(("certify",)),
                          st.tuples(_file(_network), _file(_certificate)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_solve_case() | _certify_case)
def test_any_input_file_maps_to_an_exit_code(tmp_path, case):
    command, contents = case
    paths = []
    for index, content in enumerate(contents):
        path = tmp_path / f"file{index}"
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            path.write_bytes(content)
        paths.append(str(path))
    if command[0] == "solve":
        argv = [*command, "--input", paths[0]]
    else:
        argv = ["certify", "--input", paths[0], "--regimentation", paths[1]]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 64, err.getvalue()   # argparse usage errors only
        code = "usage"
    event(f"{command[0]} exit {code}")
    assert code == "usage" or code in _EXIT_CODES
