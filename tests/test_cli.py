import json
import subprocess
import sys

import pytest

from rainbowmatch import search
from rainbowmatch.cli import main
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


@pytest.mark.parametrize("argv", [
    ("search", "--conjecture", "c4.1", "--k", "0"),
    ("gen", "--family", "sharpness", "--n", "1", "--k", "2"),
    ("gen", "--family", "drisko", "--n", "0"),
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
    # an oracle that under-reports plants a counterexample on the first
    # family passing the hypothesis
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


def test_identical_runs_are_byte_identical(tmp_path, capsys, drisko2):
    runs = [run_cli(capsys, "solve", "--input", str(drisko2),
                    "--n", "2", "--k", "2") for _ in range(2)]
    assert runs[0] == runs[1]


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
