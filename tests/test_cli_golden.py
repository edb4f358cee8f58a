"""Golden CLI transcript: the sha256 of stdout and the exit code of a fixed
set of commands, pinned so that any change to a byte the CLI prints fails
here.  An intended output change re-records the table and says so in
CHANGES.md."""

import hashlib
import json
from pathlib import Path

from rainbowmatch.cli import main

DATA = Path(__file__).parent / "data"

_NINE = [f"v{i}" for i in range(9)]
_N = 4
_SHIFTED = [[i, i % _N + 1] for i in range(1, _N + 1)]
_DIAGONAL = [[i, i] for i in range(1, _N + 1)]

# input files, written into a fresh directory; "@name" in a command names one
_FILES = {
    # the extremal family at n = 4, k = 2 plus one shifted copy, shifted
    # copies first: its last round takes the regimented swap step
    "extremal": {"left": _N, "right": _N,
                 "sets": [_SHIFTED] * (_N - 1) + [[[1, 2]]] + [_DIAGONAL] * (_N - 1)},
    "net": {"inner": ["v"], "sets": [[["s", "v"], ["v", "t"]]]},
    "cert_pass": {"schema": "rainbow/1", "paths": [["s", "v", "t"]],
                  "assignment": {"1": 0}},
    "cert_fail": {"schema": "rainbow/1", "paths": [["s", "v", "t"]],
                  "assignment": {}},
    # nine inner vertices: above the structure-lemma search cap
    "net9": {"inner": _NINE, "sets": [[["s", v], [v, "t"]] for v in _NINE]},
    "cert9": {"schema": "rainbow/1", "paths": [["s", v, "t"] for v in _NINE],
              "assignment": {str(i): i - 1 for i in range(1, 10)}},
    # members over the matching {(1,1), (2,2)} with one backward arc
    "back": {"left": 3, "right": 3,
             "sets": [[[1, 1]], [[2, 2]],
                      [[3, 1], [1, 2], [2, 3]], [[3, 1], [1, 2], [2, 3]],
                      [[2, 1]]]},
    "back_matching": {"schema": "rainbow/1",
                      "assignment": [{"set": 1, "edge": [1, 1]},
                                     {"set": 2, "edge": [2, 2]}],
                      "trail": []},
    "back_reg": {"schema": "rainbow/1",
                 "paths": [["s", [1, 1], [2, 2], "t"]],
                 "assignment": {"1": 0, "2": 0}},
}

# (label, argv, save stdout as this file or None); commands run in order
_COMMANDS = [
    ("gen-sharpness", ["gen", "--family", "sharpness", "--n", "3", "--k", "2"], None),
    ("gen-drisko", ["gen", "--family", "drisko", "--n", "3", "--seed", "9"], None),
    ("gen-staircase", ["gen", "--family", "staircase", "--k", "3", "--seed", "1"], None),
    ("solve-drisko", ["solve", "--input", str(DATA / "drisko_n3_seed42.json"),
                      "--n", "3", "--k", "2"], "drisko_matching"),
    ("solve-extremal", ["solve", "--input", "@extremal", "--n", "4", "--k", "2"], None),
    ("check", ["check", "--input", str(DATA / "drisko_n3_seed42.json"),
               "--m", "5", "--k", "2", "--n", "3", "--q", "3"], None),
    ("certify-pass", ["certify", "--input", "@net", "--regimentation", "@cert_pass"], None),
    ("certify-fail", ["certify", "--input", "@net", "--regimentation", "@cert_fail"], None),
    ("certify-above-cap", ["certify", "--input", "@net9",
                           "--regimentation", "@cert9"], None),
    ("export-dot", ["export-dot", "--input", str(DATA / "drisko_n3_seed42.json"),
                    "--matching", "@drisko_matching"], None),
    ("export-dot-certificate", ["export-dot", "--input", "@back",
                                "--matching", "@back_matching",
                                "--regimentation", "@back_reg"], None),
    ("search-sampled", ["search", "--conjecture", "c4.3", "--k", "2",
                        "--budget", "300", "--seed", "5"], None),
    ("search-exhaustive", ["search", "--conjecture", "c4.1", "--k", "2",
                           "--exhaustive", "--budget", "1000"], None),
]

GOLDEN = {
    "gen-sharpness": ("891aa63f250550b181865b77427ecc12e9a2486d5124401c098d11945fa72da8", 0),
    "gen-drisko": ("1ad9f6d3bbcb21e130793982b03436cb5a2b7a3af73f4c70195a20c56d1b81a0", 0),
    "gen-staircase": ("099f7112f80c8c37fd5a57b9d0df23407c7ab4537544a45d9d5db8b75e20c0c4", 0),
    "solve-drisko": ("74e2a7ff213e565c88d970d9b0c00311c83c6154b053fdfb71e9c46cac2c24e9", 0),
    "solve-extremal": ("91bc55e8ae6b5a4f2ec5d6e9d3af7369053c4b424ea9ed847e742ba39b52e972", 0),
    "check": ("a48afb9b588bb9c3ab63e5d0389927bf04418198fc2ab0dc5b52ab3abbdffee4", 0),
    "certify-pass": ("7bf520d7f1719177825089f993a196817a4c0cacbbc9219224780c383b3eebd3", 0),
    "certify-fail": ("f7d8529baa3c5eaf016af7d62a798e0367cdb9f853c9e34491e34f0ba16bc09a", 1),
    # empty stdout: a parameter mismatch prints on stderr only
    "certify-above-cap": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 65),
    "export-dot": ("430f0826a553e1f905afe70fec9a5c07d86ffcd2c14292669c23a60d94c259a5", 0),
    "export-dot-certificate": ("000a3412384fac64ef6b0b5c9e09141c0e68cd1344991da1c45a32d0db5dfe9d", 0),
    "search-sampled": ("e54367b445587f53b307247d611b1a933933b7677e42357bd8387b2d494f6256", 0),
    "search-exhaustive": ("b45e95a3fa04cc01612b90b02c81b6598842771efdb175eb8fb9c46fc6f679b0", 0),
}


def _transcript(tmp_path, capsys) -> dict:
    files = {}
    for name, payload in _FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(payload))
    out = {}
    for label, argv, save in _COMMANDS:
        argv = [str(files[a[1:]]) if a.startswith("@") else a for a in argv]
        code = main(argv)
        stdout = capsys.readouterr().out
        if save is not None:
            files[save] = tmp_path / f"{save}.json"
            files[save].write_text(stdout)
        out[label] = (hashlib.sha256(stdout.encode()).hexdigest(), code)
    return out


def test_cli_transcript_matches_golden(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RAINBOW_SEED", raising=False)
    assert _transcript(tmp_path, capsys) == GOLDEN
