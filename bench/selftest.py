"""Self-test of the benchmark harness, at tiny input sizes.

    python3 bench/selftest.py

For every workload it runs bench/run.py untraced and traced on tiny pools
and checks that:

- the last line is the result object with exactly the contract's keys,
  every metric BENCHMARK.json lists is printed with its unit, and no other;
- the report line carries error_rate 0, and nothing failed;
- every traced pass reproduced the untraced outputs, and the traced run's
  output digest equals the untraced run's.

It also runs the benchmark from a copy holding only BENCHMARK.json and the
benchmark's own files, where it must exit non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 170


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def _lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def _check_metrics(result: dict, listed: list, label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        wrong_units = [(n, got[n], want[n]) for n in got
                       if n in want and got[n] != want[n]]
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, "
                             f"units {wrong_units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace={trace}"
            try:
                report, result = _lines(_run(ROOT, workload, trace))
                _check_metrics(result, listed, label)
                if not result["correct"] or result["failed"] or report["failed"]:
                    raise AssertionError(f"{label}: failures {report['failures']}")
                if trace == 0 and report["metrics"]["error_rate"]["value"] != 0:
                    raise AssertionError(f"{label}: error_rate is not 0")
                if trace == 1 and not report["traced_outputs_match"]:
                    raise AssertionError(f"{label}: traced passes changed outputs")
                digests[trace] = report["output_digest"]
            except (AssertionError, ValueError, KeyError,
                    subprocess.TimeoutExpired) as exc:
                problems.append(f"{label}: {exc}")
                continue
            print(f"ok  {label}  digest {report['output_digest'][:16]}")
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append(f"{workload}: traced digest differs from untraced")

    # without the program's sources the benchmark must refuse to run
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for directory in spec["paths"]:
            shutil.copytree(ROOT / directory, bare / directory,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("a copy without src/ still printed a result")
        else:
            print(f"ok  copy without src/ exits {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
