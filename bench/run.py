"""rainbowmatch benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` next
to this directory, never from an installed copy.  Inputs are generated
from the seed, written under ``.bench_work/`` and loaded back before any
timing; the work directory is removed at exit.  Operation times are
reported in units of the reference operation (``reference.py``), timed
alongside them.

The run prints one report line (a JSON object with the environment, the
output digest, the failures and every metric with its unit, ``error_rate``
included) and then, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

from reference import timed_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ref": "ref",
    "latency_p90_ref": "ref",
    "throughput_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

_LAYER_TIMES = (
    "core.cooperative_condition", "core.max_matching",
    "core.rainbow_matching_max", "generators.random_cooperative_family",
    "search.conjecture_search", "search.graded_union_condition",
    "search.doubled_family", "network.NetworkFamily", "network.build_network",
    "network.has_st_path",
    "paths.greedy_rainbow_tree", "paths.verify_rainbow_path",
    "paths.exhaustive_rainbow_path", "regiment.find_regimentation",
    "regiment.verify_regimentation", "dichotomy.dichotomy",
    "solver.solve_main", "cli.main")
_LAYER_CALLS = (
    "core.cooperative_condition", "core.max_matching",
    "core.rainbow_matching_max", "network.build_network",
    "network.has_st_path", "paths.exhaustive_rainbow_path",
    "regiment.find_regimentation")
# inclusive span time, for layers whose work sits in their children
_LAYER_TOTALS = ("core.cooperative_condition", "solver.solve_main")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in _LAYER_CALLS},
    **{f"{name}.self_s": "s" for name in _LAYER_TIMES},
    **{f"{name}.total_s": "s" for name in _LAYER_TOTALS},
    "serialize.self_s": "s",
    "generators.accept_ratio": "ratio",
    "search.hypothesis_pass_ratio": "ratio",
    "regiment.find_regimentation.hit_ratio": "ratio",
    "dichotomy.certificate_ratio": "ratio",
    "solver.steps.augment": "count",
    "solver.steps.regimented": "count",
    "solver.steps.fallback": "count",
    "trace.overhead_frac": "ratio",
}

# set up MIN_SETUP_REPS times before the passes, then again between passes,
# at most SETUP_SLICE_S at a time, until SETUP_TARGET_S is spent: the
# machine's speed changes within a second, so repeats spread over the run
# give a steadier median than repeats made back to back
MIN_SETUP_REPS = 3
SETUP_TARGET_S = 1.0
SETUP_SLICE_S = 0.05
MAX_FAILURES_SHOWN = 5
# the reference operation is timed again once this much operation time
# has passed, so every operation is compared with a reference at most a
# few milliseconds away
REFERENCE_INTERVAL_NS = 2_000_000
REFERENCE_WARMUP = 20


def _import_package():
    """Import rainbowmatch from this checkout's src/, or exit non-zero."""
    if not (SRC / "rainbowmatch" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC} holds no rainbowmatch package; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rainbowmatch
    if Path(rainbowmatch.__file__).resolve().parent != SRC / "rainbowmatch":
        sys.exit(f"bench: imported rainbowmatch from {rainbowmatch.__file__}, "
                 f"not from {SRC}")


def _environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def _sha(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _input_digest(workdir: Path) -> str:
    files = sorted(workdir.iterdir())
    return _sha(f"{p.name}\n{p.read_text(encoding='utf-8')}" for p in files)


def _setup(workload, seed: int, workdir: Path, tracer=None):
    """One set-up: returns (items, seconds, digest of the written inputs)."""
    for stale in workdir.iterdir():
        stale.unlink()
    start = perf_counter()
    if tracer is None:
        items = workload.setup(seed, workdir)
    else:
        with tracer:
            items = workload.setup(seed, workdir)
    return items, perf_counter() - start, _input_digest(workdir)


class Pass:
    """Results of running every pool item once, in pool order."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.relative: list[float] = []   # latency / nearest reference time
        self.reference_ns: list[int] = []
        self.digests: list[str] = []
        self.counts: Counter = Counter()
        self.units = 0
        self.failures: list[str] = []

    def add_latency(self, elapsed_ns: int) -> None:
        self.latencies_ns.append(elapsed_ns)
        self.relative.append(elapsed_ns / self.reference_ns[-1])


def _one_pass(workload, items) -> Pass:
    """Time every pool item once.  As in ``timeit``, the cyclic garbage
    collector is off while operations are timed: it would otherwise run at
    the same points of every pass and add its time to the same few
    operations each time.  The young generation is collected, untimed,
    before each operation, so garbage never builds up over a pass."""
    gc.disable()
    try:
        return _timed_pass(workload, items)
    finally:
        gc.enable()
        gc.collect()


def _timed_pass(workload, items) -> Pass:
    result = Pass()
    since_reference = REFERENCE_INTERVAL_NS
    for item in items:
        gc.collect(0)
        if since_reference >= REFERENCE_INTERVAL_NS:
            result.reference_ns.append(timed_reference())
            since_reference = 0
        start = perf_counter_ns()
        try:
            output = workload.op(item)
        except Exception:  # a failed operation is counted, never fatal
            result.add_latency(perf_counter_ns() - start)
            since_reference += result.latencies_ns[-1]
            result.digests.append("")
            result.failures.append(traceback.format_exc(limit=3).strip())
            continue
        result.add_latency(perf_counter_ns() - start)
        since_reference += result.latencies_ns[-1]
        try:
            outcome = workload.check(item, output)
        except Exception:
            result.digests.append("")
            result.failures.append("check raised: "
                                   + traceback.format_exc(limit=3).strip())
            continue
        result.digests.append(outcome.digest)
        result.counts.update(outcome.counts)
        result.units += outcome.units
        if not outcome.ok:
            result.failures.append(outcome.detail or "check failed")
    return result


def _percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Run:
    """Shared bookkeeping of one benchmark process."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path,
                 recorded_digest: str | None = None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.recorded_digest = recorded_digest
        self.attempted = 0
        self.failures: list[str] = []   # one entry per failed operation
        self.problems: list[str] = []   # set-up or tracing not reproducible
        self.reference: list[str] | None = None   # digests of the first pass
        self.setup_times: list[float] = []
        self.input_digests: set[str] = set()

    def set_up(self):
        """One set-up, timed; returns its items."""
        items, seconds, digest = _setup(self.workload, self.seed, self.workdir)
        self.setup_times.append(seconds)
        self.input_digests.add(digest)
        return items

    def set_up_between_passes(self) -> None:
        """Repeat the set-up for one slice of the set-up time budget.  It
        rewrites the same input files, which the pool items may name."""
        spent = sum(self.setup_times)
        stop = min(spent + SETUP_SLICE_S, SETUP_TARGET_S)
        while spent < stop:
            self.set_up()
            spent = sum(self.setup_times)

    def warm_up(self, items) -> None:
        for _ in range(REFERENCE_WARMUP):
            timed_reference()
        for item in items[:self.workload.warmup]:
            self.workload.check(item, self.workload.op(item))

    def record(self, result: Pass) -> None:
        self.attempted += len(result.digests)
        self.failures += result.failures
        if self.reference is None:
            self.reference = result.digests
            return
        for index, (got, want) in enumerate(zip(result.digests,
                                                self.reference)):
            if got != want:
                self.failures.append(
                    f"pool item {index}: output differs from the first pass")

    @property
    def digest(self) -> str:
        return _sha(self.reference or [])

    def report(self, extra: dict, metrics: dict) -> dict:
        failed = len(self.failures)
        return {
            "workload": self.workload.name, "seed": self.seed,
            "environment": _environment(),
            "output_digest": self.digest,
            "recorded_digest_matches": None if self.recorded_digest is None
            else self.recorded_digest == self.digest,
            "attempted": self.attempted, "failed": failed,
            "failures": self.failures[:MAX_FAILURES_SHOWN],
            "problems": self.problems,
            **extra,
            "metrics": metrics,
        }

    def result(self, metrics: dict) -> dict:
        return {"correct": not self.failures and not self.problems,
                "attempted": max(1, self.attempted),
                "failed": len(self.failures),
                "metrics": metrics}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(run: Run) -> tuple[dict, dict]:
    for _ in range(MIN_SETUP_REPS):
        items = run.set_up()
    run.warm_up(items)
    # every pass's latencies, in reference units and in ns, in pool order
    relative: list[array] = []
    raw: list[array] = []
    references: list[int] = []
    gc.collect()
    start = perf_counter()
    while not relative or perf_counter() - start < run.seconds:
        result = _one_pass(run.workload, items)
        run.record(result)
        relative.append(array("d", result.relative))
        raw.append(array("q", result.latencies_ns))
        references += result.reference_ns
        if len(relative) == 1:
            # every operation has run once; later passes repeat them and
            # add only the benchmark's own sample storage
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        run.set_up_between_passes()
    wall = perf_counter() - start
    if len(run.input_digests) != 1:
        run.problems.append("set-up wrote different inputs on repeats")
    passes = len(relative)
    # each item's latency is its median over the passes
    item_rel = sorted(statistics.median(p[i] for p in relative)
                      for i in range(len(items)))
    item_ms = sorted(statistics.median(p[i] for p in raw) / 1e6
                     for i in range(len(items)))
    p90, beyond_p90 = _percentile(item_rel, 0.9)
    reference_ms = statistics.median(references) / 1e6
    values = {
        "setup_s": statistics.median(run.setup_times),
        "latency_p50_ref": statistics.median(item_rel),
        "latency_p90_ref": p90,
        "throughput_per_ref": result.units / sum(item_rel),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: _metric(values[name], unit)
               for name, unit in END_TO_END.items()}
    error_rate = len(run.failures) / max(1, run.attempted)
    extra = {"trace": 0, "pool": len(items), "passes": passes,
             "samples": passes * len(items), "beyond_p90": beyond_p90,
             "measured_wall_s": wall,
             "reference_ms": reference_ms, "references": len(references),
             "wall_clock": {"latency_p50_ms": statistics.median(item_ms),
                            "latency_p90_ms": _percentile(item_ms, 0.9)[0],
                            "throughput_per_s": result.units * 1e3
                            / sum(item_ms)},
             "setup_repeats": len(run.setup_times),
             "input_digest": min(run.input_digests),
             "counts_per_pass": dict(sorted(result.counts.items()))}
    report_metrics = {**metrics, "error_rate": _metric(error_rate, "ratio")}
    return run.report(extra, report_metrics), run.result(metrics)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def run_traced(run: Run) -> tuple[dict, dict]:
    from tracing import Tracer
    items, _, plain_input = _setup(run.workload, run.seed, run.workdir)
    setup_tracer = Tracer()
    items, _, traced_input = _setup(run.workload, run.seed, run.workdir,
                                    setup_tracer)
    if traced_input != plain_input:
        run.problems.append("traced set-up wrote different inputs")
    run.warm_up(items)
    op_tracer = Tracer()
    plain_rel = traced_rel = passes = 0
    outputs_match = True
    counts: Counter = Counter()
    gc.collect()
    start = perf_counter()
    # alternate plain and traced passes so drift hits both alike; every
    # pass must reproduce the first plain pass's outputs exactly
    while passes == 0 or perf_counter() - start < run.seconds:
        plain = _one_pass(run.workload, items)
        run.record(plain)
        with op_tracer:
            traced = _one_pass(run.workload, items)
        run.record(traced)
        outputs_match &= traced.digests == plain.digests
        plain_rel += sum(plain.relative)
        traced_rel += sum(traced.relative)
        counts += traced.counts
        passes += 1

    # every layer figure is for one set-up plus one pass over the pool
    def per_pass(table: str) -> Counter:
        out = Counter(getattr(setup_tracer, table))
        for key, value in getattr(op_tracer, table).items():
            out[key] += value / passes
        return out

    calls, total_ns, self_ns, hits, nested = (
        per_pass("calls"), per_pass("total_ns"), per_pass("self_ns"),
        per_pass("hits"), per_pass("nested"))
    steps = {k: v / passes for k, v in counts.items()}
    values = {f"{name}.calls": calls[name] for name in _LAYER_CALLS}
    values.update({f"{name}.self_s": self_ns[name] / 1e9
                   for name in _LAYER_TIMES})
    values.update({f"{name}.total_s": total_ns[name] / 1e9
                   for name in _LAYER_TOTALS})
    values["serialize.self_s"] = sum(
        v for k, v in self_ns.items() if k.startswith("serialize.")) / 1e9
    sampler = "generators.random_cooperative_family"
    values["generators.accept_ratio"] = _ratio(
        hits[sampler], nested[(sampler, "core.cooperative_condition")])
    values["search.hypothesis_pass_ratio"] = _ratio(
        steps.get("search.hypothesis_passed", 0),
        steps.get("search.instances", 0))
    values["regiment.find_regimentation.hit_ratio"] = _ratio(
        hits["regiment.find_regimentation"],
        calls["regiment.find_regimentation"])
    values["dichotomy.certificate_ratio"] = _ratio(
        hits["dichotomy.dichotomy"], calls["dichotomy.dichotomy"])
    for kind in ("augment", "regimented", "fallback"):
        values[f"solver.steps.{kind}"] = steps.get(f"steps.{kind}", 0)
    values["trace.overhead_frac"] = traced_rel / plain_rel - 1
    metrics = {name: _metric(values[name], unit)
               for name, unit in PER_LAYER.items()}
    extra = {"trace": 1, "pool": len(items), "passes": passes,
             "input_digest": plain_input,
             "traced_outputs_match": outputs_match,
             "spans": {name: calls[name] for name in sorted(calls)}}
    return run.report(extra, metrics), run.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input pools, for the self-test")
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    seed = expected["default_seed"] if args.seed is None else args.seed
    # the recorded digest is informational: a change may alter outputs on
    # purpose, and correctness rests on the checks of every operation
    recorded = None if args.tiny else \
        expected["digests"].get(str(seed), {}).get(args.workload)
    # the CLI lets RAINBOW_SEED override seeds; the benchmark's seed rules
    cleared = os.environ.pop("RAINBOW_SEED", None)
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        run = Run(WORKLOADS[args.workload](tiny=args.tiny), seed,
                  args.seconds, workdir, recorded)
        report, result = (run_traced if args.trace else run_untraced)(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    if cleared is not None:
        report["rainbow_seed_cleared"] = cleared
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
