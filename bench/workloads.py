"""The four benchmark workloads.

Each workload turns a seed into an input pool (``setup``: generate, write
under the run's work directory, load back), runs one operation on one
pool item (``op``, the timed part) and checks its output (``check``,
untimed).  ``check`` returns an Outcome whose ``digest`` is a canonical
text form of the output, so repeated and traced passes can be compared
byte for byte.

The package is reached only through module attributes (``paths.x(...)``,
never ``from paths import x``), so the traced run's rebinding also covers
the calls made from here.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from rainbowmatch import (cli, core, generators, network, paths, regiment,
                          search, serialize)
from rainbowmatch.rng import SplitMix64

# the package re-exports the function dichotomy under the module's name
dichotomy = importlib.import_module("rainbowmatch.dichotomy")


@dataclass
class Outcome:
    ok: bool
    digest: str
    counts: Counter = field(default_factory=Counter)
    detail: str | None = None
    units: int = 1      # work done, in the unit throughput_per_ref counts


def _fail(detail: str, digest: str = "") -> Outcome:
    return Outcome(False, digest, Counter(), detail)


# -- solve: the CLI path over generated instance files -----------------------

# trail op -> kind of constructive step; the regimented branch logs its
# augmentation with an "edge" key, the path branch with a "path" key
_REGIMENTED_OPS = {"swap", "augment-direct", "augment-exchange", "rectify"}


def _step_kind(event: dict) -> str:
    op = event.get("op")
    if op in _REGIMENTED_OPS or (op == "augment" and "edge" in event):
        return "regimented"
    return str(op)


class _SolveWorkload:
    """Shared op and check: in-process ``rainbowmatch solve`` in hybrid mode."""

    warmup = 3

    @staticmethod
    def _write_and_load(workdir: Path, instances: list) -> list:
        """instances: (n, k, family) in pass order -> (path, n, k, family)."""
        files = []
        for index, (n, k, fam) in enumerate(instances):
            path = workdir / f"{index:03d}-n{n}-k{k}.json"
            path.write_text(serialize.family_dumps(fam), encoding="utf-8")
            files.append((path, n, k))
        return [(str(path), n, k,
                 serialize.family_loads(path.read_text(encoding="utf-8")))
                for path, n, k in files]

    def op(self, item):
        path, n, k, _ = item
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve", "--input", path,
                             "--n", str(n), "--k", str(k)])
        return code, out.getvalue(), err.getvalue()

    def check(self, item, output) -> Outcome:
        path, n, k, fam = item
        code, text, err = output
        if code != 0:
            return _fail(f"{path}: exit code {code}: {err.strip()[:200]}", text)
        try:
            cert = json.loads(text)
            rm = serialize.matching_from_certificate(cert)
            trail = cert["trail"]
        except (ValueError, KeyError, TypeError) as exc:
            return _fail(f"{path}: unreadable certificate: {exc}", text)
        if not core.is_valid_rainbow(fam, rm, size=n):
            return _fail(f"{path}: certificate is not a rainbow matching "
                         f"of size {n}", text)
        steps = Counter(f"steps.{_step_kind(e)}" for e in trail)
        if steps["steps.fallback"]:
            # hybrid mode would hide a constructive stall behind the oracle
            return Outcome(False, text, steps,
                           f"{path}: oracle fallback after a constructive stall")
        return Outcome(True, text, steps)


class SolveRandom(_SolveWorkload):
    """Random cooperative families on K_{n,n}, density 0.55, n in 6..8."""

    name = "solve_random"
    density = 0.55

    def __init__(self, tiny: bool = False):
        self.grid = ((4, 2), (5, 3)) if tiny else ((6, 3), (7, 3), (8, 3))
        self.per_cell = 1 if tiny else 34

    def setup(self, seed: int, workdir: Path) -> list:
        rng = SplitMix64(seed)
        instances = []
        for _ in range(self.per_cell):
            for n, k in self.grid:
                g = core.BipartiteGraph.complete(n)
                for _ in range(50):
                    fam = generators.random_cooperative_family(
                        n, k, g, seed=rng.next_u64(), density=self.density)
                    if fam is not None:
                        break
                else:
                    raise RuntimeError(f"no cooperative family at n={n}, k={k}")
                instances.append((n, k, fam))
        return self._write_and_load(workdir, instances)


class SolveExtremal(_SolveWorkload):
    """sharpness_family(n, 2) plus the shifted perfect matching, so the
    family has the full 2n + k - 3 members, in seed-shuffled member order.

    On this family the constructive solver takes the regimented branch
    (a representation swap) only for some member orders, and such a solve
    costs 10 to 70 times a plain one.  A pool drawn freely would let the
    share of those orders, and with it every timing, swing from seed to
    seed.  So each pool holds a fixed number of orders from the class
    REGIMENTED describes and a fixed number from outside it; the seed
    picks the orders within each class.
    """

    name = "solve_extremal"
    k = 2
    # n -> (first member, least number of shifted copies before the
    # singleton): the member orders on which the solver, as of this
    # benchmark's introduction, reaches the regimented branch
    REGIMENTED = {4: ("S", 2), 5: ("D", 3), 6: ("S", 3), 7: ("D", 4)}

    def __init__(self, tiny: bool = False):
        self.sizes = (4, 5) if tiny else (6, 7)
        self.per_class = (1, 3) if tiny else (13, 76)   # (regimented, plain)

    @classmethod
    def regimented_order(cls, n: int, kinds: str) -> bool:
        first, shifted_before = cls.REGIMENTED[n]
        return kinds[0] == first and \
            kinds[:kinds.index("1")].count("S") >= shifted_before

    def setup(self, seed: int, workdir: Path) -> list:
        rng = SplitMix64(seed)
        by_size = []
        for n in self.sizes:
            g, base = generators.sharpness_family(n, self.k)
            diagonal = frozenset((i, i) for i in range(1, n + 1))
            shifted = frozenset((i, i % n + 1) for i in range(1, n + 1))
            members = [("D" if s == diagonal else "S" if s == shifted else "1", s)
                       for s in base.sets + (shifted,)]
            wanted = {True: self.per_class[0], False: self.per_class[1]}
            picked = {True: [], False: []}
            for draw in itertools.count():
                if not any(wanted.values()):
                    break
                if draw == 10_000:
                    raise RuntimeError(f"could not fill the n={n} pool")
                order = list(members)
                rng.shuffle(order)
                kinds = "".join(kind for kind, _ in order)
                cls = self.regimented_order(n, kinds)
                if wanted[cls]:
                    wanted[cls] -= 1
                    picked[cls].append(core.EdgeFamily(
                        g, tuple(s for _, s in order)))
            by_size.append([(n, self.k, fam)
                            for fam in picked[True] + picked[False]])
        # alternate sizes so every stretch of a pass sees both
        instances = [inst for group in zip(*by_size) for inst in group]
        return self._write_and_load(workdir, instances)


# -- sweep: windows of the exhaustive network enumerations -------------------

_INNER = ("u", "v")


def _arc_space(inner) -> list:
    verts = ["s", *inner, "t"]
    return [(u, v) for u in verts for v in verts
            if u != v and u != "t" and v != "s"]


def _window(size: int, start: tuple, width: int, single, pair) -> list:
    """Up to width multisets of masks (non-decreasing tuples), in
    lexicographic order from start, that pass the k-union condition:
    single[x] for every member, pair[x][y] for every two members."""
    count = len(single)
    out: list = []

    def walk(prefix: tuple, low: int, tight: bool) -> None:
        depth = len(prefix)
        first = max(low, start[depth]) if tight else low
        for x in range(first, count):
            if not single[x] or (pair is not None
                                 and not all(pair[p][x] for p in prefix)):
                continue
            if depth + 1 == size:
                out.append(prefix + (x,))
            else:
                walk(prefix + (x,), x, tight and x == start[depth])
            if len(out) == width:
                return

    walk((), 0, True)
    if len(out) < width:  # ran off the end of the space: wrap around
        out += _window(size, (0,) * size, width - len(out), single, pair)[
            :width - len(out)]
    return out


class Sweep:
    """Windows of acceptance criteria 5 (greedy at one past the critical
    size) and 4 (dichotomy at the critical size), on two inner vertices.

    Members are multisets of arc masks over the full arc space, enumerated
    as the acceptance suite does; the seed picks where each window starts,
    one start per stratum of the first member's mask so that every pool
    spans the whole enumeration.
    """

    name = "sweep"
    warmup = 500

    def __init__(self, tiny: bool = False):
        # (engine, k, members, windows, window width); many narrow windows,
        # because neighbouring instances cost alike and the pool's mean
        # cost varies from seed to seed by about one window's share
        self.specs = (("greedy", 2, 4, 4, 30), ("dichotomy", 2, 3, 3, 25),
                      ("dichotomy", 1, 2, 1, 25)) if tiny else \
            (("greedy", 2, 4, 64, 150), ("dichotomy", 2, 3, 48, 125),
             ("dichotomy", 1, 2, 16, 125))

    def setup(self, seed: int, workdir: Path) -> list:
        arcs = _arc_space(_INNER)
        subsets = [frozenset(a for i, a in enumerate(arcs) if mask >> i & 1)
                   for mask in range(1 << len(arcs))]
        haspath = [network.has_st_path(s, "s", "t") for s in subsets]
        count = len(subsets)
        pair = [[haspath[a | b] for b in range(count)] for a in range(count)]
        rng = SplitMix64(seed)
        windows = []
        for engine, k, members, strata, width in self.specs:
            single, pairs = (haspath, None) if k == 1 else ([True] * count, pair)
            for stratum in range(strata):
                low = stratum * count // strata
                high = (stratum + 1) * count // strata
                first = low + rng.below(high - low)
                start = (first, *sorted(first + rng.below(count - first)
                                        for _ in range(members - 1)))
                windows.append({"engine": engine, "k": k,
                                "masks": _window(members, start, width,
                                                 single, pairs)})
        path = workdir / "sweep-windows.json"
        path.write_text(json.dumps({"inner": list(_INNER), "arcs": arcs,
                                    "windows": windows}), encoding="utf-8")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        arcs = [tuple(a) for a in loaded["arcs"]]
        net = network.Network(inner=tuple(loaded["inner"]),
                              arcs=frozenset(arcs))
        subsets = [frozenset(a for i, a in enumerate(arcs) if mask >> i & 1)
                   for mask in range(1 << len(arcs))]
        per_window = [[(w["engine"], w["k"], net, tuple(masks),
                        tuple(subsets[m] for m in masks))
                       for masks in w["masks"]] for w in loaded["windows"]]
        # interleave windows so every stretch of a pass mixes both engines
        items = []
        for row in range(max(len(w) for w in per_window)):
            items += [w[row] for w in per_window if row < len(w)]
        return items

    def op(self, item):
        engine, k, net, _, sets = item
        nf = network.NetworkFamily(net, sets)
        if engine == "greedy":
            out = paths.greedy_rainbow_tree(net, nf)
        else:
            out = dichotomy.dichotomy(net, nf, k)
        if isinstance(out, paths.RainbowStPath):
            verdict = paths.verify_rainbow_path(nf, out)
        elif isinstance(out, regiment.Regimentation):
            verdict = regiment.verify_regimentation(net, nf, out) is None
        else:
            verdict = False
        return out, verdict

    def check(self, item, output) -> Outcome:
        engine, k, _, masks, _ = item
        out, verdict = output
        where = f"{engine} k={k} masks={list(masks)}"
        if isinstance(out, paths.RainbowStPath):
            digest = (f"P{list(out.path.vertices)}"
                      f"{sorted(out.representation.items())}")
            counts = Counter({"sweep.paths": 1})
        elif isinstance(out, regiment.Regimentation):
            digest = (f"R{[list(q.vertices) for q in out.paths]}"
                      f"{sorted(out.assignment.items())}")
            counts = Counter({"sweep.certificates": 1})
        else:
            return _fail(f"{where}: {out!r}", repr(out))
        if not verdict:
            return _fail(f"{where}: output failed verification", digest)
        return Outcome(True, digest, counts)


# -- search: repeated fixed-budget conjecture searches -----------------------

class Search:
    """conjecture_search calls for c4.1 and c4.3 at k = 2 on K_{3,3}, each
    with a fixed budget and its own seed, alternating targets."""

    name = "search"
    warmup = 2
    k = 2

    def __init__(self, tiny: bool = False):
        self.calls = 4 if tiny else 128
        self.budget = 10 if tiny else 60

    def setup(self, seed: int, workdir: Path) -> list:
        rng = SplitMix64(seed)
        plan = {"left": 3, "right": 3, "k": self.k, "budget": self.budget,
                "calls": [{"target": search.TARGETS[i % 2],
                           "seed": rng.next_u64()} for i in range(self.calls)]}
        path = workdir / "search-calls.json"
        path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
        plan = json.loads(path.read_text(encoding="utf-8"))
        graph = core.BipartiteGraph.complete(plan["left"], plan["right"])
        return [(c["target"], c["seed"], plan["k"], plan["budget"], graph)
                for c in plan["calls"]]

    def op(self, item):
        target, seed, k, budget, graph = item
        return search.conjecture_search(target, k=k, graph=graph,
                                        budget=budget, seed=seed)

    def check(self, item, result) -> Outcome:
        target, seed, _, budget, _ = item
        digest = f"{target}:{seed}:{result.instances}:{result.hypothesis_passed}"
        counts = Counter({"search.instances": result.instances,
                          "search.hypothesis_passed": result.hypothesis_passed})
        units = result.instances
        if result.found:
            instance = json.dumps(serialize.family_to_json(result.counterexample))
            return Outcome(False, digest, counts,
                           f"{target} seed {seed}: counterexample with oracle "
                           f"size {result.oracle_size}: {instance}", units)
        if result.instances != budget or not \
                0 <= result.hypothesis_passed <= result.instances:
            return Outcome(False, digest, counts,
                           f"{target} seed {seed}: inconsistent counts {digest}",
                           units)
        return Outcome(True, digest, counts, None, units)


WORKLOADS = {w.name: w for w in (SolveRandom, SolveExtremal, Sweep, Search)}
