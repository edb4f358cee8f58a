"""Span tracing for the benchmark's traced run.

While a Tracer is installed, the public functions of each layer are
replaced by timing wrappers in every ``rainbowmatch`` module that holds
them, and ``NetworkFamily.__init__`` is wrapped on the class; ``remove``
puts the originals back.  Nothing under ``src/`` changes and an untraced
run never sees a wrapper.

Each wrapped call is a span.  Spans are folded into per-name totals as
they close, so memory stays flat on sweeps of millions of calls:

    calls[name]            number of spans
    total_ns[name]         summed span duration
    self_ns[name]          span duration minus the time covered by its
                           child spans
    hits[name]             spans whose result passed the name's HITS test
    nested[(parent, name)] spans opened directly inside a parent span
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

# layer -> public functions wrapped in the traced run
TRACED = {
    "core": ("cooperative_condition", "max_matching", "rainbow_matching_max"),
    "network": ("build_network", "has_st_path"),
    "paths": ("greedy_rainbow_tree", "exhaustive_rainbow_path",
              "verify_rainbow_path"),
    "regiment": ("find_regimentation", "verify_regimentation"),
    "dichotomy": ("dichotomy",),
    "solver": ("solve_main",),
    "generators": ("random_cooperative_family",),
    "search": ("conjecture_search", "graded_union_condition",
               "doubled_family"),
    "serialize": ("load_instance", "family_loads", "family_dumps",
                  "matching_certificate", "dumps_canonical"),
    "cli": ("main",),
}

# span name -> test on the wrapped call's result that counts as a hit
HITS = {
    "generators.random_cooperative_family": lambda r: r is not None,
    "regiment.find_regimentation": lambda r: r is not None,
    "dichotomy.dichotomy": lambda r: type(r).__name__ == "Regimentation",
}


class Tracer:
    """Per-name span totals, filled by the wrappers while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.hits: Counter = Counter()
        self.nested: Counter = Counter()
        self._stack: list[list] = []   # [name, child_ns] per open span
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        stack, calls, total_ns, self_ns, nested = (
            self._stack, self.calls, self.total_ns, self.self_ns, self.nested)
        hit = HITS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                nested[(stack[-1][0], name)] += 1
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                calls[name] += 1
                total_ns[name] += duration
                self_ns[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hit is not None and hit(result):
                self.hits[name] += 1
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced name in the package's loaded modules."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        from rainbowmatch.network import NetworkFamily
        modules = [m for key, m in sys.modules.items()
                   if key == "rainbowmatch" or key.startswith("rainbowmatch.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"rainbowmatch.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)
        self._saved.append((NetworkFamily, "__init__", NetworkFamily.__init__))
        NetworkFamily.__init__ = self._wrap("network.NetworkFamily",
                                            NetworkFamily.__init__)

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()
