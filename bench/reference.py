"""The reference operation every timed operation is measured against.

A shared machine changes speed by up to half in phases of seconds to
minutes, and such a phase slows all interpreted code alike.  So the
benchmark times this fixed operation next to the program's operations
and reports each operation's time as a multiple of it.  The operation
is Kuhn's augmenting-path matching on a fixed bipartite graph, written
with the same kinds of dict, set and recursive calls the package uses.
It lives with the benchmark and never imports the package, so a change
to the program cannot change it.
"""

from __future__ import annotations

from time import perf_counter_ns

SIZE = 24
DEGREE = 6
ROUNDS = 6
ADJ = tuple(tuple(sorted({(u * 7 + j * 5 + u * j) % SIZE for j in range(DEGREE)}))
            for u in range(SIZE))


def _augment(u: int, match: dict, seen: set) -> bool:
    for v in ADJ[u]:
        if v not in seen:
            seen.add(v)
            if v not in match or _augment(match[v], match, seen):
                match[v] = u
                return True
    return False


def reference() -> int:
    """Match ADJ from scratch ROUNDS times; the summed matching sizes."""
    total = 0
    for _ in range(ROUNDS):
        match: dict = {}
        for u in range(SIZE):
            total += _augment(u, match, set())
    return total


EXPECTED = reference()


def timed_reference() -> int:
    """Nanoseconds one reference operation takes; checks its result."""
    start = perf_counter_ns()
    result = reference()
    elapsed = perf_counter_ns() - start
    if result != EXPECTED:
        raise RuntimeError(f"reference operation returned {result}, "
                           f"not {EXPECTED}")
    return elapsed
