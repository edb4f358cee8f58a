"""Cooperative rainbow matchings in bipartite graphs.

Exact matching and rainbow-matching oracles, the network reduction from
rainbow matchings to rainbow source-target paths, regimentation
certificates with their structure checks, a constructive solver for the
cooperative theorem, reproducible instance generators, and a
counterexample-search harness.
"""

from .core import (BipartiteGraph, Edge, EdgeFamily, RainbowMatching,
                   cooperative_condition, is_valid_rainbow, max_matching,
                   rainbow_matching_max)
from .network import (SOURCE, TARGET, Network, NetworkFamily, StPath,
                      build_network, has_st_path)
from .paths import (GreedyStuck, RainbowStPath, exhaustive_rainbow_path,
                    greedy_rainbow_tree, verify_rainbow_path)
from .regiment import (Regimentation, StructureLemmaReport,
                       check_structure_lemmas, find_regimentation,
                       verify_regimentation)
from .dichotomy import TheoremViolation, UnionPathError, dichotomy
from .solver import (ArrowCheck, HypothesisFailure, ViolationReport,
                     solve_main, verify_arrow_statement)
from .generators import (drisko_family, random_cooperative_family,
                         sharpness_family, staircase_family)
from .search import (SearchResult, conjecture_search, doubled_family,
                     graded_union_condition)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph", "Edge", "EdgeFamily", "RainbowMatching",
    "cooperative_condition", "is_valid_rainbow", "max_matching",
    "rainbow_matching_max",
    "SOURCE", "TARGET", "Network", "NetworkFamily", "StPath",
    "build_network", "has_st_path",
    "GreedyStuck", "RainbowStPath", "exhaustive_rainbow_path",
    "greedy_rainbow_tree", "verify_rainbow_path",
    "Regimentation", "StructureLemmaReport", "check_structure_lemmas",
    "find_regimentation", "verify_regimentation",
    "TheoremViolation", "UnionPathError", "dichotomy",
    "ArrowCheck", "HypothesisFailure", "ViolationReport", "solve_main",
    "verify_arrow_statement",
    "drisko_family", "random_cooperative_family", "sharpness_family",
    "staircase_family",
    "SearchResult", "conjecture_search", "doubled_family",
    "graded_union_condition",
    "SplitMix64",
]
