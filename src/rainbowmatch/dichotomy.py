"""The path-or-certificate dichotomy for families at the critical size.

With a family of inner-count + k - 1 members whose every k-union contains
a source-target path, either some rainbow source-target path exists or
the family is regimented.  The driver realizes this by search: rainbow
path first, then the certificate the structure lemmas force.  A
TheoremViolation result is the falsification channel and is never
expected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .core import _require_ints
from .network import Network, NetworkFamily, _mask_has_path, _network_of
from .paths import RainbowStPath, exhaustive_rainbow_path
from .regiment import Regimentation, find_regimentation


class UnionPathError(ValueError):
    """Some k members' union contains no source-target path."""

    def __init__(self, indices):
        super().__init__(
            f"union of members {tuple(indices)} has no source-target path")
        self.indices = tuple(indices)


@dataclass(frozen=True)
class TheoremViolation:
    """Neither a rainbow path nor a certificate was found."""

    detail: str


def path_or_certificate(nf: NetworkFamily
                        ) -> RainbowStPath | Regimentation | TheoremViolation:
    """The least rainbow source-target path over nf's network if one
    exists, else the verified regimentation, else a TheoremViolation.

    Neither the family size nor the k-union hypothesis is checked here.
    """
    found = exhaustive_rainbow_path(nf.network, nf)
    if found is not None:
        return found
    certificate = find_regimentation(nf.network, nf)
    if certificate is not None:
        return certificate
    return TheoremViolation(
        "no rainbow source-target path and no regimentation certificate")


def dichotomy(net: Network, nf: NetworkFamily, k: int
              ) -> RainbowStPath | Regimentation | TheoremViolation:
    """Return a rainbow source-target path if one exists, else a verified
    regimentation; the hypothesis and the family size are checked first.

    The two outcomes are not mutually exclusive; the path branch is tried
    first because it is the cheap, useful one.
    """
    _require_ints((k,), "a size parameter")
    if k < 1:
        raise ValueError("need k >= 1")
    net = _network_of(net, nf)
    m = len(nf)
    if m != len(net.inner) + k - 1:
        raise ValueError("family size must be inner-count + k - 1")
    masks = nf.masks
    for picked in itertools.combinations(range(1, m + 1), k):
        if not _mask_has_path(reduce(or_, (masks[p - 1] for p in picked), 0),
                              net._size):
            raise UnionPathError(picked)
    return path_or_certificate(nf)
