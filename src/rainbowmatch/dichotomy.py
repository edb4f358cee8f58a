"""The path-or-certificate dichotomy for families at the critical size.

With a family of inner-count + k - 1 members whose every k-union contains
a source-target path, either some rainbow source-target path exists or
the family is regimented.  The driver realizes this by search: rainbow
path first, then the certificate the structure lemmas force.  A
TheoremViolation result is the falsification channel and is never
expected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import _first_short_union, _require_ints
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

    The hypothesis is core's one k-union walk over arc masks, a union's
    size being whether it holds a path; a prefix holding one is not
    extended, so UnionPathError names the least failing k-set.

    The two outcomes are not mutually exclusive; the path branch is tried
    first because it is the cheap, useful one.
    """
    _require_ints((k,), "a size parameter")
    if k < 1:
        raise ValueError("need k >= 1")
    net = _network_of(net, nf)
    if len(nf) != len(net.inner) + k - 1:
        raise ValueError("family size must be inner-count + k - 1")

    def grow(union: int, mask: int) -> tuple[int, bool]:
        union |= mask
        return union, _mask_has_path(union, net._size)

    failing = _first_short_union(nf.masks, (0,) * (k - 1) + (1,), grow, 0)
    if failing is not None:
        raise UnionPathError(failing)
    return path_or_certificate(nf)
