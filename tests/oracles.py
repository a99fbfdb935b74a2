"""Reference implementations the tests compare the package against.

The brute-force scans try every element of a finite ring against the
defining equations, one Python check at a time; RingScan.inverse_scan is
their vectorized counterpart inside the package.  semigroup_profile walks
the power orbit of an element, the O(index + period) route that
drazin_finite and unit_exponent avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

from ringinv.gen_inverse import _drazin_axioms, check_hirano, check_strongly_drazin
from ringinv.rings import Element, InfiniteRingError


@dataclass(frozen=True)
class SemigroupProfile:
    """Minimal i >= 1 and period p >= 1 with a^(i+p) = a^i."""

    index: int
    period: int


def semigroup_profile(a: Element) -> SemigroupProfile:
    """Minimal eventual period of the powers of a, by hashing the orbit.

    Costs O(index + period) multiplications and memory; drazin_finite does
    not use it, so it serves as an independent oracle.
    """
    if not a.ring.is_finite:
        raise InfiniteRingError(f"power orbits need a finite ring, not {a.ring}")
    seen: dict = {}
    power = a
    exponent = 1
    while power.payload not in seen:
        seen[power.payload] = exponent
        power = power * a
        exponent += 1
    first = seen[power.payload]
    return SemigroupProfile(index=first, period=exponent - first)


def brute_force_hirano(a: Element) -> list[Element]:
    """All b in the ring satisfying the Hirano equations verbatim, in
    enumeration order.  Uniqueness says there is at most one."""
    if not a.ring.is_finite:
        raise InfiniteRingError(f"cannot scan {a.ring}")
    return [b for b in a.ring.elements() if check_hirano(a, b) is not None]


def brute_force_strongly_drazin(a: Element) -> list[Element]:
    if not a.ring.is_finite:
        raise InfiniteRingError(f"cannot scan {a.ring}")
    return [b for b in a.ring.elements() if check_strongly_drazin(a, b) is not None]


def brute_force_drazin(a: Element) -> list[Element]:
    if not a.ring.is_finite:
        raise InfiniteRingError(f"cannot scan {a.ring}")
    return [b for b in a.ring.elements() if _drazin_axioms(a, b) is not None]
