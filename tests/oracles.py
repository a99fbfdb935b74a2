"""Reference implementations the tests compare the package against.

The brute-force scans try every element of a finite ring against the
defining equations, one Python check at a time.  filtered_inverse_scan is
the whole-ring numpy filter that RingScan.inverse_scans replaced: it tests
ab = ba on every element instead of generating the centraliser.
kernel_mod is the one-matrix elimination that the batched _kernels_mod
replaced.
semigroup_profile walks the power orbit of an element, the O(index +
period) route that drazin_finite and unit_exponent avoid.  naive_product is
the textbook triple loop that Element.__mul__'s compiled kernels replace, and
naive_entrywise and naive_scale do the same for sums, differences and integer
multiples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ringinv._scan import _BLOCK, RingScan
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


def naive_product(a: Element, b: Element) -> Element:
    """a * b by a triple loop over the payload rows, reduced by ring.element."""
    ring = a.ring
    if not ring.is_matrix:
        return ring.element(a.payload * b.payload)
    k = ring.dim
    x, y = a.payload, b.payload
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            for t in range(k):
                rows[i][j] += x[i][t] * y[t][j]
    return ring.element(rows)


def naive_entrywise(op, a: Element, b: Element) -> Element:
    """op applied entry by entry over the payload rows, reduced by ring.element."""
    ring = a.ring
    if not ring.is_matrix:
        return ring.element(op(a.payload, b.payload))
    return ring.element([[op(x, y) for x, y in zip(r, s)] for r, s in zip(a.payload, b.payload)])


def naive_scale(c: int, a: Element) -> Element:
    """c * a entry by entry over the payload rows, reduced by ring.element."""
    ring = a.ring
    if not ring.is_matrix:
        return ring.element(c * a.payload)
    return ring.element([[c * x for x in row] for row in a.payload])


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


def kernel_mod(mat: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators (as rows) and their orders of the kernel of one square
    integer matrix mod a prime power q, with the pivot rule of _kernels_mod
    (first entry of least p-adic valuation), one pivot at a time."""
    k = mat.shape[0]
    mat = mat % q
    v = np.eye(k, dtype=np.int64)
    orders = np.full(k, q, dtype=np.int64)
    while True:
        g = np.gcd(mat, q)
        r, c = divmod(int(g.argmin()), k)
        gcd = int(g[r, c])
        if gcd == q:
            break
        unit = q // gcd
        coef = mat[r] // gcd * pow(int(mat[r, c]) // gcd, -1, unit) % unit
        coef[c] = 0
        mat = (mat - mat[:, c, None] * coef) % q
        mat[:, c] = 0
        v = (v - v[:, c, None] * coef) % q
        orders[c] = gcd
    return (v * (q // orders)).T % q, orders


def filtered_inverse_scan(scan: RingScan, index: int) -> tuple[list[int], dict]:
    """RingScan.inverse_scans by filtering the whole ring for ab = ba, bab = b
    and each nilpotent defect, in blocks of _BLOCK elements.

    Returns the indexes of the elements commuting with element index, and
    the three index lists of inverse_scan.
    """
    m, n = scan.modulus, scan.size
    a = scan.stack[index]
    a2 = scan._mul(a, a)
    commuting: list[int] = []
    hirano: list[int] = []
    sdrazin: list[int] = []
    drazin: list[int] = []
    for start in range(0, n, _BLOCK):
        block = scan.stack[start : start + _BLOCK]
        ab = scan._mul(a[None], block)
        ba = scan._mul(block, a[None])
        shared = (ab == ba).all(axis=(1, 2))
        commuting.extend((start + np.flatnonzero(shared)).tolist())
        shared &= (scan._mul(block, ab) == block).all(axis=(1, 2))
        base = np.flatnonzero(shared)
        if base.size == 0:
            continue
        ab = ab[base]
        mask_h = scan._nilpotent_codes((a2[None] - ab) % m)
        mask_s = scan._nilpotent_codes((a[None] - ab) % m)
        mask_d = scan._nilpotent_codes((a[None] - scan._mul(a[None], ab)) % m)
        for flag, out in ((mask_h, hirano), (mask_s, sdrazin), (mask_d, drazin)):
            out.extend((start + base[flag]).tolist())
    return commuting, {"hirano": hirano, "strongly_drazin": sdrazin, "drazin": drazin}
