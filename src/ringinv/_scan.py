"""Vectorized whole-ring scans: census masks and the equation scan.

Both work on numpy stacks of all ring elements and share no code with the
per-element criteria in rings and gen_inverse.  census_masks evaluates the
polynomial criteria (x - x^3 nilpotent, x - x^2 nilpotent, det a unit, ...)
for every element at once; inverse_scan works from the defining equations
alone.  Entries stay integers reduced mod m after every product, and
check_scan_fits refuses a ring whose sums of d such products could overflow
int64, so results are exact.
"""

from __future__ import annotations

import numpy as np

from .rings import InfiniteRingError, PreconditionError, RingSpec, nilpotency_bound

_BLOCK = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)
SCAN_MEMORY_BUDGET = 256 * 2**20
# Whole-ring int64 arrays alive at once while the census masks are built:
# the stack, x^2, x^3, matmul and nilpotency-power temporaries.
_WORKING_COPIES = 8


def _scan_shape(ring: RingSpec) -> tuple[int, int]:
    return max(1, ring.dim), ring.modulus


def check_scan_fits(ring: RingSpec) -> None:
    """Refuse, before allocating, a ring whose stack overflows int64 or memory.

    A matrix product sums d products of entries below m, so d*(m-1)^2 must
    fit in int64; the stack and its working copies hold size*d*d int64
    entries each and must fit in SCAN_MEMORY_BUDGET bytes.
    """
    if not ring.is_finite:
        raise InfiniteRingError(f"cannot scan {ring}")
    d, m = _scan_shape(ring)
    if d * (m - 1) ** 2 > _INT64_MAX:
        raise PreconditionError(
            f"{ring} is too large for the scan: sums of products of its entries "
            "overflow int64"
        )
    need = _WORKING_COPIES * ring.size() * d * d * 8
    if need > SCAN_MEMORY_BUDGET:
        raise PreconditionError(
            f"{ring} is too large for the scan: about {need >> 20} MiB of working "
            f"arrays, above the budget of {SCAN_MEMORY_BUDGET >> 20} MiB"
        )


def _det_mod(stack: np.ndarray, m: int) -> np.ndarray:
    """Determinants of an (N, d, d) stack mod m by cofactor expansion.

    Every product is reduced mod m, so no intermediate exceeds m^2.
    """
    d = stack.shape[1]
    if d == 1:
        return stack[:, 0, 0] % m
    rest = stack[:, 1:, :]
    total = np.zeros(stack.shape[0], dtype=np.int64)
    for j in range(d):
        term = stack[:, 0, j] * _det_mod(np.delete(rest, j, axis=2), m) % m
        total = (total - term if j % 2 else total + term) % m
    return total


class RingScan:
    """All elements of a finite ring as an (N, d, d) integer stack.

    A scalar ring Z/n is handled as 1x1 matrices.  The stack and ``codes``
    are the vectorized form of RingSpec.element_at and RingSpec.index_of:
    the stack row at an index is exactly the entries of that element.
    """

    def __init__(self, ring: RingSpec):
        check_scan_fits(ring)
        self.size = ring.size()
        d, m = _scan_shape(ring)
        self.dim, self.modulus = d, m
        k = d * d
        codes = np.arange(self.size, dtype=np.int64)
        entries = np.empty((self.size, k), dtype=np.int64)
        rest = codes
        for pos in range(k - 1, -1, -1):
            entries[:, pos] = rest % m
            rest = rest // m
        self.stack = entries.reshape(self.size, d, d)
        self._radix = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self._bound = nilpotency_bound(ring)
        self._nilpotent_mask: np.ndarray | None = None

    def _mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.matmul(x, y)
        out %= self.modulus
        return out

    def codes(self, stack: np.ndarray) -> np.ndarray:
        flat = stack.reshape(stack.shape[0], -1)
        return flat @ self._radix

    def nilpotent_mask(self) -> np.ndarray:
        """Boolean mask over indexes: x^t = 0 for the power-of-two t >= bound."""
        if self._nilpotent_mask is None:
            x = self.stack.copy()
            t = 1
            while t < self._bound:
                x = self._mul(x, x)
                t *= 2
            self._nilpotent_mask = ~x.any(axis=(1, 2))
        return self._nilpotent_mask

    def _nilpotent_codes(self, values: np.ndarray) -> np.ndarray:
        return self.nilpotent_mask()[self.codes(values)]

    def census_masks(self) -> dict[str, np.ndarray]:
        """Boolean masks over indexes for the six criterion-defined census classes."""
        m = self.modulus
        nilpotent = self.nilpotent_mask()
        x = self.stack
        x2 = self._mul(x, x)
        x3 = self._mul(x2, x)
        return {
            "nilpotent": nilpotent,
            "idempotent": (x2 == x).all(axis=(1, 2)),
            "tripotent": (x3 == x).all(axis=(1, 2)),
            "unit": np.gcd(_det_mod(x, m), m) == 1,
            "strongly_drazin": self._nilpotent_codes((x - x2) % m),
            "hirano": self._nilpotent_codes((x - x3) % m),
        }

    def tripotent_split_mask(self, tripotents: list[int]) -> np.ndarray:
        """Boolean mask over indexes: a = p + w, p among the given tripotent
        indexes, w nilpotent with pw = wp (equivalently ap = pa)."""
        nilpotents = self.stack[self.nilpotent_mask()]
        split = np.zeros(self.size, dtype=bool)
        for p in self.stack[tripotents]:
            commuting = self._mul(p[None], nilpotents) == self._mul(nilpotents, p[None])
            w = nilpotents[commuting.all(axis=(1, 2))]
            split[self.codes((p + w) % self.modulus)] = True
        return split

    def inverse_scan(self, index: int) -> dict:
        """Candidate inverses of one element against the whole ring.

        Returns index lists for the three defining equation systems (the
        shared pair ab = ba, bab = b plus the respective nilpotent defect)
        and a unit flag (some b with ab = ba = 1).
        """
        d, m, n = self.dim, self.modulus, self.size
        a = self.stack[index]
        a2 = self._mul(a, a)
        identity = np.eye(d, dtype=np.int64)
        hirano: list[int] = []
        sdrazin: list[int] = []
        drazin: list[int] = []
        unit = False
        for start in range(0, n, _BLOCK):
            block = self.stack[start : start + _BLOCK]
            ab = self._mul(a[None], block)
            ba = self._mul(block, a[None])
            shared = (ab == ba).all(axis=(1, 2))
            shared &= (self._mul(block, ab) == block).all(axis=(1, 2))
            if not unit:
                ident = (ab == identity).all(axis=(1, 2))
                ident &= (ba == identity).all(axis=(1, 2))
                unit = bool(ident.any())
            base = np.flatnonzero(shared)
            if base.size == 0:
                continue
            ab = ab[base]
            mask_h = self._nilpotent_codes((a2[None] - ab) % m)
            mask_s = self._nilpotent_codes((a[None] - ab) % m)
            mask_d = self._nilpotent_codes((a[None] - self._mul(a[None], ab)) % m)
            for flag, out in ((mask_h, hirano), (mask_s, sdrazin), (mask_d, drazin)):
                out.extend((start + base[flag]).tolist())
        return {"hirano": hirano, "strongly_drazin": sdrazin, "drazin": drazin, "unit": unit}
