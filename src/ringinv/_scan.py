"""Vectorized whole-ring scans: census masks and the equation scan.

Both work on numpy stacks of all ring elements and share no code with the
per-element criteria in rings and gen_inverse.  census_masks evaluates the
criteria (x^B = 0, x^unit_exponent = 1, x - x^3 nilpotent, ...) for every
element at once; inverse_scan solves the three defining equation systems
and nothing else.  Entries stay integers reduced mod m after every product,
and check_scan_fits refuses a ring whose sums of d such products could
overflow int64, so results are exact.
"""

from __future__ import annotations

import numpy as np

from .rings import InfiniteRingError, PreconditionError, RingSpec
from .rings import nilpotency_bound, unit_exponent

_BLOCK = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)
SCAN_MEMORY_BUDGET = 256 * 2**20
# Whole-ring int64 arrays alive at once while the census masks are built:
# the stack, x^2, x^3, power operands and matmul temporaries.
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


class RingScan:
    """All elements of a finite ring as an (N, d, d) integer stack.

    A scalar ring Z/n is handled as 1x1 matrices, multiplied elementwise.
    The stack and ``codes`` are the vectorized form of RingSpec.element_at
    and RingSpec.index_of: the stack row at an index is exactly the entries
    of that element.
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
        self._unit_exponent = unit_exponent(ring)
        self._nilpotent_mask: np.ndarray | None = None

    def _mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * y if self.dim == 1 else np.matmul(x, y)
        out %= self.modulus
        return out

    def _power(self, x: np.ndarray, e: int) -> np.ndarray:
        """x^e for every matrix of the stack x (e >= 1), by square-and-multiply."""
        out = None
        while True:
            if e & 1:
                out = x if out is None else self._mul(out, x)
            e >>= 1
            if not e:
                return out
            x = self._mul(x, x)

    def codes(self, stack: np.ndarray) -> np.ndarray:
        flat = stack.reshape(stack.shape[0], -1)
        return flat @ self._radix

    def nilpotent_mask(self) -> np.ndarray:
        """Boolean mask over indexes: x^B = 0 with B = nilpotency_bound."""
        if self._nilpotent_mask is None:
            self._nilpotent_mask = ~self._power(self.stack, self._bound).any(axis=(1, 2))
        return self._nilpotent_mask

    def _nilpotent_codes(self, values: np.ndarray) -> np.ndarray:
        return self.nilpotent_mask()[self.codes(values)]

    def census_masks(self) -> dict[str, np.ndarray]:
        """Boolean masks over indexes for the six criterion-defined census classes.

        A unit's order divides unit_exponent, so x is a unit iff x^unit_exponent = 1.
        """
        m = self.modulus
        x = self.stack
        x2 = self._mul(x, x)
        x3 = self._mul(x2, x)
        identity = np.eye(self.dim, dtype=np.int64)
        return {
            "nilpotent": self.nilpotent_mask(),
            "idempotent": (x2 == x).all(axis=(1, 2)),
            "tripotent": (x3 == x).all(axis=(1, 2)),
            "unit": (self._power(x, self._unit_exponent) == identity).all(axis=(1, 2)),
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

        Returns index lists for the three defining equation systems: the
        shared pair ab = ba, bab = b plus the respective nilpotent defect.
        """
        m, n = self.modulus, self.size
        a = self.stack[index]
        a2 = self._mul(a, a)
        hirano: list[int] = []
        sdrazin: list[int] = []
        drazin: list[int] = []
        for start in range(0, n, _BLOCK):
            block = self.stack[start : start + _BLOCK]
            ab = self._mul(a[None], block)
            ba = self._mul(block, a[None])
            shared = (ab == ba).all(axis=(1, 2))
            shared &= (self._mul(block, ab) == block).all(axis=(1, 2))
            base = np.flatnonzero(shared)
            if base.size == 0:
                continue
            ab = ab[base]
            mask_h = self._nilpotent_codes((a2[None] - ab) % m)
            mask_s = self._nilpotent_codes((a[None] - ab) % m)
            mask_d = self._nilpotent_codes((a[None] - self._mul(a[None], ab)) % m)
            for flag, out in ((mask_h, hirano), (mask_s, sdrazin), (mask_d, drazin)):
                out.extend((start + base[flag]).tolist())
        return {"hirano": hirano, "strongly_drazin": sdrazin, "drazin": drazin}
