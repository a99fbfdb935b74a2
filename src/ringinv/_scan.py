"""Vectorized whole-ring scans used by the census cross-check.

Independent of the fast criteria in gen_inverse: everything here works
from the defining equations alone, evaluated over numpy stacks of all
ring elements.  Entries stay integers throughout (int64 holds every
intermediate product for the supported ring sizes), so results are exact.
"""

from __future__ import annotations

import numpy as np

from .rings import InfiniteRingError, RingSpec, nilpotency_bound

_BLOCK = 1 << 18


class RingScan:
    """All elements of a finite ring as an (N, d, d) integer stack.

    A scalar ring Z/n is handled as 1x1 matrices.  The stack and ``codes``
    are the vectorized form of RingSpec.element_at and RingSpec.index_of:
    the stack row at an index is exactly the entries of that element.
    """

    def __init__(self, ring: RingSpec):
        if not ring.is_finite:
            raise InfiniteRingError(f"cannot scan {ring}")
        self.size = ring.size()
        self.dim = ring.dim if ring.is_matrix else 1
        self.modulus = ring.scalar_base.n if ring.is_matrix else ring.n
        d, m = self.dim, self.modulus
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
        return np.matmul(x, y) % self.modulus

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
