"""Vectorized scans: census masks over the whole ring, and the equation scan.

Both work on numpy stacks of ring elements and share no code with the
per-element criteria in rings and gen_inverse.  census_masks evaluates the
criteria (x^B = 0, x^unit_exponent = 1, x - x^3 nilpotent, ...) for every
element at once.  inverse_scan solves the three defining equation systems
and nothing else: it generates the centraliser of a (the solutions of
ab = ba, usually a small fraction of the ring) and tests bab = b and the
nilpotent defects on its rows only.  Entries stay integers reduced mod m
after every product, and check_scan_fits refuses a ring whose sums of d
such products could overflow int64, so results are exact.
"""

from __future__ import annotations

import math

import numpy as np

from .rings import InfiniteRingError, PreconditionError, RingSpec, VerificationError
from .rings import factorize, nilpotency_bound, unit_exponent

_BLOCK = 1 << 18
_INT64_MAX = int(np.iinfo(np.int64).max)
SCAN_MEMORY_BUDGET = 256 * 2**20
# Whole-ring int64 arrays alive at once while the census masks are built:
# the stack, x^2, x^3, power operands and matmul temporaries.
_WORKING_COPIES = 8


def _scan_shape(ring: RingSpec) -> tuple[int, int]:
    return max(1, ring.dim), ring.modulus


def _kernel_mod(mat: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Generators (as rows) and their orders of the kernel of a square
    integer matrix mod a prime power q.

    Diagonalizes the matrix by unimodular operations mod q, keeping the
    column transform V.  Each pivot is an entry of least p-adic valuation
    in the remaining block, so its gcd g with q divides every entry there:
    column operations clear its row, and row operations, which leave the
    kernel alone, clear its column.  The pivot is then recorded and zeroed,
    so a finished row or column reads as zeros (gcd q) to the pivot search.
    With y = V^-1 x the system becomes pivot * y_c = 0 for each pivot
    column c, so V[:, c] * (q / g) generates a cyclic summand of order g,
    and a column without a pivot generates one of order q.
    """
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
        self._tripotent_mask: np.ndarray | None = None
        # the d^2 x d^2 matrix a (x) I - I (x) a^T of x -> ax - xa on
        # row-major entries is linear in a: _commutator @ a.ravel()
        eye = np.eye(d, dtype=np.int64)
        units = np.eye(k, dtype=np.int64).reshape(k, d, d)
        self._commutator = np.stack(
            [np.kron(u, eye) - np.kron(eye, u.T) for u in units], axis=-1
        ).reshape(k * k, k)
        # (q, e) per prime power q of m: e = 1 mod q and e = 0 mod m/q
        self._crt = [
            (q, m // q * pow(m // q, -1, q) % m)
            for q in (p**e for p, e in factorize(m).pairs)
        ]

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

    def tripotent_mask(self) -> np.ndarray:
        """Boolean mask over indexes: x^3 = x."""
        if self._tripotent_mask is None:
            x = self.stack
            self._tripotent_mask = (self._mul(self._mul(x, x), x) == x).all(axis=(1, 2))
        return self._tripotent_mask

    def census_masks(self) -> dict[str, np.ndarray]:
        """Boolean masks over indexes for the six criterion-defined census classes.

        A unit's order divides unit_exponent, so x is a unit iff x^unit_exponent = 1.
        """
        m = self.modulus
        x = self.stack
        x2 = self._mul(x, x)
        x3 = self._mul(x2, x)
        identity = np.eye(self.dim, dtype=np.int64)
        if self._tripotent_mask is None:
            self._tripotent_mask = (x3 == x).all(axis=(1, 2))
        return {
            "nilpotent": self.nilpotent_mask(),
            "idempotent": (x2 == x).all(axis=(1, 2)),
            "tripotent": self.tripotent_mask(),
            "unit": (self._power(x, self._unit_exponent) == identity).all(axis=(1, 2)),
            "strongly_drazin": self._nilpotent_codes((x - x2) % m),
            "hirano": self._nilpotent_codes((x - x3) % m),
        }

    def centraliser(self, a: np.ndarray) -> np.ndarray:
        """The elements b with ab = ba, as stack rows in index order.

        Generated, not filtered: per prime power q of m, _kernel_mod solves
        ax - xa = 0 mod q, and the CRT idempotent of q lifts its generators
        to Z/m.  The kernel is the direct sum of their cyclic groups, so one
        2-D product of the mixed-radix coefficient grid with the generators
        enumerates it, each element once.  For Z/n, which is commutative,
        and when every generator has full order (a scalar a), the stack is
        returned as it is.  Raises VerificationError unless every generator
        (for the whole ring) or every generated row commutes with a and the
        codes are distinct.
        """
        d, m = self.dim, self.modulus
        if d == 1:
            return self.stack
        commutator = (self._commutator @ a.ravel()).reshape(d * d, d * d)
        gens, orders = [], []
        for q, unit in self._crt:
            g, o = _kernel_mod(commutator, q)
            keep = o > 1
            gens.append(g[keep] * unit % m)
            orders += o[keep].tolist()
        gens = np.concatenate(gens)
        if math.prod(orders) == self.size:
            rows, checked = self.stack, gens.reshape(-1, d, d)
        else:
            digits = np.indices(orders).reshape(len(orders), -1)
            flat = digits.T @ gens % m
            codes = flat @ self._radix
            order = np.argsort(codes)
            if (np.diff(codes[order]) == 0).any():
                raise VerificationError(
                    f"generated centraliser of {a.tolist()} repeats an element"
                )
            rows = checked = flat[order].reshape(-1, d, d)
        if not (self._mul(a[None], checked) == self._mul(checked, a[None])).all():
            raise VerificationError(
                f"generated centraliser of {a.tolist()} holds a non-commuting element"
            )
        return rows

    def tripotent_split_mask(self, tripotents: list[int]) -> np.ndarray:
        """Boolean mask over indexes: a = p + w, p among the given tripotent
        indexes, w nilpotent with pw = wp (equivalently ap = pa).  The w are
        the nilpotent rows of the centraliser of p."""
        nilpotent = self.nilpotent_mask()
        split = np.zeros(self.size, dtype=bool)
        for p in self.stack[tripotents]:
            commuting = self.centraliser(p)
            w = commuting[nilpotent[self.codes(commuting)]]
            split[self.codes((p + w) % self.modulus)] = True
        return split

    def inverse_scan(self, index: int) -> dict:
        """Candidate inverses of one element: the three defining equation systems.

        ab = ba is solved by generating the centraliser of a; bab = b and the
        respective nilpotent defect are tested on its rows, in blocks of
        _BLOCK rows.  Returns ascending index lists for the Hirano, strongly
        Drazin and Drazin systems.
        """
        m = self.modulus
        a = self.stack[index]
        a2 = self._mul(a, a)
        centraliser = self.centraliser(a)
        codes = self.codes(centraliser)
        hirano: list[int] = []
        sdrazin: list[int] = []
        drazin: list[int] = []
        for start in range(0, len(centraliser), _BLOCK):
            block = centraliser[start : start + _BLOCK]
            ab = self._mul(a[None], block)
            base = np.flatnonzero((self._mul(block, ab) == block).all(axis=(1, 2)))
            if base.size == 0:
                continue
            ab = ab[base]
            mask_h = self._nilpotent_codes((a2[None] - ab) % m)
            mask_s = self._nilpotent_codes((a[None] - ab) % m)
            mask_d = self._nilpotent_codes((a[None] - self._mul(a[None], ab)) % m)
            for flag, out in ((mask_h, hirano), (mask_s, sdrazin), (mask_d, drazin)):
                out.extend(codes[start + base[flag]].tolist())
        return {"hirano": hirano, "strongly_drazin": sdrazin, "drazin": drazin}
