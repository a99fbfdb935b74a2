"""Exact arithmetic in Z, Z/n, and small dense matrix rings over them.

Rings are described by immutable ``RingSpec`` values and populated by
immutable ``Element`` values.  Every operation returns a fresh element, so
everything in this module is safe to share across threads.  An element of
Z, Z/n and Mk(.) alike is a flat row-major tuple of integer entries (one for
Z and Z/n), and one arithmetic path serves all of them.  All arithmetic is
integer arithmetic: residues are kept canonical in ``[0, n)`` and entries
over Z use Python's arbitrary precision integers.  Payloads from outside are
validated once, by ``RingSpec.element``; arithmetic results are reduced by
the operation that makes them and are not checked again.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator


class RingError(Exception):
    """Base class for errors raised by this package."""


class RingMismatchError(RingError):
    """Operands live in different rings."""


class InfiniteRingError(RingError):
    """An enumeration or exhaustive scan was requested on an infinite ring."""


class UnsupportedRingError(RingError):
    """The requested quantity is not defined for this ring."""


class PreconditionError(RingError):
    """A documented precondition of an operation does not hold."""


class VerificationError(RingError):
    """A runtime self-check failed after a construction; indicates a defect."""


@dataclass(frozen=True)
class RingSpec:
    """Descriptor of a supported ring: Z, Z/n, or k-by-k matrices over one of those.

    A ring is two numbers: ``modulus`` is n for entries in Z/n and None for
    entries in Z, and ``dim`` is the matrix size k, or 0 for the scalar rings
    Z and Z/n (so M1(Z/n) and Z/n are distinct rings).  The trivial ring
    (modulus 1) is rejected.
    """

    modulus: int | None = None
    dim: int = 0

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be at least 2; the trivial ring is not supported")
        if self.dim < 0:
            raise ValueError("matrix dimension must be non-negative")

    @property
    def is_matrix(self) -> bool:
        return self.dim > 0

    @property
    def is_finite(self) -> bool:
        return self.modulus is not None

    def size(self) -> int:
        if not self.is_finite:
            raise InfiniteRingError(f"{self} is infinite")
        return self.modulus ** (self.dim * self.dim or 1)

    def element(self, payload) -> "Element":
        """Build an element from an integer or a row-major array of integers.

        The one place a payload from outside is checked: an integer (not a
        bool) for Z and Z/n, a k-by-k array of integers for Mk(.), raising
        ValueError otherwise.  Entries are then reduced mod n.
        """
        if not self.is_matrix:
            if isinstance(payload, bool) or not isinstance(payload, int):
                raise ValueError(f"{self} elements need an integer payload, got {payload!r}")
            return self._reduce((payload,))
        k = self.dim
        try:
            rows = [[_entry(v) for v in row] for row in payload]
        except TypeError:
            raise ValueError(f"{self} elements need a {k}x{k} array payload") from None
        if len(rows) != k or any(len(row) != k for row in rows):
            raise ValueError(f"{self} elements need a {k}x{k} array payload")
        return self._reduce(v for row in rows for v in row)

    def _reduce(self, values) -> "Element":
        """The element with these row-major integer entries, reduced mod n."""
        m = self.modulus
        return Element(self, tuple(values) if m is None else tuple([v % m for v in values]))

    def zero(self) -> "Element":
        return Element(self, (0,) * max(1, self.dim) ** 2)

    def one(self) -> "Element":
        k = max(1, self.dim)
        # the diagonal of a row-major k-by-k array sits at the multiples of k + 1
        return Element(self, tuple(int(i % (k + 1) == 0) for i in range(k * k)))

    def elements(self) -> Iterator["Element"]:
        """Every element exactly once, in the fixed lexicographic element_at order."""
        if not self.is_finite:
            raise InfiniteRingError(f"cannot enumerate {self}")
        return map(self.element_at, range(self.size()))

    def element_at(self, index: int) -> "Element":
        """Random access into the ``elements()`` order (mixed-radix decode)."""
        size = self.size()
        if not 0 <= index < size:
            raise IndexError(f"index {index} out of range for {self} of size {size}")
        digits = []
        for _ in range(max(1, self.dim) ** 2):
            index, d = divmod(index, self.modulus)
            digits.append(d)
        return Element(self, tuple(reversed(digits)))

    def index_of(self, x: "Element") -> int:
        """Position of ``x`` in the ``elements()`` order; inverts ``element_at``."""
        if x.ring != self:
            raise RingMismatchError(f"mixed rings: {x.ring} and {self}")
        if not self.is_finite:
            raise InfiniteRingError(f"cannot index elements of {self}")
        code = 0
        for v in x.entries:
            code = code * self.modulus + v
        return code

    def __str__(self) -> str:
        scalar = "Z" if self.modulus is None else f"Z/{self.modulus}"
        return f"M{self.dim}({scalar})" if self.dim else scalar


Z = RingSpec()


def modular(n: int) -> RingSpec:
    return RingSpec(n)


def matrix(base: RingSpec, dim: int) -> RingSpec:
    if base.is_matrix:
        raise ValueError("matrix entries must come from Z or Z/n")
    if dim < 1:
        raise ValueError("matrix dimension must be at least 1")
    return RingSpec(base.modulus, dim)


def _entry(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"matrix entries must be integers, got {v!r}")
    return v


@dataclass(frozen=True)
class Element:
    """An immutable ring element: its ring and the row-major tuple of its
    d*d entries, d = max(1, ring.dim), so Z and Z/n elements have one entry.

    Build elements with ``ring.element``, which validates a payload from
    outside and reduces it, or with ``ring.element_at``.  Arithmetic reduces
    its own results mod n, so every element is canonical by construction and
    equality and hashing are plain structural comparisons.  ``payload`` is a
    view of the entries: an int for Z and Z/n, a tuple of row tuples for Mk(.).
    """

    ring: RingSpec
    entries: tuple[int, ...]

    @property
    def payload(self) -> "int | tuple[tuple[int, ...], ...]":
        if not self.ring.is_matrix:
            return self.entries[0]
        k = self.ring.dim
        return tuple(self.entries[i:i + k] for i in range(0, k * k, k))

    def _require_same_ring(self, other: "Element") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError(f"mixed rings: {self.ring} and {other.ring}")

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_ring(other)
        return self.ring._reduce(map(operator.add, self.entries, other.entries))

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_ring(other)
        return self.ring._reduce(map(operator.sub, self.entries, other.entries))

    def __neg__(self):
        return self * -1

    def _scale(self, c: int) -> "Element":
        return self.ring._reduce(c * v for v in self.entries)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        self._require_same_ring(other)
        a, b = self.entries, other.entries
        if len(a) == 1:
            return self.ring._reduce((a[0] * b[0],))
        k = self.ring.dim
        cols = [b[j::k] for j in range(k)]
        return self.ring._reduce(
            sum(map(operator.mul, a[i:i + k], col)) for i in range(0, k * k, k) for col in cols
        )

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Element":
        """Square-and-multiply; exponent 0 gives the identity."""
        if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __str__(self) -> str:
        if self.ring.is_matrix:
            return "[" + ",".join(
                "[" + ",".join(str(v) for v in row) + "]" for row in self.payload
            ) + "]"
        return str(self.payload)

    def __repr__(self) -> str:
        return f"Element({self.ring}, {self})"


def is_idempotent(x: Element) -> bool:
    return x * x == x


def is_tripotent(x: Element) -> bool:
    return x * x * x == x


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as ascending (prime, exponent) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        primes = [p for p, _ in self.pairs]
        if primes != sorted(set(primes)) or any(e < 1 for _, e in self.pairs):
            raise ValueError("factorization pairs must be ascending with positive exponents")

    @property
    def max_exponent(self) -> int:
        return max(e for _, e in self.pairs)


def factorize(n: int) -> Factorization:
    """Prime factorization of an integer n >= 2, cached per n.

    Trial division by 2 and the odd d below _TRIAL_LIMIT; the cofactor left over
    has no prime factor below that limit, so it is prime when it is below
    _TRIAL_LIMIT**2 or passes _is_prime, and is split by _rho otherwise.
    Raises PreconditionError when _rho finds no factor of a cofactor within
    _RHO_STEPS steps, which bounds the cost of every call.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 2:
        raise ValueError("factorize needs an integer n >= 2")
    return _factorize(n)


_TRIAL_LIMIT = 1000
# Evaluations of x^2 + c allowed to one _rho call, about a second of work.  Rho
# splits off a prime p in about sqrt(p) steps, so this covers p below ~10**11.
_RHO_STEPS = 1 << 20
# The first thirteen primes: as Miller-Rabin bases they decide primality
# exactly for every n below 3.3 * 10**24 (Sorenson and Webster, 2015).  The
# first twelve alone pass the composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@functools.lru_cache(maxsize=1024)
def _factorize(n: int) -> Factorization:
    pairs = []
    rest = n
    d = 2
    while d * d <= rest and d < _TRIAL_LIMIT:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    large: dict[int, int] = {}
    pending = [rest] if rest > 1 else []
    while pending:
        q = pending.pop()
        if q < _TRIAL_LIMIT**2 or _is_prime(q):
            large[q] = large.get(q, 0) + 1
        else:
            f = _rho(q)
            if f is None:
                raise PreconditionError(
                    f"cannot factor the modulus {n} within {_RHO_STEPS} Pollard rho steps"
                )
            pending += [f, q // f]
    return Factorization(tuple(pairs) + tuple(sorted(large.items())))


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, for odd n > 41.

    Exact below 3.3 * 10**24; above that bound it is a strong probable-prime
    test, which a composite that is a strong pseudoprime to all thirteen
    bases would pass.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int | None:
    """A proper factor of an odd composite n by Pollard-Brent rho (f = x^2 + c),
    or None when finding one would take more than _RHO_STEPS evaluations of f."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            # a round evaluates f at most 2r times
            if steps + 2 * r > _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += r + min(k, r)
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@dataclass(frozen=True)
class NilpotencyWitness:
    """Minimal index m >= 1 with x^m = 0."""

    index: int


def nilpotency_bound(ring: RingSpec) -> int:
    """An exponent B such that x in the ring is nilpotent iff x^B = 0.

    Z/n: the largest prime exponent e of n (x nilpotent iff rad(n) | x, and
    then x^e covers every prime power).  Matrices over Z: the dimension k,
    by Cayley-Hamilton.  Matrices over Z/n: k*e, because x^k vanishes mod
    rad(n) and stacking e such products clears every prime power of n.
    """
    if ring.modulus is not None:
        return max(1, ring.dim) * factorize(ring.modulus).max_exponent
    if ring.is_matrix:
        return ring.dim
    raise UnsupportedRingError("Z has no finite nilpotency bound; only 0 is nilpotent there")


def unit_exponent(ring: RingSpec) -> int:
    """A common multiple of the power periods of all elements of a finite ring.

    For p^e exactly dividing n, Mk(Z/p^e) contributes
    lcm(p^j - 1 : j <= k) * p^(e-1+t) with t least such that p^t >= k
    (Z/n counts as k = 1); the contributions combine by lcm.  This is an
    exponent of every unit group GL_r(Z/p^e) with r <= k, and the period of
    a is the order of its unit part a*E in a corner ERE of that form
    (Fitting's lemma), so the period divides it.
    """
    if not ring.is_finite:
        raise InfiniteRingError(f"{ring} has elements of infinite period")
    k = max(1, ring.dim)
    out = 1
    for p, e in factorize(ring.modulus).pairs:
        t = 0
        while p ** t < k:
            t += 1
        part = p ** (e - 1 + t)
        for j in range(1, k + 1):
            part = math.lcm(part, p ** j - 1)
        out = math.lcm(out, part)
    return out


def is_nilpotent(x: Element) -> NilpotencyWitness | None:
    """Return a witness holding the minimal vanishing exponent, or None."""
    ring = x.ring
    zero = ring.zero()
    if ring == Z:
        return NilpotencyWitness(1) if x == zero else None
    bound = nilpotency_bound(ring)
    power = x
    for m in range(1, bound + 1):
        if power == zero:
            return NilpotencyWitness(m)
        if m < bound:
            power = power * x
    return None


def inverse_of_unipotent(u: Element) -> Element:
    """Invert u = 1 + w with w nilpotent via the finite alternating series.

    With w^m = 0 the inverse is 1 - w + w^2 - ... +- w^(m-1).  The product
    is re-checked; a failure means the nilpotency witness was wrong.
    """
    one = u.ring.one()
    w = u - one
    witness = is_nilpotent(w)
    if witness is None:
        raise PreconditionError(f"{u} is not unipotent: u - 1 is not nilpotent")
    acc = one
    power = one
    for j in range(1, witness.index):
        power = power * w
        acc = acc - power if j % 2 else acc + power
    if u * acc != one or acc * u != one:
        raise VerificationError("unipotent inversion failed; the nilpotency witness is invalid")
    return acc


def _int_matmul(a: list, b: list, k: int) -> list:
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)] for i in range(k)]


def char_poly(x: Element) -> tuple[int, ...]:
    """Coefficients of det(tI - x), constant term first, leading term 1.

    Computed exactly over Z with the Faddeev-LeVerrier recurrence (the
    divisions by 1..k are exact integers), then reduced in the entry ring.
    """
    if not x.ring.is_matrix:
        raise PreconditionError("char_poly needs a matrix element")
    k = x.ring.dim
    a = [list(row) for row in x.payload]
    m = [[int(i == j) for j in range(k)] for i in range(k)]
    desc = [1]
    for j in range(1, k + 1):
        am = _int_matmul(a, m, k)
        tr = sum(am[i][i] for i in range(k))
        q, r = divmod(-tr, j)
        if r:
            raise VerificationError("characteristic polynomial recurrence lost exactness")
        desc.append(q)
        m = [[am[i][l] + (q if i == l else 0) for l in range(k)] for i in range(k)]
    coeffs = list(reversed(desc))
    mod = x.ring.modulus
    if mod is not None:
        coeffs = [c % mod for c in coeffs]
    return tuple(coeffs)


def det(x: Element) -> int:
    """Exact determinant, reduced in the entry ring."""
    c0 = char_poly(x)[0]
    d = c0 if x.ring.dim % 2 == 0 else -c0
    mod = x.ring.modulus
    return d % mod if mod is not None else d


def is_unit(x: Element) -> bool:
    """Two-sided invertibility: gcd with the modulus, or det = +-1 over Z."""
    d = det(x) if x.ring.is_matrix else x.entries[0]
    return d in (1, -1) if x.ring.modulus is None else math.gcd(d, x.ring.modulus) == 1
