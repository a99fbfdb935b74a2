"""Exact arithmetic in Z, Z/n, and small dense matrix rings over them.

Rings are described by immutable ``RingSpec`` values and populated by
immutable ``Element`` values.  Every operation returns a fresh element, so
everything in this module is safe to share across threads.  An element of
Z, Z/n and Mk(.) alike is a flat row-major tuple of integer entries (one for
Z and Z/n), and one arithmetic path serves all of them.  All arithmetic is
integer arithmetic: residues are kept canonical in ``[0, n)`` and entries
over Z use Python's arbitrary precision integers.

Payloads from outside are validated once, by ``RingSpec.element``.  Every
other element (arithmetic results, ``element_at``, ``zero`` and ``one``) is
made by ``_element``, a trusted constructor that fills the two slots of the
frozen ``Element`` directly: its entries are canonical by construction, so
they are neither checked again nor passed through the dataclass ``__init__``.

Arithmetic runs kernels compiled per ring shape, for k*k entries with
k = max(1, dim): a product, an entrywise sum, an entrywise difference and a
Horner step acc*x + c*1.  Each is straight-line Python that unpacks both
entry tuples into locals and writes out every result entry, reduced mod n
over Z/n, so an operation costs its integer arithmetic and no slicing,
``map`` or ``sum`` calls.  A ring fetches its kernels on its first
operation of each kind, and rings with the same k and kind of entry share
them.  The source of a product kernel grows as k**3, so sizes above
``_UNROLL_MAX_DIM`` = 8 keep generic loops: 8 is the CLI's own dimension
cap, and an 8x8 product kernel (512 products) compiles in about 2 ms, but
rings built through the library may be any size.  An element prints
through one format template per ring, with a "%s" per entry.

A chain of products on one ring (a power, a nilpotency test, the series
that inverts a unipotent, a polynomial evaluated by Horner's rule) runs the
kernels on entry tuples and builds one element, for its result, instead of
one element per link.  The nilpotency test and the unipotent series are
cores on entry tuples, _nilpotency and _unipotent_inverse: is_nilpotent and
inverse_of_unipotent wrap them, and lifting and gen_inverse call them on
entries they computed, so testing a defect builds no element.  The series
takes w's nilpotency witness from its caller, so a w already tested is not
tested again.
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
        return _element(self, tuple(values) if m is None else tuple([v % m for v in values]))

    def zero(self) -> "Element":
        return self._zero

    def one(self) -> "Element":
        return self._one

    # Per-ring constants, built on first use and stored on the instance, so
    # they live exactly as long as the ring does.  A ring from parse_ring
    # also lives in that function's memo, so its constants outlast the
    # request that parsed it and serve every later request for its literal.
    @functools.cached_property
    def _zero(self) -> "Element":
        return _element(self, (0,) * max(1, self.dim) ** 2)

    @functools.cached_property
    def _one(self) -> "Element":
        k = max(1, self.dim)
        # the diagonal of a row-major k-by-k array sits at the multiples of k + 1
        return _element(self, tuple(int(i % (k + 1) == 0) for i in range(k * k)))

    # The kernels on entry tuples, each called as ``kernel(a, b, modulus)``,
    # except the Horner step ``kernel(acc, x, c, modulus)``, which gives
    # acc*x + c*1 in one call.
    @functools.cached_property
    def _product(self):
        k = max(1, self.dim)
        return _product_kernel(k, self.is_finite) if k <= _UNROLL_MAX_DIM else _generic_product

    @functools.cached_property
    def _horner(self):
        k = max(1, self.dim)
        return _product_kernel(k, self.is_finite, True) if k <= _UNROLL_MAX_DIM else _generic_horner

    @functools.cached_property
    def _add(self):
        return self._entrywise("+")

    @functools.cached_property
    def _sub(self):
        return self._entrywise("-")

    def _entrywise(self, op: str):
        k = max(1, self.dim)
        if k <= _UNROLL_MAX_DIM:
            return _entrywise_kernel(op, k, self.is_finite)
        return functools.partial(_generic_entrywise, _OPERATORS[op])

    @functools.cached_property
    def _format(self) -> str:
        """The template ``str`` fills with the entry tuple by ``%``: "%s" for
        Z and Z/n, "[[%s,%s],[%s,%s]]" for M2(.), and so on."""
        k = self.dim
        if not k:
            return "%s"
        row = "[" + ",".join(["%s"] * k) + "]"
        return "[" + ",".join([row] * k) + "]"

    @functools.cached_property
    def _nilpotency_bound(self) -> int:
        """``nilpotency_bound(self)``, and 1 for Z, where only x^1 = 0 is nilpotent."""
        k = max(1, self.dim)
        return k if self.modulus is None else k * factorize(self.modulus).max_exponent

    @functools.cached_property
    def _drazin_exponent(self) -> int:
        """The first multiple of ``unit_exponent(self)`` that is at least
        ``nilpotency_bound(self) + 1``: a^m = a^(2m) for every element a, and
        a^(m-1) is its Drazin inverse.  Raises InfiniteRingError for Z and Mk(Z)."""
        exponent = unit_exponent(self)
        return -((self._nilpotency_bound + 1) // -exponent) * exponent

    def __reduce__(self):
        # pickle and copy rebuild the ring from its fields, without the cached
        # constants and the compiled kernels above
        return RingSpec, (self.modulus, self.dim)

    def elements(self) -> Iterator["Element"]:
        """Every element exactly once, in the fixed lexicographic element_at order."""
        if not self.is_finite:
            raise InfiniteRingError(f"cannot enumerate {self}")
        digits = itertools.product(range(self.modulus), repeat=max(1, self.dim) ** 2)
        return map(functools.partial(_element, self), digits)

    def element_at(self, index: int) -> "Element":
        """Random access into the ``elements()`` order (mixed-radix decode)."""
        size = self.size()
        if not 0 <= index < size:
            raise IndexError(f"index {index} out of range for {self} of size {size}")
        digits = []
        for _ in range(max(1, self.dim) ** 2):
            index, d = divmod(index, self.modulus)
            digits.append(d)
        return _element(self, tuple(reversed(digits)))

    def index_of(self, x: "Element") -> int:
        """Position of ``x`` in the ``elements()`` order; inverts ``element_at``."""
        if x.ring is not self and x.ring != self:
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


# Arithmetic in Mk(.) for k up to this cap, which covers every ring the CLI
# accepts, runs straight-line code compiled for k.  A product's source grows
# as k**3 (16x16: 4 096 products, about 14 ms to compile), so library rings
# above the cap keep generic loops.
_UNROLL_MAX_DIM = 8


def _compile_kernel(label: str, k: int, finite: bool, entries: list[str], params: str = "a, b, m"):
    """Compile ``kernel(params)`` for row-major k-by-k entry tuples a and b
    among its parameters: the source unpacks them into locals a0.. and b0..
    and returns the tuple of the given entry expressions, each reduced mod m
    when ``finite`` (m is ignored otherwise), the way dataclasses writes
    ``__init__``."""
    if finite:
        entries = [f"({e}) % m" for e in entries]
    n = k * k
    source = (
        f"def kernel({params}):\n"
        f"    {', '.join(f'a{i}' for i in range(n))}, = a\n"
        f"    {', '.join(f'b{i}' for i in range(n))}, = b\n"
        f"    return ({', '.join(entries)},)\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<ringinv {label} kernel {k}x{k}>", "exec"), namespace)
    return namespace["kernel"]


@functools.lru_cache(maxsize=4 * _UNROLL_MAX_DIM)
def _product_kernel(k: int, finite: bool, horner: bool = False):
    """The product of k-by-k entry tuples: the k*k dot products written out.
    With ``horner``, the Horner step ``kernel(a, b, c, m)`` = a*b + c*1, which
    adds the integer c to the k dot products on the diagonal."""
    dots = [
        " + ".join(f"a{i * k + t} * b{t * k + j}" for t in range(k))
        + (" + c" if horner and i == j else "")
        for i in range(k) for j in range(k)
    ]
    if horner:
        return _compile_kernel("horner", k, finite, dots, "a, b, c, m")
    return _compile_kernel("product", k, finite, dots)


_OPERATORS = {"+": operator.add, "-": operator.sub}


@functools.lru_cache(maxsize=2 * len(_OPERATORS) * _UNROLL_MAX_DIM)
def _entrywise_kernel(op: str, k: int, finite: bool):
    """The entrywise sum (op "+") or difference (op "-") of k-by-k entry tuples."""
    return _compile_kernel(f"entrywise {op}", k, finite, [f"a{i} {op} b{i}" for i in range(k * k)])


def _generic_horner(a: tuple, b: tuple, c: int, m: int | None) -> tuple:
    """a*b + c*1 for row-major square entry tuples of any size, reduced mod m
    unless m is None: the Horner step above _UNROLL_MAX_DIM."""
    k = math.isqrt(len(a))
    cols = [b[j::k] for j in range(k)]
    sums = [sum(map(operator.mul, a[i:i + k], col)) for i in range(0, k * k, k) for col in cols]
    sums[::k + 1] = [v + c for v in sums[::k + 1]]
    return tuple(sums) if m is None else tuple([v % m for v in sums])


def _generic_product(a: tuple, b: tuple, m: int | None) -> tuple:
    """The product a*b above _UNROLL_MAX_DIM: a Horner step with c = 0."""
    return _generic_horner(a, b, 0, m)


def _generic_entrywise(op, a: tuple, b: tuple, m: int | None) -> tuple:
    """op applied entry by entry, reduced mod m unless m is None: the sum and
    difference above _UNROLL_MAX_DIM."""
    values = map(op, a, b)
    return tuple(values) if m is None else tuple([v % m for v in values])


@dataclass(frozen=True, slots=True)
class Element:
    """An immutable ring element: its ring and the row-major tuple of its
    d*d entries, d = max(1, ring.dim), so Z and Z/n elements have one entry.

    Build elements with ``ring.element``, which validates a payload from
    outside and reduces it, or with ``ring.element_at``.  Arithmetic reduces
    its own results mod n, so every element is canonical by construction and
    equality and hashing are plain structural comparisons.  ``payload`` is a
    view of the entries: an int for Z and Z/n, a tuple of row tuples for Mk(.).

    Operands of one ring object pass the ring check by identity; elements of
    equal but distinct ``RingSpec`` objects still mix, after an equality test.
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
        if self.ring != other.ring:
            raise RingMismatchError(f"mixed rings: {self.ring} and {other.ring}")

    def __add__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            if not isinstance(other, Element):
                return NotImplemented
            self._require_same_ring(other)
        return _element(ring, ring._add(self.entries, other.entries, ring.modulus))

    def __sub__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            if not isinstance(other, Element):
                return NotImplemented
            self._require_same_ring(other)
        return _element(ring, ring._sub(self.entries, other.entries, ring.modulus))

    def __neg__(self):
        return self * -1

    def _scale(self, c: int) -> "Element":
        ring = self.ring
        m = ring.modulus
        return _element(ring, tuple([c * v if m is None else c * v % m for v in self.entries]))

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not Element or other.ring is not ring:
            if isinstance(other, int) and not isinstance(other, bool):
                return self._scale(other)
            if not isinstance(other, Element):
                return NotImplemented
            self._require_same_ring(other)
        return _element(ring, ring._product(self.entries, other.entries, ring.modulus))

    def __rmul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Element":
        """Square-and-multiply on the entries; exponent 0 gives the identity."""
        if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        ring = self.ring
        if exponent == 0:
            return ring.one()
        # left to right over the bits after the leading one: a square per bit,
        # and a product by self per set bit
        product, m, base = ring._product, ring.modulus, self.entries
        result = base
        for bit in bin(exponent)[3:]:
            result = product(result, result, m)
            if bit == "1":
                result = product(result, base, m)
        return self if result is base else _element(ring, result)

    def __str__(self) -> str:
        return self.ring._format % self.entries

    def __repr__(self) -> str:
        return f"Element({self.ring}, {self})"


_new_object = object.__new__
_set_ring = Element.ring.__set__
_set_entries = Element.entries.__set__


def _element(ring: RingSpec, entries: tuple) -> Element:
    """The element of ``ring`` with these canonical entries, unchecked.

    The trusted constructor behind every element that is not built from a
    payload: it writes the two slots directly, skipping the frozen
    dataclass's ``__init__`` and its per-field ``object.__setattr__``.  The
    entries must already be a tuple of max(1, dim)**2 ints, reduced mod n.
    """
    x = _new_object(Element)
    _set_ring(x, ring)
    _set_entries(x, entries)
    return x


def is_idempotent(x: Element) -> bool:
    ring, e = x.ring, x.entries
    return ring._product(e, e, ring.modulus) == e


def is_tripotent(x: Element) -> bool:
    ring, e = x.ring, x.entries
    product, m = ring._product, ring.modulus
    return product(product(e, e, m), e, m) == e


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
    if ring.modulus is None and not ring.is_matrix:
        raise UnsupportedRingError("Z has no finite nilpotency bound; only 0 is nilpotent there")
    return ring._nilpotency_bound


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


def _nilpotency(ring: RingSpec, x: tuple) -> NilpotencyWitness | None:
    """The nilpotency test on the entry tuple x of an element of ring: a
    witness holding the minimal vanishing exponent, or None.  Powers up to
    the ring's nilpotency bound are taken on entry tuples."""
    zero = ring._zero.entries
    bound = ring._nilpotency_bound
    product, m = ring._product, ring.modulus
    power = x
    for index in range(1, bound + 1):
        if power == zero:
            return NilpotencyWitness(index)
        if index < bound:
            power = product(power, x, m)
    return None


def is_nilpotent(x: Element) -> NilpotencyWitness | None:
    """Return a witness holding the minimal vanishing exponent, or None."""
    return _nilpotency(x.ring, x.entries)


def _unipotent_inverse(ring: RingSpec, w: tuple, witness: NilpotencyWitness) -> tuple:
    """The entries of (1 + w)^-1, for the entry tuple w of an element of ring
    and the witness that w is nilpotent, by the series of
    inverse_of_unipotent; 1 + w is multiplied by the result on both sides to
    check it, which also checks the witness.

    The series is the polynomial 1 + t + ... + t^(index-1) at t = -w, so
    Horner's rule sums it in index - 1 steps acc <- acc*(-w) + 1."""
    product, horner, m = ring._product, ring._horner, ring.modulus
    one = ring._one.entries
    u = ring._add(one, w, m)
    negated = ring._sub(ring._zero.entries, w, m)
    acc = one
    for _ in range(1, witness.index):
        acc = horner(acc, negated, 1, m)
    if product(u, acc, m) != one or product(acc, u, m) != one:
        raise VerificationError("unipotent inversion failed; the nilpotency witness is invalid")
    return acc


def inverse_of_unipotent(u: Element) -> Element:
    """Invert u = 1 + w with w nilpotent via the finite alternating series.

    With w^m = 0 the inverse is 1 - w + w^2 - ... +- w^(m-1).  The product
    is re-checked on both sides; a failure means the nilpotency witness was
    wrong.
    """
    ring = u.ring
    w = ring._sub(u.entries, ring._one.entries, ring.modulus)
    witness = _nilpotency(ring, w)
    if witness is None:
        raise PreconditionError(f"{u} is not unipotent: u - 1 is not nilpotent")
    return _element(ring, _unipotent_inverse(ring, w, witness))


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
    """Exact determinant, reduced in the entry ring.

    Fraction-free (Bareiss) elimination over Z: step i replaces each entry
    below and right of the pivot by a 2x2 minor divided by the previous
    pivot, a division that is exact, and a zero pivot is swapped with a
    lower row, which flips the sign.  The last pivot is then the
    determinant.  char_poly(x)[0] = (-1)^k det(x) is its test oracle.
    """
    if not x.ring.is_matrix:
        raise PreconditionError("det needs a matrix element")
    k = x.ring.dim
    m = [list(x.entries[i:i + k]) for i in range(0, k * k, k)]
    sign, previous = 1, 1
    for i in range(k - 1):
        if not m[i][i]:
            swap = next((r for r in range(i + 1, k) if m[r][i]), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        pivot_row = m[i]
        pivot = pivot_row[i]
        for row in m[i + 1:]:
            c = row[i]
            for j in range(i + 1, k):
                row[j] = (pivot * row[j] - c * pivot_row[j]) // previous
        previous = pivot
    d = sign * m[k - 1][k - 1]
    mod = x.ring.modulus
    return d % mod if mod is not None else d


def is_unit(x: Element) -> bool:
    """Two-sided invertibility: gcd with the modulus, or det = +-1 over Z."""
    d = det(x) if x.ring.is_matrix else x.entries[0]
    return d in (1, -1) if x.ring.modulus is None else math.gcd(d, x.ring.modulus) == 1
