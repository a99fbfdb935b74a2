"""Reference implementations the tests compare the package against.

The brute-force scans try every element of a finite ring against the
defining equations, one Python check at a time.  filtered_inverse_scans is
a whole-ring numpy filter, as the scan was before RingScan.inverse_scans
generated centralisers: it tests ab = ba on every element instead.
kernel_mod is the one-matrix elimination that the batched _kernels_mod
replaced.  whole_stack_masks raises the whole stack to the census powers
at the full modulus, as RingScan.masks did for every modulus before
it built a composite modulus's masks from its prime-power components.
element_verdicts decides the four classes of the census cross-check from
an element's unique Drazin inverse d with Element arithmetic, as the census
did per element before census._scan_verdicts read them off a stack product
per chunk.  semigroup_profile walks the power orbit of an element, the O(index +
period) route that drazin_finite and unit_exponent avoid.  brute_force_units
searches the whole ring for two-sided inverses, where is_unit reads a
determinant.  naive_product is the textbook triple loop that
Element.__mul__'s compiled kernels replace, and naive_entrywise and
naive_scale do the same for sums, differences and integer multiples.
element_power, element_is_nilpotent, element_inverse_of_unipotent,
horner_evaluate and newton_lift are the chains of Element products that
the entry-tuple chains of rings and lifting replaced, with naive_poly_add
and naive_poly_mul the coefficient loops behind the old lift's certificate.
element_check_hirano, element_check_strongly_drazin, element_drazin_axioms,
element_has_hirano, element_has_strongly_drazin, element_hirano_inverse and
element_hirano_and_strongly_drazin are the Hirano construction, its
equation checks and the two existence criteria on Elements, as gen_inverse
ran them before they moved to entry tuples, built on the Element chains
above.  cursor_parse_ring and cursor_parse_element are the per-character
parser that the literals' token walk replaced, and joined_str and
listed_str the nested joins and the repr of a list of rows that
Element.__str__'s per-ring format template replaced.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from ringinv._scan import RingScan
from ringinv.gen_inverse import (
    HiranoCertificate,
    SDrazinCertificate,
    _drazin_axioms,
    check_hirano,
    check_strongly_drazin,
)
from ringinv.lifting import LiftedIdempotent, Poly, PolynomialCertificate, _trim, poly_scale
from ringinv.literals import ParseError
from ringinv.rings import (
    Element,
    InfiniteRingError,
    NilpotencyWitness,
    PreconditionError,
    RingSpec,
    VerificationError,
    Z,
    matrix,
    modular,
    nilpotency_bound,
    unit_exponent,
)


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


def brute_force_units(ring) -> list[bool]:
    """Whether each element of a finite matrix ring, in enumeration order,
    has some b with ab = ba = 1: every product of the ring, formed in numpy."""
    k, n = ring.dim, ring.modulus
    mats = np.array([x.entries for x in ring.elements()], dtype=np.int64).reshape(-1, k, k)
    one = np.eye(k, dtype=np.int64)
    found = []
    for a in mats:
        left = ((a @ mats) % n == one).all(axis=(1, 2))
        right = ((mats @ a) % n == one).all(axis=(1, 2))
        found.append(bool((left & right).any()))
    return found


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


def whole_stack_masks(ring: RingSpec) -> dict[str, np.ndarray]:
    """The six census masks of ring from powers of its whole stack mod m:
    x^B = 0 (B = nilpotency_bound), x^2 = x, x^3 = x, x^unit_exponent = 1,
    and x - x^2, x - x^3 looked up in the nilpotent mask."""
    scan = RingScan(ring)
    m, x = scan.modulus, scan.stack
    x2 = scan._mul(x, x)
    x3 = scan._mul(x2, x)
    nilpotent = ~scan._power(x, nilpotency_bound(ring)).any(axis=(1, 2))
    identity = np.eye(scan.dim, dtype=np.int64)
    return {
        "nilpotent": nilpotent,
        "idempotent": (x2 == x).all(axis=(1, 2)),
        "tripotent": (x3 == x).all(axis=(1, 2)),
        "unit": (scan._power(x, unit_exponent(ring)) == identity).all(axis=(1, 2)),
        "strongly_drazin": nilpotent[scan.codes((x - x2) % m)],
        "hirano": nilpotent[scan.codes((x - x3) % m)],
    }


def element_verdicts(ring: RingSpec, index: int, drazin: int) -> tuple[bool, ...]:
    """For the element a at index and its Drazin inverse d at drazin:
    (d = 0, a*d = a, d = a, a*d = 1), which decide nilpotent, idempotent,
    tripotent and unit, by Element products and comparisons."""
    a, d = ring.element_at(index), ring.element_at(drazin)
    ad = a * d
    return (d == ring.zero(), ad == a, d == a, ad == ring.one())


# element pairs per chunk of filtered_inverse_scans, times k^2 entries each
_PAIR_ENTRIES = 1 << 20


def filtered_inverse_scans(scan: RingScan, indexes) -> list[tuple[np.ndarray, dict]]:
    """RingScan.inverse_scans by filtering the whole ring for ab = ba, bab = b
    and each nilpotent defect, for a chunk of indexes at a time.

    ab - ba is linear in b: with E_t the t-th matrix unit, row t of its
    matrix is aE_t - E_ta, so the flattened stack times the matrices of a
    chunk gives ab - ba for every pair at once.  Its entries d are integers
    of size below k^2 m^2, exact in a float64 product; d / m is then
    integral iff m divides d, so a pair commutes iff the fractional parts
    of its k^2 quotients, all >= 0, sum to 0.  bab = b and the defects are
    tested on the commuting pairs only.  Every product is formed here, in
    int64 whatever the scan's integer type, and reduced by %; only the
    nilpotent mask is the scan's.

    Returns, per index, the indexes of the elements commuting with it (an
    array) and the three index lists of inverse_scan.
    """
    m, n, k = scan.modulus, scan.size, scan.dim
    assert k * k * m * m < 2**53
    stack = scan.stack.astype(np.int64)
    radix = m ** np.arange(k * k - 1, -1, -1, dtype=np.int64)

    def mul(x, y):
        return np.matmul(x, y) % m

    def codes(x):
        return x.reshape(-1, k * k) @ radix

    flat = stack.reshape(n, k * k).astype(np.float64)
    units = np.eye(k * k, dtype=np.int64).reshape(k * k, k, k)
    chunk = max(1, _PAIR_ENTRIES // (n * k * k))
    found = []
    for start in range(0, len(indexes), chunk):
        a = stack[list(indexes[start : start + chunk])]
        maps = mul(a[:, None], units) - mul(units, a[:, None])
        # column j * k^2 + s holds entry s of ab - ba for the j-th a
        cols = maps.reshape(len(a), k * k, k * k).transpose(1, 0, 2).reshape(k * k, -1)
        fractions = (flat @ cols) / m
        fractions -= np.floor(fractions)
        shared = (fractions.reshape(-1, k * k) @ np.ones(k * k) == 0).reshape(n, -1).T
        pairs, commuting = np.nonzero(shared)
        pa, pb = a[pairs], stack[commuting]
        ab = mul(pa, pb)
        keep = (mul(pb, ab) == pb).all(axis=(1, 2))
        which, b, pa, ab = pairs[keep], commuting[keep], pa[keep], ab[keep]
        nilpotent = scan.masks["nilpotent"]
        defects = (
            nilpotent[codes((mul(pa, pa) - ab) % m)],
            nilpotent[codes((pa - ab) % m)],
            nilpotent[codes((pa - mul(pa, ab)) % m)],
        )
        # np.nonzero walks shared row by row, so the pairs of each a, kept
        # or not, are one slice between its bounds
        owners = np.arange(len(a) + 1)
        shared_at, solved_at = np.searchsorted(pairs, owners), np.searchsorted(which, owners)
        for j in range(len(a)):
            mine = slice(solved_at[j], solved_at[j + 1])
            hirano, sdrazin, drazin = (b[mine][flag[mine]].tolist() for flag in defects)
            lists = {"hirano": hirano, "strongly_drazin": sdrazin, "drazin": drazin}
            found.append((commuting[shared_at[j] : shared_at[j + 1]], lists))
    return found


def element_power(a: Element, exponent: int) -> Element:
    """a ** exponent by square-and-multiply on Elements."""
    if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 0:
        raise ValueError("exponent must be a non-negative integer")
    if exponent == 0:
        return a.ring.one()
    result = a
    for bit in bin(exponent)[3:]:
        result = result * result
        if bit == "1":
            result = result * a
    return result


def element_is_nilpotent(x: Element) -> NilpotencyWitness | None:
    """is_nilpotent by Element powers compared with ring.zero()."""
    ring = x.ring
    zero = ring.zero()
    bound = ring._nilpotency_bound
    power = x
    for m in range(1, bound + 1):
        if power == zero:
            return NilpotencyWitness(m)
        if m < bound:
            power = power * x
    return None


def element_inverse_of_unipotent(u: Element) -> Element:
    """inverse_of_unipotent by the alternating series on Elements."""
    one = u.ring.one()
    w = u - one
    witness = element_is_nilpotent(w)
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


def horner_evaluate(cert: PolynomialCertificate) -> Element:
    """PolynomialCertificate.evaluate by Horner's rule on Elements, with the
    unreduced integer coefficients."""
    ring = cert.subject.ring
    acc = ring.zero()
    one = ring.one()
    for c in reversed(cert.coefficients):
        acc = acc * cert.subject + c * one
    return acc


def naive_poly_add(p: Poly, q: Poly) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def naive_poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def newton_lift(x: Element) -> LiftedIdempotent:
    """lift_idempotent by t <- 3t^2 - 2t^3 on Elements, with its certificate
    from naive_poly_add and naive_poly_mul built step by step, and the same
    checks; the witness of x - e is returned with the lift."""
    defect = x - x * x
    witness = element_is_nilpotent(defect)
    if witness is None:
        raise PreconditionError("cannot lift: x - x^2 is not nilpotent")
    cap = (witness.index - 1).bit_length() + 2
    t = x
    poly: Poly = (0, 1)
    steps = 0
    square = t * t
    while square != t:
        if steps >= cap:
            raise VerificationError("idempotent refinement did not converge within its cap")
        t = 3 * square - 2 * (square * t)
        psquare = naive_poly_mul(poly, poly)
        cube = naive_poly_mul(psquare, poly)
        poly = naive_poly_add(poly_scale(psquare, 3), poly_scale(cube, -2))
        steps += 1
        square = t * t
    cert = PolynomialCertificate(poly, x)
    lift_witness = element_is_nilpotent(x - t)
    if horner_evaluate(cert) != t or lift_witness is None:
        raise VerificationError("idempotent lift failed its own certificate checks")
    return LiftedIdempotent(t, cert, lift_witness)


def element_nilpotent_defect(a: Element, b: Element, defect_of):
    """(defect, witness) when ab = ba, bab = b and defect_of(ab) is nilpotent."""
    ab = a * b
    if ab != b * a or b * ab != b:
        return None
    defect = defect_of(ab)
    witness = element_is_nilpotent(defect)
    return None if witness is None else (defect, witness)


def element_check_hirano(a: Element, b: Element) -> HiranoCertificate | None:
    found = element_nilpotent_defect(a, b, lambda ab: a * a - ab)
    return None if found is None else HiranoCertificate(a, b, *found)


def element_check_strongly_drazin(a: Element, b: Element) -> SDrazinCertificate | None:
    found = element_nilpotent_defect(a, b, lambda ab: a - ab)
    return None if found is None else SDrazinCertificate(a, b, *found)


def element_drazin_axioms(a: Element, b: Element):
    return element_nilpotent_defect(a, b, lambda ab: a - a * ab)


def element_has_hirano(a: Element) -> bool:
    return element_is_nilpotent(a - element_power(a, 3)) is not None


def element_has_strongly_drazin(a: Element) -> bool:
    return element_is_nilpotent(a - a * a) is not None


def element_hirano_inverse(a: Element) -> HiranoCertificate | None:
    """_hirano_inverse on Elements: lift a^2 to e, then b = a (1 + w)^-1 e
    with w = a^2 - e, checked by element_check_hirano."""
    try:
        e = newton_lift(a * a).element
    except PreconditionError:
        return None
    w = a * a - e
    one = a.ring.one()
    b = a * (element_inverse_of_unipotent(one + w) * e)
    cert = element_check_hirano(a, b)
    if cert is None:
        raise VerificationError("constructed Hirano inverse failed its equations")
    return cert


def element_hirano_and_strongly_drazin(a: Element):
    hir = element_hirano_inverse(a)
    return hir, None if hir is None else element_check_strongly_drazin(a, hir.b)


class _Cursor:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.text, self.pos)
        self.pos += 1

    def fail(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def unsigned_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", self.text, start)
        digits = self.text[start:self.pos]
        if not digits.isascii():
            at = start + next(i for i, ch in enumerate(digits) if not ch.isascii())
            raise ParseError("expected an ASCII digit", self.text, at)
        try:
            return int(digits)
        except ValueError:  # ASCII digits fail only above the interpreter's limit
            limit = sys.get_int_max_str_digits()
            raise ParseError(
                f"number has {len(digits)} digits, above the limit of {limit}",
                self.text,
                start,
            ) from None

    def signed_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self.unsigned_int()

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.text, self.pos)


def _cursor_scalar_ring(cur: _Cursor) -> RingSpec:
    cur.skip_ws()
    if cur.peek() != "Z":
        raise cur.fail("expected a ring literal starting with 'Z' or 'M'")
    cur.take("Z")
    if cur.peek() == "/":
        cur.take("/")
        at = cur.pos
        n = cur.unsigned_int()
        if n < 2:
            raise ParseError("modulus must be at least 2", cur.text, at)
        return modular(n)
    return Z


def cursor_parse_ring(text: str) -> RingSpec:
    """parse_ring one character at a time, unmemoised."""
    cur = _Cursor(text.replace("\u2212", "-"))
    cur.skip_ws()
    if cur.peek() == "M":
        cur.take("M")
        at = cur.pos
        dim = cur.unsigned_int()
        if dim < 1:
            raise ParseError("matrix dimension must be at least 1", cur.text, at)
        cur.skip_ws()
        cur.take("(")
        base = _cursor_scalar_ring(cur)
        cur.skip_ws()
        cur.take(")")
        ring = matrix(base, dim)
    else:
        ring = _cursor_scalar_ring(cur)
    cur.expect_end()
    return ring


def _bracketed(cur: _Cursor, item) -> list:
    """'[' item (',' item)* ']', whitespace allowed around each item."""
    cur.take("[")
    items = []
    while True:
        cur.skip_ws()
        items.append(item(cur))
        cur.skip_ws()
        if cur.peek() != ",":
            cur.take("]")
            return items
        cur.take(",")


def cursor_parse_element(ring: RingSpec, text: str) -> Element:
    """parse_element one character at a time."""
    cur = _Cursor(text.replace("\u2212", "-"))
    cur.skip_ws()
    if not ring.is_matrix:
        if cur.peek() == "[":
            raise cur.fail(f"{ring} takes an integer literal, not a matrix")
        value = cur.signed_int()
        cur.expect_end()
        return ring.element(value)
    if cur.peek() != "[":
        raise cur.fail(f"{ring} takes a row-major matrix literal like [[0,1],[1,1]]")
    shape_at = cur.pos
    rows = _bracketed(cur, lambda cur: _bracketed(cur, _Cursor.signed_int))
    cur.expect_end()
    k = ring.dim
    if len(rows) != k or any(len(row) != k for row in rows):
        raise ParseError(f"expected a {k}x{k} matrix", cur.text, shape_at)
    return ring.element(rows)


def joined_str(a: Element) -> str:
    """str(a) by nested joins over the payload rows."""
    if a.ring.is_matrix:
        return "[" + ",".join(
            "[" + ",".join(str(v) for v in row) + "]" for row in a.payload
        ) + "]"
    return str(a.payload)


def listed_str(a: Element) -> str:
    """str(a) by the repr of the list of rows, with its spaces stripped."""
    k = a.ring.dim
    if k:
        e = list(a.entries)
        return str([e[i:i + k] for i in range(0, k * k, k)]).replace(" ", "")
    return str(a.entries[0])
