"""Vectorized scans: census masks over the whole ring, power-formula Drazin
inverses, and the equation scan.

All work on numpy stacks of ring elements and share no code with the
per-element criteria in rings and gen_inverse.  A RingScan keeps two
whole-ring tables, each built once, on first read: masks evaluates the
criteria (x^B = 0, x^unit_exponent = 1, x - x^3 nilpotent, ...) for every
element at once, from powers of the whole stack, and split_mask marks every
tripotent plus a nilpotent of its centraliser.  drazin_codes gives the
indexes of the power-formula Drazin inverses x^(D-1) of a batch of
elements, D the ring's exponent of drazin_finite, from one stack power.
inverse_scans solves the three defining equation systems, and nothing else,
for a batch of elements: it generates the centraliser of each a (the
solutions of ab = ba, usually a small fraction of the ring) and tests
bab = b on those rows only, in row blocks of at most _BLOCK matrix entries,
each the rows of one or more centralisers beside their a; whole-ring
centralisers (every a of Z/n, and the scalars) are broadcast views of the
stack.  The rows that pass are gathered over the call and tested for the
three nilpotent defects once per _BLOCK // d^2 of them.  Each stage runs
once per batch: one elimination over the stacked commutator matrices, one
product per group of centralisers with the same generator orders.  The
products ab that a generated centraliser's self-check ab = ba forms are
the ones bab = b is then tested with.

Over a composite m, Mk(Z/m) is the product of the Mk(Z/q), q the prime
powers of m, and each criterion and defining equation holds iff it holds in
every component.  So a composite scan keeps the scan of each (much smaller)
Mk(Z/q) and answers from them: each mask of either table is the AND of the
components' same mask, read at every element's component code
(_from_components), and an inverse set is the product of the components'
sets, each tuple (b_q) lifted to sum e_q b_q mod m, e_q the CRT idempotent
of q.  Only drazin_codes works at the full modulus.

Entries are integers below m, and a product is reduced mod m before it is
used again, except that bab = b multiplies b by the unreduced ab and
reduces once; check_scan_fits refuses a ring where that product could
overflow int64, so results are exact.  Every reduction by a scalar modulus
goes through _reduce, which computes x - (x // m) * m in place, about half
the cost of x % m: numpy divides by a scalar faster than it takes a remainder.
"""

from __future__ import annotations

import itertools
import math
import types
from functools import cached_property

from .rings import InfiniteRingError, PreconditionError, RingSpec, VerificationError
from .rings import factorize, nilpotency_bound, unit_exponent


class _LazyNumpy(types.ModuleType):
    """numpy, imported at the first attribute read (the first scan), each
    attribute then kept here.  The import lock makes a first read from two
    threads wait for one import; importlib.util.LazyLoader lets the second
    see the half-run module before Python 3.12.3."""

    def __getattr__(self, name: str):
        import numpy

        setattr(self, name, getattr(numpy, name))
        return getattr(self, name)


np = _LazyNumpy("numpy")

# matrix entries per batch of scan work: elimination, enumeration, row tests
_BLOCK = 1 << 14
_INT64_MAX = 2**63 - 1
SCAN_MEMORY_BUDGET = 256 * 2**20
# Whole-ring int64 arrays budgeted while the census masks are built: the
# stack, x^2, x^3, x - x^2, power operands and matmul temporaries.
_WORKING_COPIES = 8
# entries up to which _reduce takes x % m: there one % call costs less than
# the slices (numpy 2.4: 1.5 against 4.5 us at 64 entries, even near 2 048)
_REMAINDER_MAX = 1 << 11


def _reduce(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m, in place, for an int64 array x; returns x.

    Computes x - (x // m) * m, floor division as x % m, on slices of at most
    _BLOCK entries, their quotients in one buffer of a slice.  An array of
    at most _REMAINDER_MAX entries, or one that is not C-contiguous (no flat
    view), takes x % m in place instead.
    """
    if x.size <= _REMAINDER_MAX or not x.flags.c_contiguous:
        return np.remainder(x, m, out=x)
    flat = x.reshape(-1)
    buffer = np.empty(min(flat.size, _BLOCK), dtype=np.int64)
    for lo in range(0, flat.size, _BLOCK):
        part = flat[lo : lo + _BLOCK]
        quotient = np.floor_divide(part, m, out=buffer[: part.size])
        part -= np.multiply(quotient, m, out=quotient)
    return x


def _inverse_table(q: int) -> np.ndarray:
    """inverse[x] = x^-1 mod q for every unit x mod q, and 0 elsewhere."""
    return np.array(
        [pow(x, -1, q) if math.gcd(x, q) == 1 else 0 for x in range(q)], dtype=np.int64
    )


def _kernels_mod(
    mats: np.ndarray, q: int, inverse: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Generators (as rows) and their orders of the kernels of a stack of
    square integer matrices mod a prime power q: shapes (B, k, k) and (B, k).

    Diagonalizes each matrix by unimodular operations mod q, keeping the
    column transform V.  Each pivot is the first entry of least p-adic
    valuation in the remaining block, so its gcd g with q divides every
    entry there: column operations clear its row, and row operations, which
    leave the kernel alone, clear its column.  The pivot is then recorded
    and zeroed, so a finished row or column reads as zeros (gcd q) to the
    pivot search.  With y = V^-1 x the system becomes pivot * y_c = 0 for
    each pivot column c, so V[:, c] * (q / g) generates a cyclic summand of
    order g, and a column without a pivot generates one of order q.  The
    matrices step together: one with no pivot left is zero, so its
    coefficient row is zero and the step leaves it as it is.  inverse[x] is
    the inverse of x mod q for every unit x.
    """
    n, k = mats.shape[:2]
    items = np.arange(n)
    gcds = np.gcd(np.arange(q), q)
    mats = _reduce(mats.copy(), q)
    v = np.zeros((n, k, k), dtype=np.int64)
    v[:, range(k), range(k)] = 1
    orders = np.full((n, k), q, dtype=np.int64)
    while True:
        g = gcds[mats].reshape(n, k * k)
        pivot = g.argmin(axis=1)
        gcd = g[items, pivot]
        if gcd.min() == q:
            break
        r, c = np.divmod(pivot, k)
        row = mats[items, r]
        coef = row // gcd[:, None] * inverse[row[items, c] // gcd, None] % (q // gcd)[:, None]
        coef[items, c] = 0
        mats -= mats[items, :, c, None] * coef[:, None]
        _reduce(mats, q)
        mats[items, :, c] = 0
        v -= v[items, :, c, None] * coef[:, None]
        _reduce(v, q)
        # a live pivot's column still has order q; a finished matrix keeps its own
        orders[items, c] = np.minimum(orders[items, c], gcd)
    return _reduce(v * (q // orders)[:, None], q).transpose(0, 2, 1), orders


def check_scan_fits(ring: RingSpec) -> None:
    """Refuse, before allocating, a ring whose stack overflows int64 or memory.

    The widest product is b(ab) with ab unreduced: d products of an entry
    below m and one below d*(m-1)^2, so d^2*(m-1)^3 must fit in int64; the
    stack and its working copies hold size*d*d int64 entries each and must
    fit in SCAN_MEMORY_BUDGET bytes.  The message names each limit exceeded.
    """
    if not ring.is_finite:
        raise InfiniteRingError(f"cannot scan {ring}")
    d, m = max(1, ring.dim), ring.modulus
    reasons = []
    if d * d * (m - 1) ** 3 > _INT64_MAX:
        reasons.append("its products b(ab), up to d^2 (m-1)^3, overflow int64")
    need = _WORKING_COPIES * ring.size() * d * d * 8
    if need > SCAN_MEMORY_BUDGET:
        reasons.append(
            f"about {need >> 20} MiB of working arrays, above the budget of "
            f"{SCAN_MEMORY_BUDGET >> 20} MiB"
        )
    if reasons:
        raise PreconditionError(f"{ring} is too large for the scan: " + "; ".join(reasons))


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
        d, m = max(1, ring.dim), ring.modulus
        self.dim, self.modulus = d, m
        k = d * d
        entries = np.empty((self.size, k), dtype=np.int64)
        rest = np.arange(self.size, dtype=np.int64)
        for pos in range(k - 1, -1, -1):  # one division per digit, the digit as scratch
            digit, quotient = entries[:, pos], rest // m
            np.multiply(quotient, m, out=digit)
            np.subtract(rest, digit, out=digit)
            rest = quotient
        self.stack = entries.reshape(self.size, d, d)
        self._radix = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
        self._bound = nilpotency_bound(ring)
        self._unit_exponent = unit_exponent(ring)
        self._drazin_exponent = ring._drazin_exponent
        # the d^2 x d^2 matrix a (x) I - I (x) a^T of x -> ax - xa on
        # row-major entries is linear in a: _commutator @ a.ravel()
        eye = np.eye(d, dtype=np.int64)
        units = np.eye(k, dtype=np.int64).reshape(k, d, d)
        self._commutator = np.stack(
            [np.kron(u, eye) - np.kron(eye, u.T) for u in units], axis=-1
        ).reshape(k * k, k)
        factors = [p**e for p, e in factorize(m).pairs]
        # (scan of Mk(Z/q), e = 1 mod q and 0 mod m/q) per prime power q of a composite m
        self._parts = [
            (RingScan(RingSpec(q, ring.dim)), m // q * pow(m // q, -1, q) % m) for q in factors
        ] if len(factors) > 1 else []

    def _product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x times y, pair by pair of matrices, not reduced mod m."""
        return x * y if self.dim == 1 else np.matmul(x, y)

    def _mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _reduce(self._product(x, y), self.modulus)

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
        """The index of each matrix of stack: over Z/n the entry itself, as a
        view of stack that callers only read."""
        if self._radix.size == 1:
            return stack.reshape(-1)
        return stack.reshape(-1, self._radix.size) @ self._radix

    def drazin_codes(self, indexes) -> np.ndarray:
        """Indexes of x^(D-1), the power-formula Drazin inverses of the
        elements at indexes, from one stack power; D >= 2 is
        RingSpec._drazin_exponent."""
        x = self.stack[np.asarray(indexes, dtype=np.int64)]
        return self.codes(self._power(x, self._drazin_exponent - 1))

    @cached_property
    def masks(self) -> dict[str, np.ndarray]:
        """Boolean masks over indexes for the six criterion-defined census
        classes, from powers of the stack mod m, or from the components
        when m is composite.

        A unit's order divides unit_exponent, so x is a unit iff
        x^unit_exponent = 1.  The strongly Drazin and Hirano masks look
        x - x^2 and x - x^3 up in the nilpotent mask; x^2 and x^3 come last,
        so that no power's operands are alive beside them.
        """
        if self._parts:
            masks = self._from_components(lambda part: part.masks.values())
            return dict(zip(self._parts[0][0].masks, masks))
        m, x = self.modulus, self.stack
        nilpotent = ~self._power(x, self._bound).any(axis=(1, 2))
        identity = np.eye(self.dim, dtype=np.int64)
        unit = (self._power(x, self._unit_exponent) == identity).all(axis=(1, 2))
        x2 = self._mul(x, x)
        x3 = self._mul(x2, x)
        return {
            "nilpotent": nilpotent,
            "idempotent": (x2 == x).all(axis=(1, 2)),
            "tripotent": (x3 == x).all(axis=(1, 2)),
            "unit": unit,
            "strongly_drazin": nilpotent[self.codes(_reduce(x - x2, m))],
            "hirano": nilpotent[self.codes(_reduce(x - x3, m))],
        }

    def _from_components(self, table) -> list[np.ndarray]:
        """The masks of the list table(part) of each component scan, each
        ANDed over the components as read at every element's component code
        (stack mod q): by CRT each class holds iff it holds in each."""
        out = None
        for part, _ in self._parts:
            codes = part.codes(_reduce(self.stack.copy(), part.modulus))
            got = [mask[codes] for mask in table(part)]
            out = got if out is None else [np.logical_and(x, y, out=x) for x, y in zip(out, got)]
            del codes, got  # one component's codes alive at a time
        return out

    def _check_commuting(self, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """a[i] times each row of rows[i], mod m; raises unless every row of
        rows[i] commutes with a[i]."""
        a = a[:, None]
        ab = self._mul(a, rows)
        bad = ~(ab == self._mul(rows, a)).all(axis=(1, 2, 3))
        if bad.any():
            raise VerificationError(
                f"generated centraliser of {a[bad.argmax(), 0].tolist()} holds a "
                "non-commuting element"
            )
        return ab

    def _centralisers(self, a: np.ndarray):
        """Yield the centralisers of a stack a of matrices as (members, rows,
        codes, ab).

        _kernels_mod solves ax - xa = 0 mod m, a prime power, for a chunk of
        a at once.  members are positions in a.  rows is None when each
        member's centraliser is the whole ring (every a of Z/n, which is
        commutative, and every a whose generators all have full order, a
        scalar); else rows[i] holds the centraliser of a[members[i]] in
        index order, with codes[i] its indexes and ab[i] the products of
        a[members[i]] with them, mod m, which the commuting self-check
        computes (ab is None with rows).  The kernel is the direct
        sum of the cyclic groups of the generators, so one product of the
        mixed-radix coefficient grid with the generators enumerates it, each
        element once.  Generators are sorted by descending order, and the
        centralisers whose orders agree are enumerated by one batched
        product, at most _BLOCK matrix entries at a time unless one
        centraliser is larger.  Raises VerificationError unless every
        generator (for the whole ring) or every generated row commutes with
        its a and, per a, the codes are distinct.
        """
        n, d, m = len(a), self.dim, self.modulus
        if d == 1:
            yield np.arange(n), None, None, None
            return
        k = d * d
        step = max(1, _BLOCK // (k * k))
        inverse = _inverse_table(m)
        for start in range(0, n, step):
            part = a[start : start + step]
            commutators = (part.reshape(-1, k) @ self._commutator.T).reshape(-1, k, k)
            gens, orders = _kernels_mod(commutators, m, inverse)
            by_order = np.argsort(-orders, axis=1, kind="stable")
            items = np.arange(len(part))[:, None]
            orders, gens = orders[items, by_order], gens[items, by_order]
            groups: dict[tuple, list[int]] = {}
            for i, shape in enumerate(map(tuple, orders.tolist())):
                groups.setdefault(shape, []).append(i)
            for shape, members in groups.items():
                members = np.array(members)
                kept = [o for o in shape if o > 1]
                g = gens[members, : len(kept)]
                if math.prod(kept) == self.size:
                    self._check_commuting(part[members], g.reshape(len(members), -1, d, d))
                    yield start + members, None, None, None
                    continue
                digits = np.indices(kept).reshape(len(kept), -1).T
                per = max(1, _BLOCK // (len(digits) * k))
                for lo in range(0, len(members), per):
                    sub = members[lo : lo + per]
                    flat = _reduce(np.matmul(digits, g[lo : lo + per]), m)
                    codes = flat @ self._radix
                    order = (np.arange(len(sub))[:, None], np.argsort(codes, axis=1))
                    flat, codes = flat[order], codes[order]
                    repeats = (codes[:, 1:] == codes[:, :-1]).any(axis=1)
                    if repeats.any():
                        raise VerificationError(
                            f"generated centraliser of {part[sub[repeats.argmax()]].tolist()} "
                            "repeats an element"
                        )
                    rows = flat.reshape(len(sub), -1, d, d)
                    yield start + sub, rows, codes, self._check_commuting(part[sub], rows)

    @cached_property
    def split_mask(self) -> np.ndarray:
        """Boolean mask over indexes: a = p + w, p tripotent, w nilpotent
        with pw = wp (equivalently ap = pa).  The w are the nilpotent rows
        of the centraliser of p, per component of a composite m."""
        if self._parts:
            return self._from_components(lambda part: [part.split_mask])[0]
        m = self.modulus
        nilpotent = self.masks["nilpotent"]
        split = np.zeros(self.size, dtype=bool)
        p = self.stack[self.masks["tripotent"]]
        nilpotents = self.stack[nilpotent]
        for members, rows, codes, _ in self._centralisers(p):
            if rows is None:
                for i in members:
                    split[self.codes(_reduce(p[i] + nilpotents, m))] = True
            else:
                sums = _reduce(p[members, None] + rows, m)
                split[self.codes(sums[nilpotent[codes]])] = True
        return split

    def inverse_scans(self, indexes) -> list[dict]:
        """Candidate inverses of a batch of elements: the three defining
        equation systems.

        ab = ba is solved by generating the centraliser of each a
        (_centralisers); bab = b is tested on the rows of all the
        centralisers, block by block (_row_blocks, _solve_rows), and the
        respective nilpotent defects on the rows that solve it, gathered
        over the call and tested at most _BLOCK // d^2 at a time
        (_test_defects).  Over a composite m the components scan instead
        (_lift_scans).  Returns, per index in order, ascending index lists
        for the Hirano, strongly Drazin and Drazin systems.
        """
        a = self.stack[np.asarray(indexes, dtype=np.int64)]
        found = [{"hirano": [], "strongly_drazin": [], "drazin": []} for _ in a]
        if self._parts:
            self._lift_scans(a, found)
            return found
        limit = max(1, _BLOCK // self.dim**2)
        solved: list[tuple] = []
        held = 0
        for block in self._row_blocks(a):
            passed = self._solve_rows(a, *block)
            if solved and held + len(passed[0]) > limit:
                self._test_defects(a, solved, found)
                solved, held = [], 0
            solved.append(passed)
            held += len(passed[0])
        if solved:
            self._test_defects(a, solved, found)
        return found

    def _lift_scans(self, a: np.ndarray, found: list[dict]) -> None:
        """Append to found, per system, the product of the components' sets
        of each a: every tuple (b_q) of the component indexes, lifted to sum
        e_q b_q mod m in one step for the batch, and sorted per a."""
        scans = [
            part.inverse_scans(part.codes(_reduce(a.copy(), part.modulus)))
            for part, _ in self._parts
        ]
        for key in ("hirano", "strongly_drazin", "drazin"):
            rows = [
                (owner, *b)
                for owner, sets in enumerate(zip(*([one[key] for one in scan] for scan in scans)))
                for b in itertools.product(*sets)
            ]
            owners, *picks = np.array(rows, dtype=np.int64).reshape(-1, len(scans) + 1).T
            lifted = sum(e * part.stack[b] for (part, e), b in zip(self._parts, picks))
            codes = self.codes(_reduce(lifted, self.modulus))
            for owner, code in sorted(zip(owners.tolist(), codes.tolist())):
                found[owner][key].append(code)

    def _row_blocks(self, a: np.ndarray):
        """Yield the centralisers of the stack a as row blocks (members, rows,
        codes, ab) of at most _BLOCK // d^2 rows: rows[i], shape (c, d, d),
        and codes[i] are rows of the centraliser of a[members[i]] and their
        indexes, the whole centraliser unless it is larger than a block, and
        ab[i] their products with a[members[i]], or None for a whole-ring
        centraliser.  Whole-ring centralisers are broadcast views of the
        stack, as many per block as fit, so the stack is never copied per a."""
        d, n = self.dim, self.size
        limit = max(1, _BLOCK // (d * d))
        for members, rows, codes, ab in self._centralisers(a):
            if rows is None:
                shape = (len(members), n)
                rows = np.broadcast_to(self.stack, shape + (d, d))
                codes = np.broadcast_to(np.arange(n), shape)
            count = codes.shape[1]
            per = max(1, limit // count)  # centralisers per block
            for i in range(0, len(members), per):
                for lo in range(0, count, limit):
                    cut = (slice(i, i + per), slice(lo, lo + limit))
                    yield members[cut[0]], rows[cut], codes[cut], None if ab is None else ab[cut]

    def _solve_rows(self, a, members, rows, codes, ab) -> tuple:
        """bab = b on one row block, each a broadcast over its own rows, with
        ab the block's products (formed here, unreduced, when None): the
        owners (positions in a), indexes and products ab of the rows that
        solve it."""
        if ab is None:
            ab = self._product(a[members, None], rows)
        passing = np.flatnonzero((self._mul(rows, ab) == rows).all(axis=(2, 3)))
        i, j = np.divmod(passing, codes.shape[1])  # np.nonzero is slow on 2-D masks
        return members[i], codes[i, j], ab[i, j]

    def _test_defects(self, a: np.ndarray, solved: list[tuple], found: list[dict]) -> None:
        """Test the three nilpotent defects on the (owners, codes, ab) parts
        of rows that solve bab = b, appending the index of each solution b
        to the lists of its a; each row's a is gathered by owner here, for
        these rows only."""
        m = self.modulus
        owners, codes, ab = (np.concatenate(column) for column in zip(*solved))
        if not owners.size:
            return
        own = a[owners]
        _reduce(ab, m)
        defects = (
            ("hirano", self._mul(own, own) - ab),
            ("strongly_drazin", own - ab),
            ("drazin", own - self._mul(own, ab)),
        )
        nilpotent = self.masks["nilpotent"]
        for key, defect in defects:
            hits = nilpotent[self.codes(_reduce(defect, m))]
            for owner, code in zip(owners[hits].tolist(), codes[hits].tolist()):
                found[owner][key].append(code)

    def inverse_scan(self, index: int) -> dict:
        """Candidate inverses of one element: inverse_scans of a batch of one."""
        return self.inverse_scans([index])[0]
