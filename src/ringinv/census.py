"""Whole-ring classification and law verification.

run_census counts nilpotents, idempotents, tripotents, units, and the
three generalized-inverse classes across a finite ring from whole-ring
numpy masks (RingScan.masks: x - x^3 nilpotent for Hirano, x - x^2
nilpotent for strongly Drazin, x^unit_exponent = 1 for units, ...).  Each
checked element's mask verdicts are confirmed by two independent paths:
the per-element predicates and the Hirano lift, as one path (the lift's
inverse also answers the strongly Drazin equations, as in classify), and
the definitional equation scan (RingScan.inverse_scans), whose unique
Drazin inverse d also decides nilpotent, idempotent, tripotent and unit.
The power formula a^(m-1), one stack power per chunk
(RingScan.drazin_codes), is compared with the scan's unique d.  The scan
solves ab = ba by generating the centraliser of a and tests the other
equations on its rows only, so a checked element costs in proportion to
its centraliser, not to the ring.  The checked elements are scanned
SCAN_CHUNK at a time, one batched call per chunk, and each chunk's results
are checked and dropped before the next.  Per chunk, numpy computes the
power formula, the scan, its four verdicts from one stack product a*d
(_scan_verdicts) and reads the masks out as one tuple per element, the class
names read once from RingScan.masks; per element, Python runs the
predicates, the Hirano lift, the lift's indexes and the comparisons.  A
scan that raises (its elimination failed a self-check) fails the census.
Any disagreement is a hard error naming the category and the element; the
check is exhaustive on rings of at most 10**4 elements and covers a seeded
sample of at most 10**4 elements above that.

verify_theorem drives the law registry: each law id names a fixed
checkable statement about one ring, run exhaustively when size**arity
of its widest pass is at most MAX_EXHAUSTIVE_INSTANCES (every law of
arity 1 walks the whole ring, as RING_SIZE_CAP is below that cap) and
on `samples` seeded draws per pass otherwise, with violations surfaced as
structured records.  A pass is (arity, hypothesis, conclusion): the engine
tests the hypothesis once per candidate and checks the candidates that meet
it.  An exhaustive pass enumerates its candidates in lexicographic order,
every tuple unless the hypothesis declares a narrower generator: aba = aca
(laws 4.1 and 5.1) groups the ring by the sandwich axa once per a, and
offers as c only the fibre of aba.  instances still counts every tuple, up
to the stopping one when a run stops at MAX_VIOLATIONS.  A conclusion
returns nothing when the instance holds and raises when it falsifies the
law: VerificationError(detail), or the VerificationError or
PreconditionError of a construction failing its own check or refusing an
instance its law's criterion admitted.  Each is recorded as a violation
with str(err) as its detail, so no conclusion aborts a run; a refused
request raises before any instance.
The laws that read the equation scan (2.2, 3.1 and 3.6, marked scans)
are refused on rings above ORACLE_RING_CAP elements, with the other
refused requests.  They read it through _LawContext, which scans each
index once; laws 2.2 and 3.1 scan every instance, so their instances are
scanned a chunk at a time, in one batched call each.  Laws 4.1 and 4.2
also check the transferred inverse against the scan, on rings up to that
cap only.

_LawContext also decides each element once per verify_theorem call: its
three memos has_hirano, hirano and has_strongly_drazin keep each verdict
and certificate by the element's entries, so exhaustive law 4.1 on Z/27
decides 27 products, not two per triple.  Law 2.4 checks the strongly
Drazin equations on the memo's Hirano inverse of a^2, so it lifts nothing
more; whole-ring facts (the scan's masks) are RingScan's alone.  The
memos die with their call, and each is emptied at LAW_MEMO_CAP entries.
A raise is not remembered.  Only the context decides a criterion: the
existence laws (4.3, 5.1, 5.2) compare its verdicts, and each instance
runs its own construction (cline, commuting_product, the sums, ...) on
the certificates it hands out, with that construction's checks.  Law
3.6, the census and classify keep no memo.

Law 3.6 (every element Hirano iff every element is a tripotent plus a
commuting nilpotent) compares two independent paths: the per-element
criterion has_hirano walked over the ring, and RingScan.split_mask, which
enumerates every pair p + w with p tripotent and w a nilpotent in the
generated centraliser of p.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from functools import cached_property

from ._scan import RingScan, np
from .calculus import (
    cline,
    commuting_product,
    orthogonal_sum,
    power_formula,
    square_zero_sum,
)
from .gen_inverse import (
    _drazin_axioms,
    _hirano_and_strongly_drazin,
    check_strongly_drazin,
    drazin_finite,
    has_hirano,
    has_strongly_drazin,
    hirano,
    hirano_of_hirano,
    sd_difference_decomposition,
    tripotent_decomposition,
)
from .rings import (
    Element,
    InfiniteRingError,
    PreconditionError,
    RingSpec,
    VerificationError,
    is_idempotent,
    is_nilpotent,
    is_tripotent,
    is_unit,
)

EXHAUSTIVE_SCAN_CAP = 10_000
ORACLE_RING_CAP = 65_536
RING_SIZE_CAP = 1_000_000
CROSS_CHECK_SAMPLES = 50
LAW_SAMPLES = 10_000
MAX_VIOLATIONS = 25
MAX_EXHAUSTIVE_INSTANCES = 2_000_000
# elements per batched equation scan: the census cross-check and the
# arity-1 laws hold one chunk's scan results at a time
SCAN_CHUNK = 256
# entries in one verify run's memo of one criterion or construction; a
# full memo is emptied, not grown
LAW_MEMO_CAP = 2 ** 14

_COUNT_KEYS = (
    "total",
    "nilpotent",
    "idempotent",
    "tripotent",
    "unit",
    "drazin",
    "strongly_drazin",
    "hirano",
)


class CensusMismatchError(VerificationError):
    """The census masks, the per-element criteria and the equation scan disagreed."""


@dataclass(frozen=True)
class InclusionWitness:
    element: str
    index: int
    reason: str


@dataclass(frozen=True)
class CrossCheckInfo:
    strategy: str
    seed: int | None
    checked: int


@dataclass(frozen=True)
class CensusReport:
    ring: str
    counts: dict
    witnesses: tuple
    is_strongly_2_nil_clean: bool
    cross_check: CrossCheckInfo

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _scan_verdicts(scan: RingScan, indexes, scanned) -> list[tuple]:
    """Per element, (d = 0, a*d = a, d = a, a*d = 1) for its scanned unique
    Drazin inverse d, from one stack product per batch.  An element without
    a unique d gets a row that _cross_check_element refuses before reading."""
    a = scan.stack[np.asarray(indexes, dtype=np.int64)]
    d = scan.stack[[f["drazin"][0] if len(f["drazin"]) == 1 else 0 for f in scanned]]
    ad = scan._mul(a, d)
    pairs = ((d, 0), (ad, a), (d, a), (ad, np.eye(scan.dim, dtype=np.int64)))
    return list(zip(*((x == y).all(axis=(1, 2)).tolist() for x, y in pairs)))


def _cross_check_element(
    ring: RingSpec, a: Element, found: dict, drazin_code: int,
    classes: tuple, masks: tuple, verdicts: tuple,
) -> None:
    """Confirm element a's mask verdicts (masks, one per class of classes,
    the RingScan.masks order) by its criteria and its equation scan found,
    and check the scan against the constructed inverses.

    The scan's Drazin inverse d is unique; it decides the classes that have
    no inverse system of their own (verdicts, from _scan_verdicts): a is
    nilpotent iff d = 0, idempotent iff a*d = a, tripotent iff d = a, and a
    unit iff a*d = 1.  The Hirano lift decides the Hirano and strongly
    Drazin classes, as in classify; each inverse it constructs must be the
    one member of its scanned set (the inverses are unique) and the Hirano
    one must be d, and drazin_code, the index of the power-formula Drazin
    inverse a^(m-1) (RingScan.drazin_codes), must be d.
    """
    if len(found["drazin"]) != 1:
        raise CensusMismatchError(
            f"equation scan in {ring} found {len(found['drazin'])} Drazin inverses "
            f"of {a}, not exactly one"
        )
    d = found["drazin"][0]
    hir, sd = _hirano_and_strongly_drazin(a)
    criteria = (
        is_nilpotent(a) is not None, is_idempotent(a), is_tripotent(a), is_unit(a),
        sd is not None, hir is not None,
    )
    scanned = (*verdicts, bool(found["strongly_drazin"]), bool(found["hirano"]))
    for category, mask, criterion, brute in zip(classes, masks, criteria, scanned):
        if not mask == criterion == brute:
            raise CensusMismatchError(
                f"three-path mismatch in {ring} at element {a}: {category} mask says "
                f"{mask}, criterion says {criterion}, equation scan says {brute}"
            )
    for name, cert, inverses in (
        ("Hirano", hir, found["hirano"]),
        ("strongly Drazin", sd, found["strongly_drazin"]),
    ):
        if cert is not None and inverses != [ring.index_of(cert.b)]:
            raise CensusMismatchError(
                f"equation scan in {ring} found the {name} inverses {inverses} of {a}, "
                "not exactly the constructed one"
            )
    if hir is not None and found["hirano"] != [d]:
        raise CensusMismatchError(
            f"uniqueness failure in {ring}: the Hirano and Drazin inverses of {a} disagree"
        )
    if drazin_code != d:
        raise CensusMismatchError(
            f"power-formula Drazin inverse of {a} in {ring} differs from the scanned one"
        )


def run_census(
    ring: RingSpec,
    seed: int = 0,
    samples: int = CROSS_CHECK_SAMPLES,
) -> CensusReport:
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    if samples > EXHAUSTIVE_SCAN_CAP:
        raise PreconditionError(
            f"samples must be at most {EXHAUSTIVE_SCAN_CAP}, got {samples}"
        )
    if not ring.is_finite:
        raise InfiniteRingError(f"cannot run a census over {ring}")
    size = ring.size()
    if size > RING_SIZE_CAP:
        raise PreconditionError(
            f"{ring} has {size} elements, above the cap {RING_SIZE_CAP}"
        )
    scan = RingScan(ring)
    masks = scan.masks
    classes = tuple(masks)
    counts = {
        key: size if key in ("total", "drazin") else int(masks[key].sum())
        for key in _COUNT_KEYS
    }
    if size <= EXHAUSTIVE_SCAN_CAP:
        indexes = range(size)
        elements = ring.elements()
        info = CrossCheckInfo(strategy="exhaustive", seed=None, checked=size)
    else:
        rng = random.Random(seed)
        indexes = sorted(rng.sample(range(size), min(samples, size)))
        elements = map(ring.element_at, indexes)
        info = CrossCheckInfo(strategy="sampled", seed=seed, checked=len(indexes))
    for start in range(0, len(indexes), SCAN_CHUNK):
        chunk = indexes[start : start + SCAN_CHUNK]
        drazin = scan.drazin_codes(chunk).tolist()
        rows = zip(*(m[chunk].tolist() for m in masks.values()))
        scanned = scan.inverse_scans(chunk)
        verdicts = _scan_verdicts(scan, chunk, scanned)
        chunk_elements = itertools.islice(elements, len(chunk))
        for a, found, code, mask, verdict in zip(chunk_elements, scanned, drazin, rows, verdicts):
            _cross_check_element(ring, a, found, code, classes, mask, verdict)
    if not counts["strongly_drazin"] <= counts["hirano"] <= counts["drazin"] == size:
        raise VerificationError(f"census hierarchy violated in {ring}: {counts}")
    hir, sd = masks["hirano"], masks["strongly_drazin"]
    witnesses = []
    for gap, reason in (
        (hir & ~sd, "has a Hirano inverse but no strongly Drazin inverse"),
        (~hir, "has a Drazin inverse but no Hirano inverse"),
    ):
        hits = np.flatnonzero(gap)
        if hits.size:
            index = int(hits[0])
            witnesses.append(
                InclusionWitness(
                    element=str(ring.element_at(index)), index=index, reason=reason
                )
            )
    return CensusReport(
        ring=str(ring),
        counts=counts,
        witnesses=tuple(witnesses),
        is_strongly_2_nil_clean=counts["hirano"] == counts["total"],
        cross_check=info,
    )


@dataclass(frozen=True)
class ViolationRecord:
    law: str
    inputs: tuple
    detail: str


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    ring: str
    strategy: str
    seed: int | None
    instances: int
    checked: int
    violations: tuple
    notes: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def _bounded_memo(decide):
    """decide, computed once per element of one ring (kept by its entries)
    until LAW_MEMO_CAP values are kept, when the memo is emptied.  A raise
    leaves nothing behind, so the next call raises too."""
    memo: dict = {}

    def decided(x: Element):
        value = memo.get(x.entries, memo)  # the memo itself marks a miss
        if value is memo:
            value = decide(x)
            if len(memo) >= LAW_MEMO_CAP:
                memo.clear()
            memo[x.entries] = value
        return value

    decided.memo = memo
    return decided


@dataclass
class _LawContext:
    ring: RingSpec
    notes: list = field(default_factory=list)
    _scanned: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.has_hirano = _bounded_memo(has_hirano)
        self.hirano = _bounded_memo(hirano)
        self.has_strongly_drazin = _bounded_memo(has_strongly_drazin)

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    @cached_property
    def scan(self) -> RingScan:
        return RingScan(self.ring)

    @cached_property
    def tripotents(self) -> list[Element]:
        return [p for p in self.ring.elements() if is_tripotent(p)]

    def scanned_hirano(self, index: int) -> list[int]:
        """The Hirano inverses the equation scan finds for one element,
        scanned once per index."""
        if index not in self._scanned:
            self._scanned[index] = self.scan.inverse_scan(index)["hirano"]
        return self._scanned[index]

    def prefetch(self, indexes: list[int]) -> None:
        """Scan a chunk of fresh, distinct indexes in one batch.  A batch that
        raises is dropped: each element is then scanned alone when a law asks
        for it, so the error is recorded against its own instance."""
        try:
            found = self.scan.inverse_scans(indexes)
        except VerificationError:
            return
        self._scanned.update(zip(indexes, (one["hirano"] for one in found)))


def _hirano(ctx: _LawContext, a: Element) -> bool:
    return ctx.has_hirano(a)


def _hirano_or_square_sd(ctx: _LawContext, a: Element) -> bool:
    return ctx.has_hirano(a) or ctx.has_strongly_drazin(a * a)


def _commuting_sd(ctx: _LawContext, b: Element, c: Element) -> bool:
    return b * c == c * b and ctx.has_strongly_drazin(b) and ctx.has_strongly_drazin(c)


def _aba_is_aca(ctx: _LawContext, a: Element, b: Element, c: Element) -> bool:
    return a * b * a == a * c * a


def _sandwich_fibres(elements: list[Element]):
    """(rank, (a, b, c)) for the triples with aba = aca, in lexicographic
    order: for each a, the indexes of x grouped by the sandwich axa, and for
    each b the group of aba as its c."""
    size = len(elements)
    for i, a in enumerate(elements):
        sandwiches = [(a * x * a).entries for x in elements]
        fibres: dict = {}
        for k, s in enumerate(sandwiches):
            fibres.setdefault(s, []).append(k)
        for j, (b, s) in enumerate(zip(elements, sandwiches)):
            rank = (i * size + j) * size
            for k in fibres[s]:
                yield rank + k, (a, b, elements[k])


_aba_is_aca.candidates = _sandwich_fibres


def _commuting_hirano(ctx: _LawContext, a: Element, b: Element) -> bool:
    return a * b == b * a and ctx.has_hirano(a) and ctx.has_hirano(b)


def _orthogonal_hirano(ctx: _LawContext, a: Element, b: Element) -> bool:
    return a * b == ctx.ring.zero() == b * a and ctx.has_hirano(a) and ctx.has_hirano(b)


def _square_zero(ctx: _LawContext, a: Element, b: Element) -> bool:
    return a * a == ctx.ring.zero() == b * b and ctx.has_strongly_drazin(a * b)


def _law_hirano_implies_drazin(ctx: _LawContext, a: Element) -> None:
    if _drazin_axioms(a, ctx.hirano(a).b) is None:
        raise VerificationError("Hirano inverse fails the Drazin equations")


def _law_uniqueness(ctx: _LawContext, a: Element) -> None:
    found = ctx.scanned_hirano(ctx.ring.index_of(a))
    hir = ctx.has_hirano(a)
    if hir != bool(found):
        raise VerificationError(f"criterion says {hir}, equation scan found {len(found)}")
    if len(found) > 1:
        raise VerificationError(
            f"{len(found)} distinct candidates satisfy the Hirano equations"
        )
    if found:
        index = found[0]
        if ctx.ring.index_of(ctx.hirano(a).b) != index:
            raise VerificationError("constructed inverse differs from the scanned one")
        if ctx.ring.index_of(drazin_finite(a).b) != index:
            raise VerificationError(
                "power-formula Drazin inverse differs from the Hirano inverse"
            )


def _law_square_route(ctx: _LawContext, a: Element) -> None:
    a2 = a * a
    hir = ctx.has_hirano(a)
    sd2 = ctx.has_strongly_drazin(a2)
    if hir != sd2:
        raise VerificationError(f"has_hirano(a) = {hir} but has_strongly_drazin(a^2) = {sd2}")
    h = ctx.hirano(a).b
    sd = check_strongly_drazin(a2, ctx.hirano(a2).b)
    if sd is None:
        raise VerificationError("the Hirano inverse of a^2 fails the strongly Drazin equations")
    if sd.b != h * h:
        raise VerificationError(
            "strongly Drazin inverse of a^2 is not the squared Hirano inverse"
        )
    if h != a * sd.b:
        raise VerificationError(
            "a times the strongly Drazin inverse of a^2 is not the Hirano inverse"
        )


def _law_criterion(ctx: _LawContext, a: Element) -> None:
    found = ctx.scanned_hirano(ctx.ring.index_of(a))
    hir = ctx.has_hirano(a)
    if hir != bool(found):
        raise VerificationError(f"criterion says {hir}, equation scan found {len(found)}")
    if found and ctx.ring.index_of(ctx.hirano(a).b) not in found:
        raise VerificationError("constructed inverse not among scanned candidates")


def _law_inverse_of_inverse(ctx: _LawContext, a: Element) -> None:
    hirano_of_hirano(ctx.hirano(a))


def _law_tripotent_split(ctx: _LawContext, a: Element) -> None:
    d = tripotent_decomposition(a)
    if ctx.ring.size() <= 100:
        matches = [
            p for p in ctx.tripotents if is_nilpotent(a - p) is not None and p * a == a * p
        ]
        if d.tripotent not in matches:
            raise VerificationError("constructed tripotent not found by the brute-force search")


def _law_sd_difference_forward(ctx: _LawContext, a: Element) -> None:
    sd_difference_decomposition(a)


def _law_sd_difference_converse(ctx: _LawContext, b: Element, c: Element) -> None:
    d = b - c
    if not ctx.has_hirano(d):
        raise VerificationError(f"b - c = {d} lacks a Hirano inverse")


def _law_all_hirano_ring(ctx: _LawContext) -> None:
    ring = ctx.ring
    all_hirano = all(has_hirano(a) for a in ring.elements())
    unsplit = np.flatnonzero(~ctx.scan.split_mask)
    all_split = unsplit.size == 0
    if all_hirano != all_split:
        who = "" if all_split else (
            f"; first element without a split: {ring.element_at(int(unsplit[0]))}"
        )
        raise VerificationError(
            f"every-element-Hirano is {all_hirano} but "
            f"every-element-splits is {all_split}{who}"
        )


def _law_cline(ctx: _LawContext, a: Element, b: Element, c: Element) -> None:
    ac, ba = a * c, b * a
    left = ctx.has_hirano(ac)
    right = ctx.has_hirano(ba)
    if left != right:
        raise VerificationError(f"existence biconditional fails: ac {left}, ba {right}")
    if not left:
        return
    cert = cline(a, b, c, ctx.hirano(ac))
    if ctx.ring.size() <= ORACLE_RING_CAP:
        found = ctx.scanned_hirano(ctx.ring.index_of(ba))
        if ctx.ring.index_of(cert.b) not in found:
            raise VerificationError("transferred inverse rejected by the equation scan")


def _law_power_transfer(ctx: _LawContext, a: Element, b: Element) -> None:
    """(ab)^k Hirano invertible forces (ba)^k Hirano invertible, k = 1, 2, 3."""
    for k in (1, 2, 3):
        if ctx.has_hirano((a * b) ** k) and not ctx.has_hirano((b * a) ** k):
            raise VerificationError(f"power transfer violated at a = {a!r}, b = {b!r}, k = {k}")


def _law_commuting_product(ctx: _LawContext, a: Element, b: Element) -> None:
    ha, hb = ctx.hirano(a), ctx.hirano(b)
    commuting_product(ha, hb)
    if ha.b * hb.b != hb.b * ha.b:
        raise VerificationError("the two inverses do not commute")


def _law_power_formula(ctx: _LawContext, a: Element) -> None:
    for n in (1, 2, 3, 4):
        power_formula(ctx.hirano(a), n)


def _law_jacobson(ctx: _LawContext, a: Element, b: Element, c: Element) -> None:
    """1 + ac and 1 + ba are Hirano invertible together."""
    one = ctx.ring.one()
    if ctx.has_hirano(one + a * c) != ctx.has_hirano(one + b * a):
        raise VerificationError(
            f"Jacobson biconditional violated at a = {a!r}, b = {b!r}, c = {c!r}"
        )


def _law_orthogonal_sum(ctx: _LawContext, a: Element, b: Element) -> None:
    orthogonal_sum(ctx.hirano(a), ctx.hirano(b))


def _law_square_zero_sum(ctx: _LawContext, a: Element, b: Element) -> None:
    ab, ba = a * b, b * a
    if not ctx.has_hirano(ba):
        raise VerificationError(f"ba = {ba!r} is not Hirano invertible; instance falsified")
    result = square_zero_sum(a, b, ctx.hirano(ab), ctx.hirano(ba))
    if not result.statement_valid:
        raise VerificationError("statement form fails the Hirano equations")
    if not result.proof_valid:
        ctx.note(f"proof form fails at a = {a}, b = {b}")
    elif not result.forms_agree:
        ctx.note(f"statement and proof forms differ at a = {a}, b = {b}")


@dataclass(frozen=True)
class _Law:
    law_id: str
    # of (arity, hypothesis or None, conclusion returning None or raising);
    # an exhaustive pass walks the (rank, instance) pairs of the hypothesis's
    # `candidates(elements)` when it declares them, every tuple otherwise
    passes: tuple
    # reads the equation scan: refused above ORACLE_RING_CAP, and an arity-1
    # pass has its instances scanned a chunk at a time
    scans: bool = False


LAWS: dict[str, _Law] = {
    law.law_id: law
    for law in (
        _Law("2.1", ((1, _hirano, _law_hirano_implies_drazin),)),
        _Law("2.2", ((1, None, _law_uniqueness),), scans=True),
        _Law("2.4", ((1, _hirano_or_square_sd, _law_square_route),)),
        _Law("3.1", ((1, None, _law_criterion),), scans=True),
        _Law("3.2", ((1, _hirano, _law_inverse_of_inverse),)),
        _Law("3.3", ((1, _hirano, _law_tripotent_split),)),
        _Law(
            "3.4",
            (
                (1, _hirano, _law_sd_difference_forward),
                (2, _commuting_sd, _law_sd_difference_converse),
            ),
        ),
        _Law("3.6", ((0, None, _law_all_hirano_ring),), scans=True),
        _Law("4.1", ((3, _aba_is_aca, _law_cline),)),
        _Law("4.2", ((2, None, lambda ctx, a, b: _law_cline(ctx, a, b, b)),)),
        _Law("4.3", ((2, None, _law_power_transfer),)),
        _Law("4.4", ((2, _commuting_hirano, _law_commuting_product),)),
        _Law("4.5", ((1, _hirano, _law_power_formula),)),
        _Law("5.1", ((3, _aba_is_aca, _law_jacobson),)),
        _Law("5.2", ((2, None, lambda ctx, a, b: _law_jacobson(ctx, a, b, b)),)),
        _Law("5.4", ((2, _orthogonal_hirano, _law_orthogonal_sum),)),
        _Law("5.5", ((2, _square_zero, _law_square_zero_sum),)),
    )
}


def _exhaustive(ring: RingSpec, arity: int, hypothesis):
    """The candidate instances of one exhaustive pass, as (rank, instance)
    in lexicographic order, rank being the instance's position among all
    size**arity tuples.  A hypothesis's candidates may include tuples that
    miss it, never leave out one that meets it."""
    if arity == 1:
        # streamed: a list would hold the whole ring before the first instance
        return enumerate((a,) for a in ring.elements())
    elements = list(ring.elements()) if arity else []  # arity 0: the one tuple ()
    narrowed = getattr(hypothesis, "candidates", None)
    if narrowed:
        return narrowed(elements)
    return enumerate(itertools.product(elements, repeat=arity))


def _prefetching(ctx: _LawContext, space):
    """The (rank, instance) pairs of space, each chunk scanned in one batch
    first by rank: an arity-1 pass is always exhaustive, so rank is index."""
    space = iter(space)
    while chunk := list(itertools.islice(space, SCAN_CHUNK)):
        ctx.prefetch([rank for rank, _ in chunk])
        yield from chunk


def verify_theorem(
    theorem_id: str,
    ring: RingSpec,
    seed: int = 0,
    samples: int = LAW_SAMPLES,
) -> TheoremReport:
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    if samples > MAX_EXHAUSTIVE_INSTANCES:
        raise PreconditionError(
            f"samples must be at most {MAX_EXHAUSTIVE_INSTANCES}, got {samples}"
        )
    law = LAWS.get(theorem_id)
    if law is None:
        known = ", ".join(sorted(LAWS))
        raise PreconditionError(f"unknown law id {theorem_id!r}; known ids: {known}")
    if not ring.is_finite:
        raise InfiniteRingError(f"law verification needs a finite ring, not {ring}")
    size = ring.size()
    if size > RING_SIZE_CAP:
        raise PreconditionError(
            f"{ring} has {size} elements, above the cap {RING_SIZE_CAP}"
        )
    if law.scans and size > ORACLE_RING_CAP:
        raise PreconditionError(
            f"{ring} is too large for the whole-ring law (cap {ORACLE_RING_CAP})"
        )
    max_arity = max(arity for arity, *_ in law.passes)
    strategy = "exhaustive" if size ** max_arity <= MAX_EXHAUSTIVE_INSTANCES else "sampled"
    ctx = _LawContext(ring)
    violations: list[ViolationRecord] = []
    instances = 0
    checked = 0
    for pass_number, (arity, hypothesis, conclusion) in enumerate(law.passes):
        if strategy == "exhaustive":
            total = size ** arity
            space = _exhaustive(ring, arity, hypothesis)
        else:
            total = samples
            rng = random.Random(seed + pass_number)
            space = enumerate(
                tuple(ring.element_at(rng.randrange(size)) for _ in range(arity))
                for _ in range(samples)
            )
        if law.scans and arity == 1:
            space = _prefetching(ctx, space)
        for rank, elems in space:
            if hypothesis is not None and not hypothesis(ctx, *elems):
                continue
            checked += 1
            try:
                conclusion(ctx, *elems)
            except (PreconditionError, VerificationError) as err:
                inputs = tuple(str(e) for e in elems)
                record = ViolationRecord(law=theorem_id, inputs=inputs, detail=str(err))
                violations.append(record)
                if len(violations) >= MAX_VIOLATIONS:
                    ctx.note(f"stopped after {MAX_VIOLATIONS} violations")
                    total = rank + 1
                    break
        instances += total
        if len(violations) >= MAX_VIOLATIONS:
            break
    return TheoremReport(
        theorem=theorem_id,
        ring=str(ring),
        strategy=strategy,
        seed=seed if strategy == "sampled" else None,
        instances=instances,
        checked=checked,
        violations=tuple(violations),
        notes=tuple(ctx.notes),
    )
