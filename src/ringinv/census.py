"""Whole-ring classification and law verification.

run_census counts nilpotents, idempotents, tripotents, units, and the
three generalized-inverse classes across a finite ring from whole-ring
numpy masks (RingScan.census_masks: x - x^3 nilpotent for Hirano, x - x^2
nilpotent for strongly Drazin, x^unit_exponent = 1 for units, ...).  Each
checked element's mask verdicts are confirmed by two independent paths:
classify with the per-element criteria, and the definitional equation
scan (RingScan.inverse_scans), whose unique Drazin inverse also decides
nilpotent, idempotent, tripotent and unit.  The scan solves ab = ba by
generating the centraliser of a and tests the other equations on its
rows only, so a checked element costs in proportion to its centraliser,
not to the ring.  The checked elements are scanned SCAN_CHUNK at a time,
one batched call per chunk, and each chunk's results are checked and
dropped before the next; a chunk whose scan raises is scanned again one
element at a time, so the first element in index order to fail any check
fails the census.  Any disagreement is a hard error naming the category
and the element; the check is exhaustive on rings of at most 10**4
elements and covers a seeded sample above that.

verify_theorem drives the law registry: each law id names a fixed
checkable statement about one ring, run either exhaustively over the
instance space or on seeded samples, with violations surfaced as
structured records.  A pass is (arity, hypothesis, conclusion): the engine
tests the hypothesis once per instance and checks the instances that meet
it.  A conclusion returns True when it verified and a detail string when
the instance falsifies the law; a VerificationError it raises (a
construction failing its own check) is recorded as a violation too.
The laws that consult the equation scan read it through _LawContext,
which scans each index once; laws 2.2 and 3.1 scan every instance, so
their instances are scanned a chunk at a time, in one batched call each.

_LawContext also decides each element once per verify_theorem call: the
laws ask it for has_hirano, hirano, has_strongly_drazin and strongly_drazin,
and it keeps each verdict and certificate by the element's entries, so
exhaustive law 4.1 on Z/27 decides 27 products, not two per triple.  Its
strongly_drazin checks the Hirano inverse of its own memo, as
gen_inverse.strongly_drazin checks a fresh one, so it lifts nothing.  The
memos die with their call, and each is emptied at LAW_MEMO_CAP entries.
A raise is not remembered.  Only the context decides a criterion: the
existence laws (4.3, 5.1, 5.2) compare its verdicts, and each instance
runs its own construction (cline, commuting_product, the sums, ...) on
the certificates it hands out, with that construction's checks.  Law
3.6, the census and classify keep no memo.

Law 3.6 (every element Hirano iff every element is a tripotent plus a
commuting nilpotent) compares two independent paths: the per-element
criterion has_hirano walked over the ring, and the split mask
RingScan.tripotent_split_mask, which enumerates every pair p + w with p
tripotent and w a nilpotent in the generated centraliser of p.  It needs
the scan and so refuses rings above ORACLE_RING_CAP elements.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass, field

import numpy as np

from ._scan import RingScan
from .calculus import (
    cline,
    commuting_product,
    orthogonal_sum,
    power_formula,
    square_zero_sum,
)
from .gen_inverse import (
    SDrazinCertificate,
    _drazin_axioms,
    _strongly_drazin_of,
    classify,
    drazin_finite,
    has_hirano,
    has_strongly_drazin,
    hirano,
    hirano_of_hirano,
    inverse_of_two,
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


def _cross_check_element(ring: RingSpec, masks: dict, index: int, found: dict) -> None:
    """Confirm one element's mask verdicts by its criteria, classify and its
    equation scan found.

    The scan's Drazin inverse d is unique; it decides the classes that have
    no inverse system of their own: a is nilpotent iff d = 0, tripotent iff
    d = a, idempotent iff a*d = a, and a unit iff a*d = 1.
    """
    a = ring.element_at(index)
    if len(found["drazin"]) != 1:
        raise CensusMismatchError(
            f"equation scan in {ring} found {len(found['drazin'])} Drazin inverses "
            f"of {a}, not exactly one"
        )
    d = ring.element_at(found["drazin"][0])
    report = classify(a)
    paths = {
        "nilpotent": (is_nilpotent(a) is not None, d == ring.zero()),
        "idempotent": (is_idempotent(a), a * d == a),
        "tripotent": (is_tripotent(a), d == a),
        "unit": (is_unit(a), a * d == ring.one()),
        "strongly_drazin": (report.has_strongly_drazin, bool(found["strongly_drazin"])),
        "hirano": (report.has_hirano, bool(found["hirano"])),
    }
    for category, (criterion, brute) in paths.items():
        mask = bool(masks[category][index])
        if not mask == criterion == brute:
            raise CensusMismatchError(
                f"three-path mismatch in {ring} at element {a}: {category} mask says "
                f"{mask}, criterion says {criterion}, equation scan says {brute}"
            )
    for name, cert, scanned in (
        ("Hirano", report.hirano, found["hirano"]),
        ("strongly Drazin", report.strongly_drazin, found["strongly_drazin"]),
    ):
        if cert is not None and ring.index_of(cert.b) not in scanned:
            raise CensusMismatchError(
                f"constructed {name} inverse of {a} in {ring} is not in the scanned set"
            )
    if report.drazin.b != d:
        raise CensusMismatchError(
            f"power-formula Drazin inverse of {a} in {ring} differs from the scanned one"
        )


def run_census(
    ring: RingSpec,
    max_ring_size: int = RING_SIZE_CAP,
    seed: int = 0,
    samples: int = CROSS_CHECK_SAMPLES,
) -> CensusReport:
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    if not ring.is_finite:
        raise InfiniteRingError(f"cannot run a census over {ring}")
    size = ring.size()
    if size > max_ring_size:
        raise PreconditionError(
            f"{ring} has {size} elements, above the cap {max_ring_size}"
        )
    scan = RingScan(ring)
    masks = scan.census_masks()
    counts = {
        key: size if key in ("total", "drazin") else int(masks[key].sum())
        for key in _COUNT_KEYS
    }
    if size <= EXHAUSTIVE_SCAN_CAP:
        indexes = range(size)
        info = CrossCheckInfo(strategy="exhaustive", seed=None, checked=size)
    else:
        rng = random.Random(seed)
        indexes = sorted(rng.sample(range(size), min(samples, size)))
        info = CrossCheckInfo(strategy="sampled", seed=seed, checked=len(indexes))
    for start in range(0, len(indexes), SCAN_CHUNK):
        chunk = indexes[start : start + SCAN_CHUNK]
        try:
            scanned = scan.inverse_scans(chunk)
        except VerificationError:
            scanned = map(scan.inverse_scan, chunk)  # lazily, in index order
        for index, found in zip(chunk, scanned):
            _cross_check_element(ring, masks, index, found)
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
    _scan: RingScan | None = None
    _tripotents: list[int] | None = None
    _scanned: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.has_hirano = _bounded_memo(has_hirano)
        self.hirano = _bounded_memo(hirano)
        self.has_strongly_drazin = _bounded_memo(has_strongly_drazin)
        hirano_of = self.hirano

        def strongly_drazin(x: Element) -> SDrazinCertificate:
            # the Hirano inverse of the memo above, checked: no second lift
            try:
                hir = hirano_of(x)
            except PreconditionError:
                hir = None
            return _strongly_drazin_of(x, hir)

        self.strongly_drazin = _bounded_memo(strongly_drazin)

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    @property
    def scan(self) -> RingScan:
        if self._scan is None:
            if self.ring.size() > ORACLE_RING_CAP:
                raise PreconditionError(
                    f"{self.ring} is too large for the equation-scan oracle "
                    f"(cap {ORACLE_RING_CAP} elements)"
                )
            self._scan = RingScan(self.ring)
        return self._scan

    def scanned_hirano(self, index: int) -> list[int]:
        """The Hirano inverses the equation scan finds for one element,
        scanned once per index."""
        if index not in self._scanned:
            self._scanned[index] = self.scan.inverse_scan(index)["hirano"]
        return self._scanned[index]

    def prefetch(self, elements) -> None:
        """Scan the elements not scanned yet in one batch.  A batch that
        raises is dropped: each element is then scanned alone when a law asks
        for it, so the error is recorded against its own instance."""
        indexes = dict.fromkeys(map(self.ring.index_of, elements))
        missing = [i for i in indexes if i not in self._scanned]
        try:
            found = self.scan.inverse_scans(missing)
        except VerificationError:
            return
        self._scanned.update(zip(missing, (one["hirano"] for one in found)))

    @property
    def oracle_ok(self) -> bool:
        return self.ring.size() <= ORACLE_RING_CAP

    @property
    def tripotents(self) -> list[int]:
        """Indexes of the tripotents, in enumeration order."""
        if self._tripotents is None:
            self._tripotents = np.flatnonzero(self.scan.tripotent_mask()).tolist()
        return self._tripotents


def _hirano(ctx: _LawContext, a: Element) -> bool:
    return ctx.has_hirano(a)


def _hirano_or_square_sd(ctx: _LawContext, a: Element) -> bool:
    return ctx.has_hirano(a) or ctx.has_strongly_drazin(a * a)


def _commuting_sd(ctx: _LawContext, b: Element, c: Element) -> bool:
    return b * c == c * b and ctx.has_strongly_drazin(b) and ctx.has_strongly_drazin(c)


def _aba_is_aca(ctx: _LawContext, a: Element, b: Element, c: Element) -> bool:
    return a * b * a == a * c * a


def _commuting_hirano(ctx: _LawContext, a: Element, b: Element) -> bool:
    return a * b == b * a and ctx.has_hirano(a) and ctx.has_hirano(b)


def _orthogonal_hirano(ctx: _LawContext, a: Element, b: Element) -> bool:
    return a * b == ctx.ring.zero() == b * a and ctx.has_hirano(a) and ctx.has_hirano(b)


def _square_zero(ctx: _LawContext, a: Element, b: Element) -> bool:
    return a * a == ctx.ring.zero() == b * b and ctx.has_strongly_drazin(a * b)


def _law_hirano_implies_drazin(ctx: _LawContext, a: Element):
    if _drazin_axioms(a, ctx.hirano(a).b) is None:
        return "Hirano inverse fails the Drazin equations"
    return True


def _law_uniqueness(ctx: _LawContext, a: Element):
    found = ctx.scanned_hirano(ctx.ring.index_of(a))
    hir = ctx.has_hirano(a)
    if hir != bool(found):
        return f"criterion says {hir}, equation scan found {len(found)}"
    if len(found) > 1:
        return f"{len(found)} distinct candidates satisfy the Hirano equations"
    if found:
        index = found[0]
        if ctx.ring.index_of(ctx.hirano(a).b) != index:
            return "constructed inverse differs from the scanned one"
        if ctx.ring.index_of(drazin_finite(a).b) != index:
            return "power-formula Drazin inverse differs from the Hirano inverse"
    return True


def _law_square_route(ctx: _LawContext, a: Element):
    a2 = a * a
    hir = ctx.has_hirano(a)
    sd2 = ctx.has_strongly_drazin(a2)
    if hir != sd2:
        return f"has_hirano(a) = {hir} but has_strongly_drazin(a^2) = {sd2}"
    h = ctx.hirano(a).b
    s = ctx.strongly_drazin(a2).b
    if s != h * h:
        return "strongly Drazin inverse of a^2 is not the squared Hirano inverse"
    if h != a * s:
        return "a times the strongly Drazin inverse of a^2 is not the Hirano inverse"
    return True


def _law_criterion(ctx: _LawContext, a: Element):
    found = ctx.scanned_hirano(ctx.ring.index_of(a))
    hir = ctx.has_hirano(a)
    if hir != bool(found):
        return f"criterion says {hir}, equation scan found {len(found)}"
    if found and ctx.ring.index_of(ctx.hirano(a).b) not in found:
        return "constructed inverse not among scanned candidates"
    return True


def _law_inverse_of_inverse(ctx: _LawContext, a: Element):
    hirano_of_hirano(ctx.hirano(a))
    return True


def _law_tripotent_split(ctx: _LawContext, a: Element):
    d = tripotent_decomposition(a)
    if ctx.ring.size() <= 100:
        matches = [
            p
            for p in map(ctx.ring.element_at, ctx.tripotents)
            if is_nilpotent(a - p) is not None and p * a == a * p
        ]
        if d.tripotent not in matches:
            return "constructed tripotent not found by the brute-force search"
    return True


def _law_sd_difference_forward(ctx: _LawContext, a: Element):
    sd_difference_decomposition(a)
    return True


def _law_sd_difference_converse(ctx: _LawContext, b: Element, c: Element):
    d = b - c
    if not ctx.has_hirano(d):
        return f"b - c = {d} lacks a Hirano inverse"
    return True


def _law_all_hirano_ring(ctx: _LawContext):
    ring = ctx.ring
    if not ctx.oracle_ok:
        raise PreconditionError(
            f"{ring} is too large for the whole-ring law (cap {ORACLE_RING_CAP})"
        )
    all_hirano = all(has_hirano(a) for a in ring.elements())
    split = ctx.scan.tripotent_split_mask(ctx.tripotents)
    unsplit = np.flatnonzero(~split)
    all_split = unsplit.size == 0
    if all_hirano != all_split:
        who = "" if all_split else (
            f"; first element without a split: {ring.element_at(int(unsplit[0]))}"
        )
        return (
            f"every-element-Hirano is {all_hirano} but "
            f"every-element-splits is {all_split}{who}"
        )
    return True


def _law_cline(ctx: _LawContext, a: Element, b: Element, c: Element):
    ac, ba = a * c, b * a
    left = ctx.has_hirano(ac)
    right = ctx.has_hirano(ba)
    if left != right:
        return f"existence biconditional fails: ac {left}, ba {right}"
    if not left:
        return True
    cert = cline(a, b, c, ctx.hirano(ac))
    if ctx.oracle_ok:
        found = ctx.scanned_hirano(ctx.ring.index_of(ba))
        if ctx.ring.index_of(cert.b) not in found:
            return "transferred inverse rejected by the equation scan"
    return True


def _law_power_transfer(ctx: _LawContext, a: Element, b: Element):
    """(ab)^k Hirano invertible forces (ba)^k Hirano invertible, k = 1, 2, 3."""
    for k in (1, 2, 3):
        if ctx.has_hirano((a * b) ** k) and not ctx.has_hirano((b * a) ** k):
            return f"power transfer violated at a = {a!r}, b = {b!r}, k = {k}"
    return True


def _law_commuting_product(ctx: _LawContext, a: Element, b: Element):
    ha, hb = ctx.hirano(a), ctx.hirano(b)
    cert = commuting_product(ha, hb)
    if ha.b * hb.b != hb.b * ha.b:
        return "the two inverses do not commute"
    if cert.b != hb.b * ha.b:
        return "product inverse is order-dependent"
    return True


def _law_power_formula(ctx: _LawContext, a: Element):
    ha = ctx.hirano(a)
    for n in (1, 2, 3, 4):
        power_formula(ha, n)
    return True


def _law_jacobson(ctx: _LawContext, a: Element, b: Element, c: Element):
    """1 + ac and 1 + ba are Hirano invertible together."""
    one = ctx.ring.one()
    if ctx.has_hirano(one + a * c) != ctx.has_hirano(one + b * a):
        return f"Jacobson biconditional violated at a = {a!r}, b = {b!r}, c = {c!r}"
    return True


def _law_orthogonal_sum(ctx: _LawContext, a: Element, b: Element):
    orthogonal_sum(ctx.hirano(a), ctx.hirano(b))
    return True


def _law_square_zero_sum(ctx: _LawContext, a: Element, b: Element):
    ab, ba = a * b, b * a
    if not ctx.has_hirano(ba):
        return f"ba = {ba!r} is not Hirano invertible; instance falsified"
    result = square_zero_sum(a, b, ctx.hirano(ab), ctx.hirano(ba))
    if not result.statement_valid:
        return "statement form fails the Hirano equations"
    if not result.proof_valid:
        ctx.note(f"proof form fails at a = {a}, b = {b}")
    elif not result.forms_agree:
        ctx.note(f"statement and proof forms differ at a = {a}, b = {b}")
    return True


@dataclass(frozen=True)
class _Law:
    law_id: str
    passes: tuple  # of (arity, hypothesis or None, conclusion)
    requires_half: bool = False
    # every instance of its single arity-1 pass runs the equation scan
    scans: bool = False


LAWS: dict[str, _Law] = {
    law.law_id: law
    for law in (
        _Law("2.1", ((1, _hirano, _law_hirano_implies_drazin),)),
        _Law("2.2", ((1, None, _law_uniqueness),), scans=True),
        _Law("2.4", ((1, _hirano_or_square_sd, _law_square_route),)),
        _Law("3.1", ((1, None, _law_criterion),), scans=True),
        _Law("3.2", ((1, _hirano, _law_inverse_of_inverse),)),
        _Law("3.3", ((1, _hirano, _law_tripotent_split),), requires_half=True),
        _Law(
            "3.4",
            (
                (1, _hirano, _law_sd_difference_forward),
                (2, _commuting_sd, _law_sd_difference_converse),
            ),
            requires_half=True,
        ),
        _Law("3.6", ((0, None, _law_all_hirano_ring),)),
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


def _prefetching(ctx: _LawContext, space):
    """The instances of space, each chunk's elements scanned in one batch first."""
    space = iter(space)
    while chunk := list(itertools.islice(space, SCAN_CHUNK)):
        ctx.prefetch(a for (a,) in chunk)
        yield from chunk


def verify_theorem(
    theorem_id: str,
    ring: RingSpec,
    strategy: str | None = None,
    seed: int = 0,
    samples: int = LAW_SAMPLES,
) -> TheoremReport:
    if samples < 1:
        raise PreconditionError(f"samples must be at least 1, got {samples}")
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
    if law.requires_half and inverse_of_two(ring) is None:
        raise PreconditionError(
            f"law {theorem_id} needs 2 to be a unit, which fails in {ring}"
        )
    max_arity = max(arity for arity, *_ in law.passes)
    if strategy is None:
        strategy = "exhaustive" if size ** max_arity <= MAX_EXHAUSTIVE_INSTANCES else "sampled"
    if strategy not in ("exhaustive", "sampled"):
        raise PreconditionError(f"unknown strategy {strategy!r}")
    if strategy == "exhaustive" and size ** max_arity > MAX_EXHAUSTIVE_INSTANCES:
        raise PreconditionError(
            f"{ring} yields {size ** max_arity} instances at arity {max_arity}, "
            f"above the cap {MAX_EXHAUSTIVE_INSTANCES}"
        )
    ctx = _LawContext(ring)
    violations: list[ViolationRecord] = []
    instances = 0
    checked = 0
    for pass_number, (arity, hypothesis, conclusion) in enumerate(law.passes):
        if arity == 0:
            space = [()]
        elif strategy == "exhaustive" and arity == 1:
            # product() would build the whole ring before the first instance
            space = ((a,) for a in ring.elements())
        elif strategy == "exhaustive":
            space = itertools.product(*(ring.elements() for _ in range(arity)))
        else:
            rng = random.Random(seed + pass_number)
            space = (
                tuple(ring.element_at(rng.randrange(size)) for _ in range(arity))
                for _ in range(samples)
            )
        if law.scans:
            space = _prefetching(ctx, space)
        for elems in space:
            instances += 1
            if hypothesis is not None and not hypothesis(ctx, *elems):
                continue
            checked += 1
            try:
                verdict = conclusion(ctx, *elems)
            except VerificationError as err:
                verdict = str(err)
            if verdict is not True:
                violations.append(
                    ViolationRecord(
                        law=theorem_id,
                        inputs=tuple(str(e) for e in elems),
                        detail=verdict,
                    )
                )
                if len(violations) >= MAX_VIOLATIONS:
                    ctx.note(f"stopped after {MAX_VIOLATIONS} violations")
                    break
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
