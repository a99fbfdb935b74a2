"""Whole-ring classification and law verification.

run_census counts nilpotents, idempotents, tripotents, units, and the
three generalized-inverse classes across a finite ring from whole-ring
numpy masks (RingScan.census_masks: x - x^3 nilpotent for Hirano, x - x^2
nilpotent for strongly Drazin, x^unit_exponent = 1 for units, ...).  Each
checked element's mask verdicts are confirmed by two independent paths:
classify with the per-element criteria, and the definitional equation
scan (RingScan.inverse_scan), whose unique Drazin inverse also decides
nilpotent, idempotent, tripotent and unit.  The scan solves ab = ba by
generating the centraliser of a and tests the other equations on its
rows only, so a checked element costs in proportion to its centraliser,
not to the ring.  Any disagreement is a hard error naming the category
and the element; the check is exhaustive on rings of at most 10**4
elements and covers a seeded sample above that.

verify_theorem drives the law registry: each law id names a fixed
checkable statement about one ring, run either exhaustively over the
instance space or on seeded samples, with violations surfaced as
structured records.  A law callable returns None when an instance falls
outside the hypothesis, True when the conclusion verified, and a detail
string when the instance falsifies the law; a VerificationError it raises
(a construction failing its own check) is recorded as a violation too.

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
    jacobson_transfer,
    orthogonal_sum,
    power_formula,
    power_transfer,
    square_zero_sum,
)
from .gen_inverse import (
    _drazin_axioms,
    classify,
    drazin_finite,
    has_hirano,
    has_strongly_drazin,
    hirano,
    hirano_of_hirano,
    inverse_of_two,
    sd_difference_decomposition,
    strongly_drazin,
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


def _cross_check_element(ring: RingSpec, scan: RingScan, masks: dict, index: int) -> None:
    """Confirm one element's mask verdicts by its criteria, classify and equation scan.

    The scan's Drazin inverse d is unique; it decides the classes that have
    no inverse system of their own: a is nilpotent iff d = 0, tripotent iff
    d = a, idempotent iff a*d = a, and a unit iff a*d = 1.
    """
    a = ring.element_at(index)
    found = scan.inverse_scan(index)
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
    for index in indexes:
        _cross_check_element(ring, scan, masks, index)
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


@dataclass
class _LawContext:
    ring: RingSpec
    notes: list = field(default_factory=list)
    _scan: RingScan | None = None
    _tripotents: list[int] | None = None

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

    @property
    def oracle_ok(self) -> bool:
        return self.ring.size() <= ORACLE_RING_CAP

    @property
    def tripotents(self) -> list[int]:
        """Indexes of the tripotents, in enumeration order."""
        if self._tripotents is None:
            self._tripotents = np.flatnonzero(self.scan.tripotent_mask()).tolist()
        return self._tripotents


def _law_hirano_implies_drazin(ctx: _LawContext, a: Element):
    if not has_hirano(a):
        return None
    cert = hirano(a)
    if _drazin_axioms(a, cert.b) is None:
        return "Hirano inverse fails the Drazin equations"
    return True


def _law_uniqueness(ctx: _LawContext, a: Element):
    found = ctx.scan.inverse_scan(ctx.ring.index_of(a))["hirano"]
    if has_hirano(a) != bool(found):
        return f"criterion says {has_hirano(a)}, equation scan found {len(found)}"
    if len(found) > 1:
        return f"{len(found)} distinct candidates satisfy the Hirano equations"
    if found:
        index = found[0]
        if ctx.ring.index_of(hirano(a).b) != index:
            return "constructed inverse differs from the scanned one"
        if ctx.ring.index_of(drazin_finite(a).b) != index:
            return "power-formula Drazin inverse differs from the Hirano inverse"
    return True


def _law_square_route(ctx: _LawContext, a: Element):
    hir = has_hirano(a)
    sd2 = has_strongly_drazin(a * a)
    if hir != sd2:
        return f"has_hirano(a) = {hir} but has_strongly_drazin(a^2) = {sd2}"
    if not hir:
        return None
    h = hirano(a).b
    s = strongly_drazin(a * a).b
    if s != h * h:
        return "strongly Drazin inverse of a^2 is not the squared Hirano inverse"
    if h != a * s:
        return "a times the strongly Drazin inverse of a^2 is not the Hirano inverse"
    return True


def _law_criterion(ctx: _LawContext, a: Element):
    found = ctx.scan.inverse_scan(ctx.ring.index_of(a))["hirano"]
    if has_hirano(a) != bool(found):
        return f"criterion says {has_hirano(a)}, equation scan found {len(found)}"
    if found and ctx.ring.index_of(hirano(a).b) not in found:
        return "constructed inverse not among scanned candidates"
    return True


def _law_inverse_of_inverse(ctx: _LawContext, a: Element):
    if not has_hirano(a):
        return None
    cert = hirano(a)
    if hirano_of_hirano(cert) != a * a * cert.b:
        return "inverse of the inverse is not a^2 b"
    return True


def _law_tripotent_split(ctx: _LawContext, a: Element):
    if not has_hirano(a):
        return None
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
    if not has_hirano(a):
        return None
    b, c = sd_difference_decomposition(a)
    if a != b - c or b * c != c * b:
        return "difference decomposition identities fail"
    if not (has_strongly_drazin(b) and has_strongly_drazin(c)):
        return "a part of the difference decomposition is not strongly Drazin invertible"
    return True


def _law_sd_difference_converse(ctx: _LawContext, b: Element, c: Element):
    if b * c != c * b:
        return None
    if not (has_strongly_drazin(b) and has_strongly_drazin(c)):
        return None
    if not has_hirano(b - c):
        return f"b - c = {b - c} lacks a Hirano inverse"
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
    if a * b * a != a * c * a:
        return None
    left = has_hirano(a * c)
    right = has_hirano(b * a)
    if left != right:
        return f"existence biconditional fails: ac {left}, ba {right}"
    if not left:
        return True
    cert = cline(a, b, c, hirano(a * c))
    if ctx.oracle_ok:
        found = ctx.scan.inverse_scan(ctx.ring.index_of(b * a))["hirano"]
        if ctx.ring.index_of(cert.b) not in found:
            return "transferred inverse rejected by the equation scan"
    return True


def _law_cline_pair(ctx: _LawContext, a: Element, b: Element):
    return _law_cline(ctx, a, b, b)


def _law_power_transfer(ctx: _LawContext, a: Element, b: Element):
    for k in (1, 2, 3):
        power_transfer(a, b, k)
    return True


def _law_commuting_product(ctx: _LawContext, a: Element, b: Element):
    if a * b != b * a or not (has_hirano(a) and has_hirano(b)):
        return None
    ha, hb = hirano(a), hirano(b)
    cert = commuting_product(ha, hb)
    if ha.b * hb.b != hb.b * ha.b:
        return "the two inverses do not commute"
    if cert.b != hb.b * ha.b:
        return "product inverse is order-dependent"
    return True


def _law_power_formula(ctx: _LawContext, a: Element):
    if not has_hirano(a):
        return None
    ha = hirano(a)
    for n in (1, 2, 3, 4):
        power_formula(ha, n)
    return True


def _law_jacobson(ctx: _LawContext, a: Element, b: Element, c: Element):
    if a * b * a != a * c * a:
        return None
    jacobson_transfer(a, b, c)
    return True


def _law_jacobson_pair(ctx: _LawContext, a: Element, b: Element):
    return _law_jacobson(ctx, a, b, b)


def _law_orthogonal_sum(ctx: _LawContext, a: Element, b: Element):
    zero = ctx.ring.zero()
    if a * b != zero or b * a != zero:
        return None
    if not (has_hirano(a) and has_hirano(b)):
        return None
    orthogonal_sum(hirano(a), hirano(b))
    return True


def _law_square_zero_sum(ctx: _LawContext, a: Element, b: Element):
    zero = ctx.ring.zero()
    if a * a != zero or b * b != zero:
        return None
    if not has_strongly_drazin(a * b):
        return None
    result = square_zero_sum(a, b, strongly_drazin(a * b))
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
    passes: tuple
    requires_half: bool = False


LAWS: dict[str, _Law] = {
    law.law_id: law
    for law in (
        _Law("2.1", ((1, _law_hirano_implies_drazin),)),
        _Law("2.2", ((1, _law_uniqueness),)),
        _Law("2.4", ((1, _law_square_route),)),
        _Law("3.1", ((1, _law_criterion),)),
        _Law("3.2", ((1, _law_inverse_of_inverse),)),
        _Law("3.3", ((1, _law_tripotent_split),), requires_half=True),
        _Law(
            "3.4",
            ((1, _law_sd_difference_forward), (2, _law_sd_difference_converse)),
            requires_half=True,
        ),
        _Law("3.6", ((0, _law_all_hirano_ring),)),
        _Law("4.1", ((3, _law_cline),)),
        _Law("4.2", ((2, _law_cline_pair),)),
        _Law("4.3", ((2, _law_power_transfer),)),
        _Law("4.4", ((2, _law_commuting_product),)),
        _Law("4.5", ((1, _law_power_formula),)),
        _Law("5.1", ((3, _law_jacobson),)),
        _Law("5.2", ((2, _law_jacobson_pair),)),
        _Law("5.4", ((2, _law_orthogonal_sum),)),
        _Law("5.5", ((2, _law_square_zero_sum),)),
    )
}


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
    max_arity = max(arity for arity, _ in law.passes)
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
    for pass_number, (arity, check) in enumerate(law.passes):
        if arity == 0:
            space = [()]
        elif strategy == "exhaustive":
            space = itertools.product(*(ring.elements() for _ in range(arity)))
        else:
            rng = random.Random(seed + pass_number)
            space = (
                tuple(ring.element_at(rng.randrange(size)) for _ in range(arity))
                for _ in range(samples)
            )
        for elems in space:
            instances += 1
            try:
                verdict = check(ctx, *elems)
            except VerificationError as err:
                verdict = str(err)
            if verdict is None:
                continue
            checked += 1
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
