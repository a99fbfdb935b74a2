"""Drazin, strongly Drazin, and Hirano inverses with checkable certificates.

For a candidate inverse b of a, all three notions share ab = ba and
bab = b and differ only in which defect must be nilpotent:

    Drazin           a - a^2 b
    strongly Drazin  a - a b
    Hirano           a^2 - a b

Existence is decided by polynomial criteria: a has a Hirano inverse iff
a - a^3 is nilpotent, and a strongly Drazin inverse iff a - a^2 is
nilpotent.  The Hirano inverse is built by idempotent lifting and unipotent
inversion; the strongly Drazin inverse is the Hirano inverse that passes
its equations.  hirano and strongly_drazin raise PreconditionError when no
inverse exists; classify asks the builder behind them, which answers None
instead, so it renders no message only to discard it.  Every certificate
re-verifies its defining equations before it is returned.  In a finite ring
the Drazin inverse is a power of a whose exponent comes from the ring alone
(unit_exponent and nilpotency_bound) and is computed once per ring, so no
power orbit is walked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lifting import (
    PolynomialCertificate,
    lift_idempotent,
    poly_compose,
    poly_sub,
)
from .rings import (
    Element,
    NilpotencyWitness,
    PreconditionError,
    VerificationError,
    is_nilpotent,
    inverse_of_unipotent,
)


@dataclass(frozen=True)
class HiranoCertificate:
    """b with ab = ba, bab = b, and nilpotent defect a^2 - ab."""

    a: Element
    b: Element
    defect: Element
    defect_witness: NilpotencyWitness


@dataclass(frozen=True)
class SDrazinCertificate:
    """b with ab = ba, bab = b, and nilpotent defect a - ab."""

    a: Element
    b: Element
    defect: Element
    defect_witness: NilpotencyWitness


@dataclass(frozen=True)
class DrazinCertificate:
    """b with ab = ba, bab = b, nilpotent defect a - a^2 b, and a^k = a^(k+1) b."""

    a: Element
    b: Element
    defect: Element
    defect_witness: NilpotencyWitness
    index: int


def _nilpotent_defect(
    a: Element, b: Element, defect_of
) -> tuple[Element, NilpotencyWitness] | None:
    """(defect, witness) when ab = ba, bab = b and defect_of(ab) is nilpotent."""
    ab = a * b
    if ab != b * a or b * ab != b:
        return None
    defect = defect_of(ab)
    witness = is_nilpotent(defect)
    return None if witness is None else (defect, witness)


def check_hirano(a: Element, b: Element) -> HiranoCertificate | None:
    """Certificate when b satisfies the Hirano equations for a, else None."""
    found = _nilpotent_defect(a, b, lambda ab: a * a - ab)
    return None if found is None else HiranoCertificate(a, b, *found)


def check_strongly_drazin(a: Element, b: Element) -> SDrazinCertificate | None:
    found = _nilpotent_defect(a, b, lambda ab: a - ab)
    return None if found is None else SDrazinCertificate(a, b, *found)


def _drazin_axioms(a: Element, b: Element) -> tuple[Element, NilpotencyWitness] | None:
    return _nilpotent_defect(a, b, lambda ab: a - a * ab)


def _drazin_with_index(
    a: Element, b: Element, found: tuple[Element, NilpotencyWitness], index: int
) -> DrazinCertificate | None:
    """The certificate when a^k = a^(k+1) b for k = index, given the Drazin
    axioms' (defect, witness) found for a and b."""
    if index < 0:
        return None
    power = a ** index
    if power != power * a * b:
        return None
    return DrazinCertificate(a, b, *found, index)


def check_drazin(a: Element, b: Element, index: int) -> DrazinCertificate | None:
    found = _drazin_axioms(a, b)
    return None if found is None else _drazin_with_index(a, b, found, index)


def has_hirano(a: Element) -> bool:
    """Existence criterion: a - a^3 nilpotent."""
    return is_nilpotent(a - a ** 3) is not None


def has_strongly_drazin(a: Element) -> bool:
    """Existence criterion: a - a^2 nilpotent."""
    return is_nilpotent(a - a * a) is not None


def _hirano_inverse(a: Element) -> HiranoCertificate | None:
    """The Hirano inverse of a, or None when a has none.

    Lift a^2 to an idempotent e, write a^2 = e + w with w nilpotent, and
    take b = a * (1 + w)^-1 * e.  Everything in sight is a polynomial in a.
    The lift's own test is the criterion: its defect a^2 - a^4 = a(a - a^3)
    is nilpotent exactly when a - a^3 is, as both lie in Z[a].
    """
    try:
        e = lift_idempotent(a * a).element
    except PreconditionError:
        return None
    w = a * a - e
    one = a.ring.one()
    b = a * (inverse_of_unipotent(one + w) * e)
    cert = check_hirano(a, b)
    if cert is None:
        raise VerificationError("constructed Hirano inverse failed its equations")
    return cert


def hirano(a: Element) -> HiranoCertificate:
    """Construct the Hirano inverse of a (see _hirano_inverse)."""
    cert = _hirano_inverse(a)
    if cert is None:
        raise PreconditionError(f"{a!r} has no Hirano inverse: a - a^3 is not nilpotent")
    return cert


def _hirano_and_strongly_drazin(
    a: Element,
) -> tuple[HiranoCertificate | None, SDrazinCertificate | None]:
    """The Hirano and strongly Drazin inverses of a, None for each it lacks.
    A strongly Drazin inverse is the Hirano inverse (see strongly_drazin),
    so one lift and a check of its equations decide both."""
    hir = _hirano_inverse(a)
    return hir, None if hir is None else check_strongly_drazin(a, hir.b)


def strongly_drazin(a: Element) -> SDrazinCertificate:
    """The Hirano inverse, if it passes the strongly Drazin equations: both
    are the Drazin inverse, and a - a^3 = (a - a^2)(1 + a)."""
    cert = _hirano_and_strongly_drazin(a)[1]
    if cert is None:
        raise PreconditionError(
            f"{a!r} has no strongly Drazin inverse: a - a^2 is not nilpotent"
        )
    return cert


def drazin_finite(a: Element) -> DrazinCertificate:
    """Drazin inverse in a finite ring: b = a^(m-1), where m is the first
    multiple of unit_exponent at least nilpotency_bound + 1.

    Any m that is a multiple of the power period of a and at least its
    index + 1 gives the Drazin inverse; unit_exponent is a multiple of every
    period and nilpotency_bound bounds every index, so this m depends on the
    ring alone, is computed once per ring, and b costs O(log m)
    multiplications.  The index is the nilpotency index of the Drazin defect
    a - a^2 b, because (a - a^2 b)^k = a^k (1 - ab); it is the least i >= 1
    with a^i = a^(i+1) b, so units have index 1.  The defect is tested once,
    with ab = ba and bab = b, and its witness gives the index that the
    index equation then checks.
    """
    b = a ** (a.ring._drazin_exponent - 1)
    found = _drazin_axioms(a, b)
    cert = None if found is None else _drazin_with_index(a, b, found, found[1].index)
    if cert is None:
        raise VerificationError("power-formula Drazin inverse failed its equations")
    return cert


def _drazin_from_hirano(cert: HiranoCertificate) -> DrazinCertificate:
    """Over Z, a Hirano inverse is the Drazin inverse; a unit has index 0."""
    a, b = cert.a, cert.b
    found = _drazin_axioms(a, b)
    if found is not None:
        index = 0 if a * b == a.ring.one() else found[1].index
        out = _drazin_with_index(a, b, found, index)
        if out is not None:
            return out
    raise VerificationError("no Drazin index found for a verified Hirano inverse")


@dataclass(frozen=True)
class InverseReport:
    """Classification of one element.  has_drazin is None when undecided
    (non-Hirano integer matrices; the general integer-matrix Drazin inverse
    is out of scope)."""

    element: Element
    has_drazin: bool | None
    has_strongly_drazin: bool
    has_hirano: bool
    drazin: DrazinCertificate | None
    strongly_drazin: SDrazinCertificate | None
    hirano: HiranoCertificate | None


def classify(a: Element) -> InverseReport:
    hir, sd = _hirano_and_strongly_drazin(a)
    ring = a.ring
    if ring.is_finite:
        dz: DrazinCertificate | None = drazin_finite(a)
        has_dz: bool | None = True
    elif hir is not None:
        dz = _drazin_from_hirano(hir)
        has_dz = True
    elif not ring.is_matrix:
        # over Z only 0 and +-1 are Drazin invertible, and those are Hirano
        dz, has_dz = None, False
    else:
        dz, has_dz = None, None
    if hir is not None and dz is not None and hir.b != dz.b:
        raise VerificationError("uniqueness failure: Hirano and Drazin inverses disagree")
    return InverseReport(
        element=a,
        has_drazin=has_dz,
        has_strongly_drazin=sd is not None,
        has_hirano=hir is not None,
        drazin=dz,
        strongly_drazin=sd,
        hirano=hir,
    )


@dataclass(frozen=True)
class TripotentDecomposition:
    """a = p + w with p^3 = p, w nilpotent, pw = wp, and p = e - f for
    commuting idempotents e and f.

    In a finite ring, certificates place p, e and f in Z[a].  Over Z the
    idempotent halves need not be integer polynomials in a, so e and f are
    populated only when (a^2 +- a)/2 are integer elements and their
    certificates stay None.
    """

    subject: Element
    tripotent: Element
    nilpotent_part: Element
    nilpotent_witness: NilpotencyWitness
    plus_idempotent: Element | None
    minus_idempotent: Element | None
    tripotent_certificate: PolynomialCertificate
    plus_certificate: PolynomialCertificate | None
    minus_certificate: PolynomialCertificate | None


def _crt_halves(m: int) -> tuple[int, int]:
    """(u, c) for m = 2^s * o with o odd: u = 1 mod 2^s and 0 mod o is the
    2-part's central idempotent, and c = 0 mod 2^s and 1/2 mod o acts as 1/2
    on the odd part.  An odd m gives (0, (m + 1) / 2)."""
    two = m & -m
    odd = m // two
    return odd * pow(odd, -1, two), two * pow(2 * two, -1, odd)


def _half_exact(x: Element) -> Element | None:
    """x/2 over Z when every entry is even, else None."""
    if any(v % 2 for v in x.entries):
        return None
    return Element(x.ring, tuple(v // 2 for v in x.entries))


def _validate_decomposition(d: TripotentDecomposition) -> None:
    a, p, w = d.subject, d.tripotent, d.nilpotent_part
    ok = p ** 3 == p and a == p + w and p * w == w * p
    if ok and d.plus_idempotent is not None:
        e, f = d.plus_idempotent, d.minus_idempotent
        ok = (
            e * e == e
            and f * f == f
            and e * f == f * e
            and p == e - f
        )
    if ok:
        for cert, target in (
            (d.tripotent_certificate, p),
            (d.plus_certificate, d.plus_idempotent),
            (d.minus_certificate, d.minus_idempotent),
        ):
            if cert is not None and cert.evaluate() != target:
                ok = False
                break
    if not ok:
        raise VerificationError("tripotent decomposition failed its own checks")


def tripotent_decomposition(a: Element) -> TripotentDecomposition:
    """Split a Hirano-invertible a as tripotent plus commuting nilpotent.

    In a finite ring Mk(Z/n), lift g = c(a^2 + a) + ua and h = c(a^2 - a)
    to idempotents e and f, with (u, c) from _crt_halves(n); then p = e - f
    is tripotent and a - p is nilpotent.  By CRT the ring is a 2-part, where
    g = a and h = 0 (2 is nilpotent there, so a - a^2 is nilpotent when
    a - a^3 is), times an odd part, where c is 1/2 and g, h are (a^2 +- a)/2.
    Over Z the split is only available for exact tripotents (a = a^3),
    where p = a and w = 0.
    """
    ring = a.ring
    if not ring.is_finite:
        if not has_hirano(a):
            raise PreconditionError(f"{a!r} does not decompose: a - a^3 is not nilpotent")
        if a != a ** 3:
            raise PreconditionError(
                "over Z only exact tripotents (a = a^3) decompose; 2 is not a unit"
            )
        e = _half_exact(a * a + a)
        f = None if e is None else e - a
        decomp = TripotentDecomposition(
            subject=a,
            tripotent=a,
            nilpotent_part=ring.zero(),
            nilpotent_witness=NilpotencyWitness(1),
            plus_idempotent=e,
            minus_idempotent=f,
            tripotent_certificate=PolynomialCertificate((0, 1), a),
            plus_certificate=None,
            minus_certificate=None,
        )
        _validate_decomposition(decomp)
        return decomp
    u, c = _crt_halves(ring.modulus)
    square = a * a
    g = c * (square + a) + u * a
    h = c * (square - a)
    try:  # g - g^2 and h - h^2 are nilpotent exactly when a - a^3 is
        lifted_g, lifted_h = lift_idempotent(g), lift_idempotent(h)
    except PreconditionError:
        raise PreconditionError(
            f"{a!r} does not decompose: a - a^3 is not nilpotent"
        ) from None
    e, f = lifted_g.element, lifted_h.element
    p = e - f
    w = a - p
    witness = is_nilpotent(w)
    if witness is None:
        raise VerificationError("tripotent decomposition produced a non-nilpotent remainder")
    cert_e = PolynomialCertificate(
        poly_compose(lifted_g.certificate.coefficients, (0, u + c, c)), a
    )
    cert_f = PolynomialCertificate(
        poly_compose(lifted_h.certificate.coefficients, (0, -c, c)), a
    )
    cert_p = PolynomialCertificate(poly_sub(cert_e.coefficients, cert_f.coefficients), a)
    decomp = TripotentDecomposition(
        subject=a,
        tripotent=p,
        nilpotent_part=w,
        nilpotent_witness=witness,
        plus_idempotent=e,
        minus_idempotent=f,
        tripotent_certificate=cert_p,
        plus_certificate=cert_e,
        minus_certificate=cert_f,
    )
    _validate_decomposition(decomp)
    return decomp


def sd_difference_decomposition(a: Element) -> tuple[Element, Element]:
    """Write a = b - c with commuting b, c both strongly Drazin invertible.

    Takes b = e and c = f - w from the tripotent decomposition, so it works
    for every Hirano element of a finite ring, and over Z for exact
    tripotents whose halves (a^2 +- a)/2 are integral.  Both parts differ
    from an idempotent by a commuting nilpotent, so both pass
    has_strongly_drazin.
    """
    d = tripotent_decomposition(a)
    if d.plus_idempotent is None:
        raise PreconditionError(
            "no integral idempotent split exists for this element over Z"
        )
    b = d.plus_idempotent
    c = d.minus_idempotent - d.nilpotent_part
    ok = (
        a == b - c
        and b * c == c * b
        and has_strongly_drazin(b)
        and has_strongly_drazin(c)
    )
    if not ok:
        raise VerificationError("difference decomposition failed its own checks")
    return b, c


def hirano_of_hirano(cert: HiranoCertificate) -> Element:
    """The Hirano inverse of the inverse: a^2 * b, cross-checked directly."""
    a, b = cert.a, cert.b
    y = a * a * b
    inverse = _hirano_inverse(b)
    if inverse is None:
        raise VerificationError("a Hirano inverse must itself be Hirano invertible")
    if inverse.b != y:
        raise VerificationError("inverse-of-inverse formula disagreed with construction")
    return y

