"""Transfer laws for Hirano inverses: Cline's formula, a Jacobson-pair
variant, and product, power, and sum formulas.

Every closed formula here is treated as a candidate and re-verified
through :func:`ringinv.gen_inverse.check_hirano` before anything is
returned.  A formula that fails on a concrete instance raises
VerificationError naming the instance; nothing is silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gen_inverse import (
    HiranoCertificate,
    SDrazinCertificate,
    check_hirano,
    check_strongly_drazin,
    has_hirano,
    hirano,
)
from .rings import (
    Element,
    PreconditionError,
    RingMismatchError,
    VerificationError,
)


def cline(a: Element, b: Element, c: Element, h: HiranoCertificate) -> HiranoCertificate:
    """From aba = aca and a Hirano inverse of ac, build one for ba.

    The inverse is b * (ac inverse)^2 * a.
    """
    if a * b * a != a * c * a:
        raise PreconditionError("cline requires aba = aca")
    if h.a != a * c:
        raise PreconditionError("certificate is not for the product ac")
    y = b * (h.b * h.b) * a
    cert = check_hirano(b * a, y)
    if cert is None:
        raise VerificationError(f"cline transfer failed for ba = {b * a!r}")
    return cert


def power_transfer(a: Element, b: Element, k: int) -> bool:
    """Whether (ba)^k is Hirano invertible, with the one-way guarantee that
    (ab)^k invertible forces (ba)^k invertible."""
    if a.ring != b.ring:
        raise RingMismatchError("power_transfer needs one common ring")
    if k < 1:
        raise PreconditionError("power_transfer needs k >= 1")
    forward = has_hirano((a * b) ** k)
    backward = has_hirano((b * a) ** k)
    if forward and not backward:
        raise VerificationError(
            f"power transfer violated at a = {a!r}, b = {b!r}, k = {k}"
        )
    return backward


def commuting_product(ha: HiranoCertificate, hb: HiranoCertificate) -> HiranoCertificate:
    """For commuting Hirano-invertible a and b, ab has inverse ha.b * hb.b."""
    a, b = ha.a, hb.a
    if a * b != b * a:
        raise PreconditionError("commuting_product requires ab = ba")
    cert = check_hirano(a * b, ha.b * hb.b)
    if cert is None:
        raise VerificationError(f"product transfer failed for ab = {a * b!r}")
    return cert


def power_formula(ha: HiranoCertificate, n: int) -> HiranoCertificate:
    """The Hirano inverse of a^n is (a's inverse)^n.  The converse is false:
    a^n can be invertible while a is not."""
    if n < 1:
        raise PreconditionError("power_formula needs n >= 1")
    cert = check_hirano(ha.a ** n, ha.b ** n)
    if cert is None:
        raise VerificationError(f"power formula failed for n = {n}")
    return cert


def jacobson_transfer(a: Element, b: Element, c: Element) -> bool:
    """Under aba = aca, 1 + ac and 1 + ba are Hirano invertible together.

    Returns the shared truth value; a one-sided instance raises.  No closed
    formula relates the two inverses, so when the value is true each side's
    inverse comes from the direct construction.
    """
    if a * b * a != a * c * a:
        raise PreconditionError("jacobson_transfer requires aba = aca")
    one = a.ring.one()
    left = has_hirano(one + a * c)
    right = has_hirano(one + b * a)
    if left != right:
        raise VerificationError(
            f"Jacobson biconditional violated at a = {a!r}, b = {b!r}, c = {c!r}"
        )
    return right


def orthogonal_sum(ha: HiranoCertificate, hb: HiranoCertificate) -> HiranoCertificate:
    """When ab = ba = 0, the sum a + b has Hirano inverse ha.b + hb.b."""
    a, b = ha.a, hb.a
    zero = a.ring.zero()
    if a * b != zero or b * a != zero:
        raise PreconditionError("orthogonal_sum requires ab = ba = 0")
    cert = check_hirano(a + b, ha.b + hb.b)
    if cert is None:
        raise VerificationError(f"orthogonal sum failed for {a + b!r}")
    return cert


@dataclass(frozen=True)
class SquareZeroSum:
    """Both published inverse candidates for a + b when a^2 = b^2 = 0 and
    ab is strongly Drazin invertible.

    Two forms circulate for the same element, with H and D the Hirano and
    Drazin inverses (equal whenever both exist):

        statement  a*(ba)^H + b*(ab)^H
        proof      a*(ba)^D + b*(ab)*(ab)^D

    ``certificate`` carries whichever form verified (statement preferred);
    the validity flags record each form's fate so divergent instances are
    visible rather than swallowed.
    """

    certificate: HiranoCertificate
    statement_inverse: Element
    proof_inverse: Element
    statement_valid: bool
    proof_valid: bool

    @property
    def forms_agree(self) -> bool:
        return self.statement_inverse == self.proof_inverse


def square_zero_sum(a: Element, b: Element, sd: SDrazinCertificate) -> SquareZeroSum:
    """Hirano inverse of a + b from square-zero a, b with ab strongly Drazin
    invertible (sd certifies ab)."""
    if a.ring != b.ring:
        raise RingMismatchError("square_zero_sum needs one common ring")
    zero = a.ring.zero()
    if a * a != zero or b * b != zero:
        raise PreconditionError("square_zero_sum requires a^2 = b^2 = 0")
    ab = a * b
    if sd.a != ab or check_strongly_drazin(ab, sd.b) is None:
        raise PreconditionError("sd must be a valid strongly Drazin certificate for ab")
    ba = b * a
    if not has_hirano(ba):
        raise VerificationError(f"ba = {ba!r} is not Hirano invertible; instance falsified")
    hab = hirano(ab)
    hba = hirano(ba)
    statement = a * hba.b + b * hab.b
    proof = a * hba.b + b * ab * hab.b
    s = a + b
    statement_cert = check_hirano(s, statement)
    proof_cert = check_hirano(s, proof)
    cert = statement_cert if statement_cert is not None else proof_cert
    if cert is None:
        raise VerificationError(
            f"neither candidate inverted {s!r}; instance falsified"
        )
    return SquareZeroSum(
        certificate=cert,
        statement_inverse=statement,
        proof_inverse=proof,
        statement_valid=statement_cert is not None,
        proof_valid=proof_cert is not None,
    )

