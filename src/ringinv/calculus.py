"""Transfer formulas for Hirano inverses: Cline's formula, and product,
power, and sum formulas.

Each construction takes the certificates it builds on and decides no
existence criterion itself: the caller decides which elements are
Hirano invertible (in a verify run, once per element) and passes their
certificates in.  The power transfer and the Jacobson pair (laws 4.3,
5.1, 5.2) relate existence verdicts only, with no formula between the
inverses, so they live in the law registry as comparisons of verdicts.

Every closed formula here is treated as a candidate and re-verified
through :func:`ringinv.gen_inverse.check_hirano` before anything is
returned.  A formula that fails on a concrete instance raises
VerificationError naming the instance; nothing is silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gen_inverse import HiranoCertificate, check_hirano
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


def square_zero_sum(
    a: Element, b: Element, hab: HiranoCertificate, hba: HiranoCertificate
) -> SquareZeroSum:
    """Hirano inverse of a + b from square-zero a, b and the Hirano
    certificates hab of ab and hba of ba.

    The theorem assumes ab strongly Drazin invertible, which the caller
    decides; an instance where neither candidate verifies raises.
    """
    if a.ring != b.ring:
        raise RingMismatchError("square_zero_sum needs one common ring")
    zero = a.ring.zero()
    if a * a != zero or b * b != zero:
        raise PreconditionError("square_zero_sum requires a^2 = b^2 = 0")
    ab = a * b
    if hab.a != ab or hba.a != b * a:
        raise PreconditionError("certificates are not for the products ab and ba")
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

