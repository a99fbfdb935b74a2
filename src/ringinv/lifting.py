"""Idempotents from almost-idempotents, with polynomial certificates.

Given x whose defect x - x^2 is nilpotent, iterating t <- 3t^2 - 2t^3
fixes idempotents and at least squares the defect each step, so it reaches
an exact idempotent e with x - e nilpotent after logarithmically many
steps.  The iteration is mirrored on integer polynomials, producing a
certificate that e is a polynomial in x; evaluating the certificate must
reproduce e exactly.  That membership is what later constructions rely on
for commutation: anything commuting with x commutes with e.

The iteration and the certificate's evaluation are chains of products on
one ring: they run the ring's kernels on entry tuples and build one element
each, for their result.  The integer polynomials stay exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .rings import Element, PreconditionError, VerificationError, _element, is_nilpotent

Poly = tuple[int, ...]  # integer coefficients, constant term first


def _trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    out[:len(q)] = map(operator.add, p, q)
    return _trim(out)


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_add(p, tuple(-c for c in q))


def poly_scale(p: Poly, c: int) -> Poly:
    return _trim([c * v for v in p])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    if len(p) > len(q):
        p, q = q, p
    # a row of products per coefficient of the shorter factor
    out = [0] * (len(p) + len(q) - 1)
    width = len(q)
    for i, a in enumerate(p):
        if a:
            out[i:i + width] = map(operator.add, out[i:i + width], map(a.__mul__, q))
    return _trim(out)


def poly_compose(outer: Poly, inner: Poly) -> Poly:
    """Coefficients of outer(inner(t)) over Z, by Horner on polynomials."""
    acc: Poly = ()
    for c in reversed(outer):
        acc = poly_add(poly_mul(acc, inner), (c,))
    return acc


def format_polynomial(coeffs: Poly) -> str:
    if not coeffs:
        return "0"
    parts = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            term = str(mag)
        else:
            t = "a" if power == 1 else f"a^{power}"
            term = t if mag == 1 else f"{mag}*{t}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


@dataclass(frozen=True)
class PolynomialCertificate:
    """An integer polynomial whose value at ``subject`` is the certified element."""

    coefficients: Poly
    subject: Element

    def evaluate(self) -> Element:
        """The polynomial at ``subject``, by Horner's rule on entry tuples.

        The accumulator starts as the leading coefficient on the diagonal,
        not as zero, so no step multiplies zero by the subject: a polynomial
        of degree d costs d kernel products.  Each step is one product and
        the next coefficient added on the diagonal; over Z/n the
        coefficients are reduced mod n first, which gives the same residue.
        The empty polynomial is zero.  One element is built, for the value.
        """
        ring = self.subject.ring
        if not self.coefficients:
            return ring.zero()
        product, add, m = ring._product, ring._add, ring.modulus
        x, one = self.subject.entries, ring.one().entries
        coefficients = self.coefficients if m is None else [c % m for c in self.coefficients]
        acc = tuple([coefficients[-1] * v for v in one])
        for c in reversed(coefficients[:-1]):
            acc = add(product(acc, x, m), tuple([c * v for v in one]), m)
        return _element(ring, acc)


@dataclass(frozen=True)
class LiftedIdempotent:
    element: Element
    certificate: PolynomialCertificate


def lift_idempotent(x: Element) -> LiftedIdempotent:
    """Lift x with nilpotent defect x - x^2 to an idempotent e with x - e nilpotent.

    Convergence takes at most ceil(log2 m) steps for defect index m; the cap
    below adds slack, and hitting it means the precondition check was fooled,
    which is reported as a defect rather than looping forever.
    """
    defect = x - x * x
    witness = is_nilpotent(defect)
    if witness is None:
        raise PreconditionError("cannot lift: x - x^2 is not nilpotent")
    cap = (witness.index - 1).bit_length() + 2
    ring = x.ring
    product, m = ring._product, ring.modulus
    t = x.entries
    poly: Poly = (0, 1)
    steps = 0
    square = product(t, t, m)
    while square != t:
        if steps >= cap:
            raise VerificationError("idempotent refinement did not converge within its cap")
        step = [3 * s - 2 * c for s, c in zip(square, product(square, t, m))]
        t = tuple(step) if m is None else tuple([v % m for v in step])
        psquare = poly_mul(poly, poly)
        poly = poly_sub(poly_scale(psquare, 3), poly_scale(poly_mul(psquare, poly), 2))
        steps += 1
        square = product(t, t, m)
    t = _element(ring, t)
    cert = PolynomialCertificate(poly, x)
    if cert.evaluate() != t or is_nilpotent(x - t) is None:
        raise VerificationError("idempotent lift failed its own certificate checks")
    return LiftedIdempotent(t, cert)
