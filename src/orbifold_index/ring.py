"""Truncated graded cohomology ring of the singular surface.

Elements are polynomials in two degree-2 generators, the tangent Euler class
e and the orbifold normal Euler class h, truncated above cohomological
degree 4.  Coefficients are generic exact scalars (Fraction, Laurent or the
tests' field elements); the six retained monomials are 1, e, h, e^2, e*h, h^2.

Degree 4 is kept even though the base is a surface: the index pipeline
divides by e before pairing, which shifts degree-4 information down to
degree 2.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .scalars import Cyclotomic, _Record, _set

Scalar = Any  # Fraction, Laurent or a Cyclotomic value, uniform within one element


def _scalar_json(s: Scalar):
    if isinstance(s, Cyclotomic):
        return s.to_json()
    return str(Fraction(s))


class CohomElement(_Record):
    """c0 + ce*e + ch*h + cee*e^2 + ceh*e*h + chh*h^2, truncated above
    degree 4."""

    _fields = ("c0", "ce", "ch", "cee", "ceh", "chh")

    def __init__(self, c0: Scalar, ce: Scalar, ch: Scalar,
                 cee: Scalar, ceh: Scalar, chh: Scalar):
        _set(self, "c0", c0)
        _set(self, "ce", ce)
        _set(self, "ch", ch)
        _set(self, "cee", cee)
        _set(self, "ceh", ceh)
        _set(self, "chh", chh)

    @classmethod
    def constant(cls, s: Scalar) -> "CohomElement":
        z = s * 0
        return cls(s, z, z, z, z, z)

    def __add__(self, other: "CohomElement") -> "CohomElement":
        return CohomElement(self.c0 + other.c0, self.ce + other.ce,
                            self.ch + other.ch, self.cee + other.cee,
                            self.ceh + other.ceh, self.chh + other.chh)

    def __sub__(self, other: "CohomElement") -> "CohomElement":
        return CohomElement(self.c0 - other.c0, self.ce - other.ce,
                            self.ch - other.ch, self.cee - other.cee,
                            self.ceh - other.ceh, self.chh - other.chh)

    def map(self, f) -> "CohomElement":
        """f applied to every coefficient."""
        return CohomElement(f(self.c0), f(self.ce), f(self.ch),
                            f(self.cee), f(self.ceh), f(self.chh))

    def to_json(self) -> dict:
        return {"1": _scalar_json(self.c0), "e": _scalar_json(self.ce),
                "h": _scalar_json(self.ch), "ee": _scalar_json(self.cee),
                "eh": _scalar_json(self.ceh), "hh": _scalar_json(self.chh)}


def ring_mul(a: CohomElement, b: CohomElement) -> CohomElement:
    """Truncated commutative product; generator-degree > 2 terms are the
    quotient ideal and get dropped."""
    return CohomElement(
        a.c0 * b.c0,
        a.c0 * b.ce + a.ce * b.c0,
        a.c0 * b.ch + a.ch * b.c0,
        a.c0 * b.cee + a.ce * b.ce + a.cee * b.c0,
        a.c0 * b.ceh + a.ce * b.ch + a.ch * b.ce + a.ceh * b.c0,
        a.c0 * b.chh + a.ch * b.ch + a.chh * b.c0,
    )


def scalar_mul(s: Scalar, a: CohomElement) -> CohomElement:
    return CohomElement(s * a.c0, s * a.ce, s * a.ch,
                        s * a.cee, s * a.ceh, s * a.chh)


def exp_class(a: Scalar, b: Scalar) -> CohomElement:
    """exp(a*e + b*h) truncated: 1 + (a e + b h) + (a e + b h)^2 / 2."""
    half = Fraction(1, 2)
    one = a * 0 + 1
    return CohomElement(one, a, b, a * a * half, a * b, b * b * half)


def invert_unit(a: CohomElement) -> CohomElement:
    """Multiplicative inverse of a unit (invertible constant term), via the
    geometric series (1/c0)(1 + D + D^2) with D = 1 - a/c0 nilpotent of
    order 3 under truncation."""
    if not a.c0:
        raise ZeroDivisionError(
            "constant term is zero: not a unit (identity group element?)")
    inv0 = Fraction(1) / a.c0  # each scalar class inverts its own units
    one = CohomElement.constant(a.c0 * inv0)  # exact 1 in the scalar field
    d = one - scalar_mul(inv0, a)
    series = one + d + ring_mul(d, d)
    return scalar_mul(inv0, series)


def divide_by_e(a: CohomElement) -> CohomElement:
    """Exact division by the generator e; requires every surviving monomial
    of a to carry an e factor.  The unknowable degree-4 coefficients of the
    quotient are set to zero; they can never reach the surface pairing."""
    if a.c0 or a.ch or a.chh:
        raise ValueError("element is not divisible by e (nonzero 1, h or h^2 part)")
    z = a.ce * 0
    return CohomElement(a.ce, a.cee, a.ceh, z, z, z)


def a_hat_squared() -> CohomElement:
    """The squared A-hat class of the surface, 1 - e^2/12 (rational
    coefficients; mixed products coerce through the other operand)."""
    z = Fraction(0)
    return CohomElement(Fraction(1), z, z, Fraction(-1, 12), z, z)
