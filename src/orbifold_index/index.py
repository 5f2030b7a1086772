"""The index engine: correction terms, orbifold characteristics, and the
deformation-complex index by both the fixed-point route and the closed form.

The fixed-point route assembles

    (1/2)(15 chi + 29 tau)
      - (15/2)(1 - 1/p) chi(Sigma) - (29/6)((p^2-1)/p) [Sigma-hat]^2
      - < (1/p) sum_{j=1}^{p-1} ch_j(symbol) / (ch_j(thom) e) * Ahat^2, [Sigma] >

and must land on the same integer as the closed form
(1/2)(15 chi +- 29 tau) - 4 chi(Sigma) -+ 4 [Sigma]^2 for every cone order p.

The summand is one function of z = zeta^j: correction_class derives it once,
correction_at evaluates it at one element (Laurent.at), and the group sum
traces it per divisor class d | p (identities.py).  No path here computes
in Q(zeta_p): the same algebra run per element is the tests' oracle.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from . import bundles, identities
from .bundles import GroupElement
from .ring import CohomElement, a_hat_squared, divide_by_e, invert_unit, ring_mul
from .scalars import ConsistencyError, _Record, _set


class TopologicalData(_Record):
    """Everything the index formulas see: (chi(M), tau(M), chi(Sigma),
    [Sigma]^2, cone order p)."""

    _fields = ("chi_M", "tau_M", "chi_Sigma", "sigma_sq", "p")

    def __init__(self, chi_M: int, tau_M: int, chi_Sigma: int, sigma_sq: int, p: int):
        if p < 1:
            raise ValueError("cone order p must be a positive integer")
        _set(self, "chi_M", chi_M)
        _set(self, "tau_M", tau_M)
        _set(self, "chi_Sigma", chi_Sigma)
        _set(self, "sigma_sq", sigma_sq)
        _set(self, "p", p)


class Duality(Enum):
    ASD = "asd"
    SD = "sd"


class CorrectionSum(_Record):
    """Degree-2 coefficients of the group-averaged correction class."""

    _fields = ("coeff_e", "coeff_h")

    def __init__(self, coeff_e: Fraction, coeff_h: Fraction):
        _set(self, "coeff_e", coeff_e)
        _set(self, "coeff_h", coeff_h)

    def to_json(self) -> dict:
        return {"e": str(self.coeff_e), "h": str(self.coeff_h)}


def correction_term(symbol: CohomElement, thom: CohomElement) -> CohomElement:
    """The fixed-point contribution (symbol/e) * thom^-1 * Ahat^2, truncated,
    from the symbol and Thom characters of one element, over whichever
    scalars they carry."""
    return ring_mul(ring_mul(divide_by_e(symbol), invert_unit(thom)), a_hat_squared())


@lru_cache(maxsize=1)
def correction_class() -> CohomElement:
    """correction_term as six functions of z = zeta^j, each a Laurent class
    N(z)/t^k: run once, on first use, over the characters that
    bundles.generic_characters derives.  The e and h coefficients are
    checked, once, to be invariant under z -> z^-1 (the coefficients of a
    real class) and to carry at most one power of t = 2 - z - z^-1, the one
    inverse the class traces evaluate.  A derived Thom class that is not a
    unit c * t^m, which has no inverse to take, raises ConsistencyError too:
    a check that fails, not a crash."""
    chars = bundles.generic_characters()
    try:
        c = correction_term(chars["symbol"], chars["thom"])
    except ZeroDivisionError as exc:
        raise ConsistencyError(f"derived Thom class is not a unit: {exc}") from exc
    for name, s in (("e", c.ce), ("h", c.ch)):
        if s.conjugate() != s or s.k > 1:
            raise ConsistencyError(f"derived correction class {name} = {s!r} is not "
                                   "symmetric under z -> 1/z over at most one power of t")
    return c


def correction_at(gamma: GroupElement) -> CohomElement:
    """Fixed-point contribution of one nontrivial group element: the derived
    correction class evaluated at z = zeta_p^j.  Degree-2 coefficients are
    -(1/2)(8 cos + 7) on e and -4 cos - 5/(1 - cos) on h.  The result holds
    Cyclotomic values, which have no arithmetic, so it is read-only: ==,
    hash, map and to_json work, but +, -, ring.ring_mul and ring.invert_unit
    raise TypeError."""
    if gamma.j == 0:
        raise ValueError("identity element is excluded from correction terms")
    return correction_class().map(lambda s: s.at(gamma.p, gamma.j))


@lru_cache(maxsize=None)
def correction_sum(p: int) -> CorrectionSum:
    """Sum of correction_at over j = 1..p-1, scaled by 1/p; p = 1 is the
    empty sum.  Evaluated at every p >= 2 from the derived correction class,
    traced once per divisor class d | p, d > 1, and rational by
    construction: each coefficient is one Fraction of the integer pair that
    class_sums returns, its denominator times p.
    correction_sum.__wrapped__ is the uncached evaluation."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    if p == 1:
        return CorrectionSum(Fraction(0), Fraction(0))  # empty sum over nontrivial elements
    c = correction_class()
    (e, de), (h, dh) = identities.class_sums(p, (c.ce, c.ch))
    return CorrectionSum(Fraction(e, de * p), Fraction(h, dh * p))


def correction_sum_closed_form(p: int) -> CorrectionSum:
    """Closed form (1/p)(-(1/2)(7p - 15) on e, 4 - (5/6)(p^2 - 1) on h);
    valid for p >= 2 only, since it was derived from identities over a
    nonempty group sum."""
    if p < 2:
        raise ValueError("closed form requires p >= 2")
    coeff_e = Fraction(-(7 * p - 15), 2 * p)
    coeff_h = Fraction(24 - 5 * (p * p - 1), 6 * p)
    return CorrectionSum(coeff_e, coeff_h)


def index_smooth(chi_M: int, tau_M: int, duality: Duality) -> Fraction:
    """Smooth-case index (1/2)(15 chi +- 29 tau), as an exact rational."""
    sign = 1 if duality is Duality.ASD else -1
    return Fraction(15 * chi_M + sign * 29 * tau_M, 2)


def index_kawasaki(data: TopologicalData, duality: Duality) -> int:
    """Index via the orbifold fixed-point route; independent of p and equal
    to the closed form, which the test suites assert exactly.  It reads the
    traced correction_sum, never the closed form."""
    # SD is the ASD index with tau and [Sigma]^2 of the reversed orientation
    sign = 1 if duality is Duality.ASD else -1
    p, chi_s = data.p, data.chi_Sigma
    tau, ssq = sign * data.tau_M, sign * data.sigma_sq
    cs = correction_sum(p)
    (a, b), (c, d) = cs.coeff_e.as_integer_ratio(), cs.coeff_h.as_integer_ratio()
    # the smooth, Euler and self-intersection terms, over 6 p^2, minus the
    # correction (a/b) chi(Sigma) + (c/d) [Sigma]^2 / p: one integer quotient
    num = (b * d * (3 * p * p * (15 * data.chi_M + 29 * tau)
                    - 45 * p * (p - 1) * chi_s - 29 * (p * p - 1) * ssq)
           - 6 * p * (p * d * a * chi_s + b * c * ssq))
    den = 6 * p * p * b * d
    index, rest = divmod(num, den)
    if rest:
        raise ConsistencyError(f"fixed-point index is not an integer: {Fraction(num, den)}")
    return index


def index_closed_form(data: TopologicalData, duality: Duality) -> int:
    """Index via the closed form; rejects p = 1, where only the smooth
    formula applies (the two genuinely differ there)."""
    if data.p < 2:
        raise ValueError(
            "closed form applies to actual cone orders p >= 2; "
            "use index_smooth for the smooth case p = 1")
    sign = 1 if duality is Duality.ASD else -1
    twice = (15 * data.chi_M + sign * 29 * data.tau_M
             - 8 * data.chi_Sigma - sign * 8 * data.sigma_sq)
    if twice % 2:
        raise ConsistencyError(
            f"closed-form index is not an integer: {Fraction(twice, 2)}")
    return twice // 2


def chi_orb(chi_M: int, beta: Fraction, chi_Sigma: int) -> Fraction:
    """Orbifold Euler characteristic chi(M) - (1 - beta) chi(Sigma) for cone
    angle 2*pi*beta."""
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("cone angle parameter beta must be positive")
    return chi_M - (1 - beta) * chi_Sigma


def tau_orb(tau_M: int, beta: Fraction, sigma_sq: int) -> Fraction:
    """Orbifold signature tau(M) - (1/3)(1 - beta^2) [Sigma]^2."""
    beta = Fraction(beta)
    if beta <= 0:
        raise ValueError("cone angle parameter beta must be positive")
    return tau_M - Fraction(1, 3) * (1 - beta * beta) * sigma_sq
