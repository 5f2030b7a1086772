"""Equivariant Chern characters of the bundles entering the index.

The cyclic structure group of order p acts trivially on the surface tangent
directions and by rotation on the normal plane, so the four basic complex
line bundles pick up phases 1, 1, zeta^j, zeta^-j.  Every character here is
a CohomElement over Cyclotomic scalars of order p, assembled from the line
characters by sums and truncated ring products.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .ring import CohomElement, exp_class, ring_mul, scalar_mul
from .scalars import Cyclotomic, zeta_power


@dataclass(frozen=True)
class GroupElement:
    """Generator power j of the cyclic group of order p; rotation angle
    theta = 2*pi*j/p on the normal plane.  j = 0 is the identity."""

    p: int
    j: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("group order p must be a positive integer")
        if not (0 <= self.j < self.p):
            raise ValueError("generator power must satisfy 0 <= j < p")

    def zeta(self) -> Cyclotomic:
        return zeta_power(self.p, self.j)

    def zeta_bar(self) -> Cyclotomic:
        return zeta_power(self.p, -self.j)


class LineBundleId(Enum):
    THETA1 = "theta1"
    THETA1_BAR = "theta1_bar"
    THETA2 = "theta2"
    THETA2_BAR = "theta2_bar"
    TRIVIAL = "trivial"


def _zero(gamma: GroupElement) -> Cyclotomic:
    return gamma.zeta() * 0


def _one(gamma: GroupElement) -> Cyclotomic:
    return _zero(gamma) + 1


@lru_cache(maxsize=None)
def ch_line(bundle: LineBundleId, gamma: GroupElement) -> CohomElement:
    """Equivariant Chern character of one of the four basic line bundles.

    The tangent pair is acted on trivially and contributes exp(+-e); the
    normal pair picks up the phases zeta^(+-j) on exp(+-h)."""
    one, zero = _one(gamma), _zero(gamma)
    if bundle is LineBundleId.THETA1:
        return exp_class(one, zero)
    if bundle is LineBundleId.THETA1_BAR:
        return exp_class(-one, zero)
    if bundle is LineBundleId.THETA2:
        return scalar_mul(gamma.zeta(), exp_class(zero, one))
    if bundle is LineBundleId.THETA2_BAR:
        return scalar_mul(gamma.zeta_bar(), exp_class(zero, -one))
    return CohomElement.constant(one)


@lru_cache(maxsize=None)
def ch_cotangent(gamma: GroupElement) -> CohomElement:
    """Character of the restricted complexified cotangent bundle: the sum of
    all four line characters (rank 4)."""
    return (ch_line(LineBundleId.THETA1, gamma)
            + ch_line(LineBundleId.THETA1_BAR, gamma)
            + ch_line(LineBundleId.THETA2, gamma)
            + ch_line(LineBundleId.THETA2_BAR, gamma))


def _ch_tensor(a: LineBundleId, b: LineBundleId, gamma: GroupElement) -> CohomElement:
    return ring_mul(ch_line(a, gamma), ch_line(b, gamma))


@lru_cache(maxsize=None)
def ch_lambda_plus(gamma: GroupElement) -> CohomElement:
    """Character of the complexified self-dual two-forms: a trivial summand
    plus the conjugate tensor pair Theta1*Theta2, Theta1bar*Theta2bar."""
    return (CohomElement.constant(_one(gamma))
            + _ch_tensor(LineBundleId.THETA1, LineBundleId.THETA2, gamma)
            + _ch_tensor(LineBundleId.THETA1_BAR, LineBundleId.THETA2_BAR, gamma))


@lru_cache(maxsize=None)
def ch_lambda_minus(gamma: GroupElement) -> CohomElement:
    """Anti-self-dual counterpart, built from the crossed tensor pair."""
    return (CohomElement.constant(_one(gamma))
            + _ch_tensor(LineBundleId.THETA1_BAR, LineBundleId.THETA2, gamma)
            + _ch_tensor(LineBundleId.THETA1, LineBundleId.THETA2_BAR, gamma))


@lru_cache(maxsize=None)
def ch_s20_cotangent(gamma: GroupElement) -> CohomElement:
    """Character of the traceless symmetric square of the cotangent bundle,
    via the rank-9 isomorphism with the tensor product of the two-form
    bundles."""
    return ring_mul(ch_lambda_plus(gamma), ch_lambda_minus(gamma))


@lru_cache(maxsize=None)
def ch_s20_lambda_plus(gamma: GroupElement) -> CohomElement:
    """Character of the traceless symmetric square of the self-dual
    two-forms: ch(V) + (ch(V)^2 - 2) + 1 for V the nontrivial rank-2
    summand; the -2 removes the doubled equivariantly trivial piece and the
    +1 is the trace line."""
    ch_v = (_ch_tensor(LineBundleId.THETA1, LineBundleId.THETA2, gamma)
            + _ch_tensor(LineBundleId.THETA1_BAR, LineBundleId.THETA2_BAR, gamma))
    two = CohomElement.constant(_one(gamma) * 2)
    one = CohomElement.constant(_one(gamma))
    return ch_v + (ring_mul(ch_v, ch_v) - two) + one


@lru_cache(maxsize=None)
def ch_symbol(gamma: GroupElement) -> CohomElement:
    """Pulled-back principal symbol of the deformation complex, as the
    alternating sum cotangent - S^2_0(cotangent) + S^2_0(Lambda+).  The
    constant and bare-h parts cancel identically, so every surviving
    monomial carries an e factor."""
    return (ch_cotangent(gamma)
            - ch_s20_cotangent(gamma)
            + ch_s20_lambda_plus(gamma))


@lru_cache(maxsize=None)
def ch_thom(gamma: GroupElement) -> CohomElement:
    """K-theoretic Thom class character of the complexified conormal bundle:
    2 - ch(N) = 2 - cos(2 + h^2) - i sin(2h).  Vanishes in degree 0 exactly
    at the identity, which is why correction sums exclude j = 0."""
    two = CohomElement.constant(_one(gamma) * 2)
    ch_n = (ch_line(LineBundleId.THETA2, gamma)
            + ch_line(LineBundleId.THETA2_BAR, gamma))
    return two - ch_n


_CHARACTERS = {
    "cotangent": ch_cotangent,
    "lambda_plus": ch_lambda_plus,
    "lambda_minus": ch_lambda_minus,
    "s20_cotangent": ch_s20_cotangent,
    "s20_lambda_plus": ch_s20_lambda_plus,
    "symbol": ch_symbol,
    "thom": ch_thom,
}


def character_dump(gamma: GroupElement) -> dict:
    """Debug dump: all character coefficients at one group element, in the
    JSON forms of the scalar and ring modules."""
    return {name: fn(gamma).to_json() for name, fn in _CHARACTERS.items()}
