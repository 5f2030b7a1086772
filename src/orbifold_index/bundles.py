"""Equivariant Chern characters of the bundles entering the index.

The cyclic structure group of order p acts trivially on the surface tangent
directions and by rotation on the normal plane, so the four basic complex
line bundles pick up phases 1, 1, zeta^j, zeta^-j.  Every character is
assembled from the line characters by sums and truncated ring products
(derive_characters), so each of its coefficients is one polynomial in the
phase z = zeta^j.

That algebra runs once, on first use, over Laurent scalars at the generic
element, whose phase is the indeterminate z; conjugation symmetry and the
divisibility of the symbol by e are checked there, once, as identities.

The conjugation check runs the algebra again at phase z^-1 and compares it
with Laurent.conjugate of the run at z.  That substitution is exactly what
conjugate does, so the two runs agree whatever the algebra builds from the
element's phases and rationals: the check guards the Laurent arithmetic and
conjugate, and a literal z that ignores the phase, but cannot catch a fault
in the character algebra itself.  Such a fault (a Thom class built from
Theta2 twice, or Lambda- from Theta1-bar twice: mutants M13 and M15 of the
project's mutant table) is caught by verify's correction and p-independence
suites and by the tests' per-element oracle, which runs the same algebra
over field phases of its own.  A GroupElement has no phase: it only
evaluates the derived characters at z = zeta_p^j (Laurent.at), so nothing
is built or cached per element.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from types import MappingProxyType

from .ring import CohomElement, exp_class, ring_mul, scalar_mul
from .scalars import ConsistencyError, Laurent, _Record, _set


class GroupElement(_Record):
    """Generator power j of the cyclic group of order p; rotation angle
    theta = 2*pi*j/p on the normal plane.  j = 0 is the identity."""

    _fields = ("p", "j")

    def __init__(self, p: int, j: int):
        if p < 1:
            raise ValueError("group order p must be a positive integer")
        if not (0 <= j < p):
            raise ValueError("generator power must satisfy 0 <= j < p")
        _set(self, "p", p)
        _set(self, "j", j)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.j) == (other.p, other.j)

    def __hash__(self):
        return hash((self.p, self.j))


class GenericElement:
    """Every nontrivial group element at once: its phase is z^power for the
    indeterminate z (power = -1 is the conjugate element)."""

    j = None  # no fixed generator power, and never the identity

    def __init__(self, power: int = 1):
        self.power = power

    def zeta(self) -> Laurent:
        return Laurent({self.power: 1})

    def zeta_bar(self) -> Laurent:
        return Laurent({-self.power: 1})


GENERIC = GenericElement()


class LineBundleId(Enum):
    THETA1 = "theta1"
    THETA1_BAR = "theta1_bar"
    THETA2 = "theta2"
    THETA2_BAR = "theta2_bar"
    TRIVIAL = "trivial"


def _zero(gamma):
    return gamma.zeta() * 0


def _one(gamma):
    return _zero(gamma) + 1


def ch_line(bundle: LineBundleId, gamma) -> CohomElement:
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


def derive_characters(gamma) -> dict[str, CohomElement]:
    """The seven characters by the line-bundle algebra over gamma's own
    phases gamma.zeta() and gamma.zeta_bar(), uncached: Laurent scalars at a
    GenericElement, and whatever scalars another element type's phases
    carry (the tests' oracle runs it element by element)."""
    t1, t1_bar, t2, t2_bar = (ch_line(b, gamma) for b in (
        LineBundleId.THETA1, LineBundleId.THETA1_BAR,
        LineBundleId.THETA2, LineBundleId.THETA2_BAR))
    one = CohomElement.constant(_one(gamma))
    two = one + one
    # the nontrivial rank-2 summands of Lambda+ and Lambda-
    v_plus = ring_mul(t1, t2) + ring_mul(t1_bar, t2_bar)
    v_minus = ring_mul(t1_bar, t2) + ring_mul(t1, t2_bar)
    cotangent = t1 + t1_bar + t2 + t2_bar
    lambda_plus, lambda_minus = one + v_plus, one + v_minus
    s20_cotangent = ring_mul(lambda_plus, lambda_minus)
    s20_lambda_plus = v_plus + (ring_mul(v_plus, v_plus) - two) + one
    return {
        "cotangent": cotangent,
        "lambda_plus": lambda_plus,
        "lambda_minus": lambda_minus,
        "s20_cotangent": s20_cotangent,
        "s20_lambda_plus": s20_lambda_plus,
        "symbol": cotangent - s20_cotangent + s20_lambda_plus,
        "thom": two - (t2 + t2_bar),
    }


@lru_cache(maxsize=1)
def generic_characters() -> MappingProxyType:
    """The seven characters at the generic element, derived on first use
    (never at import).  Two identities are checked once, or ConsistencyError
    is raised: the algebra run at phase z^-1 is the conjugate of the run at
    z, and the symbol has no 1, h or h^2 part, so it is divisible by e.
    The first guards the Laurent arithmetic and a literal z only: a fault in
    the algebra is an identity under z -> 1/z by construction and passes it
    (see the module docstring for what catches one)."""
    chars = derive_characters(GENERIC)
    flipped = derive_characters(GenericElement(-1))
    for name, c in chars.items():
        if c.map(Laurent.conjugate) != flipped[name]:
            raise ConsistencyError(
                f"character {name} at phase z^-1 is not the conjugate of its value at z")
    symbol = chars["symbol"]
    if symbol.c0 or symbol.ch or symbol.chh:
        raise ConsistencyError("symbol character is not divisible by e "
                               "(nonzero 1, h or h^2 part)")
    return MappingProxyType(chars)


def _character(name: str, gamma: GroupElement) -> CohomElement:
    """The derived character `name` at gamma, each coefficient evaluated at
    zeta_p^j."""
    return generic_characters()[name].map(lambda s: s.at(gamma.p, gamma.j))


def ch_cotangent(gamma) -> CohomElement:
    """Character of the restricted complexified cotangent bundle: the sum of
    all four line characters (rank 4)."""
    return _character("cotangent", gamma)


def ch_lambda_plus(gamma) -> CohomElement:
    """Character of the complexified self-dual two-forms: a trivial summand
    plus the conjugate tensor pair Theta1*Theta2, Theta1bar*Theta2bar."""
    return _character("lambda_plus", gamma)


def ch_lambda_minus(gamma) -> CohomElement:
    """Anti-self-dual counterpart, built from the crossed tensor pair."""
    return _character("lambda_minus", gamma)


def ch_s20_cotangent(gamma) -> CohomElement:
    """Character of the traceless symmetric square of the cotangent bundle,
    via the rank-9 isomorphism with the tensor product of the two-form
    bundles."""
    return _character("s20_cotangent", gamma)


def ch_s20_lambda_plus(gamma) -> CohomElement:
    """Character of the traceless symmetric square of the self-dual
    two-forms: ch(V) + (ch(V)^2 - 2) + 1 for V the nontrivial rank-2
    summand; the -2 removes the doubled equivariantly trivial piece and the
    +1 is the trace line."""
    return _character("s20_lambda_plus", gamma)


def ch_symbol(gamma) -> CohomElement:
    """Pulled-back principal symbol of the deformation complex, as the
    alternating sum cotangent - S^2_0(cotangent) + S^2_0(Lambda+).  The
    constant and bare-h parts cancel identically, so every surviving
    monomial carries an e factor."""
    return _character("symbol", gamma)


def ch_thom(gamma) -> CohomElement:
    """K-theoretic Thom class character of the complexified conormal bundle:
    2 - ch(N) = 2 - cos(2 + h^2) - i sin(2h).  Vanishes in degree 0 exactly
    at the identity, which is why correction sums exclude j = 0."""
    return _character("thom", gamma)


def character_dump(gamma: GroupElement) -> dict:
    """Debug dump: all character coefficients at one group element, in the
    JSON forms of the scalar and ring modules."""
    return {name: _character(name, gamma).to_json() for name in generic_characters()}
