"""Equivariant Chern characters of the bundles entering the index.

The cyclic structure group of order p acts trivially on the surface tangent
directions and by rotation on the normal plane, so the four basic complex
line bundles pick up phases 1, 1, zeta^j, zeta^-j.  derive_characters builds
every character from the line characters by sums and truncated ring
products over two scalars, the phase z and its inverse z_bar, so each of its
coefficients is one polynomial in the phase z = zeta^j.

That algebra runs once per process, on first use, over the Laurent phases
Z and Z_BAR (generic_characters), which checks that the symbol is divisible
by e.  The identity chi(1/z) = conj chi(z) takes no input, so the tests
check it, against derive_characters(Z_BAR, Z); a fault in the algebra
itself is caught by verify's correction and p-independence suites and by
the tests' per-element oracle.  Equal coefficients of the derived
characters are interned there, once per process, as one Laurent each: the
42 slots of the seven characters hold 20 distinct classes, zero included.
distinct_classes lists the distinct classes among some slots once each, by
identity.  A GroupElement has no phase: character_dump evaluates each
distinct class at z = zeta_p^j (Laurent.at) and renders it once, in a memo
that ends with the call, so nothing is kept per element; verify's
per-element suites read the classes the same way.
"""

from __future__ import annotations

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


Z, Z_BAR = Laurent({1: 1}), Laurent({-1: 1})  # the generic phase and its inverse
# the keys of CohomElement.to_json, in the order of CohomElement's fields
_JSON_KEYS = tuple(CohomElement.constant(0).to_json())


def _line_characters(z, z_bar) -> tuple[CohomElement, ...]:
    """The trivial line and Theta1, Theta1-bar, Theta2, Theta2-bar over the
    phases z and z_bar, in their scalars.  The tangent pair is acted on
    trivially and contributes exp(+-e); the normal pair picks up the phases
    z and z_bar on exp(+-h)."""
    zero = z * 0
    one = zero + 1
    return (CohomElement.constant(one), exp_class(one, zero), exp_class(-one, zero),
            scalar_mul(z, exp_class(zero, one)), scalar_mul(z_bar, exp_class(zero, -one)))


def derive_characters(z, z_bar) -> dict[str, CohomElement]:
    """The seven characters by the line-bundle algebra over the phases z and
    z_bar, uncached: Laurent scalars for the generic phases Z and Z_BAR, and
    whatever scalars other phases carry (the tests' oracle passes field
    phases zeta_p^j and zeta_p^-j)."""
    one, t1, t1_bar, t2, t2_bar = _line_characters(z, z_bar)
    two = one + one
    # the nontrivial rank-2 summands of Lambda+ (the conjugate tensor pair)
    # and of Lambda- (the crossed pair)
    v_plus = ring_mul(t1, t2) + ring_mul(t1_bar, t2_bar)
    v_minus = ring_mul(t1_bar, t2) + ring_mul(t1, t2_bar)
    cotangent = t1 + t1_bar + t2 + t2_bar  # all four lines, rank 4
    lambda_plus, lambda_minus = one + v_plus, one + v_minus
    # S^2_0(cotangent) is Lambda+ (x) Lambda- (both rank 9)
    s20_cotangent = ring_mul(lambda_plus, lambda_minus)
    # ch(V) + (ch(V)^2 - 2) + 1: the -2 removes the doubled equivariantly
    # trivial piece of V (x) V and the +1 is the trace line
    s20_lambda_plus = v_plus + (ring_mul(v_plus, v_plus) - two) + one
    return {
        "cotangent": cotangent,
        "lambda_plus": lambda_plus,
        "lambda_minus": lambda_minus,
        "s20_cotangent": s20_cotangent,
        "s20_lambda_plus": s20_lambda_plus,
        # the principal symbol of the deformation complex, its alternating
        # sum: the 1 and bare h parts cancel identically, so every
        # surviving monomial carries e
        "symbol": cotangent - s20_cotangent + s20_lambda_plus,
        # Thom class of the complexified conormal bundle N, 2 - ch(N) =
        # 2 - cos(2 + h^2) - i sin(2h): zero in degree 0 exactly at the
        # identity, which is why correction sums exclude j = 0
        "thom": two - (t2 + t2_bar),
    }


@lru_cache(maxsize=1)
def generic_characters() -> MappingProxyType:
    """The seven characters at the generic phase Z, derived on first use
    (never at import).  The symbol has no 1, h or h^2 part, so it is
    divisible by e (divide_by_e relies on it), or ConsistencyError is
    raised."""
    chars = derive_characters(Z, Z_BAR)
    symbol = chars["symbol"]
    if symbol.c0 or symbol.ch or symbol.chh:
        raise ConsistencyError("symbol character is not divisible by e "
                               "(nonzero 1, h or h^2 part)")
    # equal slots become one object, keyed by the canonical form so that no
    # scalar hash runs; distinct_classes finds the repeats by identity
    interned = {}
    return MappingProxyType({name: c.map(lambda s: interned.setdefault(s._key(), s))
                             for name, c in chars.items()})


def distinct_classes(chars, slots: tuple = CohomElement._fields) -> dict:
    """The distinct classes in the named slots of chars (characters of
    generic_characters), each once, keyed by id: equal slots were interned
    as one object, so no scalar hash runs."""
    return {id(s): s for s in (getattr(c, name) for c in chars for name in slots)}


def character_dump(gamma: GroupElement) -> dict:
    """Debug dump: all character coefficients at one group element, in the
    JSON forms of the scalar and ring modules.  Each distinct class of
    generic_characters is evaluated at zeta_p^j and rendered once, and
    every slot holding it shares that JSON; the memo ends with the call."""
    chars = generic_characters()
    rendered = {key: s.at(gamma.p, gamma.j).to_json()
                for key, s in distinct_classes(chars.values()).items()}
    return {name: dict(zip(_JSON_KEYS, (rendered[id(s)] for s in c._values(c))))
            for name, c in chars.items()}
