"""The exactness suites that `orbifold-index verify` runs at every order p.

The paper's index is checked by two independent routes, the fixed-point
group sum and the closed form, and the suites compare them order by order.
SUITES pairs each suite's name with a function of the order p whose result
is true for a pass and false for a fail; a ConsistencyError it raises is a
fail too.  The front end (cli) runs them, counts and renders the verdicts.

The conjugation suite checks that the reduction table of the evaluation
kernel closes under its own recurrence (scalars._reduction_rows_close), in
time linear in the table, and evaluates the characters once at each j of J =
{1, p // 2, q} and its partners p - j, q the least prime factor of a
composite p: J is closed under j -> p - j, so comparing each value's
conjugate with the value at p - j compares every pair both ways.  It needs
no identity of the derived characters: conj f(zeta^j) = f(zeta^-j) holds
for every rational Laurent polynomial f.  The divisibility suite compares
each zero slot's value with the one shared zero of the order, in O(1) a
read.  The trig suite is identities.trig_sums itself: it returns the sums,
always true, and raises when its traced and closed forms disagree.  A fault
in the character algebra (mutants M13 and M15 of the project's mutant table)
is caught by the correction and p-independence suites, as by the tests'
per-element oracle.  A derived Thom class that is no unit fails those two
suites at every order instead of crashing the sweep.
"""

from __future__ import annotations

from . import bundles, index as index_mod
from .bundles import GroupElement
from .identities import trig_sums
from .index import (Duality, TopologicalData, correction_sum_closed_form, index_closed_form,
                    index_kawasaki)
from .scalars import Cyclotomic, _reduction_rows_close, cyclotomic_zero, divisors


def _check_correction(p: int) -> bool:
    return index_mod.correction_sum.__wrapped__(p) == correction_sum_closed_form(p)


def _check_conjugation(p: int) -> bool:
    # Kernel: the reduction table closes under its own recurrence, so each
    # row s is x^s mod Phi_p, and _from_terms, linear in its terms, reduces
    # every power of zeta_p right.
    if not _reduction_rows_close(p):
        return False
    # Table: the characters at j = 1, at j = p // 2 (s*j mod p mid-range),
    # at the least prime factor q of a composite p (an element of smaller
    # order) and at p - j for each, each element evaluated once.  The set
    # is closed under j -> p - j, so every pair is compared both ways and a
    # conjugation that is no involution fails: the check of galois, of
    # _from_terms scaling exponents and taking them mod p, and of the j
    # that Laurent.at hands it
    q = divisors(p)[1]
    js = {1, p // 2, q if q < p else 1}
    elements = [GroupElement(p, j) for j in js | {p - j for j in js}]
    for name in ("symbol", "thom", "lambda_plus"):
        vals = {g.j: bundles.character(name, g) for g in elements}
        if any(f.map(Cyclotomic.conjugate) != vals[p - j] for j, f in vals.items()):
            return False
    return True


_RANKS = (("cotangent", 4), ("lambda_plus", 3), ("lambda_minus", 3),
          ("s20_cotangent", 9), ("s20_lambda_plus", 5))


def _check_rank(p: int) -> bool:
    # the rank is the degree-0 part at the identity: only c0 is evaluated
    chars = bundles.generic_characters()
    return all(chars[name].c0.at(p, 0).as_rational() == rank for name, rank in _RANKS)


def _check_divisibility(p: int) -> bool:
    # the symbol's 1, h and h^2 parts, the ones read, at every nontrivial
    # element; a zero slot's value is the shared zero of order p, so a right
    # answer compares equal by identity in O(1), and a wrong one is unequal
    symbol = bundles.generic_characters()["symbol"]
    zero = cyclotomic_zero(p)
    return all(s.at(p, j) == zero for j in range(1, p) for s in (symbol.c0, symbol.ch, symbol.chh))


_P_INDEPENDENCE_SAMPLES = ((2, 0, 1, -2), (2, 0, 2, 0), (5, 3, 2, 3), (4, -2, -1, 6))


def _check_p_independence(p: int) -> bool:
    for chi, tau, schi, ssq in _P_INDEPENDENCE_SAMPLES:
        data = TopologicalData(chi, tau, schi, ssq, p)
        for duality in Duality:
            if index_kawasaki(data, duality) != index_closed_form(data, duality):
                return False
    return True


SUITES = (
    ("correction", _check_correction),
    ("trig", trig_sums),
    ("conjugation", _check_conjugation),
    ("rank", _check_rank),
    ("divisibility", _check_divisibility),
    ("p-independence", _check_p_independence),
)
