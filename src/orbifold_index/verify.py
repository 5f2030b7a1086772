"""The exactness suites that `orbifold-index verify` runs at every order p.

The paper's index is checked by two independent routes, the fixed-point
group sum and the closed form, and the suites compare them order by order.
SUITES pairs each suite's name with a function of the order p whose result
is true for a pass and false for a fail; a ConsistencyError it raises is a
fail too.  The front end (cli) runs them, counts and renders the verdicts.

What each suite establishes at p, and which facts it reads there that hold
at every order (the derived classes and their traces per divisor are
computed once per process, so a sweep reads them again at each p):
- correction: the traced group sum of the derived correction class at p
  equals its closed form.  The class and each divisor's trace are
  p-independent; the sum over p's divisors is not.
- trig: identities.trig_sums itself, the cos, cos^2 and 1/(1 - cos) sums
  at p traced and compared with their closed forms (it raises on a
  mismatch, and is otherwise true).
- conjugation: the reduction table of order p closes under its own
  recurrence (scalars._reduction_rows_close), in time linear in the
  table, so every power of zeta_p is reduced right; and conj f(zeta^j) =
  f(zeta^-j) for each distinct class f of the symbol, Thom and Lambda+
  characters at each element of _elements(p): the check of galois, of
  _from_terms scaling exponents mod p and of the j that Laurent.at hands
  it.  It needs no identity of the derived characters: the equation holds
  for every rational Laurent polynomial.
- rank: five characters' degree-0 parts at the identity are their ranks,
  read through _from_terms at j = 0.  The ranks of the derived classes are
  p-independent.
- divisibility: the distinct classes of the symbol's 1, h and h^2 slots
  evaluate to zero at each element of _elements(p).  That those slots are
  the zero class is p-independent (generic_characters raises otherwise);
  read at p is that the kernel sends the zero class to zero.
- p-independence: both index routes agree on four sample data and both
  dualities at p.
A per-element suite reads each distinct interned class once at each
element of one set of at most six, so an order costs O(1) evaluations.  A
fault in the character algebra (mutants M13 and M15 of the project's mutant
table) is caught by the correction and p-independence suites, as by the
tests' per-element oracle.  A derived Thom class that is no unit fails
those two suites at every order instead of crashing the sweep.
"""

from __future__ import annotations

from . import bundles, index as index_mod
from .identities import trig_sums
from .index import (Duality, TopologicalData, correction_sum_closed_form, index_closed_form,
                    index_kawasaki)
from .scalars import _reduction_rows_close, divisors


def _check_correction(p: int) -> bool:
    return index_mod.correction_sum.__wrapped__(p) == correction_sum_closed_form(p)


def _elements(p: int) -> set:
    """The powers j that the per-element suites read at order p: J = {1,
    p // 2, q} and each partner p - j, q the least prime factor of a
    composite p (1 at a prime).  p // 2 puts s*j mod p mid-range, q is an
    element of smaller order, and the set, at most six, is closed under
    j -> p - j."""
    q = divisors(p)[1]
    js = {1, p // 2, q if q < p else 1}
    return js | {p - j for j in js}


def _check_conjugation(p: int) -> bool:
    # Kernel: the reduction table closes under its own recurrence, so each
    # row s is x^s mod Phi_p, and _from_terms, linear in its terms, reduces
    # every power of zeta_p right.
    if not _reduction_rows_close(p):
        return False
    # Table: each distinct class once at each element.  The set is closed
    # under j -> p - j, so every pair is compared both ways and a
    # conjugation that is no involution fails
    chars = bundles.generic_characters()
    read = bundles.distinct_classes(chars[name] for name in ("symbol", "thom", "lambda_plus"))
    js = _elements(p)
    for f in read.values():
        vals = {j: f.at(p, j) for j in js}
        if any(v.conjugate() != vals[p - j] for j, v in vals.items()):
            return False
    return True


_RANKS = (("cotangent", 4), ("lambda_plus", 3), ("lambda_minus", 3),
          ("s20_cotangent", 9), ("s20_lambda_plus", 5))


def _check_rank(p: int) -> bool:
    # the rank is the degree-0 part at the identity: only c0 is evaluated
    chars = bundles.generic_characters()
    return all(chars[name].c0.at(p, 0).as_rational() == rank for name, rank in _RANKS)


def _check_divisibility(p: int) -> bool:
    # the symbol's 1, h and h^2 parts, the ones read: one interned zero
    # class, unless a fault split them, each tested for zero at each element
    read = bundles.distinct_classes((bundles.generic_characters()["symbol"],), ("c0", "ch", "chh"))
    js = _elements(p)
    return not any(f.at(p, j) for f in read.values() for j in js)


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
