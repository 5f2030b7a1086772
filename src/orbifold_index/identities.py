"""Per-divisor Galois traces of the group sums.

A full group sum is Galois-invariant: the elements zeta_p^j, j = 1..p-1,
split by exact order d | p, d > 1, into the Galois orbits of zeta_d, so

    sum_j f(zeta_p^j) = sum_{d | p, d > 1} Tr_{Q(zeta_d)/Q} f(zeta_d)

for any f with rational coefficients.  Each summand here is a class
f = N(z)/t^k over t = 2 - z - z^-1 with k <= 1 (scalars.Laurent): cos,
cos^2 and 1/(1 - cos) (trig_sums, checked against their closed forms), and
the correction class that index.py derives from bundles.py.  It is evaluated
at x = zeta_d in Z[x]/(x^d - 1) and traced: x^s traces to the Ramanujan sum
c_d(s) = sum_{m | gcd(s, d)} mu(d/m) m, so with k = 0 each term of N takes
one Ramanujan sum.  With k = 1, N multiplies the representative of 1/t,
whose entries are one quadratic in the exponent r:

    u = (1/(2d^2)) sum_{r < d} v(r) x^r,   v(r) = c0 + c1 r + c2 r^2 = 2 C_r,
    C_r = T2 - r*T1 + d*r(r-1)/2,  T1 = d(d-1)/2,  T2 = (d-1)d(2d-1)/6,

checked against its exact ring identity

    (2 - x - x^-1) * 2d^2 u  =  2d^2 - 2d N_d      in Z[x]/(x^d - 1),

where the all-ones N_d vanishes at every primitive d-th root, so u is the
true inverse at zeta_d and, the identity having integer coefficients, at all
its Galois images.  u_d is built and checked in one place,
scalars.inv_two_minus_two_cos_quadratic, for these traces only (Laurent.at
divides by t in O(d) instead).  The trace of x^s u reads u at the exponents
r = -s mod m, m | d, one arithmetic progression of step m each, and the sum
of a quadratic over a progression has a closed form (progression_sum): a
class trace costs O(2^omega(d)) integer operations per term of N, and no
vector of length d is built.  The progressions of one step m are summed
together: with a_s = -s mod m, sum_s c_s v(a_s + x) is one quadratic in x
whose coefficients take only the three moments

    Z0 = sum_s c_s,   Z1 = sum_s c_s a_s,   Z2 = sum_s c_s a_s^2,

namely (c0 Z0 + c1 Z1 + c2 Z2, c1 Z0 + 2 c2 Z1, c2 Z0), so each m costs
one pass over the terms and one progression sum (sparse_trace_over_t).

A class trace depends on d and the class only, never on p, so each (d,
class) trace is computed once per process and kept as one integer
(_class_trace), keyed on the class's own fields (d, k, lo, nums): the
numerator tuple is the Laurent's own, so a lookup builds no tuple, and the
denominator stays outside the key.  A group sum is class_sums, the one
entry point: it lists p's divisors once and traces every class it is given
over that one list, adding the kept integers over one common denominator.
The Ramanujan weights of each d are kept too (scalars.ramanujan_weights), so
a process factors each divisor once, whichever orders and classes reach it.
A failed check is not kept and raises on every call.
The sums are rational by construction; the tests keep the literal
per-element sweeps over Q(zeta_p) as the independent route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .scalars import (
    ConsistencyError,
    Laurent,
    divisors,
    inv_two_minus_two_cos_quadratic,
    ramanujan_weights,
)


def progression_sum(coeffs: tuple[int, int, int], d: int, m: int, a: int) -> int:
    """sum of v(r) = c0 + c1 r + c2 r^2 over r = a, a + m, ..., r < d, for
    m | d and 0 <= a < m: with r = a + m i, i < n = d/m, it is
    n v(a) + (c1 + 2 a c2) S1 + c2 S2 for S1 = sum m i, S2 = sum (m i)^2."""
    c0, c1, c2 = coeffs
    n = d // m
    s1 = m * n * (n - 1) // 2
    s2 = m * m * (n - 1) * n * (2 * n - 1) // 6
    return n * (c0 + a * (c1 + a * c2)) + (c1 + 2 * a * c2) * s1 + c2 * s2


def sparse_trace(d: int, terms: dict[int, int]) -> int:
    """Tr_{Q(zeta_d)/Q} of sum_s c_s x^s at x = zeta_d, as sum_s c_s c_d(s)
    with the Ramanujan sum c_d(s) = sum_{m | gcd(s, d)} mu(d/m) m."""
    weights = ramanujan_weights(d)
    total = 0
    for s, c in terms.items():
        for m, w in weights:
            if s % m == 0:
                total += c * w
    return total


def sparse_trace_over_t(d: int, terms: dict[int, int]) -> int:
    """2 d^2 Tr_{Q(zeta_d)/Q} of sum_s c_s x^s / t at x = zeta_d, from the
    checked representative u_d of 1/t: sum_{m | d} mu(d/m) m times the sum
    of the entries of N * u at the multiples of m.  Term s reads u's
    quadratic v over the progression a_s + m i, a_s = -s mod m, and the
    terms' sum_s c_s v(a_s + x) is one quadratic in x, from the moments
    Z0, Z1 and Z2 of the a_s (module docstring): one progression sum per m."""
    (c0, c1, c2), _ = inv_two_minus_two_cos_quadratic(d)
    z0 = sum(terms.values())
    total = 0
    for m, w in ramanujan_weights(d):
        z1 = z2 = 0
        for s, c in terms.items():
            a = -s % m
            ca = c * a
            z1 += ca
            z2 += ca * a
        shifted = (c0 * z0 + c1 * z1 + c2 * z2, c1 * z0 + 2 * c2 * z1, c2 * z0)
        total += w * progression_sum(shifted, d, m, 0)
    return total


@lru_cache(maxsize=None)
def _class_trace(d: int, k: int, lo: int, nums: tuple[int, ...]) -> int:
    """The integer trace at z = zeta_d of the class sum_s nums[s - lo] z^s
    / t^k, keyed on the class's own fields (its denominator is applied by
    class_sums): Tr of the polynomial when k = 0, and 2 d^2 times Tr of the
    class when k = 1."""
    terms = {s: c for s, c in enumerate(nums, lo) if c}
    return sparse_trace(d, terms) if k == 0 else sparse_trace_over_t(d, terms)


def class_sums(p: int, classes: Iterable[Laurent]) -> tuple[Fraction, ...]:
    """The sum of each class c = N(z) / t^k, k <= 1, over the nontrivial
    elements zeta_p^j, j = 1..p-1: the sum over the divisor classes d | p,
    d > 1, of Tr_{Q(zeta_d)/Q} c(zeta_d), which is the sum of c over the
    elements of exact order d, N traced term by term when k = 0, and N
    times the checked representative of 1/t when k = 1.  p's divisors are
    listed once for all the classes.  The integer traces of _class_trace,
    taken on the integer numerators of N, are added over one denominator:
    N's own, times 2 p^2 when k = 1 (p is the lcm of the classes)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    ds = divisors(p)[1:]
    sums = []
    for c in classes:
        if c.k > 1:
            raise ValueError(f"only classes over at most one power of t are traced, not {c!r}")
        lo, nums, total = c.lo, c.nums, 0
        if c.k == 0:
            for d in ds:
                total += _class_trace(d, 0, lo, nums)
            sums.append(Fraction(total, c.den))
        else:
            for d in ds:
                q = p // d
                total += _class_trace(d, 1, lo, nums) * q * q
            sums.append(Fraction(total, 2 * c.den * p * p))
    return tuple(sums)


# ---------------------------------------------------------------------------
# trig sums
# ---------------------------------------------------------------------------

_COS = Laurent({1: Fraction(1, 2), -1: Fraction(1, 2)})
_COS_SQ = _COS * _COS
_INV_ONE_MINUS_COS = Laurent({0: 2}, 1)  # 1/(1 - cos) = 2/t


class TrigSums(NamedTuple):
    sum_cos: Fraction
    sum_cos_sq: Fraction
    sum_inv_one_minus_cos: Fraction


def _trig_closed_forms(p: int) -> TrigSums:
    # sum cos^2 is (p-2)/2 only for p >= 3; the p = 2 sum has the single
    # term cos^2(pi) = 1 because 2*theta wraps to a full turn.
    sum_cos_sq = Fraction(1) if p == 2 else Fraction(p - 2, 2)
    return TrigSums(Fraction(-1), sum_cos_sq, Fraction(p * p - 1, 6))


def trig_sums(p: int) -> TrigSums:
    """Exact sums over the nontrivial group elements, theta_j = 2*pi*j/p:

        sum cos(theta_j),  sum cos^2(theta_j),  sum 1/(1 - cos(theta_j))

    for j = 1..p-1, each traced per divisor class as above from (z + z^-1)/2,
    its square and 2/t, and checked against the closed forms -1, (p-2)/2
    (p >= 3; 1 at p = 2), (p^2-1)/6.
    """
    if p < 2:
        raise ValueError("p must be at least 2 (empty sums are the caller's business)")
    traced = TrigSums(*class_sums(p, (_COS, _COS_SQ, _INV_ONE_MINUS_COS)))
    closed = _trig_closed_forms(p)
    if traced != closed:
        raise ConsistencyError(
            f"trig sums disagree at p={p}: traced {traced} vs closed {closed}")
    return closed
