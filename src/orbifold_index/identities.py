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
one Ramanujan sum.  With k = 1, N multiplies u_d, the representative of 1/t
in Z[x]/(x^d - 1), whose entries are one quadratic in the exponent r over
the one denominator 2d^2:

    u_d = (1/(2d^2)) sum_{r < d} v(r) x^r,   v(r) = c0 + c1 r + c2 r^2 = 2 C_r,
    C_r = T2 - r*T1 + d*r(r-1)/2,  T1 = d(d-1)/2,  T2 = (d-1)d(2d-1)/6,

checked against its exact ring identity

    (2 - x - x^-1) * 2d^2 u_d  =  2d^2 - 2d N_d      in Z[x]/(x^d - 1),

where the all-ones N_d vanishes at every primitive d-th root, so u_d is the
true inverse at zeta_d and, the identity having integer coefficients, at all
its Galois images.  This module is the only one that knows u_d: it is built
as its three coefficients and checked in O(1) in one place
(inv_two_minus_two_cos_quadratic, which runs verify_inverse_quadratic), for
these traces only (Laurent.at divides by t in O(d) instead), and the 2d^2
is written here alone.  The trace of x^s u_d reads u_d at the exponents
r = -s mod m, m | d, one arithmetic progression of step m each, weighted by
mu(d/m) m, and the sum of a quadratic over a progression has a closed form.
The progressions of one step m are summed together: with a_s = -s mod m,
sum_s c_s v(a_s + x) is one quadratic in x whose coefficients take only
the three moments

    Z0 = sum_s c_s,   Z1 = sum_s c_s a_s,   Z2 = sum_s c_s a_s^2.

No sum runs over all m | d.  For m > S = max |s|, a_s is -s (s <= 0) or
m - s (s > 0), so Z1 and Z2 are polynomials in m, and so is m times the
progression sum: one quadratic e0 + e1 m + e2 m^2, whose sum against
mu(d/m) over m | d is e1 J_1(d) + e2 J_2(d) by Jordan's totients
J_k(d) = sum_{m | d} mu(d/m) m^k = (d/rad d)^k prod_{q | d} (q^k - 1)
(Apostol, Introduction to Analytic Number Theory, ch. 2), J_0(d) being 0 at
d >= 2.  Its integers are e1 and e2 times 6, and their sum is divided by 6
exactly or raises.  The few m <= S with mu(d/m) != 0 are then corrected by
what their true moments differ by.  With k = 0, Hoelder's (1936)
c_d(s) = mu(e) phi(d) / phi(e), e = d / gcd(d, s), takes O(omega(d)) once
for each distinct gcd.  So a class trace costs O(omega(d)) integer
operations plus one pass over N for each small m, where a sum over the
Ramanujan weights cost O(2^omega(d)) per term of N, and no vector of length
d is built.  Both kernels take d's distinct primes, and no divisor is ever
factored: class_sums factors p once per group sum and hands each d the
primes of p that divide it.

A class trace depends on d and the class only, never on p, so each (d,
class) trace is computed once per process and kept as one integer in
_TRACES, one plain dict per class keyed on the class's own fields
(k, lo, nums), which maps d to its trace: the numerator tuple is the
Laurent's own, and both kernels read it as it is stored, the numerators of
z^lo, z^(lo+1), ..., skipping its zeros, so a miss builds no other form of
the class.  The denominator stays outside the key.  A group sum is
class_sums, the one entry point: it lists p's divisors once, fetches each
class's dict once and reads every d of that one list from it, so a lookup
builds no key of its own; a miss stores its trace only once its kernel has
returned.  Each class's sum goes back as two integers, the sum of the kept
traces over the class's one positive denominator, unreduced; no Fraction
is built until a caller needs one (trig_sums cross-multiplies with its
closed forms, index.correction_sum builds each coefficient once).
A failed check is not kept and raises on every call.
The sums are rational by construction; the tests keep the literal
per-element sweeps over Q(zeta_p) as the independent route.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .scalars import ConsistencyError, Laurent, _prime_factors, divisors, ramanujan_weights


def inv_two_minus_two_cos_quadratic(d: int) -> tuple[int, int, int]:
    """(c0, c1, c2) for 1/(2 - x - x^-1) at x = zeta_d, d >= 2: the element
    u_d = sum_r v(r) x^r / (2 d^2) of Z[x]/(x^d - 1), r = 0..d-1, with the
    quadratic v(r) = c0 + c1 r + c2 r^2 = 2 C_r (module docstring).
    Checked by verify_inverse_quadratic before it is returned: no caller
    gets an unchecked u_d."""
    if d < 2:
        raise ZeroDivisionError("zeta_d = 1 is not invertible in these identities")
    coeffs = ((d - 1) * d * (2 * d - 1) // 3, -d * d, d)
    verify_inverse_quadratic(d, coeffs)
    return coeffs


def verify_inverse_quadratic(d: int, coeffs: tuple[int, int, int]) -> None:
    """Check (2 - x - x^-1) * v = 2d^2 - 2d N_d in Z[x]/(x^d - 1) for
    v = sum_r v(r) x^r, v(r) = c0 + c1 r + c2 r^2, exactly and in O(1): the
    all-ones N_d vanishes at every primitive d-th root of unity, d >= 2.
    Entry r of the left side is 2 v(r) - v(r-1) - v(r+1), with cyclic
    neighbours at the two ends, which are closed expressions in c0, c1, c2:
    2 v(0) - v(d-1) - v(1) and 2 v(d-1) - v(d-2) - v(0), with v(0) = c0 and
    v(1) = c0 + c1 + c2; every interior 0 < r < d - 1 is the constant
    -2 c2.  Two ends plus the zero sum: the entries of both sides sum to 0
    (t's coefficients do), so once the two ends agree, the d - 2 interior
    entries do too, and -2 c2 = -2d.  At d = 2 the two ends are all the
    entries."""
    c0, c1, c2 = coeffs
    top = c0 + (d - 1) * (c1 + (d - 1) * c2)  # v(d - 1)
    if (c0 - c1 - c2 - top != 2 * d * (d - 1)
            or 2 * top - c0 - (c0 + (d - 2) * (c1 + (d - 2) * c2)) != -2 * d):
        raise ConsistencyError(
            f"closed-form inverse failed its ring identity at d={d}")


def _totients(d: int, primes: list[int]) -> tuple[int, int]:
    """Jordan's totients J_1(d) = phi(d) and J_2(d), J_k(d) the sum of
    mu(d/m) m^k over m | d, from d's distinct primes: (d/rad d)^k times the
    product of q^k - 1."""
    f = d
    for q in primes:
        f //= q
    j1, j2 = f, f * f
    for q in primes:
        j1 *= q - 1
        j2 *= q * q - 1
    return j1, j2


def sparse_trace(d: int, primes: list[int], lo: int, nums: tuple[int, ...]) -> int:
    """Tr_{Q(zeta_d)/Q} of sum_s nums[s - lo] x^s at x = zeta_d, as
    sum_s c_s c_d(s) over the nonzero c_s, d's distinct primes given: by
    Hoelder, the Ramanujan sum c_d(s) is mu(e) phi(d) / phi(e), e = d/g,
    g = gcd(d, s), so c_d(0) = phi(d), and 0 when e is not squarefree.
    Each distinct g is evaluated once a call, in O(omega(d))."""
    phi = _totients(d, primes)[0]
    sums: dict[int, int] = {}  # c_d(s) by g = gcd(d, s)
    total = 0
    for s, c in enumerate(nums, lo):
        if c:
            g = gcd(d, s)
            r = sums.get(g)
            if r is None:
                e, r = d // g, phi
                for q in primes:
                    if e % q == 0:
                        e //= q
                        r = 0 if e % q == 0 else -r // (q - 1)
                sums[g] = r
            total += c * r
    return total


def sparse_trace_over_t(d: int, primes: list[int], lo: int, nums: tuple[int, ...]) -> int:
    """2 d^2 Tr_{Q(zeta_d)/Q} of sum_s nums[s - lo] x^s / t at x = zeta_d,
    d's distinct primes given, from the checked u_d: sum_{m | d} mu(d/m) m
    B(m), B(m) the sum of N * 2d^2 u_d's entries at the multiples of m.  For
    m > S = max |s|, a_s = -s mod m is -s (s <= 0) or m - s (s > 0), so the
    moments are Z1 = A1 + m P0 and Z2 = A2 - 2m P1 + m^2 P0, and m B(m) is
    one quadratic e0 + e1 m + e2 m^2 in m; summed over m it is
    e1 J_1(d) + e2 J_2(d), J_0(d) being 0 at d >= 2.  The m <= S with
    mu(d/m) != 0 then add what the true moments differ by (module
    docstring)."""
    c0, c1, c2 = inv_two_minus_two_cos_quadratic(d)
    z0 = a1 = p0 = p1 = 0
    for s, c in enumerate(nums, lo):
        if c:
            z0 += c
            a1 -= c * s
            if s > 0:
                p0 += c
                p1 += c * s
    # the linear coefficient c1 Z0 + 2 c2 Z1 of the quadratic is l0 + l1 m
    l0, l1 = c1 * z0 + 2 * c2 * a1, 2 * c2 * p0
    e1 = 6 * d * (c1 * p0 - 2 * c2 * p1) + 3 * d * (l1 * d - l0) - 3 * c2 * z0 * d * d
    e2 = 6 * d * c2 * p0 - 3 * d * l1 + c2 * z0 * d
    j1, j2 = _totients(d, primes)
    total, rem = divmod(e1 * j1 + e2 * j2, 6)
    if rem:
        raise ConsistencyError(f"the totient sum of a class trace is not an integer at d={d}")
    # each m <= S adds mu(d/m) m times what its true moments change in B(m)
    for m, w in ramanujan_weights(d, primes, max(-lo, lo + len(nums) - 1)):
        dz1 = dz2 = 0
        for s, c in enumerate(nums, lo):
            if c:
                a, b = -s % m, (m - s if s > 0 else -s)
                dz1 += c * (a - b)
                dz2 += c * (a * a - b * b)
        n = d // m
        total += w * (n * (c1 * dz1 + c2 * dz2) + c2 * dz1 * m * n * (n - 1))
    return total


# the class traces: (k, lo, nums) -> {d: trace}, one dict per class
_TRACES: dict[tuple[int, int, tuple[int, ...]], dict[int, int]] = {}


def class_sums(p: int, classes: Iterable[Laurent]) -> tuple[tuple[int, int], ...]:
    """The sum of each class c = N(z) / t^k, k <= 1, over the nontrivial
    elements zeta_p^j, j = 1..p-1, as one pair (num, den) of integers,
    den > 0 and the pair unreduced: the sum over the divisor classes d | p,
    d > 1, of Tr_{Q(zeta_d)/Q} c(zeta_d), which is the sum of c over the
    elements of exact order d, N traced term by term when k = 0, and N
    times the checked representative of 1/t when k = 1.  p is factored once,
    and its divisors listed once, for all the classes; a kernel gets d's
    distinct primes from those of p.  num adds the integer traces kept in
    _TRACES, taken on the integer numerators of N, and den is N's own
    denominator, times 2 p^2 when k = 1, where u_d's 2 d^2 is scaled by
    (p/d)^2 (p is the lcm of the classes).  No Fraction is built."""
    if p < 2:
        raise ValueError("p must be at least 2")
    factors = _prime_factors(p)
    ds = divisors(p, factors)[1:]
    sums = []
    for c in classes:
        k, lo, nums = c.k, c.lo, c.nums
        if k > 1:
            raise ValueError(f"only classes over at most one power of t are traced, not {c!r}")
        key = (k, lo, nums)
        memo = _TRACES.get(key) or {}  # a kept dict is never empty
        total = 0
        if k == 0:
            for d in ds:
                t = memo.get(d)
                if t is None:  # stored only once the kernel has returned
                    primes = [q for q, _ in factors if d % q == 0]
                    t = _TRACES.setdefault(key, memo)[d] = sparse_trace(d, primes, lo, nums)
                total += t
            sums.append((total, c.den))
        else:
            for d in ds:
                t = memo.get(d)
                if t is None:
                    primes = [q for q, _ in factors if d % q == 0]
                    t = _TRACES.setdefault(key, memo)[d] = sparse_trace_over_t(d, primes, lo, nums)
                q = p // d
                total += t * q * q
            sums.append((total, 2 * c.den * p * p))
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


_MINUS_ONE = Fraction(-1)
_ONE = Fraction(1)


def _trig_closed_forms(p: int) -> TrigSums:
    # sum cos^2 is (p-2)/2 only for p >= 3; the p = 2 sum has the single
    # term cos^2(pi) = 1 because 2*theta wraps to a full turn.
    sum_cos_sq = _ONE if p == 2 else Fraction(p - 2, 2)
    return TrigSums(_MINUS_ONE, sum_cos_sq, Fraction(p * p - 1, 6))


def trig_sums(p: int) -> TrigSums:
    """Exact sums over the nontrivial group elements, theta_j = 2*pi*j/p:

        sum cos(theta_j),  sum cos^2(theta_j),  sum 1/(1 - cos(theta_j))

    for j = 1..p-1, each traced per divisor class as above from (z + z^-1)/2,
    its square and 2/t, and checked against the closed forms -1, (p-2)/2
    (p >= 3; 1 at p = 2), (p^2-1)/6 in integers: each traced (num, den) is
    cross-multiplied with its closed form, and the traced sums become
    Fractions only to name them in the ConsistencyError of a failed check.
    """
    if p < 2:
        raise ValueError("p must be at least 2 (empty sums are the caller's business)")
    sums = class_sums(p, (_COS, _COS_SQ, _INV_ONE_MINUS_COS))
    closed = _trig_closed_forms(p)
    for (num, den), q in zip(sums, closed):
        if num * q.denominator != q.numerator * den:
            traced = TrigSums(*(Fraction(num, den) for num, den in sums))
            raise ConsistencyError(
                f"trig sums disagree at p={p}: traced {traced} vs closed {closed}")
    return closed
