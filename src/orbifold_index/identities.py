"""Per-divisor Galois traces of the group sums.

A full group sum is Galois-invariant: the elements zeta_p^j, j = 1..p-1,
split by exact order d | p, d > 1, into the Galois orbits of zeta_d, so

    sum_j f(zeta_p^j) = sum_{d | p, d > 1} Tr_{Q(zeta_d)/Q} f(zeta_d)

for any f with rational coefficients.  Each summand here is a class
f = N(z)/t^k over t = 2 - z - z^-1 with k <= 1 (scalars.Laurent): cos,
cos^2 and 1/(1 - cos) (trig_sums, checked against their closed forms), and
the correction class that index.py derives from bundles.py.  It is traced
term by term over the nonzero c_s of N = sum_s c_s z^s, and both kernels
are closed forms in the class's moments and d's distinct primes.

With k = 0, z^s traces to the Ramanujan sum c_d(s), which Hoelder's (1936)
c_d(s) = mu(e) phi(d) / phi(e), e = d / gcd(d, s), gives in O(omega(d)) once
for each distinct gcd.  With k = 1, z^s/t summed over the m-th roots of
unity other than 1 is the cosecant-square sum (Berndt and Yeap, Adv. Appl.
Math. 29, 2002)

    G_m(s) = sum_{0 < j < m} zeta_m^(sj) / t(zeta_m^j) = (m^2 - 1)/12 - a(m - a)/2,

a = -s mod m (G_1 = 0), and Moebius inversion over m | d leaves the orbit
of order d: Tr(z^s/t)(zeta_d) = sum_{m | d} mu(d/m) G_m(s).  For m > S =
max |s|, a is b = m - s (s > 0) or -s (s <= 0), so a(m - a) = m|s| - s^2
is a polynomial in m, and its sum against mu(d/m) over every m | d takes
Jordan's totients J_k(d) = sum_{m | d} mu(d/m) m^k = (d/rad d)^k
prod_{q | d} (q^k - 1) (Apostol, Introduction to Analytic Number Theory,
ch. 2), J_0(d) being 0 at d >= 2.  With the moments Z0 = sum c_s,
A1 = -sum c_s s and P1 = sum_{s > 0} c_s s, so that 2 P1 + A1 =
sum c_s |s|,

    12 Tr(N/t)(zeta_d) = Z0 J_2(d) - 6 (2 P1 + A1) J_1(d)
                         + 6 sum_m mu(d/m) sum_s c_s (a - b)(a + b - m),

the last sum over the few m <= S with m | d and d/m squarefree
(scalars.ramanujan_weights), each adding what its true a(m - a) differs by
from b(m - b).  The trace is an integer combination of integers, so it is
exact and needs no check of its own; verify's correction suite compares the
product's group sums and two probe classes with their closed forms at every
order.  So a class trace costs O(omega(d)) integer operations plus one pass
over N for each small m, where a sum over the Ramanujan weights cost
O(2^omega(d)) per term of N, and no vector of length d is built.  Both
kernels take d's distinct primes, and no divisor is ever factored:
class_sums factors p once per group sum and hands each d the primes of p
that divide it.

A class trace depends on d and the class only, never on p, so each (d,
class) trace is computed once per process and kept as one integer in
_TRACES: Tr for k = 0 and 12 Tr for k = 1, one plain dict per class keyed on
the class's own fields (k, lo, nums), which maps d to its trace: the
numerator tuple is the Laurent's own, and both kernels read it as it is
stored, the numerators of z^lo, z^(lo+1), ..., skipping its zeros, so a miss
builds no other form of the class.  The denominator stays outside the key.
A group sum is class_sums, the one entry point: it lists p's divisors once,
fetches each class's dict once and reads every d of that one list from it,
so a lookup builds no key of its own; a miss stores its trace only once its
kernel has returned.  Each class's sum goes back as two integers, the sum of
the kept traces over the class's one positive denominator, unreduced; no
Fraction is built until a caller needs one (trig_sums cross-multiplies with
its closed forms, index.correction_sum builds each coefficient once).
The sums are rational by construction; the tests keep the literal
per-element sweeps over Q(zeta_p) and the representative u_d of 1/t in
Z[x]/(x^d - 1) as the independent routes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple

from .scalars import ConsistencyError, Laurent, _prime_factors, divisors, ramanujan_weights


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
    """12 Tr_{Q(zeta_d)/Q} of sum_s nums[s - lo] x^s / t at x = zeta_d, d's
    distinct primes given: Z0 J_2(d) - 6 (2 P1 + A1) J_1(d), then for each
    m <= S = max |s| with mu(d/m) != 0, 6 mu(d/m) sum_s c_s (a - b)(a + b - m)
    with a = -s mod m and b = m - s (s > 0) or -s (module docstring)."""
    z0 = a1 = p1 = 0
    for s, c in enumerate(nums, lo):
        if c:
            z0 += c
            a1 -= c * s
            if s > 0:
                p1 += c * s
    j1, j2 = _totients(d, primes)
    total = z0 * j2 - 6 * (2 * p1 + a1) * j1
    for m, w in ramanujan_weights(d, primes, max(-lo, lo + len(nums) - 1)):
        dz = 0
        for s, c in enumerate(nums, lo):
            if c:
                a, b = -s % m, (m - s if s > 0 else -s)
                dz += c * (a - b) * (a + b - m)
        total += 6 * (w // m) * dz  # w = mu(d/m) m
    return total


# the class traces: (k, lo, nums) -> {d: trace}, one dict per class
_TRACES: dict[tuple[int, int, tuple[int, ...]], dict[int, int]] = {}


def class_sums(p: int, classes: Iterable[Laurent]) -> tuple[tuple[int, int], ...]:
    """The sum of each class c = N(z) / t^k, k <= 1, over the nontrivial
    elements zeta_p^j, j = 1..p-1, as one pair (num, den) of integers,
    den > 0 and the pair unreduced: the sum over the divisor classes d | p,
    d > 1, of Tr_{Q(zeta_d)/Q} c(zeta_d), which is the sum of c over the
    elements of exact order d, by sparse_trace when k = 0 and by the closed
    form of sparse_trace_over_t when k = 1.  p is factored once, and its
    divisors listed once, for all the classes; a kernel gets d's distinct
    primes from those of p.  num adds the integer traces kept in _TRACES,
    taken on the integer numerators of N, and den is N's own denominator,
    times 12 when k = 1.  No Fraction is built."""
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
                total += t
            sums.append((total, 12 * c.den))
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
