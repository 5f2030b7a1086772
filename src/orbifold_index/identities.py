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
r = -s mod m, m | d, one arithmetic progression of step m each, and the sum
of a quadratic over a progression has a closed form: a class trace costs
O(2^omega(d)) integer operations per term of N, and no vector of length d
is built.  The progressions of one step m are summed together: with
a_s = -s mod m, sum_s c_s v(a_s + x) is one quadratic in x whose
coefficients take only the three moments

    Z0 = sum_s c_s,   Z1 = sum_s c_s a_s,   Z2 = sum_s c_s a_s^2,

namely (c0 Z0 + c1 Z1 + c2 Z2, c1 Z0 + 2 c2 Z1, c2 Z0), so each m costs
one pass over the terms and one closed-form sum of that quadratic over
r = 0, m, 2m, ... < d, written out in place in sparse_trace_over_t.

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
closed forms, index.correction_sum builds each coefficient once).  The
Ramanujan weights of each d are kept too (scalars.ramanujan_weights), so
a process factors each divisor once, whichever orders and classes reach
it.
A failed check is not kept and raises on every call.
The sums are rational by construction; the tests keep the literal
per-element sweeps over Q(zeta_p) as the independent route.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .scalars import ConsistencyError, Laurent, divisors, ramanujan_weights


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


def sparse_trace(d: int, lo: int, nums: tuple[int, ...]) -> int:
    """Tr_{Q(zeta_d)/Q} of sum_s nums[s - lo] x^s at x = zeta_d, as
    sum_s c_s c_d(s) over the nonzero c_s, with the Ramanujan sum
    c_d(s) = sum_{m | gcd(s, d)} mu(d/m) m."""
    weights = ramanujan_weights(d)
    total = 0
    for s, c in enumerate(nums, lo):
        if c:
            for m, w in weights:
                if s % m == 0:
                    total += c * w
    return total


def sparse_trace_over_t(d: int, lo: int, nums: tuple[int, ...]) -> int:
    """2 d^2 Tr_{Q(zeta_d)/Q} of sum_s nums[s - lo] x^s / t at x = zeta_d,
    from the checked u_d: sum_{m | d} mu(d/m) m times the sum of the entries
    of N * 2d^2 u_d at the multiples of m.  Term s reads u_d's quadratic v
    over the progression a_s + m i, a_s = -s mod m, and the terms'
    sum_s c_s v(a_s + x) is one quadratic b0 + b1 x + b2 x^2, from the
    moments Z0, Z1 and Z2 of the a_s (module docstring), summed in place
    over x = m i, i < n = d/m: n b0 + b1 S1 + b2 S2, with S1 = sum m i and
    S2 = sum (m i)^2."""
    c0, c1, c2 = inv_two_minus_two_cos_quadratic(d)
    z0 = sum(nums)
    c0z0, c1z0, c2z0 = c0 * z0, c1 * z0, c2 * z0
    total = 0
    for m, w in ramanujan_weights(d):
        z1 = z2 = 0
        for s, c in enumerate(nums, lo):
            if c:
                a = -s % m
                ca = c * a
                z1 += ca
                z2 += ca * a
        n = d // m
        s1 = m * n * (n - 1) // 2
        s2 = s1 * m * (2 * n - 1) // 3  # m^2 (n-1) n (2n-1) / 6, exactly
        total += w * (n * (c0z0 + c1 * z1 + c2 * z2) + (c1z0 + 2 * c2 * z1) * s1 + c2z0 * s2)
    return total


# the class traces: (k, lo, nums) -> {d: trace}, one dict per class
_TRACES: dict[tuple[int, int, tuple[int, ...]], dict[int, int]] = {}


def class_sums(p: int, classes: Iterable[Laurent]) -> tuple[tuple[int, int], ...]:
    """The sum of each class c = N(z) / t^k, k <= 1, over the nontrivial
    elements zeta_p^j, j = 1..p-1, as one pair (num, den) of integers,
    den > 0 and the pair unreduced: the sum over the divisor classes d | p,
    d > 1, of Tr_{Q(zeta_d)/Q} c(zeta_d), which is the sum of c over the
    elements of exact order d, N traced term by term when k = 0, and N
    times the checked representative of 1/t when k = 1.  p's divisors are
    listed once for all the classes.  num adds the integer traces kept in
    _TRACES, taken on the integer numerators of N, and den is N's own
    denominator, times 2 p^2 when k = 1, where u_d's 2 d^2 is scaled by
    (p/d)^2 (p is the lcm of the classes).  No Fraction is built."""
    if p < 2:
        raise ValueError("p must be at least 2")
    ds = divisors(p)[1:]
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
                    t = _TRACES.setdefault(key, memo)[d] = sparse_trace(d, lo, nums)
                total += t
            sums.append((total, c.den))
        else:
            for d in ds:
                t = memo.get(d)
                if t is None:
                    t = _TRACES.setdefault(key, memo)[d] = sparse_trace_over_t(d, lo, nums)
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
