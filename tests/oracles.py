"""Literal per-element routes over Q(zeta_p), kept as the independent route
for the library's derived classes, their evaluation and their traced group
sums; and the plain constructions that the library's integer kernels are
checked against (the dense reduction rows, schoolbook long division,
Laurent arithmetic through Fraction dicts, and the representative u_d of
1/t as a checked length-d vector with its entry-by-entry trace, and as the
quadratic in the exponent that the weight-list reference kernel reads).

The field arithmetic is Cyc, a subclass of the library's value type
Cyclotomic.  A per-element route computes in it: the characters over the
element's field phases zeta_p^j and zeta_p^-j, the correction term by the
library's ring algebra, each inverse by the extended Euclid.  A group sum
that is not rational raises ConsistencyError; other results come back as
library values.
"""

from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import gcd
from operator import mul

from orbifold_index import index as index_mod
from orbifold_index.bundles import GroupElement, derive_characters, generic_characters
from orbifold_index.identities import TrigSums
from orbifold_index.index import CorrectionSum
from orbifold_index.scalars import (
    ConsistencyError,
    Cyclotomic,
    Laurent,
    _integer_form,
    _poly_mul_int,
    _times_t,
    _prime_factors,
    cyclotomic_polynomial,
    euler_phi,
)


class Cyc(Cyclotomic):
    """A Cyclotomic with the field arithmetic of Q(zeta_p).  An int or
    Fraction operand is a constant element; elements of different orders
    never mix, and a library value is lifted with Cyc.of first."""

    __slots__ = ()

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyc":
        """The int or Fraction value as a constant of Q(zeta_order)."""
        q = Fraction(value)
        return cls._raw(order, (q.numerator,) + (0,) * (euler_phi(order) - 1), q.denominator)

    @classmethod
    def of(cls, a: Cyclotomic) -> "Cyc":
        return cls._raw(*a._key())

    def value(self) -> Cyclotomic:
        return Cyclotomic._raw(*self._key())

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self.order, other)
        if isinstance(other, Cyc) and other.order != self.order:
            raise ValueError(f"cyclotomic order mismatch: {self.order} vs {other.order}")
        return other if isinstance(other, Cyc) else None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        nums = [a * o.den + b * self.den for a, b in zip(self.nums, o.nums)]
        return Cyc._canonical(self.order, nums, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc._raw(self.order, tuple(-a for a in self.nums), self.den)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not (self and o):  # common in the ring algebra; skips the kernel
            return Cyc.from_rational(self.order, 0)
        return Cyc._from_terms(
            self.order, enumerate(_poly_mul_int(self.nums, o.nums)), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        return reduce(mul, [base] * abs(n), Cyc.from_rational(self.order, 1))

    def inverse(self) -> "Cyc":
        """The extended Euclid in Q[x] against the irreducible Phi_p,
        fraction-free: remainders r = s * nums mod Phi_p and their Bezout
        coefficients s stay integer vectors, leading terms cancel by
        cross-multiplication, and each (r, s) is divided by its content."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        p = self.order
        r0, s0 = list(cyclotomic_polynomial(p)), []
        r1, s1 = _trim(list(self.nums)), [1]
        while len(r1) > 1:
            b = r1[-1]
            while len(r0) >= len(r1):
                a, k = r0[-1], len(r0) - len(r1)
                r0 = _trim(_axpy(b, r0, -a, r1, k))
                s0 = _axpy(b, s0, -a, s1, k)
            g = gcd(*r0, *s0)
            r0, r1 = r1, [c // g for c in r0]
            s0, s1 = s1, [c // g for c in s0]
            if not r1:
                raise ConsistencyError("gcd with Phi_p not constant")
        # nums * s1 = c mod Phi_p with deg s1 < phi, so the inverse of
        # nums/den is den * s1 / c with no further reduction
        c = r1[0]
        scale = self.den if c > 0 else -self.den
        inv = [scale * v for v in s1] + [0] * (len(self.nums) - len(s1))
        return Cyc._canonical(p, inv, abs(c))


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _axpy(b, u, a, v, k):
    """b*u + a*x^k*v."""
    out = [b * c for c in u] + [0] * max(0, len(v) + k - len(u))
    for i, c in enumerate(v, k):
        out[i] += a * c
    return out


def zeta(p, k):
    """zeta_p^k as a field element."""
    return Cyc._from_terms(p, [(k, 1)])


def cyc(p, coeffs):
    """sum coeffs[s] zeta_p^s over rational coefficients, as a field element."""
    nums, den = _integer_form(coeffs)
    return Cyc._from_terms(p, enumerate(nums), den)


def cos_of(p, j):
    """Exact cos(2*pi*j/p) = (zeta^j + zeta^-j) / 2."""
    return (zeta(p, j) + zeta(p, -j)) * Fraction(1, 2)


def sin_times_i_of(p, j):
    """Exact i*sin(2*pi*j/p) = (zeta^j - zeta^-j) / 2."""
    return (zeta(p, j) - zeta(p, -j)) * Fraction(1, 2)


def reduction_rows_dense(p):
    """x^s mod Phi_p for s = 0..p-1 as nonzero (i, coefficient) pairs, each
    row from the dense previous one by x * row, x^phi replaced by
    x^phi - Phi_p."""
    phi_p = cyclotomic_polynomial(p)
    cur = [1] + [0] * (len(phi_p) - 2)
    rows = []
    for _ in range(p):
        rows.append(tuple((i, r) for i, r in enumerate(cur) if r))
        lead, cur = cur[-1], [0] + cur[:-1]
        if lead:
            cur = [c - lead * f for c, f in zip(cur, phi_p)]
    return tuple(rows)


def poly_divmod_int(num, den):
    """(quotient, remainder) of integer coefficient tuples, lowest degree
    first, by schoolbook long division; den must be monic."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    num_l = list(num)
    dd = len(den) - 1
    if len(num_l) - 1 < dd:
        return (0,), tuple(num_l)
    q = [0] * (len(num_l) - dd)
    for s in range(len(num_l) - 1, dd - 1, -1):
        c = num_l[s]
        if c:
            q[s - dd] = c
            for i in range(dd):
                if den[i]:
                    num_l[s - dd + i] -= c * den[i]
            num_l[s] = 0
    rem = num_l[:dd]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(q), tuple(rem)


def inv_two_minus_two_cos_vec(d):
    """(vector, denominator) for 1/(2 - x - x^-1) at x = zeta_d, d >= 2, as
    an element of Z[x]/(x^d - 1): entry r is C_r = T2 - r*T1 + d*r(r-1)/2
    over d^2, built by its first differences and checked by
    verify_inverse_vec before it is returned."""
    if d < 2:
        raise ZeroDivisionError("zeta_d = 1 is not invertible in these identities")
    t1, t2 = d * (d - 1) // 2, (d - 1) * d * (2 * d - 1) // 6
    # C_(r+1) - C_r = d*r - T1, r = 0..d-2
    vec = list(accumulate(range(-t1, d * (d - 1) - t1, d), initial=t2))
    verify_inverse_vec(d, vec, d * d)
    return vec, d * d


def inv_two_minus_two_cos_quadratic(d):
    """(c0, c1, c2) for the same u_d over 2 d^2: entry r is the quadratic
    v(r) = c0 + c1 r + c2 r^2 = 2 C_r, so u_d is never built as a vector.
    The tests compare its expansion with inv_two_minus_two_cos_vec, doubled,
    at every d <= 300; the coefficients are polynomials in d of degree at
    most 3, so that agreement holds at every d."""
    if d < 2:
        raise ZeroDivisionError("zeta_d = 1 is not invertible in these identities")
    return (d - 1) * d * (2 * d - 1) // 3, -d * d, d


def verify_inverse_vec(d, vec, den):
    """Check (2 - x - x^-1) * vec = den * (1 - N_d/d) in Z[x]/(x^d - 1)
    entry by entry: the all-ones N_d vanishes at every primitive d-th root
    of unity."""
    if den % d:
        raise ValueError("denominator must absorb the 1/d of the identity")
    rhs = [-(den // d)] * d
    rhs[0] += den
    if _times_t(vec) != rhs:
        raise ConsistencyError(f"closed-form inverse failed its ring identity at d={d}")


def ramanujan_weights(d):
    """The pairs (m, mu(d/m) * m) over every divisor m of d with d/m
    squarefree, built downward from (d, d) by one division per distinct
    prime: c_d(s) is the sum of the weights whose m divides s."""
    weights = [(d, d)]
    for q, _ in _prime_factors(d):
        weights += [(m // q, -w // q) for m, w in weights]
    return weights


def trace(vec, terms):
    """Tr_{Q(zeta_d)/Q} of (sum_s c_s x^s) * vec at x = zeta_d, d = len(vec):
    sum_{m | d} mu(d/m) m times the sum of the product's entries at the
    multiples of m, read off vec at -s mod m by slicing."""
    return sum(w * sum(c * sum(vec[-s % m::m]) for s, c in terms.items())
               for m, w in ramanujan_weights(len(vec)))


def weight_trace(d, lo, nums):
    """The class trace over t^0 by Ramanujan weights, the reference of
    identities.sparse_trace: sum_s c_s c_d(s), each c_d(s) summed over all
    2^omega(d) weights of d."""
    weights = ramanujan_weights(d)
    return sum(c * w for s, c in enumerate(nums, lo) if c for m, w in weights if s % m == 0)


def weight_trace_over_t(d, lo, nums):
    """2 d^2 times the class trace over t by Ramanujan weights, the
    reference of identities.sparse_trace_over_t (which is 12 times the
    trace, so d^2 times it is 6 times this): for each weight (m, w) of d,
    w times the sum of the checked quadratic v of u_d over the progressions
    a_s + m i, i < d/m, a_s = -s mod m, from the moments Z0, Z1 and Z2 of
    the a_s."""
    c0, c1, c2 = inv_two_minus_two_cos_quadratic(d)
    z0 = sum(nums)
    total = 0
    for m, w in ramanujan_weights(d):
        z1 = sum(c * (-s % m) for s, c in enumerate(nums, lo))
        z2 = sum(c * (-s % m) ** 2 for s, c in enumerate(nums, lo))
        n = d // m
        s1 = m * n * (n - 1) // 2
        s2 = s1 * m * (2 * n - 1) // 3  # m^2 (n-1) n (2n-1) / 6, exactly
        total += w * (n * (c0 * z0 + c1 * z1 + c2 * z2) + (c1 * z0 + 2 * c2 * z1) * s1
                      + c2 * z0 * s2)
    return total


def laurent_terms(a):
    """The nonzero coefficients of a Laurent class's numerator N, as
    {power of z: Fraction}."""
    return {s: Fraction(c, a.den) for s, c in enumerate(a.nums, a.lo) if c}


def laurent_add(a, b, sign=1):
    """a + sign * b through {power: Fraction} dicts: over the common t^k,
    each numerator is N * t^(k - own k), rebuilt by the constructor."""
    k = max(a.k, b.k)
    x, y = (laurent_terms(c if c.k == k else Laurent(laurent_terms(c), c.k - k))
            for c in (a, b))
    return Laurent({s: x.get(s, 0) + sign * y.get(s, 0) for s in x.keys() | y.keys()}, k)


def laurent_mul(a, b):
    """a * b by the schoolbook product of their {power: Fraction} dicts."""
    out = {}
    for s, c in laurent_terms(a).items():
        for r, d in laurent_terms(b).items():
            out[s + r] = out.get(s + r, 0) + c * d
    return Laurent(out, a.k + b.k)


def _rational(total, what, p):
    q = total.as_rational()
    if q is None:
        raise ConsistencyError(f"group-summed {what} is not rational at p={p}")
    return q


def character(name, gamma):
    """The library's derived character `name` (a key of
    bundles.generic_characters) at gamma, each coefficient evaluated at
    zeta_p^j by Laurent.at.  The result holds Cyclotomic values, which have
    no arithmetic, so it is read-only: ==, hash, map and to_json work, but
    +, -, * and ring.invert_unit raise TypeError."""
    return generic_characters()[name].map(lambda s: s.at(gamma.p, gamma.j))


def correction_at_pipeline(gamma):
    """The correction term at the group element gamma, by
    index.correction_term over the characters derived at its field phases
    zeta_p^j and zeta_p^-j, as library values."""
    chars = derive_characters(zeta(gamma.p, gamma.j), zeta(gamma.p, -gamma.j))
    return index_mod.correction_term(chars["symbol"], chars["thom"]).map(Cyc.value)


def correction_sum_pipeline(p):
    """correction_at_pipeline on every element j = 1..p-1, summed in the
    field and scaled by 1/p."""
    total_e = total_h = Cyc.from_rational(p, 0)
    for j in range(1, p):
        c = correction_at_pipeline(GroupElement(p, j))
        total_e, total_h = total_e + Cyc.of(c.ce), total_h + Cyc.of(c.ch)
    return CorrectionSum(_rational(total_e, "correction", p) / p,
                         _rational(total_h, "correction", p) / p)


def trig_sums_brute(p):
    """sum cos, sum cos^2 and sum 1/(1 - cos) over j = 1..p-1, each term a
    field element and each inverse the extended Euclid."""
    s_cos = s_cos_sq = s_inv = Cyc.from_rational(p, 0)
    for j in range(1, p):
        c = cos_of(p, j)
        s_cos, s_cos_sq, s_inv = s_cos + c, s_cos_sq + c * c, s_inv + (1 - c).inverse()
    return TrigSums(*(_rational(s, "trig quantity", p) for s in (s_cos, s_cos_sq, s_inv)))


def laurent_at(c, p, j):
    """The Laurent class c = N(z) / t^k evaluated at z = zeta_p^j
    (j != 0 mod p) in the field, as a library value."""
    n = sum((zeta(p, j * s) * v for s, v in laurent_terms(c).items()), Cyc.from_rational(p, 0))
    t = 2 - zeta(p, j) - zeta(p, -j)
    return (n * t.inverse() ** c.k).value()


def class_sum_per_element(c, p):
    """The class c = N(z) / t^k summed over the elements zeta_p^j,
    j = 1..p-1, each term evaluated in the field (laurent_at)."""
    total = Cyc.from_rational(p, 0)
    for j in range(1, p):
        total = total + Cyc.of(laurent_at(c, p, j))
    return _rational(total, "class", p)
