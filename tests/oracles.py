"""Literal per-element routes over Q(zeta_p), kept as the independent route
for the library's derived classes, their evaluation and their traced group
sums; and the plain constructions that the library's integer kernels are
checked against (the dense reduction rows, schoolbook long division,
Laurent arithmetic through Fraction dicts, and the representative of 1/t
as a checked length-d vector with its entry-by-entry trace).

Every term is built as a Cyclotomic, element by element: the characters by
the line-bundle algebra over the element's own phase, the correction term by
the library's ring algebra over them, and every inverse by the extended
Euclid (Cyclotomic.inverse, inside ring.invert_unit).  A group sum must come
out rational (Galois invariance); a sum that does not raises
ConsistencyError.
"""

from fractions import Fraction
from itertools import accumulate

from orbifold_index import index as index_mod
from orbifold_index.bundles import GroupElement, derive_characters
from orbifold_index.identities import TrigSums
from orbifold_index.index import CorrectionSum
from orbifold_index.scalars import (
    ConsistencyError,
    Cyclotomic,
    Laurent,
    _times_t,
    cyclotomic_polynomial,
    ramanujan_weights,
    zeta_power,
)


def cos_of(p, j):
    """Exact cos(2*pi*j/p) = (zeta^j + zeta^-j) / 2."""
    return (zeta_power(p, j) + zeta_power(p, -j)) * Fraction(1, 2)


def sin_times_i_of(p, j):
    """Exact i*sin(2*pi*j/p) = (zeta^j - zeta^-j) / 2."""
    return (zeta_power(p, j) - zeta_power(p, -j)) * Fraction(1, 2)


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


def trace(vec, terms):
    """Tr_{Q(zeta_d)/Q} of (sum_s c_s x^s) * vec at x = zeta_d, d = len(vec):
    sum_{m | d} mu(d/m) m times the sum of the product's entries at the
    multiples of m, read off vec at -s mod m by slicing."""
    return sum(w * sum(c * sum(vec[-s % m::m]) for s, c in terms.items())
               for m, w in ramanujan_weights(len(vec)))


def laurent_add(a, b, sign=1):
    """a + sign * b through {power: Fraction} dicts: over the common t^k,
    each numerator is N * t^(k - own k), rebuilt by the constructor."""
    k = max(a.k, b.k)
    x, y = (c.terms() if c.k == k else Laurent(c.terms(), c.k - k).terms() for c in (a, b))
    return Laurent({s: x.get(s, 0) + sign * y.get(s, 0) for s in x.keys() | y.keys()}, k)


def laurent_mul(a, b):
    """a * b by the schoolbook product of their {power: Fraction} dicts."""
    out = {}
    for s, c in a.terms().items():
        for r, d in b.terms().items():
            out[s + r] = out.get(s + r, 0) + c * d
    return Laurent(out, a.k + b.k)


def _rational(total, what, p):
    q = total.as_rational()
    if q is None:
        raise ConsistencyError(f"group-summed {what} is not rational at p={p}")
    return q


def correction_at_pipeline(gamma):
    """The correction term at one group element, by index.correction_term
    over the characters derived at gamma's own Cyclotomic phase."""
    chars = derive_characters(gamma)
    return index_mod.correction_term(chars["symbol"], chars["thom"])


def correction_sum_pipeline(p):
    """correction_at_pipeline on every element j = 1..p-1, summed and
    scaled by 1/p."""
    total_e = total_h = Cyclotomic.zero(p)
    for j in range(1, p):
        c = correction_at_pipeline(GroupElement(p, j))
        total_e, total_h = total_e + c.ce, total_h + c.ch
    return CorrectionSum(_rational(total_e, "correction", p) / p,
                         _rational(total_h, "correction", p) / p)


def trig_sums_brute(p):
    """sum cos, sum cos^2 and sum 1/(1 - cos) over j = 1..p-1, each term a
    Cyclotomic and each inverse the extended Euclid."""
    s_cos = s_cos_sq = s_inv = Cyclotomic.zero(p)
    for j in range(1, p):
        c = cos_of(p, j)
        s_cos, s_cos_sq, s_inv = s_cos + c, s_cos_sq + c * c, s_inv + (1 - c).inverse()
    return TrigSums(*(_rational(s, "trig quantity", p) for s in (s_cos, s_cos_sq, s_inv)))


def laurent_at(c, p, j):
    """The Laurent class c = N(z) / t^k evaluated at z = zeta_p^j
    (j != 0 mod p), as a Cyclotomic."""
    n = sum((zeta_power(p, j * s) * v for s, v in c.terms().items()), Cyclotomic.zero(p))
    t = 2 - zeta_power(p, j) - zeta_power(p, -j)
    return n * t.inverse() ** c.k
