"""Per-divisor Galois-trace evaluator for the large-p group sums.

A full group sum is Galois-invariant: the elements zeta_p^j, j = 1..p-1,
split by exact order d | p, d > 1, into the Galois orbits of zeta_d, so

    sum_j f(zeta_p^j) = sum_{d | p, d > 1} Tr_{Q(zeta_d)/Q} f(zeta_d)

for any f with rational coefficients.  Each class is therefore evaluated at
one representative, zeta_d = x in Z[x]/(x^d - 1), and traced: the trace of
x^s is the Ramanujan sum c_d(s) = sum_{m | gcd(s, d)} mu(d/m) m, and the
all-ones vector N_d traces to 0.  The cos and cos^2 representatives,
(x + x^-1)/2 and (x^2 + 2 + x^-2)/4, have a fixed handful of terms, so their
traces take a few Ramanujan sums per class and no length-d vector.

The representative of 1/(2 - 2 cos(2 pi/d)) is the integer vector

    u = (1/d^2) sum_r C_r x^r,   C_r = T2 - r*T1 + d*r(r-1)/2,
    T1 = d(d-1)/2,  T2 = (d-1)d(2d-1)/6,

and is checked once per class against its exact ring identity

    (2 - x - x^-1) * d^2 u  =  d^2 - d N_d      in Z[x]/(x^d - 1).

N_d vanishes at every primitive d-th root, so u is the true inverse at
zeta_d and, the identity having integer coefficients, at all its Galois
images too.  The correction sum's e and h slots are formed from u with the
symbol coefficients q_0, q_e, q_h; the one product u^2 per class is a
single big-integer multiplication by Kronecker substitution.

Everything is plain Python integers and Fractions; the sums come out
rational by construction.  The literal per-element sweeps (the ring
pipeline in index.py, the Cyclotomic trig brute in scalars.py) remain the
independent route at small p.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import sub

from .scalars import (
    ConsistencyError,
    Cyclotomic,
    divisors,
    mobius,
)


def inv_two_minus_two_cos_vec(d: int) -> tuple[list[int], int]:
    """(vector, denominator) for 1/(2 - x - x^-1) at x = zeta_d, d >= 2,
    as an element of Z[x]/(x^d - 1)."""
    if d < 2:
        raise ZeroDivisionError("zeta_d = 1 is not invertible in these identities")
    t1, t2 = d * (d - 1) // 2, (d - 1) * d * (2 * d - 1) // 6
    # C_(r+1) - C_r = d*r - T1, r = 0..d-2
    return list(accumulate(range(-t1, d * (d - 1) - t1, d), initial=t2)), d * d


def verify_inverse_vec(d: int, vec: list[int], den: int) -> None:
    """Check (2 - x - x^-1) * vec = den * (1 - N_d/d) in Z[x]/(x^d - 1)."""
    if den % d:
        raise ValueError("denominator must absorb the 1/d of the identity")
    # 2 v_r - v_(r-1) - v_(r+1) = diff_r - diff_(r+1), where
    # diff_r = v_r - v_(r-1) is the cyclic first difference
    diff = list(map(sub, vec, vec[-1:] + vec[:-1]))
    lhs = list(map(sub, diff, diff[1:] + diff[:1]))
    rhs = [-(den // d)] * d
    rhs[0] += den
    if lhs != rhs:
        raise ConsistencyError(
            f"closed-form inverse failed its ring identity at d={d}")


def _sparse_mul(terms: dict[int, int], vec: list[int]) -> list[int]:
    """Multiply vec in Z[x]/(x^d - 1) by sum_k c_k x^k; shifts are taken
    mod d, so colliding shifts add up."""
    d = len(vec)
    out = [0] * d
    for shift, c in terms.items():
        s = shift % d
        out = [o + c * v for o, v in zip(out, vec[d - s:] + vec[:d - s])]
    return out


def cyclic_mul(a: list[int], b: list[int]) -> list[int]:
    """Exact product in Z[x]/(x^d - 1) by Kronecker substitution: each
    vector becomes one integer at x = 2^w, the integers are multiplied
    once, and the digits of the product are read back and folded."""
    d = len(a)
    bound = d * max(map(abs, a)) * max(map(abs, b))  # |linear-product coeff|
    nbytes = bound.bit_length() // 8 + 1  # 2^(w-1) > bound, w = 8*nbytes
    half = 1 << (8 * nbytes - 1)

    def pack(v):
        pos = b"".join(max(c, 0).to_bytes(nbytes, "little") for c in v)
        neg = b"".join(max(-c, 0).to_bytes(nbytes, "little") for c in v)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    # biasing every digit by 2^(w-1) makes them all nonnegative, so the
    # signed coefficients are plain byte slices of one conversion
    n = 2 * d - 1
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * n, "little")
    raw = (pack(a) * pack(b) + bias).to_bytes(nbytes * n, "little")
    full = [int.from_bytes(raw[i:i + nbytes], "little") - half
            for i in range(0, len(raw), nbytes)] + [0]
    return [full[i] + full[i + d] for i in range(d)]


def trace(vec: list[int]) -> int:
    """Tr_{Q(zeta_d)/Q} of vec evaluated at x = zeta_d, d = len(vec):
    sum_s vec_s c_d(s), regrouped as sum_{m | d} mu(d/m) m sum_{m | s} vec_s."""
    d = len(vec)
    return sum(mobius(d // m) * m * sum(vec[::m]) for m in divisors(d))


def sparse_trace(d: int, terms: dict[int, int]) -> int:
    """Tr_{Q(zeta_d)/Q} of sum_s c_s x^s at x = zeta_d, as sum_s c_s c_d(s)
    with the Ramanujan sum c_d(s) = sum_{m | gcd(s, d)} mu(d/m) m."""
    return sum(c * sum(mobius(d // m) * m for m in divisors(gcd(s, d)))
               for s, c in terms.items())


def vec_to_cyclotomic(p: int, vec, den: int) -> Cyclotomic:
    """Project a Z[x]/(x^p - 1) vector to Q(zeta_p) (reduce mod Phi_p)."""
    return Cyclotomic._from_vector(p, vec, den)


# ---------------------------------------------------------------------------
# trig sums
# ---------------------------------------------------------------------------

def sum_cos_and_cos_sq(p: int) -> tuple[Fraction, Fraction]:
    """Sum of cos(theta_j) and cos^2(theta_j), j = 1..p-1, as the sum over
    the divisor classes d | p, d > 1, of the traces of the sparse
    representatives (x + x^-1)/2 and (x^2 + 2 + x^-2)/4 at x = zeta_d."""
    if p < 2:
        raise ValueError("p must be at least 2")
    classes = divisors(p)[1:]
    return (Fraction(sum(sparse_trace(d, {1: 1, -1: 1}) for d in classes), 2),
            Fraction(sum(sparse_trace(d, {2: 1, 0: 2, -2: 1}) for d in classes), 4))


def sum_inv_one_minus_cos(p: int) -> Fraction:
    """Sum of 1/(1 - cos(theta_j)), j = 1..p-1, as 2 sum_d Tr(u_d) over the
    divisor classes d | p, d > 1, each representative checked first."""
    if p < 2:
        raise ValueError("p must be at least 2")
    total = Fraction(0)
    for d in divisors(p)[1:]:
        u, den = inv_two_minus_two_cos_vec(d)
        verify_inverse_vec(d, u, den)
        total += Fraction(trace(u), den)
    return 2 * total


# ---------------------------------------------------------------------------
# correction sum
# ---------------------------------------------------------------------------

def correction_rep_vecs(d: int) -> tuple[list[int], int, list[int], int]:
    """Degree-two correction coefficients (e and h slots) at the class
    representative z = zeta_d, as (e_vec, e_den, h_vec, h_den) over
    Z[x]/(x^d - 1).

    Same algebra as the generic ring pipeline: with q = symbol/e and T the
    inverted Thom character, the e slot is q_e * u and the h slot is
    q_h * u + q_0 * T_h, where u = 1/(2 - 2cos) and T_h = (z - zbar) * u^2.
    The hat-A-squared factor and the degree-four part of T cannot reach the
    degree-two slots, so they drop out.
    """
    u, den = inv_two_minus_two_cos_vec(d)
    verify_inverse_vec(d, u, den)
    # symbol/e coefficients:
    #   q_0 = (z - zbar) + 2(z^2 - zbar^2)            [2 i sin + 8 i sin cos]
    #   q_e = (4z^2 + 4zbar^2 - z - zbar - 6) / 2     [8 cos^2 - cos - 7]
    #   q_h = (z + zbar) + 4(z^2 + zbar^2)            [-8 + 2 cos + 16 cos^2]
    # and q_0 * (z - zbar) = 2(z^3 + zbar^3) + (z^2 + zbar^2) - 2(z + zbar) - 2
    qe = {2: 4, -2: 4, 1: -1, -1: -1, 0: -6}
    qh = {1: 1, -1: 1, 2: 4, -2: 4}
    q0_sin = {3: 2, -3: 2, 2: 1, -2: 1, 1: -2, -1: -2, 0: -2}
    e_vec = _sparse_mul(qe, u)
    h_vec = [den * a + b for a, b in zip(_sparse_mul(qh, u),
                                         _sparse_mul(q0_sin, cyclic_mul(u, u)))]
    return e_vec, 2 * den, h_vec, den * den


def class_trace(d: int) -> tuple[Fraction, Fraction]:
    """Sum of the e and h correction coefficients over the phi(d) elements
    of exact order d: the traces of the representative's slots."""
    e_vec, e_den, h_vec, h_den = correction_rep_vecs(d)
    return Fraction(trace(e_vec), e_den), Fraction(trace(h_vec), h_den)


def correction_sum_fast(p: int) -> tuple[Fraction, Fraction]:
    """Correction sum over j = 1..p-1, scaled by 1/p, as the sum of the
    class traces over d | p, d > 1; returns (coeff_e, coeff_h)."""
    if p < 2:
        raise ValueError("p must be at least 2")
    coeff_e = coeff_h = Fraction(0)
    for d in divisors(p)[1:]:
        te, th = class_trace(d)
        coeff_e += te
        coeff_h += th
    return coeff_e / p, coeff_h / p
