"""The per-divisor trace evaluator against the extended-Euclid route, the
literal per-element ring pipeline, and the closed forms."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from orbifold_index import identities as ident
from orbifold_index.bundles import GroupElement
from orbifold_index.index import (
    _correction_sum,
    correction_at,
    correction_sum_closed_form,
)
from orbifold_index.scalars import (
    ConsistencyError,
    Cyclotomic,
    _trig_sums_brute_small,
    as_rational,
    cos_of,
    divisors,
    mobius,
    zeta_power,
)


def _image(p, k, vec):
    """The order-d class representative's vector moved to zeta_p^k: the
    Galois image x -> x^(k/g) followed by the embedding x -> x^g into
    Z[x]/(x^p - 1), where g = gcd(k, p) and d = p/g = len(vec)."""
    g = gcd(k, p)
    d, kp = p // g, k // g
    assert len(vec) == d
    out = [0] * p
    for s, c in enumerate(vec):
        out[g * ((kp * s) % d)] += c
    return out


def _spot_pairs():
    pairs = [(p, k) for p in range(2, 29) for k in range(1, p)]
    for p in (97, 105, 128):
        pairs += [(p, 1), (p, 2), (p, p // 3), (p, p - 1)]
    return pairs


@pytest.mark.parametrize("p,k", _spot_pairs())
def test_inverse_vectors_match_ext_gcd(p, k):
    # checking the representative once makes every Galois image exact
    vec, den = ident.inv_two_minus_two_cos_vec(p // gcd(k, p))
    got = ident.vec_to_cyclotomic(p, _image(p, k, vec), den)
    assert got == (2 - 2 * cos_of(p, k)).inverse()


@pytest.mark.parametrize("d", list(range(2, 61)) + [97, 105, 128])
def test_representative_matches_ext_gcd(d):
    vec, den = ident.inv_two_minus_two_cos_vec(d)
    ident.verify_inverse_vec(d, vec, den)
    assert ident.vec_to_cyclotomic(d, vec, den) == (2 - 2 * cos_of(d, 1)).inverse()


def test_inverse_constructors_reject_identity():
    for d in (0, 1):
        with pytest.raises(ZeroDivisionError):
            ident.inv_two_minus_two_cos_vec(d)


def test_inverse_vector_is_the_closed_form():
    for d in list(range(2, 301)) + [1009]:
        t1, t2 = d * (d - 1) // 2, (d - 1) * d * (2 * d - 1) // 6
        vec, den = ident.inv_two_minus_two_cos_vec(d)
        assert vec == [t2 - r * t1 + d * (r * (r - 1) // 2) for r in range(d)], d
        assert den == d * d, d


def test_verify_inverse_vec_accepts_and_rejects():
    for d in (2, 3, 12, 31, 64, 97):
        vec, den = ident.inv_two_minus_two_cos_vec(d)
        ident.verify_inverse_vec(d, vec, den)
        for i in range(d):
            bad = list(vec)
            bad[i] += 1
            with pytest.raises(ConsistencyError):
                ident.verify_inverse_vec(d, bad, den)


def _cos_sums_per_element(p):
    """Reference: add up cos = (z^j + z^-j)/2 and cos^2 = (z^2j + 2 + z^-2j)/4
    for j = 1..p-1 as vectors over Z[x]/(x^p - 1), require the sums to be
    constant on gcd classes (Galois invariant), and read off their values
    with Ramanujan sums."""
    acc_c = [0] * p
    acc_c2 = [0] * p
    for j in range(1, p):
        acc_c[j] += 1
        acc_c[p - j] += 1
        acc_c2[(2 * j) % p] += 1
        acc_c2[(-2 * j) % p] += 1
        acc_c2[0] += 2
    values = []
    for acc, den in ((acc_c, 2), (acc_c2, 4)):
        assert acc == [acc[gcd(s, p) % p] for s in range(p)], p
        values.append(F(sum(acc[g % p] * mobius(p // g) for g in divisors(p)), den))
    return tuple(values)


def test_traced_cos_sums_match_per_element_sums():
    for p in list(range(2, 301)) + [1009, 1024, 1680, 2003]:
        assert ident.sum_cos_and_cos_sq(p) == _cos_sums_per_element(p), p
    for p in range(2, 33):
        small = _trig_sums_brute_small(p)
        assert _cos_sums_per_element(p) == (small.sum_cos, small.sum_cos_sq), p


def test_cyclic_mul_matches_field_product():
    rng = random.Random(5)
    for d in (1, 2, 5, 12, 37):
        for scale in (3, 2 ** 70):
            a = [rng.randint(-scale, scale) for _ in range(d)]
            b = [rng.randint(-scale, scale) for _ in range(d)]
            naive = [0] * d
            for i, ai in enumerate(a):
                for k, bk in enumerate(b):
                    naive[(i + k) % d] += ai * bk
            assert ident.cyclic_mul(a, b) == naive, (d, scale)
    a, b = [1, 2, 0, 0, 3], [0, 1, 1, 0, 0]
    assert (ident.vec_to_cyclotomic(5, ident.cyclic_mul(a, b), 1)
            == ident.vec_to_cyclotomic(5, a, 1) * ident.vec_to_cyclotomic(5, b, 1))
    assert ident.cyclic_mul([0, 0, 0], [1, -2, 3]) == [0, 0, 0]


def test_trace_is_sum_over_units():
    for d in range(2, 31):
        units = [k for k in range(1, d) if gcd(k, d) == 1]
        for s in range(d):
            vec = [0] * d
            vec[s] = 1
            orbit = sum((zeta_power(d, k * s) for k in units), Cyclotomic.zero(d))
            assert ident.trace(vec) == as_rational(orbit), (d, s)
            for shift in (s, s - d, s + d):
                assert ident.sparse_trace(d, {shift: 1}) == ident.trace(vec), (d, shift)
        assert ident.trace([1] * d) == 0  # N_d traces to 0


def _rep_images(p, j):
    e_vec, e_den, h_vec, h_den = ident.correction_rep_vecs(p // gcd(j, p))
    return (ident.vec_to_cyclotomic(p, _image(p, j, e_vec), e_den),
            ident.vec_to_cyclotomic(p, _image(p, j, h_vec), h_den))


def test_fast_correction_matches_pipeline_exhaustive():
    for p in range(2, 17):
        for j in range(1, p):
            full = correction_at(GroupElement(p, j))
            ce, ch = _rep_images(p, j)
            assert ce == full.ce, (p, j)
            assert ch == full.ch, (p, j)


@pytest.mark.parametrize("p,j", [(24, 1), (24, 9), (31, 1), (31, 17),
                                 (47, 5), (97, 40), (105, 35), (105, 15)])
def test_fast_correction_matches_pipeline_spots(p, j):
    # 105 covers non-coprime elements, including j = 35 where the doubled
    # shift 2j collides with -j in the sparse symbol coefficients
    full = correction_at(GroupElement(p, j))
    ce, ch = _rep_images(p, j)
    assert ce == full.ce and ch == full.ch


@pytest.mark.parametrize("d", list(range(2, 41)) + [47, 97, 105])
def test_representative_slots_match_pipeline(d):
    full = correction_at(GroupElement(d, 1))
    e_vec, e_den, h_vec, h_den = ident.correction_rep_vecs(d)
    assert ident.vec_to_cyclotomic(d, e_vec, e_den) == full.ce
    assert ident.vec_to_cyclotomic(d, h_vec, h_den) == full.ch


def test_class_traces_match_pipeline_unit_sums():
    for d in range(2, 31):
        sum_e = sum_h = Cyclotomic.zero(d)
        for k in range(1, d):
            if gcd(k, d) == 1:
                c = correction_at(GroupElement(d, k))
                sum_e, sum_h = sum_e + c.ce, sum_h + c.ch
        assert ident.class_trace(d) == (as_rational(sum_e), as_rational(sum_h)), d


def test_correction_sum_routes_agree():
    for p in range(2, 33):
        assert _correction_sum(p, "pipeline") == _correction_sum(p, "identities"), p


def test_trig_paths_agree_with_small_brute():
    for p in range(2, 33):
        small = _trig_sums_brute_small(p)
        sc, sc2 = ident.sum_cos_and_cos_sq(p)
        assert (sc, sc2) == (small.sum_cos, small.sum_cos_sq), p
        assert ident.sum_inv_one_minus_cos(p) == small.sum_inv_one_minus_cos, p


def test_correction_sum_matches_closed_form_beyond_old_ceiling():
    # the int64 evaluator stopped at p = 300; the trace route has no ceiling
    for p in list(range(2, 601)) + [1009, 2003, 5040, 10007]:
        closed = correction_sum_closed_form(p)
        assert ident.correction_sum_fast(p) == (closed.coeff_e, closed.coeff_h), p


def test_trig_sums_match_closed_form_beyond_old_ceiling():
    # the int64 evaluator stopped at p = 2000
    for p in list(range(2, 2001)) + [10007]:
        assert ident.sum_cos_and_cos_sq(p) == (-1, 1 if p == 2 else F(p - 2, 2)), p
        assert ident.sum_inv_one_minus_cos(p) == F(p * p - 1, 6), p
