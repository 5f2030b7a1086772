"""Acceptance suite: every criterion at exact (zero-tolerance) equality.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All expected values are exact integers and rationals.
"""

import random
from fractions import Fraction as F

from oracles import cyc
from orbifold_index.applications import (
    SurfaceKind,
    feasible_self_intersections,
    h0_bound,
    hitchin_report,
    lebrun_report,
    orientable_verdict,
    ricci_flat_moduli_dim,
    whitney_massey_values,
)
from orbifold_index.verify import (
    _check_conjugation,
    _check_divisibility,
    _check_rank,
)
from orbifold_index.identities import trig_sums
from orbifold_index.index import (
    Duality,
    TopologicalData,
    correction_sum,
    index_closed_form,
    index_kawasaki,
    index_smooth,
)
from orbifold_index.ring import CohomElement, invert_unit, ring_mul
from orbifold_index.scalars import euler_phi


def _passed(n, text):
    print(f"ACCEPTANCE {n:>2} PASS: {text}")


def _random_tuples(count=500, seed=20120912):
    # closed oriented four-manifolds have even chi + tau, which is exactly
    # when (15 chi +- 29 tau)/2 is an integer; the generator respects that
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        chi = rng.randint(-20, 20)
        tau = rng.randint(-20, 20)
        if (chi + tau) % 2:
            continue
        out.append((chi, tau, rng.randint(-20, 20), rng.randint(-20, 20)))
    return out


def test_criterion_1_correction_closed_form():
    for p in range(2, 201):
        got = correction_sum(p)
        expect_e = F(-(7 * p - 15), 2 * p)
        expect_h = (4 - F(5, 6) * (p * p - 1)) / p
        assert (got.coeff_e, got.coeff_h) == (expect_e, expect_h), p
    _passed(1, "class-traced correction sum equals its closed form, p in [2, 200]")


def test_criterion_2_route_equivalence_and_p_independence():
    tuples = _random_tuples()
    for chi, tau, schi, ssq in tuples:
        seen = {Duality.ASD: set(), Duality.SD: set()}
        for p in range(2, 31):
            data = TopologicalData(chi, tau, schi, ssq, p)
            for duality in Duality:
                k = index_kawasaki(data, duality)
                assert k == index_closed_form(data, duality), (data, duality)
                seen[duality].add(k)
        assert all(len(s) == 1 for s in seen.values()), (chi, tau, schi, ssq)
    _passed(2, "fixed-point route equals closed form and is p-independent "
               "on 500 random tuples, p in [2, 30], both dualities")


def test_criterion_3_smooth_baseline():
    for chi, tau, schi, ssq in _random_tuples(count=200):
        data = TopologicalData(chi, tau, schi, ssq, 1)
        for duality in Duality:
            assert index_kawasaki(data, duality) == index_smooth(chi, tau, duality)
    _passed(3, "p = 1 reproduces the smooth index (15 chi +- 29 tau)/2")


def test_criterion_4_hitchin_rigidity():
    for k in range(3, 101):
        report = hitchin_report(k)
        assert report.index == 3 and report.dim_h1 == 0
        assert report.verdict == "rigid"
        p = k - 2
        if p >= 2:  # at p = 1 only the smooth formula applies
            data = TopologicalData(2, 0, 1, -2, p)
            assert index_kawasaki(data, Duality.SD) == 3, k
    _passed(4, "(S^4, RP^2, [S]^2 = -2) has index 3 and verdict rigid "
               "for every k in [3, 100]")


def test_criterion_5_orientable_obstruction():
    for j in range(1, 21):
        data = TopologicalData(2, 0, 2 - 2 * j, 0, 2)
        idx = index_closed_form(data, Duality.SD)
        assert idx == 7 + 8 * j, j
        bound = h0_bound(SurfaceKind(True, j))
        assert idx > bound, j
        assert orientable_verdict(j).verdict == "nonexistence"
    _passed(5, "orientable genus-j index 7 + 8j exceeds every dim H0 bound, "
               "j in [1, 20]")


def test_criterion_6_massey_filtering():
    assert feasible_self_intersections(1) == [-2]
    assert feasible_self_intersections(2) == [-4]
    for j in range(3, 51):
        expected = [s for s in whitney_massey_values(j) if -2 * j <= s < -j]
        assert feasible_self_intersections(j) == expected, j
    _passed(6, "feasible self-intersections match the Massey values in "
               "[-2j, -j), j in [1, 50]")


def test_criterion_7_lebrun_moduli():
    for n in range(3, 31):
        for p in (2, 7):
            report = lebrun_report(n, p)
            assert report.index == -3 * n + 7, (n, p)
            assert report.dim_h1 == 3 * n - 6, (n, p)
    _passed(7, "monopole family index -3n + 7 with moduli dimension 3n - 6, "
               "n in [3, 30]")


def test_criterion_8_ricci_flat_dimension():
    for chi, tau, schi, ssq in _random_tuples(count=200):
        for p in (2, 3, 11):
            data = TopologicalData(chi, tau, schi, ssq, p)
            assert ricci_flat_moduli_dim(data) == -index_closed_form(data, Duality.ASD)
    _passed(8, "Ricci-flat moduli dimension is minus the anti-self-dual index")


def test_criterion_9_trig_identities():
    for p in range(2, 1001):
        sums = trig_sums(p)  # class-traced-vs-closed equality asserted inside
        assert sums.sum_cos == -1
        # the p = 2 sum is the single term cos^2(pi) = 1; the (p-2)/2 form
        # holds from p = 3 on, where the doubled angles average out
        assert sums.sum_cos_sq == (F(1) if p == 2 else F(p - 2, 2))
        assert sums.sum_inv_one_minus_cos == F(p * p - 1, 6)
    _passed(9, "sum cos = -1, sum cos^2 = (p-2)/2 (1 at p=2), "
               "sum 1/(1-cos) = (p^2-1)/6, p in [2, 1000]")


def test_criterion_10_structural_suites():
    # field axioms on random cyclotomic elements
    rng = random.Random(101)
    for p in (7, 12, 18, 25, 30):
        phi = euler_phi(p)
        for _ in range(3):
            a = cyc(p, [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(phi)])
            b = cyc(p, [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(phi)])
            assert a * b == b * a
            if a:
                assert a * a.inverse() == 1

    # ring axioms under truncation and two-sided unit inversion
    def rand_elem():
        return CohomElement(*(F(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(6)))

    one = CohomElement.constant(F(1))
    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
        assert ring_mul(a, b + c) == ring_mul(a, b) + ring_mul(a, c)
        if a.c0:
            assert ring_mul(a, invert_unit(a)) == one

    # bundle character invariants: ranks, conjugation, divisibility
    for p in range(1, 51):
        assert _check_rank(p), p
    for p in range(2, 31):
        assert _check_conjugation(p), p
    for p in range(2, 51):
        assert _check_divisibility(p), p

    # integrality and rationality of every group-summed quantity is asserted
    # inside index_kawasaki and correction_sum; exercise them once more
    for p in (2, 9, 28, 45):
        correction_sum(p)
        assert isinstance(
            index_kawasaki(TopologicalData(4, 2, -3, 5, p), Duality.ASD), int)
    _passed(10, "field and ring axioms, rank, conjugation, divisibility, "
                "integrality and rationality sweeps all exact")
