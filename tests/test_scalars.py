"""Exact scalars: cyclotomic polynomials, Cyclotomic values, the oracle's
field arithmetic over them, trig sums."""

import random
import sys
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest

from oracles import Cyc, cos_of, cyc, sin_times_i_of, trig_sums_brute, zeta
import orbifold_index
from orbifold_index import scalars
from orbifold_index.identities import trig_sums
from orbifold_index.scalars import (
    ConsistencyError,
    Cyclotomic,
    Laurent,
    _poly_mul_int,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    parse_rational,
    ramanujan_weights,
)


def test_cyclotomic_polynomial_examples():
    assert cyclotomic_polynomial(1) == (-1, 1)
    # the binomial products (x^4 - 1)/(x^2 - 1) and (x^6 - 1)(x - 1)/((x^3 - 1)(x^2 - 1))
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)


def test_cyclotomic_polynomial_product_identity():
    # prod_{d | p} Phi_d == x^p - 1, an independent reconstruction
    for p in range(1, 41):
        prod = (1,)
        for d in divisors(p):
            prod = _poly_mul_int(prod, cyclotomic_polynomial(d))
        expected = [0] * (p + 1)
        expected[0], expected[p] = -1, 1
        assert list(prod) == expected, p


def test_cyclotomic_polynomial_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    # 105 = 3 5 7 is the first order with a coefficient of magnitude 2;
    # 2310 and 3003 have 16 and 8 binomial factors of each sign
    for p in [*range(1, 61), 105, 385, 1155, 2310, 3003]:
        ours = cyclotomic_polynomial(p)
        theirs = sympy.Poly(sympy.cyclotomic_poly(p, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], p


def test_cyclotomic_polynomial_rejects_a_dropped_binomial_factor(monkeypatch):
    # without one factor (x^d - 1)^mu(105/d) the product is not Phi_105: a
    # mu = +1 factor left out fails an exact division, a mu = -1 one the degree
    weights = ramanujan_weights(105, [3, 5, 7], 105)
    cyclotomic_polynomial.cache_clear()
    try:
        for i, (_, w) in enumerate(weights):
            monkeypatch.setattr(scalars, "ramanujan_weights",
                                lambda *args, i=i: weights[:i] + weights[i + 1:])
            with pytest.raises(ConsistencyError, match="inexact" if w > 0 else "deg"):
                cyclotomic_polynomial(105)
    finally:
        monkeypatch.undo()
        cyclotomic_polynomial.cache_clear()
    assert len(cyclotomic_polynomial(105)) - 1 == euler_phi(105)


def test_degree_is_euler_phi():
    for p in range(1, 80):
        assert len(cyclotomic_polynomial(p)) - 1 == euler_phi(p)


def _naive_mobius(n):
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    return 0 if any(n % (q * q) == 0 for q in primes) else (-1) ** len(primes)


def test_factoriser_helpers_match_definitions():
    for n in range(1, 301):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1), n
        assert divisors(n) == [m for m in range(1, n + 1) if n % m == 0], n
        primes = [q for q, _ in scalars._prime_factors(n)]
        weights = ramanujan_weights(n, primes, n)
        # the weights with m <= top are those of the whole list
        assert ramanujan_weights(n, primes, 12) == [(m, w) for m, w in weights if m <= 12], n
        for s in range(n):
            # c_n(s) = sum_{m | gcd(s, n)} mu(n/m) m
            ramanujan = sum(_naive_mobius(n // m) * m
                            for m in range(1, n + 1) if n % m == 0 and s % m == 0)
            assert sum(w for m, w in weights if s % m == 0) == ramanujan, (n, s)


def test_zeta_power_examples():
    assert zeta(2, 1) == -1
    assert (zeta(4, 3).nums, zeta(4, 3).den) == ((0, -1), 1)  # zeta^3 = -zeta mod zeta^2+1
    assert zeta(5, 0) == 1
    assert zeta(1, 7) == 1


def test_zeta_power_group_laws():
    for p in range(1, 31):
        assert zeta(p, p) == 1
        for j in range(p):
            assert zeta(p, j) * zeta(p, p - j) == 1


def test_cyc_mul_examples():
    i = zeta(4, 1)
    assert i * i == -1
    assert (1 + zeta(3, 1)) * (1 + zeta(3, 2)) == 1
    a = zeta(7, 3) + 2
    assert a * Cyc.from_rational(7, 1) == a


def test_cyc_mul_order_mismatch():
    with pytest.raises(ValueError):
        zeta(3, 1) * zeta(4, 1)
    with pytest.raises(ValueError):
        zeta(3, 1) + zeta(6, 1)


def test_cyc_inverse_examples():
    assert Cyc.from_rational(5, 2).inverse() == F(1, 2)
    i = zeta(4, 1)
    assert i.inverse() == -i
    assert (1 - zeta(2, 1)).inverse() == F(1, 2)
    with pytest.raises(ZeroDivisionError):
        Cyc.from_rational(6, 0).inverse()


def test_division_and_pow():
    z = zeta(12, 5)
    assert z / z == 1
    assert z ** 12 == 1
    assert z ** -1 == z.inverse()
    assert (2 * z) / 2 == z


def test_cos_sin_examples():
    assert cos_of(2, 1) == -1 and sin_times_i_of(2, 1) == 0
    assert cos_of(4, 1) == 0 and sin_times_i_of(4, 1) == zeta(4, 1)
    assert cos_of(3, 1) == F(-1, 2)


def test_pythagorean_identity():
    # cos^2 + sin^2 = 1 with sin^2 = -(i sin)^2, exactly
    for p in range(1, 31):
        for j in range(p):
            c = cos_of(p, j)
            s_sq = -(sin_times_i_of(p, j) * sin_times_i_of(p, j))
            assert c * c + s_sq == 1, (p, j)


def test_as_rational():
    assert Cyc.from_rational(9, F(7, 3)).value().as_rational() == F(7, 3)
    assert (zeta(3, 1) + zeta(3, 2)).as_rational() == -1
    assert zeta(5, 1).as_rational() is None
    assert Laurent({0: F(2, 3)}).as_rational() == F(2, 3)
    assert Laurent({0: 5}).as_rational() == 5


def test_galois_invariance_of_group_sums():
    # sum over j = 1..p-1 of f(zeta^j) is rational for rational-coefficient f
    rng = random.Random(11)
    for p in [3, 5, 6, 8, 12, 14, 20]:
        coeffs = [F(rng.randint(-5, 5)) for _ in range(5)]
        total = Cyc.from_rational(p, 0)
        for j in range(1, p):
            z = zeta(p, j)
            val = Cyc.from_rational(p, 0)
            for c in reversed(coeffs):
                val = val * z + c
            total = total + val
        assert total.as_rational() is not None, p


def test_conjugation():
    for p in [2, 3, 5, 8, 12]:
        for j in range(p):
            assert zeta(p, j).conjugate() == zeta(p, -j)
    with pytest.raises(ValueError):
        zeta(9, 1).galois(3)  # not coprime to 9


def test_trig_sums_examples():
    assert trig_sums(2) == (F(-1), F(1), F(1, 2))
    assert trig_sums(3) == (F(-1), F(1, 2), F(4, 3))
    assert trig_sums(4) == (F(-1), F(1), F(5, 2))


def test_trig_sums_p2_cos_sq_special_case():
    # the single term is cos^2(pi) = 1; the (p-2)/2 form starts at p = 3
    assert trig_sums(2).sum_cos_sq == 1
    assert trig_sums(3).sum_cos_sq == F(1, 2)


def test_trig_sums_rejects_small_p():
    with pytest.raises(ValueError):
        trig_sums(1)
    with pytest.raises(ValueError):
        trig_sums(0)


def test_trig_sums_brute_small_agrees_with_closed():
    # the literal Cyclotomic sweep, with its rationality check
    for p in range(2, 33):
        brute = trig_sums_brute(p)
        assert brute == trig_sums(p), p


def test_rational_serialization():
    assert parse_rational("-7/3") == F(-7, 3)
    assert parse_rational("4") == 4
    with pytest.raises(ValueError):
        parse_rational("x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_parse_rational_bounds_digits_before_building():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    assert parse_rational("1e3") == 1000 and parse_rational("0.5") == F(1, 2)
    assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == F(1, 10 ** (limit - 1))
    assert parse_rational("1_000e2") == 10 ** 5
    for s in (f"1e{limit}", f"1e-{limit}", "1e999999999", "1e-999999999", "1e" + "9" * 5000,
              "1/" + "3" * (limit + 1), "3" * (limit + 1), "0." + "1" * limit):
        with pytest.raises(ValueError, match=f"exceeds the limit of {limit} digits"):
            parse_rational(s)
    with pytest.raises(ValueError, match="malformed"):
        parse_rational("1/2e5")


def test_cyclotomic_validation():
    with pytest.raises(TypeError):  # values come from _from_terms or a rational only
        Cyclotomic(7, [F(1)] * 6)
    # the removed module-level names, and the removed forwarding members,
    # are not left behind
    removed = {"zeta_power", "format_rational", "as_rational"}
    assert not removed & (set(vars(orbifold_index)) | set(vars(scalars)))
    assert not hasattr(Cyclotomic, "zero")
    assert not {"sphere", "orientable_genus"} & set(dir(orbifold_index.SurfaceKind))
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("inexact", [0.1, 1j, Decimal("0.1")],
                         ids=["float", "complex", "Decimal"])
def test_inexact_coefficients_are_rejected(inexact):
    # Fraction(0.1) would silently keep the binary float's exact value
    with pytest.raises(TypeError):
        Laurent({0: 1, 1: inexact})


def test_storage_is_canonical():
    a = cyc(6, [F(2, 4), F(-3, 6)])
    assert (a.nums, a.den) == ((1, -1), 2)
    z = a - a
    assert (z.nums, z.den) == ((0, 0), 1) and z == 0
    assert (2 * a).den == 1 and (2 * a).nums == (1, -1)


@pytest.mark.parametrize("value", [Cyclotomic._from_terms(7, [(2, 1)]),
                                   Cyc.from_rational(5, F(3, 4)).value(),
                                   Laurent({1: 1}), Laurent({-1: 2, 0: F(1, 3)}, 2)],
                         ids=["zeta7^2", "rational-in-Q(zeta5)", "z", "class-over-t^2"])
def test_scalar_slots_cannot_be_assigned_or_deleted(value):
    before = (repr(value), hash(value), value._key())
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
    assert (repr(value), hash(value), value._key()) == before


def _embed(a):
    # numeric embedding at the principal root; independent of the exact layer
    import cmath
    z = cmath.exp(2j * cmath.pi / a.order)
    return sum(c / a.den * z ** s for s, c in enumerate(a.nums))


def test_numeric_embedding_sanity():
    import cmath
    import math
    for p in (5, 7, 12, 30):
        for j in range(p):
            theta = 2 * math.pi * j / p
            assert abs(_embed(cos_of(p, j)) - math.cos(theta)) < 1e-9
            assert abs(_embed(sin_times_i_of(p, j)) - 1j * math.sin(theta)) < 1e-9
            assert abs(_embed(zeta(p, j)) - cmath.exp(1j * theta)) < 1e-9
        for j in range(1, p):
            inv = (2 - 2 * cos_of(p, j)).inverse()
            want = 1 / (2 - 2 * math.cos(2 * math.pi * j / p))
            assert abs(_embed(inv) - want) < 1e-9
