"""Truncated ring: products, units, division by e."""

import random
from fractions import Fraction as F

import pytest

from oracles import Cyc, cyc, zeta
from orbifold_index.ring import (
    CohomElement,
    a_hat_squared,
    divide_by_e,
    exp_class,
    invert_unit,
    ring_mul,
)
from orbifold_index.scalars import Laurent, euler_phi

E = CohomElement(F(0), F(1), F(0), F(0), F(0), F(0))
H = CohomElement(F(0), F(0), F(1), F(0), F(0), F(0))
ONE = CohomElement.constant(F(1))


def test_ring_mul_examples():
    assert ring_mul(ONE + E, ONE + H) == CohomElement(F(1), F(1), F(1), F(0), F(1), F(0))
    assert ring_mul(E + H, E + H) == CohomElement(F(0), F(0), F(0), F(1), F(2), F(1))
    assert ring_mul(ring_mul(E, E), H) == CohomElement.constant(F(0))  # degree 6 truncates


def _random_rational_element(rng):
    return CohomElement(*(F(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(6)))


def _random_cyclotomic_element(rng, p):
    phi = euler_phi(p)

    def scalar():
        return cyc(p, [F(rng.randint(-3, 3)) for _ in range(phi)])

    return CohomElement(*(scalar() for _ in range(6)))


def test_ring_axioms_random():
    rng = random.Random(3)
    makers = [lambda: _random_rational_element(rng),
              lambda: _random_cyclotomic_element(rng, 12)]
    for make in makers:
        for _ in range(8):
            a, b, c = make(), make(), make()
            assert ring_mul(a, b) == ring_mul(b, a)
            assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
            assert ring_mul(a, b + c) == ring_mul(a, b) + ring_mul(a, c)
            assert a + b == b + a


def test_exp_class_examples():
    assert exp_class(F(1), F(0)) == CohomElement(F(1), F(1), F(0), F(1, 2), F(0), F(0))
    assert exp_class(F(-1), F(-1)) == CohomElement(
        F(1), F(-1), F(-1), F(1, 2), F(1), F(1, 2))
    assert exp_class(F(0), F(0)) == ONE
    assert exp_class(2, 0).cee == 2  # ints coerce exactly


def test_exp_class_is_a_homomorphism():
    rng = random.Random(5)
    for _ in range(12):
        a1, b1, a2, b2 = (F(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(4))
        lhs = ring_mul(exp_class(a1, b1), exp_class(a2, b2))
        assert lhs == exp_class(a1 + a2, b1 + b2)


def test_invert_unit_examples():
    assert invert_unit(CohomElement.constant(F(2))) == CohomElement.constant(F(1, 2))
    assert invert_unit(ONE - H) == CohomElement(F(1), F(0), F(1), F(0), F(0), F(1))
    four_h = CohomElement(F(4), F(0), F(0), F(0), F(0), F(1))
    assert invert_unit(four_h) == CohomElement(F(1, 4), F(0), F(0), F(0), F(0), F(-1, 16))


def test_invert_unit_two_sided_random():
    rng = random.Random(9)
    for _ in range(10):
        a = _random_rational_element(rng)
        if not a.c0:
            continue
        assert ring_mul(a, invert_unit(a)) == ONE
        assert ring_mul(invert_unit(a), a) == ONE
    for _ in range(4):
        a = _random_cyclotomic_element(rng, 8)
        if not a.c0:
            continue
        inv = invert_unit(a)
        prod = ring_mul(a, inv)
        assert prod.c0 == 1 and not prod.ce and not prod.chh


def test_invert_unit_rejects_non_units():
    with pytest.raises(ZeroDivisionError):
        invert_unit(H)
    with pytest.raises(ZeroDivisionError):
        invert_unit(CohomElement.constant(Cyc.from_rational(4, 0)))


def test_divide_by_e_examples():
    assert divide_by_e(E) == ONE
    a = CohomElement(F(0), F(0), F(0), F(2), F(6), F(0))
    q = divide_by_e(a)
    assert (q.c0, q.ce, q.ch) == (F(0), F(2), F(6))
    assert not q.cee and not q.ceh and not q.chh
    with pytest.raises(ValueError):
        divide_by_e(H)
    with pytest.raises(ValueError):
        divide_by_e(ONE)


def test_divide_by_e_is_a_section():
    # e * divide_by_e(a) reproduces a exactly when a is e-divisible with the
    # quotient's unknowable degree-4 part zeroed out
    rng = random.Random(13)
    for _ in range(10):
        q = _random_rational_element(rng)
        a = ring_mul(E, q)
        assert divide_by_e(a) == CohomElement(q.c0, q.ce, q.ch,
                                              F(0), F(0), F(0))
        assert ring_mul(E, divide_by_e(a)) == a


def test_a_hat_squared_parts():
    ah = a_hat_squared()
    assert ah.c0 == 1
    assert not ah.ce and not ah.ch and not ah.ceh and not ah.chh
    assert ah.cee == F(-1, 12)


def test_a_hat_squared_mixes_with_cyclotomic_elements():
    z = zeta(4, 1)
    a = CohomElement.constant(z)
    prod = ring_mul(a, a_hat_squared())
    assert prod.c0 == z and prod.cee == z * F(-1, 12)


def test_cohom_serialization():
    a = CohomElement(F(1), F(-1, 2), F(0), F(3), F(0), F(0))
    assert a.to_json() == {"1": "1", "e": "-1/2", "h": "0",
                           "ee": "3", "eh": "0", "hh": "0"}
    z = zeta(4, 1)
    b = CohomElement.constant(z)
    assert b.to_json()["1"] == {"order": 4, "coeffs": ["0", "1"]}
    # a Laurent coefficient has no JSON form: refused, not written as its repr
    with pytest.raises(TypeError):
        CohomElement.constant(Laurent({1: 1})).to_json()
