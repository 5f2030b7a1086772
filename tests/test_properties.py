"""Property tests of the cyclotomic field arithmetic over random orders and
random rational coefficients."""

from fractions import Fraction as F
from functools import lru_cache
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from orbifold_index.scalars import Cyclotomic, euler_phi  # noqa: E402

# fixed examples keep the suite deterministic; the counts keep it quick
_settings = settings(max_examples=40, deadline=None, database=None, derandomize=True)

orders = st.integers(min_value=1, max_value=40)
rationals = st.builds(F, st.integers(-1000, 1000), st.integers(1, 12))


@lru_cache(maxsize=None)
def elements(p, nonzero=False):
    el = st.lists(rationals, min_size=euler_phi(p), max_size=euler_phi(p)).map(
        lambda cs: Cyclotomic(p, cs))
    return el.filter(bool) if nonzero else el


def assert_canonical(a):
    assert len(a.nums) == euler_phi(a.order)
    assert all(type(c) is int for c in a.nums) and type(a.den) is int
    assert a.den > 0 and gcd(a.den, *a.nums) == 1  # zero is (0, ..., 0)/1
    assert a.coeffs == tuple(F(c, a.den) for c in a.nums)


@st.composite
def triples(draw, nonzero=False):
    p = draw(orders)
    return tuple(draw(elements(p, nonzero)) for _ in range(3))


@_settings
@given(triples(), rationals, st.integers(-50, 50))
def test_canonical_form_after_every_operation(abc, q, k):
    a, b, _ = abc
    results = [a + b, a - b, a * b, -a, a + q, q - a, a * q, k * a, a + k,
               a.conjugate(), Cyclotomic.from_rational(a.order, q)]
    if b:
        results += [b.inverse(), a / b]
    if q:
        results.append(a / q)
    units = [j for j in range(1, a.order + 1) if gcd(j, a.order) == 1]
    results += [a.galois(j) for j in units[:3]]
    for r in results:
        assert_canonical(r)


@_settings
@given(triples())
def test_field_axioms(abc):
    a, b, c = abc
    zero, one = Cyclotomic.zero(a.order), Cyclotomic.one(a.order)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a - a == zero
    assert a + (-a) == 0 and a * 0 == 0


@_settings
@given(orders.flatmap(lambda p: elements(p, nonzero=True)))
def test_inverse(a):
    inv = a.inverse()
    assert inv * a == 1 and a * inv == 1
    assert inv.inverse() == a


@_settings
@given(triples(), st.integers(1, 200))
def test_galois_is_a_ring_homomorphism(abc, k):
    a, b, _ = abc
    p = a.order
    k = next(j for j in range(k, k + p + 1) if gcd(j, p) == 1)
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert a.conjugate().conjugate() == a


@_settings
@given(orders, rationals, triples())
def test_eq_and_hash_agree_with_int_and_fraction(p, q, abc):
    c = Cyclotomic.from_rational(p, q)
    assert c == q and hash(c) == hash(q)
    if q.denominator == 1:
        assert c == int(q) and hash(c) == hash(int(q))
    a = abc[0]
    assert (a == q) == (a.as_rational() == q)
    assert len({a, a * 1, a + 0, Cyclotomic.from_json(a.to_json())}) == 1


@_settings
@given(orders.flatmap(elements))
def test_json_roundtrip(a):
    data = a.to_json()
    assert Cyclotomic.from_json(data) == a
    assert data["coeffs"] == [str(c) for c in a.coeffs]
