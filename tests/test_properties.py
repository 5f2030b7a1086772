"""Property tests of the Cyclotomic values and the oracle's field arithmetic
over random orders and random rational coefficients, of equality across the
scalar types, of the p-independent Laurent scalars and their conjugation,
of the class traces over the representative of 1/t, and of the index over
random topological data."""

import copy
import pickle
from fractions import Fraction as F
from functools import lru_cache
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from orbifold_index import identities as ident  # noqa: E402
from orbifold_index import index as index_mod  # noqa: E402
from orbifold_index.bundles import generic_characters  # noqa: E402
from orbifold_index.index import (  # noqa: E402
    Duality,
    TopologicalData,
    index_closed_form,
    index_kawasaki,
    index_smooth,
)
from orbifold_index.ring import CohomElement, exp_class, ring_mul, scalar_mul  # noqa: E402
from orbifold_index.scalars import (  # noqa: E402
    Cyclotomic,
    Laurent,
    _prime_factors,
    _reduction_rows,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    parse_rational,
    ramanujan_weights,
)
from oracles import (  # noqa: E402
    Cyc,
    class_sum_per_element,
    cyc,
    inv_two_minus_two_cos_vec,
    laurent_add,
    laurent_at,
    laurent_mul,
    laurent_terms,
    poly_divmod_int,
    reduction_rows_dense,
    trace,
    weight_trace,
    weight_trace_over_t,
    zeta,
)

# fixed examples keep the suite deterministic; the counts keep it quick
_settings = settings(max_examples=40, deadline=None, database=None, derandomize=True)

orders = st.integers(min_value=1, max_value=40)
rationals = st.builds(F, st.integers(-1000, 1000), st.integers(1, 12))


@lru_cache(maxsize=None)
def elements(p, nonzero=False):
    el = st.lists(rationals, min_size=euler_phi(p), max_size=euler_phi(p)).map(
        lambda cs: cyc(p, cs))
    return el.filter(bool) if nonzero else el


def coeffs(a):
    """The rational coefficients of a Cyclotomic or a Laurent numerator."""
    return tuple(F(c, a.den) for c in a.nums)


def assert_canonical(a):
    assert len(a.nums) == euler_phi(a.order)
    assert all(type(c) is int for c in a.nums) and type(a.den) is int
    assert a.den > 0 and gcd(a.den, *a.nums) == 1  # zero is (0, ..., 0)/1


def test_mutant_profile_generates_without_shrinking():
    # tests/conftest.py registers it for runs against broken copies of the
    # code; the default profile, under which tier-1 runs, still shrinks
    assert tuple(settings.get_profile("mutant").phases) == (Phase.explicit, Phase.generate)
    assert Phase.shrink in settings.get_profile("default").phases


@st.composite
def triples(draw, nonzero=False):
    p = draw(orders)
    return tuple(draw(elements(p, nonzero)) for _ in range(3))


@_settings
@given(triples(), rationals, st.integers(-50, 50))
def test_canonical_form_after_every_operation(abc, q, k):
    a, b, _ = abc
    results = [a + b, a - b, a * b, -a, a + q, q - a, a * q, k * a, a + k,
               a.conjugate(), Cyc.from_rational(a.order, q).value()]
    if b:
        results += [b.inverse(), a / b]
    if q:
        results.append(a / q)
    units = [j for j in range(1, a.order + 1) if gcd(j, a.order) == 1]
    results += [a.galois(j) for j in units[:3]]
    for r in results:
        assert_canonical(r)


@st.composite
def term_lists(draw):
    p = draw(st.integers(1, 60))
    # exponents near the rows and of any sign and size
    exponents = st.integers(-3 * p, 3 * p) | st.integers()
    terms = draw(st.lists(st.tuples(exponents, st.integers(-1000, 1000)), max_size=12))
    return p, terms, draw(st.integers(1, 12))


@_settings
@example((7, [(5 - 7 * 10**40, -3), (6 + 7 * 10**40, 2)], 5))
@example((36, [(34 + 36 * 10**40, 1), (-2 - 36 * 10**40, 4)], 1))
@given(term_lists())
def test_from_terms_takes_any_integer_exponent(args):
    # the kernel folds each exponent mod p itself, from a table of p rows:
    # zeta^(s + m p) is zeta^s for every integer m
    p, terms, den = args
    a = Cyclotomic._from_terms(p, terms, den)
    folded = [(s % p, c) for s, c in terms]
    assert a == Cyclotomic._from_terms(p, folded, den)
    assert_canonical(a)
    assert len(_reduction_rows(p)) == p
    # and agrees with long division of sum c x^(s mod p) by Phi_p
    poly = [0] * p
    for s, c in folded:
        poly[s] += c
    _, rem = poly_divmod_int(tuple(poly), cyclotomic_polynomial(p))
    rem += (0,) * (euler_phi(p) - len(rem))
    assert coeffs(a) == tuple(F(c, den) for c in rem)


@st.composite
def scaled_term_lists(draw):
    p = draw(st.integers(1, 60))
    exponents = st.integers(-3 * p, 3 * p) | st.integers()
    coefficients = st.just(0) | st.integers(-1000, 1000)
    terms = draw(st.lists(st.tuples(exponents, coefficients), max_size=12))
    # multipliers of either sign, zero, multiples of p and far beyond p
    mult = draw(st.integers(-3 * p, 3 * p) | st.sampled_from([0, p, -p, 5 * p]) | st.integers())
    return p, terms, draw(st.integers(1, 12)), mult


@_settings
@example((12, [(5, 3), (7, 0), (1, -2)], 4, 0))
@example((12, [(5, 3), (7, 0), (1, -2)], 1, -5))
@example((15, [(4, 2), (11, 7)], 3, 30))
@example((30, [(7 + 30 * 10**40, 5), (-1 - 30 * 10**40, 0), (2, 1)], 6, -7))
@example((7, [(3, 1), (4, 1)], 2, 10**30 + 3))
@given(scaled_term_lists())
def test_from_terms_scales_each_exponent(args):
    # the kernel sends each (s, c) to zeta^(s * mult), for any integer mult:
    # the field sum of c zeta^(s * mult) / den, exponents multiplied here
    p, terms, den, mult = args
    a = Cyclotomic._from_terms(p, iter(terms), den, mult)
    want = sum((c * zeta(p, s * mult) for s, c in terms), Cyc.from_rational(p, 0)) * F(1, den)
    assert a == want.value()
    assert_canonical(a)


@_settings
@given(orders, st.integers(-10**6, 10**6), st.integers(-1000, 1000))
def test_conjugate_of_a_monomial(p, s, c):
    # the per-order kernel check of the conjugation suite, at any exponent
    # and coefficient: conj(c zeta^s) = c zeta^-s, and conjugation is an involution
    a = c * zeta(p, s)
    assert a.conjugate() == c * zeta(p, -s)
    assert a.conjugate().conjugate() == a


def derived_slots():
    """Every slot of the seven derived characters and of the correction class."""
    classes = [*generic_characters().values(), index_mod.correction_class()]
    return [getattr(c, slot) for c in classes for slot in CohomElement._fields]


@_settings
@given(st.integers(2, 60), st.integers(0, 10**6))
def test_derived_values_are_galois_equivariant(p, k):
    # the value at zeta^j is the image of the value at zeta under zeta -> zeta^j,
    # for every unit j: Laurent.at folds s*j as galois does
    units = [j for j in range(1, p) if gcd(j, p) == 1]
    j = units[k % len(units)]
    for a in derived_slots():
        assert a.at(p, j) == a.at(p, 1).galois(j), (a, j)


def test_reduction_rows_match_the_dense_construction():
    # the monomial rows below phi(p) and the recurrence from x^phi on give
    # the rows that the dense recurrence from x^0 builds; uncached, so the
    # sweep leaves no tables behind
    for p in range(1, 301):
        assert _reduction_rows.__wrapped__(p) == reduction_rows_dense(p), p


@_settings
@given(orders, rationals, st.integers(-200, 200))
def test_galois_fixes_rationals(p, q, k):
    c = Cyc.from_rational(p, q).value()
    if gcd(k, p) != 1:
        with pytest.raises(ValueError, match="not an automorphism"):
            c.galois(k)
    else:
        assert c.galois(k) == c == q
        assert_canonical(c.galois(k))
        # one nonzero coefficient off the constant is not rational: it moves
        assert (q * zeta(p, 1)).galois(k) == q * zeta(p, k)


@_settings
@given(triples())
def test_field_axioms(abc):
    a, b, c = abc
    zero, one = Cyc.from_rational(a.order, 0), Cyc.from_rational(a.order, 1)
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
    c = Cyc.from_rational(p, q).value()
    assert c == q and hash(c) == hash(q)
    if q.denominator == 1:
        assert c == int(q) and hash(c) == hash(int(q))
    a = abc[0]
    assert (a == q) == (a.as_rational() == q)
    assert len({a, a * 1, a + 0, cyc(a.order, coeffs(a))}) == 1


@_settings
@given(orders.flatmap(elements).map(Cyc.value))
def test_json_roundtrip(a):
    data = a.to_json()  # read back through the kernel
    assert cyc(data["order"], [parse_rational(c) for c in data["coeffs"]]).value() == a
    assert data["coeffs"] == [str(c) for c in coeffs(a)]
    # pickle and copy round-trip to an equal, equally hashed, canonical element
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is Cyclotomic and b == a and hash(b) == hash(a)
        assert_canonical(b)


@st.composite
def format_cases(draw):
    """Canonical elements weighted towards what the formatter must get right:
    zero and negative numerators, den == 1, large integers, composite orders."""
    p = draw(st.sampled_from([4, 6, 9, 12, 15, 16, 30, 36, 720]) | orders)
    numerators = st.sampled_from([0, 1, -1]) | st.integers(-60, 60) | st.integers(-10**30, 10**30)
    nums = draw(st.lists(numerators, min_size=euler_phi(p), max_size=euler_phi(p)))
    den = draw(st.sampled_from([1, 2, 6, 12, 36, 210]) | st.integers(1, 10**12))
    return cyc(p, [F(c, den) for c in nums]).value()


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(format_cases())
def test_json_and_repr_format_each_coefficient_as_its_fraction(a):
    assert_canonical(a)
    data = a.to_json()
    assert data == {"order": a.order, "coeffs": [str(c) for c in coeffs(a)]}
    assert repr(a) == f"Cyclotomic({a.order}, {[str(c) for c in coeffs(a)]})"
    assert cyc(data["order"], [parse_rational(c) for c in data["coeffs"]]).value() == a


# few values, so that equal ones of different types and orders meet
few = st.sampled_from([0, 1, -1, F(1, 2)])
mixed_scalars = few | few.map(F) | few.map(lambda q: Laurent({0: q})) | st.builds(
    lambda p, s, q: Cyclotomic._from_terms(p, [(s, q.numerator)], q.denominator),
    st.integers(2, 12), st.integers(0, 3), few,
) | st.builds(lambda s, k: Laurent({s: 1}, k), st.integers(-1, 1), st.integers(0, 1))


@_settings
@example([Cyc.from_rational(5, 1).value(), 1, Cyc.from_rational(7, 1).value()])
@example([Laurent({0: 1}), 1, Cyc.from_rational(5, 1).value()])
@given(st.lists(mixed_scalars, min_size=2, max_size=6))
def test_eq_is_transitive_across_scalar_types_and_orders(values):
    for a, b, c in ((a, b, c) for a in values for b in values for c in values):
        assert (a == b) == (b == a) and (a != b or hash(a) == hash(b)), (a, b)
        assert not (a == b == c) or a == c, (a, b, c)
    # so a set's size does not depend on the order its values come in
    assert len(set(values)) == len(set(reversed(values)))


T = Laurent({-1: -1, 0: 2, 1: -1})  # t = 2 - z - z^-1


def t_power(m):
    """t^m for any integer m, as a product of factors t or 1/t."""
    out = Laurent({0: 1})
    for _ in range(abs(m)):
        out = out * T if m > 0 else out * Laurent({0: 1}, 1)
    return out


# a random N/t^k (k < 0 puts t on top) times a random power of t, so that
# cancellation happens
laurents = st.builds(lambda terms, k, m: Laurent(terms, k) * t_power(m),
                     st.dictionaries(st.integers(-3, 3), rationals, max_size=4),
                     st.integers(-2, 3), st.integers(0, 2))


def assert_laurent_canonical(a):
    assert type(a.nums) is tuple and all(type(c) is int for c in a.nums)
    assert type(a.den) is int and a.den > 0 and gcd(a.den, *a.nums) == 1
    assert type(a.lo) is int and type(a.k) is int and a.k >= 0
    if not a.nums:
        assert (a.lo, a.den, a.k) == (0, 1, 0)
        return
    assert a.nums[0] and a.nums[-1]
    if a.k:
        # t = -(z - 1)^2 / z divides N exactly when N(1) = N'(1) = 0
        assert sum(a.nums) or sum(s * c for s, c in enumerate(a.nums, a.lo))


def value(a, z):
    """a at the rational point z, where t(z) != 0."""
    n = sum(c * F(z) ** s for s, c in enumerate(coeffs(a), a.lo))
    return n / (2 - z - 1 / F(z)) ** a.k


POINTS = (2, -1, F(1, 3))


@_settings
@given(laurents, laurents, rationals, st.integers(-50, 50),
       st.dictionaries(st.integers(-3, 3), rationals, max_size=4), st.integers(-3, 3))
def test_laurent_canonical_form_after_every_operation(a, b, q, k, terms, tk):
    built = Laurent(terms, tk)
    results = [a + b, a - b, a * b, -a, a + q, -a + q, a * q, k * a, a + k, a.conjugate(),
               Laurent({0: q}), built]
    for r in results:
        assert_laurent_canonical(r)
    for z in POINTS:
        t = 2 - z - 1 / F(z)
        assert value(built, z) == sum(c * F(z) ** s for s, c in terms.items()) / t ** tk
        assert value(a + b, z) == value(a, z) + value(b, z)
        assert value(a - b, z) == value(a, z) - value(b, z)
        assert value(a * b, z) == value(a, z) * value(b, z)
        assert value(a.conjugate(), z) == value(a, 1 / F(z))


# integer Laurents the arithmetic must handle: zero, negative lo, k = 0..2,
# 30-digit numerators, and N * t^m over t^k so that t cancels
big_rationals = st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 10**9))
int_laurents = st.just(Laurent({})) | st.builds(
    lambda terms, k, m: laurent_mul(Laurent(terms, k), Laurent({0: 1}, -m)),
    st.dictionaries(st.integers(-6, 4), rationals | big_rationals, max_size=5),
    st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(int_laurents, int_laurents)
def test_laurent_integer_arithmetic_matches_the_fraction_route(a, b):
    for x, y in ((a, b), (a, laurent_add(b, a, -1))):  # a + (b - a) cancels back to b
        for got, want in ((x * y, laurent_mul(x, y)), (x + y, laurent_add(x, y)),
                          (x - y, laurent_add(x, y, -1))):
            assert got == want
            assert_laurent_canonical(got)


@_settings
@given(int_laurents, st.sampled_from([0, F(0), Laurent({}), Laurent({3: 0}, 2)]))
def test_laurent_zero_shortcuts_give_the_general_keys(a, zero):
    # x + 0, x - 0, 0 + x, 0 - x, x * 0 and 0 * x return early; each result
    # has the key that the Fraction-dict route builds through the general
    # canonicaliser, the zero included (()/1, lo = k = 0)
    z = Laurent._coerce(zero)
    assert z._key() == (0, (), 1, 0)
    for got, want in ((a + zero, laurent_add(a, z)), (zero + a, laurent_add(z, a)),
                      (a - zero, laurent_add(a, z, -1)), (z - a, laurent_add(z, a, -1)),
                      (a * zero, laurent_mul(a, z)), (zero * a, laurent_mul(z, a))):
        assert got._key() == want._key()


@_settings
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a and a * 1 == a and a - a == 0 and a * 0 == 0
    assert a + (-a) == 0 and a.conjugate().conjugate() == a


@_settings
@given(rationals, laurents, laurents)
def test_laurent_eq_and_hash(q, a, b):
    c = Laurent({0: q})
    assert c == q and hash(c) == hash(q) and c.as_rational() == q
    if q.denominator == 1:
        assert c == int(q) and hash(c) == hash(int(q))
    assert (a == q) == (a.as_rational() == q)
    copy_a = Laurent(laurent_terms(a), a.k)
    assert len({a, a * 1, a + 0, copy_a}) == 1
    for b2 in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b2) is Laurent and b2 == a and hash(b2) == hash(a)
        assert_laurent_canonical(b2)
    with pytest.raises(AttributeError):
        a.k = 0
    if a == b:
        assert hash(a) == hash(b)
    assert (a == b) == (a - b == 0)


@_settings
@given(rationals.filter(bool), st.integers(-4, 4))
def test_laurent_inverse_of_units(q, m):
    u = q * t_power(m)
    assert u == Laurent({0: q}, -m)  # a negative k is a power of t on top
    inv = u.inverse()
    assert inv * u == 1 and 1 / u == inv and inv == Laurent({0: 1 / q}, m)
    assert_laurent_canonical(inv)
    assert inv.inverse() == u


@_settings
@given(laurents)
def test_laurent_inverse_rejects_non_units(a):
    # a is a unit exactly when a * t^m is a nonzero constant for some m
    is_unit = any((a * t_power(m)).as_rational() not in (None, 0) for m in range(-8, 9))
    if is_unit:
        assert a.inverse() * a == 1
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


# N/t^k with k <= 2 as the constructor builds it, with no product, so that
# the conjugation properties below do not rest on the multiplication they test
small_laurents = st.builds(Laurent, st.dictionaries(st.integers(-3, 3), rationals, max_size=4),
                           st.integers(0, 2))
cohom_laurents = st.builds(CohomElement, *[small_laurents] * 6)


def conj(x):
    """Laurent.conjugate on a Laurent value or on every slot of a class."""
    return x.map(Laurent.conjugate) if isinstance(x, CohomElement) else x.conjugate()


@_settings
@given(small_laurents, small_laurents)
def test_laurent_conjugate_is_a_ring_automorphism(a, b):
    assert conj(a + b) == conj(a) + conj(b)
    assert conj(a - b) == conj(a) - conj(b)
    assert conj(a * b) == conj(a) * conj(b)
    assert conj(conj(a)) == a


@_settings
@given(rationals.filter(bool), st.integers(-3, 3))
def test_laurent_conjugate_commutes_with_the_inverse_of_a_unit(q, m):
    u = Laurent({0: q}, -m)  # q * t^m
    assert conj(u.inverse()) == conj(u).inverse()


# what the identity chi(1/z) = conj chi(z) of the derived characters rests
# on, operation by operation
@_settings
@given(cohom_laurents, cohom_laurents)
def test_ring_mul_commutes_with_conjugation(x, y):
    assert conj(ring_mul(x, y)) == ring_mul(conj(x), conj(y))


@_settings
@given(small_laurents, cohom_laurents)
def test_scalar_mul_commutes_with_conjugation(a, x):
    assert conj(scalar_mul(a, x)) == scalar_mul(conj(a), conj(x))


@_settings
@given(small_laurents, small_laurents)
def test_exp_class_commutes_with_conjugation(a, b):
    assert conj(exp_class(a, b)) == exp_class(conj(a), conj(b))


# k = 0 classes, the form every character coefficient takes
polynomials = st.dictionaries(st.integers(-12, 12), rationals, max_size=6).map(Laurent)


@_settings
@given(polynomials, orders)
def test_laurent_at_matches_the_literal_evaluation(a, p):
    for j in range(1, p):
        v = a.at(p, j)
        assert v == laurent_at(a, p, j), j
        assert_canonical(v)
    assert a.at(p, 0) == sum(coeffs(a))  # z = 1
    assert_canonical(a.at(p, 0))


# an order and a power j of its generator, the identity j = 0 included
orders_and_powers = st.integers(1, 60).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p - 1)))


@_settings
@given(polynomials, orders_and_powers)
@example(Laurent({}), (1, 0))
@example(Laurent({3: F(1, 2)}), (12, 0))
def test_a_zero_class_evaluates_to_the_canonical_zero(a, pj):
    # the divisibility suite reads the symbol's zero slots at a few elements
    # only: a zero class's value depends on no j, and is the canonical zero
    p, j = pj
    zero = Cyc.from_rational(p, 0)._key()
    assert zero == (p, (0,) * euler_phi(p), 1)
    for z in (a - a, a * 0, generic_characters()["symbol"].c0):
        assert not z.nums
        v = z.at(p, j)
        assert type(v) is Cyclotomic and v._key() == zero, (z, j)


# classes N/t^k over up to three powers of t: the derived correction
# class carries k <= 2
classes = st.builds(Laurent, st.dictionaries(st.integers(-12, 12), rationals, max_size=6),
                    st.integers(0, 3))


@_settings
@given(classes, st.integers(2, 60))
def test_laurent_at_evaluates_every_power_of_t(a, p):
    for j in range(1, p):  # j sharing a factor with p included
        v = a.at(p, j)
        assert v == laurent_at(a, p, j), j
        assert_canonical(v)


@_settings
@given(classes.filter(lambda a: a.k > 0), orders, st.integers(-2, 2))
def test_laurent_at_raises_where_t_vanishes(a, p, m):
    with pytest.raises(ZeroDivisionError):
        a.at(p, m * p)  # z = 1


# primes, prime powers and the highly composite 2310 = 2*3*5*7*11 besides random orders
trace_orders = st.one_of(st.integers(2, 3000),
                         st.sampled_from([2, 3, 1009, 2999, 729, 1024, 2187, 2401, 2310]))


@st.composite
def traced_numerators(draw):
    """(d, k, lo, nums) for a class sum_s nums[s - lo] z^s / t^k, k <= 1, in
    the form Laurent stores it: up to seven integer numerators from z^lo
    upward, nonzero at both ends and often zero inside, lo of either sign,
    beyond +-d included."""
    d = draw(trace_orders)
    lo = draw(st.one_of(st.integers(-3 * d, 3 * d), st.integers(-10**30, 10**30)))
    ends = st.integers(-100, 100).filter(bool)
    inner = draw(st.lists(st.one_of(st.just(0), st.integers(-100, 100)), max_size=5))
    nums = (draw(ends), *inner, draw(ends)) if draw(st.booleans()) else (draw(ends),)
    return d, draw(st.integers(0, 1)), lo, nums


@_settings
@example((2310, 1, -2311, (3, 0, 0, -7, 0, 0, 2)))
@example((2310, 0, 10**30, (5, 0, -1)))
@example((2, 1, -5, (1, 0, 0, 0, 0, 0, -2)))
@given(traced_numerators())
def test_class_trace_matches_the_oracle_trace(args):
    # the kernels read the numerators as Laurent keeps them, skipping zeros;
    # the oracle slices a vector of length d by the nonzero terms: the unit
    # vector when k = 0, and u_d over d^2 when k = 1, whose trace is d^2
    # times the one that sparse_trace_over_t gives 12 times
    d, k, lo, nums = args
    primes = [q for q, _ in _prime_factors(d)]
    terms = {s: c for s, c in enumerate(nums, lo) if c}
    if k == 0:
        expected = trace([1] + [0] * (d - 1), terms)
        assert ident.sparse_trace(d, primes, lo, nums) == expected
    else:
        vec, _ = inv_two_minus_two_cos_vec(d)  # over d^2
        assert d * d * ident.sparse_trace_over_t(d, primes, lo, nums) == 12 * trace(vec, terms)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@st.composite
def many_prime_orders(draw):
    """d >= 2 with many distinct small primes, squarefree or with squared
    and cubed primes, or a prime power: the orders where the small-m
    correction runs at several m <= max |s|."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_PRIMES[:6])) ** draw(st.integers(1, 12))
    primes = draw(st.lists(st.sampled_from(_PRIMES), min_size=1, max_size=10, unique=True))
    d = 1
    for q in primes:
        d *= q ** draw(st.sampled_from((1, 1, 1, 2, 3)))
    return d


@_settings
@example((2 * 3 * 5 * 7 * 11 * 13, 1, -12, (1,) * 19))  # every m | 30030 up to 12
@example((4 * 9 * 5 * 7, 1, -6, (2, 0, -3, 0, 0, 0, 1)))  # mu(d/m) = 0 at some small m
@example((2, 1, -12, (5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1)))  # d < max |s|
@example((2**10, 0, -12, (1, 0, 0, 0, -4)))
@given(st.tuples(many_prime_orders(), st.integers(0, 1), st.integers(-12, 6),
                 st.lists(st.integers(-50, 50), min_size=1, max_size=9).map(tuple)))
def test_totient_kernels_match_the_weight_kernels(args):
    # the src kernels, O(omega(d)) plus the small-m terms, against the
    # references that sum every Ramanujan weight of d (tests/oracles.py),
    # with |s| <= 12 so that several m <= max |s| divide d; over 1/t the
    # kernel gives 12 Tr and the reference 2 d^2 Tr
    d, k, lo, nums = args
    primes = [q for q, _ in _prime_factors(d)]
    if k == 0:
        assert ident.sparse_trace(d, primes, lo, nums) == weight_trace(d, lo, nums)
    else:
        assert d * d * ident.sparse_trace_over_t(d, primes, lo, nums) == 6 * weight_trace_over_t(
            d, lo, nums)


@_settings
@example((9699690, -12, (1,) * 19))  # 2*3*...*19: every squarefree m <= 12
@example((2**24, -1, (3, 0, -5)))
@given(st.tuples(st.one_of(st.integers(2, 10**7), st.just(9699690),
                           st.integers(1, 24).map(lambda e: 2**e)),
                 st.integers(-12, 6),
                 st.lists(st.integers(-50, 50), min_size=1, max_size=9).map(tuple)))
def test_trace_over_t_is_its_closed_form_times_twelve(args):
    # 12 Tr(N/t)(zeta_d) from the moments and Jordan's totients, against the
    # checked quadratic u_d over 2 d^2 summed over every Ramanujan weight:
    # d^2 times the one is 6 times the other, at random orders up to 10^7,
    # at the primorial 19# and at powers of 2
    d, lo, nums = args
    primes = [q for q, _ in _prime_factors(d)]
    assert d * d * ident.sparse_trace_over_t(d, primes, lo, nums) == 6 * weight_trace_over_t(
        d, lo, nums)


# classes N/t^k with k <= 1, the ones a group sum traces: integer
# numerators at exponents of either sign over a random denominator
traced_classes = st.builds(
    lambda terms, k, den: Laurent({s: F(c, den) for s, c in terms.items()}, k),
    st.dictionaries(st.integers(-15, 15), st.integers(-50, 50), max_size=6),
    st.integers(0, 1), st.integers(1, 12))


@_settings
@example(3, [Laurent({1: 1}, 1), Laurent({-2: F(5, 3)})])  # d = 3 alone: no fault cancels
@given(st.integers(2, 60), st.lists(traced_classes, min_size=1, max_size=3))
def test_class_sums_match_the_per_element_sums(p, classes):
    # each sum is an unreduced integer pair over the class's own denominator,
    # times 12 over 1/t
    pairs = ident.class_sums(p, classes)
    assert tuple(F(num, den) for num, den in pairs) == tuple(
        class_sum_per_element(c, p) for c in classes)
    assert [den for _, den in pairs] == [c.den if c.k == 0 else 12 * c.den for c in classes]


@_settings
@example(1)
@example(2)
@example(4)
@example(9)
@example(2**40)
@example(3**25)
@example(999983**2)
@example(2 * 999983)
@example(10**13 + 37)
@example(720720)
@given(st.integers(1, 10**12))
def test_prime_factors_match_sympy(n):
    sympy = pytest.importorskip("sympy")
    assert _prime_factors(n) == sorted(sympy.factorint(n).items())
    assert divisors(n) == sympy.divisors(n)


def _ramanujan_by_definition(d, s):
    """c_d(s) = sum_{m | gcd(s, d)} mu(d/m) m, with the divisors and mu
    found by trial division here, apart from the package's factoriser."""
    g = gcd(s, d)
    total = 0
    for m in range(1, int(g ** 0.5) + 1):
        if g % m == 0:
            for e in {m, g // m}:
                n, mu, q = d // e, 1, 2
                while q * q <= n:
                    if n % q == 0:
                        n //= q
                        mu = 0 if n % q == 0 else -mu
                    q += 1
                total += e * (mu if n == 1 else -mu)
    return total


# primes, prime powers and highly composite orders up to 10^6 besides random ones
weight_orders = st.one_of(st.integers(1, 10**6),
                          st.sampled_from([2, 97, 999983, 2**19, 3**12, 7**7, 2310,
                                           720720, 510510]))


@_settings
@example(720720, [0, 1, 360360, 720720 * 7 + 5040, -2310], 720720)
@example(2310, [0, 1, 2, 105, -1155, 2310], 12)
@given(weight_orders, st.lists(st.one_of(st.integers(-10**6, 10**6),
                                         st.integers(-10**15, 10**15)), min_size=1, max_size=6),
       st.one_of(st.integers(0, 30), st.integers(0, 10**6)))
def test_ramanujan_weights_are_the_definition(d, ss, top):
    # all of d's weights sum to c_d(s); below top, exactly those with m <= top
    primes = [q for q, _ in _prime_factors(d)]
    weights = ramanujan_weights(d, primes, d)
    for s in ss:
        assert sum(w for m, w in weights if s % m == 0) == _ramanujan_by_definition(d, s), s
    assert sorted(ramanujan_weights(d, primes, top)) == sorted(
        (m, w) for m, w in weights if m <= top)


cone_orders = st.integers(min_value=1, max_value=60)
dualities = st.sampled_from(Duality)


@st.composite
def topological_data(draw, p=cone_orders):
    """(chi, tau, chi(Sigma), [Sigma]^2, p) with chi = tau (mod 2), the
    parity every closed four-manifold has."""
    chi = draw(st.integers(-100, 100))
    tau = 2 * draw(st.integers(-50, 50)) + chi % 2
    return TopologicalData(chi, tau, draw(st.integers(-20, 20)),
                           draw(st.integers(-20, 20)), draw(p))


@_settings
@given(topological_data(), dualities)
def test_index_is_an_integer_on_both_routes(data, duality):
    k = index_kawasaki(data, duality)
    assert type(k) is int
    if data.p >= 2:
        assert k == index_closed_form(data, duality)
    else:
        assert k == index_smooth(data.chi_M, data.tau_M, duality)


@_settings
@given(topological_data())
def test_sd_is_asd_of_the_negated_data(data):
    flipped = TopologicalData(**{**vars(data), "tau_M": -data.tau_M, "sigma_sq": -data.sigma_sq})
    assert index_kawasaki(data, Duality.SD) == index_kawasaki(flipped, Duality.ASD)
    assert (index_smooth(data.chi_M, data.tau_M, Duality.SD)
            == index_smooth(flipped.chi_M, flipped.tau_M, Duality.ASD))
    if data.p >= 2:
        assert (index_closed_form(data, Duality.SD)
                == index_closed_form(flipped, Duality.ASD))


@_settings
@given(topological_data(p=st.integers(2, 60)), st.integers(2, 60), dualities)
def test_kawasaki_index_is_independent_of_the_cone_order(data, q, duality):
    other = TopologicalData(**{**vars(data), "p": q})
    assert index_kawasaki(data, duality) == index_kawasaki(other, duality)
