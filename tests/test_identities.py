"""The per-divisor trace evaluator and the derived correction class against
the extended-Euclid route, the literal per-element ring pipeline over
characters in the oracle's field arithmetic, and the closed forms."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from math import gcd

import pytest

from oracles import (
    Cyc,
    class_sum_per_element,
    correction_at_pipeline,
    correction_sum_pipeline,
    cos_of,
    inv_two_minus_two_cos_vec,
    trace,
    trig_sums_brute,
    verify_inverse_vec,
    zeta,
)
from orbifold_index import identities as ident
from orbifold_index import index as index_mod
from orbifold_index import scalars
from orbifold_index.bundles import GroupElement
from orbifold_index.identities import TrigSums, _trig_closed_forms, trig_sums
from orbifold_index.index import (
    correction_at,
    correction_class,
    correction_sum,
    correction_sum_closed_form,
)
from orbifold_index.ring import CohomElement
from orbifold_index.scalars import (
    ConsistencyError,
    Laurent,
    divisors,
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
    vec, den = inv_two_minus_two_cos_vec(p // gcd(k, p))
    got = Cyc._from_terms(p, enumerate(_image(p, k, vec)), den)
    assert got == (2 - 2 * cos_of(p, k)).inverse()


@pytest.mark.parametrize("d", list(range(2, 61)) + [97, 105, 128])
def test_representative_matches_ext_gcd(d):
    inv_t = (2 - 2 * cos_of(d, 1)).inverse()
    vec, den = inv_two_minus_two_cos_vec(d)
    verify_inverse_vec(d, vec, den)
    assert Cyc._from_terms(d, enumerate(vec), den) == inv_t
    # the library's quadratic over 2 d^2, expanded entry by entry, is the same element
    c0, c1, c2 = ident.inv_two_minus_two_cos_quadratic(d)
    assert Cyc._from_terms(d, ((r, c0 + c1 * r + c2 * r * r) for r in range(d)),
                                  2 * d * d) == inv_t


def test_inverse_constructors_reject_identity():
    for d in (0, 1):
        for build in (ident.inv_two_minus_two_cos_quadratic, inv_two_minus_two_cos_vec):
            with pytest.raises(ZeroDivisionError):
                build(d)


def test_inverse_vector_is_the_closed_form():
    for d in list(range(2, 301)) + [1009]:
        t1, t2 = d * (d - 1) // 2, (d - 1) * d * (2 * d - 1) // 6
        vec, den = inv_two_minus_two_cos_vec(d)
        assert vec == [t2 - r * t1 + d * (r * (r - 1) // 2) for r in range(d)], d
        assert den == d * d, d
        # the oracle vector over d^2 is the expansion of the library's
        # quadratic over 2 d^2, halved
        c0, c1, c2 = ident.inv_two_minus_two_cos_quadratic(d)
        assert [2 * c for c in vec] == [c0 + c1 * r + c2 * r * r for r in range(d)], d


def test_verify_inverse_vec_accepts_and_rejects():
    for d in range(2, 61):
        coeffs = ident.inv_two_minus_two_cos_quadratic(d)
        ident.verify_inverse_quadratic(d, coeffs)
        for i in (1, 2):  # c1 and c2, each moved by +1, -1 and +d
            for delta in (1, -1, d):
                bad = list(coeffs)
                bad[i] += delta
                with pytest.raises(ConsistencyError, match=f"d={d}"):
                    ident.verify_inverse_quadratic(d, tuple(bad))
        # a shift of c0 adds a multiple of the all-ones N_d, which t kills and
        # which traces to 0: an equivalent representative, accepted by both checks
        c0, c1, c2 = coeffs
        ident.verify_inverse_quadratic(d, (c0 + 1, c1, c2))
        # c2 moved by d and c1 by what keeps the end r = 0, then the end
        # r = d - 1, at its value: each end is read on its own for d > 2
        if d > 2:
            for dc1 in (-(d * d - 2 * d + 2), -(d * d - 2)):
                with pytest.raises(ConsistencyError, match=f"d={d}"):
                    ident.verify_inverse_quadratic(d, (c0, c1 + dc1, c2 + d))
        vec, vden = inv_two_minus_two_cos_vec(d)
        verify_inverse_vec(d, [c + 1 for c in vec], vden)


def _three_conditions_accept(d, coeffs):
    """The u_d check by three conditions: the two ends and, for d > 2, the
    interior entry -2 c2 = -2d."""
    den = 2 * d * d
    c0, c1, c2 = coeffs

    def v(r):
        r %= d
        return c0 + r * (c1 + r * c2)

    return not ((d > 2 and 2 * c2 != den // d)
                or 2 * v(0) - v(-1) - v(1) != den - den // d
                or 2 * v(d - 1) - v(d - 2) - v(d) != -(den // d))


def test_inverse_check_reads_two_ends_plus_the_zero_sum():
    # the entries of t * v sum to 0, so the two ends fix the interior: the
    # two-condition check accepts exactly what the three conditions accept
    accepted = 0
    for d in range(2, 80):
        c0, c1, c2 = ident.inv_two_minus_two_cos_quadratic(d)
        for a in (0, c0, 7):
            for b in range(c1 - 6, c1 + 7):
                for c in range(c2 - 6, c2 + 7):
                    try:
                        ident.verify_inverse_quadratic(d, (a, b, c))
                        ok = True
                    except ConsistencyError:
                        ok = False
                    assert ok == _three_conditions_accept(d, (a, b, c)), (d, a, b, c)
                    accepted += ok
    # three c0 at each d > 2 (c1 = -d^2, c2 = d), and 13 pairs with c1 + c2 = -2 at d = 2
    assert accepted == 3 * 77 + 3 * 13 == 270


@pytest.mark.parametrize("d", list(range(2, 61)) + [97, 105, 128])
def test_quotient_by_t_matches_ext_gcd(d):
    inv_t = (2 - 2 * cos_of(d, 1)).inverse()
    for n in ([1] + [0] * (d - 1), [(-1) ** r * (r * r % 7 - 3) for r in range(d)]):
        q = scalars.divide_by_t_vec(n)
        scalars.verify_quotient_vec(n, q)
        got = Cyc._from_terms(d, enumerate(q), d * d)
        assert got == Cyc._from_terms(d, enumerate(n)) * inv_t


def test_verify_quotient_vec_accepts_and_rejects():
    for d in (2, 3, 12, 31, 64, 97):
        n = [r * r - 5 * r + 1 for r in range(d)]
        q = scalars.divide_by_t_vec(n)
        for i in range(d):
            bad = list(q)
            bad[i] += 1
            with pytest.raises(ConsistencyError, match=f"d={d}"):
                scalars.verify_quotient_vec(n, bad)


def test_quotient_constructor_rejects_identity():
    for n in ([], [3]):
        with pytest.raises(ZeroDivisionError):
            scalars.divide_by_t_vec(n)


def test_element_evaluation_never_builds_the_representative(monkeypatch):
    # u_d serves the class traces only: Laurent.at divides by t instead
    def failing(d):
        raise AssertionError(f"u_{d} built")

    monkeypatch.setattr(ident, "inv_two_minus_two_cos_quadratic", failing)
    for p, j in ((12, 5), (12, 9), (97, 3)):
        assert correction_at(GroupElement(p, j)) == correction_at_pipeline(GroupElement(p, j))


def _cos_sums_per_element(p):
    """Reference: add up cos = (z^j + z^-j)/2 and cos^2 = (z^2j + 2 + z^-2j)/4
    for j = 1..p-1 as vectors over Z[x]/(x^p - 1), require the sums to be
    constant on gcd classes (Galois invariant), and read off their values
    with Ramanujan sums, the Mobius values from sympy."""
    mobius = pytest.importorskip("sympy").mobius
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
        values.append(F(sum(acc[g % p] * int(mobius(p // g)) for g in divisors(p)), den))
    return tuple(values)


def _class_sums(p, classes):
    """identities.class_sums, each integer pair (num, den) read as
    Fraction(num, den)."""
    return tuple(F(num, den) for num, den in ident.class_sums(p, classes))


def _traced_cos_sums(p):
    return _class_sums(p, (ident._COS, ident._COS_SQ))


def test_traced_cos_sums_match_per_element_sums():
    for p in list(range(2, 301)) + [1009, 1024, 1680, 2003]:
        assert _traced_cos_sums(p) == _cos_sums_per_element(p), p
    for p in range(2, 33):
        small = trig_sums_brute(p)
        assert _cos_sums_per_element(p) == (small.sum_cos, small.sum_cos_sq), p


def test_trace_is_sum_over_units():
    for d in range(2, 31):
        units = [k for k in range(1, d) if gcd(k, d) == 1]
        primes = [q for q, _ in scalars._prime_factors(d)]
        for s in range(d):
            vec = [0] * d
            vec[s] = 1
            orbit = sum((zeta(d, k * s) for k in units), Cyc.from_rational(d, 0))
            assert trace(vec, {0: 1}) == orbit.as_rational(), (d, s)
            for shift in (s, s - d, s + d):
                traced = ident.sparse_trace(d, primes, shift, (1,))
                assert traced == orbit.as_rational(), (d, shift)
                # x^shift * vec is the unit vector at s + shift
                assert trace(vec, {shift: 3}) == 3 * ident.sparse_trace(d, primes, s + shift, (1,))
        assert trace([1] * d, {0: 1}) == 0  # N_d traces to 0


def test_derived_class_is_the_docstring_formula():
    # -(1/2)(8 cos + 7) on e and -4 cos - 5/(1 - cos) on h, with t = 2 - 2 cos
    c = correction_class()
    e, h = c.ce, c.ch
    assert e == Laurent({1: -2, 0: F(-7, 2), -1: -2})
    assert h == Laurent({2: 2, 1: -4, 0: -6, -1: -4, -2: 2}, 1)
    assert h == Laurent({1: -2, -1: -2}) - 10 / Laurent({-1: -1, 0: 2, 1: -1})
    # the powers of t that correction_at evaluates, slot by slot
    assert [s.k for s in (c.c0, c.ce, c.ch, c.cee, c.ceh, c.chh)] == [1, 0, 1, 1, 1, 2]


def test_importing_the_cli_does_not_derive_the_class():
    code = ("import orbifold_index.cli\n"
            "from orbifold_index import bundles, identities, index\n"
            "assert index.correction_class.cache_info().currsize == 0\n"
            "assert bundles.generic_characters.cache_info().currsize == 0\n"
            "assert identities._TRACES == {}\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_fast_correction_matches_pipeline_exhaustive():
    # all six slots of the evaluated class against the per-element algebra
    for p in range(2, 25):
        for j in range(1, p):
            gamma = GroupElement(p, j)
            assert correction_at(gamma) == correction_at_pipeline(gamma), (p, j)


@pytest.mark.parametrize("p,j", [(24, 1), (24, 9), (31, 1), (31, 17),
                                 (47, 5), (97, 40), (105, 35), (105, 15)])
def test_fast_correction_matches_pipeline_spots(p, j):
    # 105 covers non-coprime elements, including j = 35 where the doubled
    # shift 2j collides with -j
    gamma = GroupElement(p, j)
    assert correction_at(gamma) == correction_at_pipeline(gamma)


@pytest.mark.parametrize("d", list(range(2, 41)) + [47, 97, 105])
def test_representative_slots_match_pipeline(d):
    gamma = GroupElement(d, 1)
    assert correction_at(gamma) == correction_at_pipeline(gamma)


def test_class_traces_match_pipeline_unit_sums():
    # the pipeline's sum over the units of Z/d is the class trace at d; the
    # group sum at p adds the classes d | p, and since every d | p below 31
    # is checked on its own first, a wrong trace at one class shows at p = d
    derived = correction_class()
    unit_sums = {}
    for d in range(2, 31):
        sum_e = sum_h = Cyc.from_rational(d, 0)
        for k in range(1, d):
            if gcd(k, d) == 1:
                c = correction_at_pipeline(GroupElement(d, k))
                sum_e, sum_h = sum_e + Cyc.of(c.ce), sum_h + Cyc.of(c.ch)
        unit_sums[d] = (sum_e.as_rational(), sum_h.as_rational())
        expected = tuple(sum(unit_sums[m][i] for m in divisors(d)[1:]) for i in (0, 1))
        assert _class_sums(d, (derived.ce, derived.ch)) == expected, d


def _skewed(c):  # e + z is not invariant under z -> 1/z
    return CohomElement(c.c0, c.ce + Laurent({1: 1}), c.ch, c.cee, c.ceh, c.chh)


def _t_squared(c):  # h/t carries t^2
    return CohomElement(c.c0, c.ce, c.ch * Laurent({0: 1}, 1), c.cee, c.ceh, c.chh)


@pytest.mark.parametrize("fault", [_skewed, _t_squared])
def test_derived_class_rejects_skew_and_t_squared(monkeypatch, fault):
    real = index_mod.correction_term
    monkeypatch.setattr(index_mod, "correction_term",
                        lambda symbol, thom: fault(real(symbol, thom)))
    correction_class.cache_clear()
    try:
        with pytest.raises(ConsistencyError):
            correction_class()
        with pytest.raises(ConsistencyError):
            correction_sum.__wrapped__(7)
    finally:
        correction_class.cache_clear()


def test_class_trace_rejects_higher_t_powers():
    with pytest.raises(ValueError):
        ident.class_sums(5, (Laurent({0: 1}, 2),))


def test_classes_sharing_their_numerators_keep_their_own_sums():
    # the memo is keyed on (d, k, lo, nums): classes with the same integer
    # numerators (1, 3, 2) at another lowest power, over another power of t
    # or over another denominator must not read each other's traces
    def cls(lo, k, den):
        return Laurent({lo: F(1, den), lo + 1: F(3, den), lo + 2: F(2, den)}, k)

    classes = [cls(lo, k, den) for lo in (0, -4) for k in (0, 1) for den in (1, 7)]
    assert {c.nums for c in classes} == {(1, 3, 2)}
    orders = (2, 12, 30, 97)
    expected = {p: tuple(class_sum_per_element(c, p) for c in classes) for p in orders}
    ident._TRACES.clear()
    try:
        for p in orders:
            # one class at a time, each on top of what the others left
            assert tuple(_class_sums(p, (c,))[0] for c in classes) == expected[p], p
        for p in orders:
            assert _class_sums(p, classes) == expected[p], p
        # the denominator is applied outside the memo: one entry per (d, k, lo)
        ds = {d for p in orders for d in divisors(p)[1:]}
        assert sum(map(len, ident._TRACES.values())) == 4 * len(ds)
    finally:
        ident._TRACES.clear()


def test_each_class_keeps_one_dict_of_the_divisors_it_has_met():
    # the memo is one plain dict per class, keyed by d: after the trig and
    # correction sums at several orders, the five classes hold exactly the
    # divisors d > 1 of those orders
    orders = (2, 12, 97, 720, 2310)
    correction_class()  # derived once per process, outside the memo
    ident._TRACES.clear()
    try:
        for p in orders:
            trig_sums(p)
            correction_sum.__wrapped__(p)
        met = {d for p in orders for d in divisors(p)[1:]}
        assert len(ident._TRACES) == 5
        assert all(memo.keys() == met for memo in ident._TRACES.values())
    finally:
        ident._TRACES.clear()


def _skew_the_checked_representative(monkeypatch):
    """Make identities.verify_inverse_quadratic see u_d with its linear
    coefficient c1 off by one, which moves every entry but r = 0."""
    real = ident.verify_inverse_quadratic
    monkeypatch.setattr(ident, "verify_inverse_quadratic",
                        lambda d, coeffs: real(d, (coeffs[0], coeffs[1] + 1, coeffs[2])))


def test_failed_inverse_check_is_not_kept(monkeypatch):
    ident._TRACES.clear()
    _skew_the_checked_representative(monkeypatch)
    try:
        for _ in range(2):  # a failed check raises on every call
            for p in (2, 12, 97):
                with pytest.raises(ConsistencyError):
                    trig_sums(p)
                with pytest.raises(ConsistencyError):
                    correction_sum.__wrapped__(p)
        monkeypatch.undo()
        for p in (2, 12, 97):
            assert trig_sums(p) == _trig_closed_forms(p)
            assert correction_sum.__wrapped__(p) == correction_sum_closed_form(p)
    finally:
        ident._TRACES.clear()


_P7_CLOSED = ("TrigSums(sum_cos=Fraction(-1, 1), sum_cos_sq=Fraction(5, 2), "
              "sum_inv_one_minus_cos=Fraction(8, 1))")


@pytest.mark.parametrize("target, traced", [
    ((0, -1), _P7_CLOSED.replace("Fraction(-1, 1)", "Fraction(-1, 2)")),  # cos over 2
    ((0, -2), _P7_CLOSED.replace("Fraction(5, 2)", "Fraction(11, 4)")),  # cos^2 over 4
    ((1, 0), _P7_CLOSED.replace("Fraction(8, 1)", "Fraction(785, 98)")),  # 2/t over 2 p^2
])
def test_trig_sums_names_a_skewed_trace_as_fractions(monkeypatch, target, traced):
    # one class trace (keyed by k and lo) one too high at p = 7: the check
    # runs on integer pairs, and the message still reads both sums as
    # reduced Fractions; the kernel of the class's power of t is skewed with
    # the memo empty, so each d of the class is traced, and kept, skewed
    k, skewed_lo = target
    name = "sparse_trace" if k == 0 else "sparse_trace_over_t"
    real = getattr(ident, name)
    ident._TRACES.clear()
    monkeypatch.setattr(ident, name, lambda d, primes, lo, nums:
                        real(d, primes, lo, nums) + (lo == skewed_lo))
    message = f"trig sums disagree at p=7: traced {traced} vs closed {_P7_CLOSED}"
    try:
        with pytest.raises(ConsistencyError) as raised:
            trig_sums(7)
        assert str(raised.value) == message
        monkeypatch.undo()
        ident._TRACES.clear()
        assert trig_sums(7) == _trig_closed_forms(7)
    finally:
        ident._TRACES.clear()


def test_group_sums_build_no_fraction_until_a_check_fails(monkeypatch):
    # class_sums and both kernels stay in integers; trig_sums builds only the
    # closed forms that depend on p when its check passes, (p - 2)/2 (p >= 3)
    # and (p^2 - 1)/6: the sums -1 and, at p = 2, 1 are kept constants
    built = []

    def counting(*args):
        built.append(args)
        return F(*args)

    ident._TRACES.clear()
    monkeypatch.setattr(ident, "Fraction", counting)
    try:
        for p in (2, 12, 97, 720):
            pairs = ident.class_sums(p, (ident._COS, ident._COS_SQ, ident._INV_ONE_MINUS_COS))
            assert all(type(n) is int and type(d) is int and d > 0 for n, d in pairs), p
            assert built == [], p
            trig_sums(p)
            assert len(built) == (1 if p == 2 else 2), p
            built.clear()
    finally:
        ident._TRACES.clear()


def test_failed_inverse_check_stops_the_evaluation(monkeypatch):
    # correction_at divides its classes by t through checked quotients in
    # Z[x]/(x^d - 1) at the element's order, 12 here
    real = scalars.verify_quotient_vec
    monkeypatch.setattr(scalars, "verify_quotient_vec",
                        lambda n, q: real(n, [q[0] + 1] + q[1:]))
    with pytest.raises(ConsistencyError, match="d=12"):
        correction_at(GroupElement(12, 5))
    monkeypatch.undo()
    assert correction_at(GroupElement(12, 5)) == correction_at_pipeline(GroupElement(12, 5))


def test_each_representative_is_checked_once_per_class(monkeypatch):
    real = ident.verify_inverse_quadratic
    checked = []

    def counting(d, coeffs):
        checked.append(d)
        real(d, coeffs)

    ident._TRACES.clear()
    monkeypatch.setattr(ident, "verify_inverse_quadratic", counting)
    for _ in range(2):
        for p in range(2, 201):
            trig_sums(p)
    assert sorted(checked) == list(range(2, 201))
    # the correction class h is a second class over 1/t: one more check per d
    for p in range(2, 201):
        correction_sum.__wrapped__(p)
    assert sorted(checked) == sorted(2 * list(range(2, 201)))


def test_a_group_sum_factors_its_order_once_and_no_divisor(monkeypatch):
    real = scalars._prime_factors
    factored = Counter()

    def counting(n):
        factored[n] += 1
        return real(n)

    orders = (720, 360, 2310, 97, 1024, 5040)
    correction_class()  # derived once per process, before the count
    ident._TRACES.clear()
    for module in (scalars, ident):
        monkeypatch.setattr(module, "_prime_factors", counting)
    # a fresh trig_sums at a composite order factors its order once for the
    # divisor list of all three classes; each kernel gets the primes of its
    # class d | p, d > 1, from that one factorisation
    trig_sums(720)
    assert factored == Counter([720])
    # over trig and correction sums at several orders, each group sum
    # factors its order once, whatever the memo holds
    group_sums = [720]
    for p in orders:
        trig_sums(p)
        correction_sum.__wrapped__(p)
        group_sums += [p, p]
    assert factored == Counter(group_sums)


def test_a_non_integer_order_is_refused_and_poisons_no_memo():
    # a float order used to run the traces on float divisors: trig_sums(7.0)
    # raised only after it had kept float traces under keys equal to 7's,
    # and correction_sum(9.0) returned float coefficients
    ident._TRACES.clear()
    correction_sum.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeError):
            trig_sums(7.0)
        with pytest.raises(TypeError):
            correction_sum(9.0)
        with pytest.raises(TypeError):
            scalars.divisors(7.0)
    assert ident._TRACES == {}
    assert trig_sums(7) == _trig_closed_forms(7)
    cs = correction_sum(9)
    assert cs == correction_sum_closed_form(9)
    assert all(type(v) is F for v in (*trig_sums(7), cs.coeff_e, cs.coeff_h))
    assert all(type(t) is int for memo in ident._TRACES.values() for t in memo.values())


def test_every_user_of_the_representative_goes_through_its_check(monkeypatch):
    # each quotient by t is checked where scalars makes it, so a failing
    # check stops the element evaluation at every power of t, and u_d is
    # checked where identities builds it, so a failing check stops the class
    # traces and the group sum alike; no caller holds a copy of a check
    def failing(*args):
        raise ConsistencyError("injected failure")

    ident._TRACES.clear()
    p = 7
    try:
        with monkeypatch.context() as m:
            m.setattr(scalars, "verify_quotient_vec", failing)
            for k in (1, 2):
                with pytest.raises(ConsistencyError):
                    Laurent({0: 1}, k).at(p, 1)
        monkeypatch.setattr(ident, "verify_inverse_quadratic", failing)
        with pytest.raises(ConsistencyError):
            ident.class_sums(p, (ident._INV_ONE_MINUS_COS,))
        with pytest.raises(ConsistencyError):
            correction_sum.__wrapped__(p)
    finally:
        ident._TRACES.clear()


def test_sums_do_not_depend_on_what_the_memo_holds():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    orders = st.integers(2, 400)

    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @given(st.booleans(), st.lists(orders, max_size=8),
           st.lists(st.tuples(orders, st.booleans()), min_size=1, max_size=12))
    def check(clear, warm, queries):
        if clear:
            ident._TRACES.clear()
        for p in warm:  # leave part of the memo filled
            ident.class_sums(p, (ident._INV_ONE_MINUS_COS,))
        for p, correction in queries:
            if correction:
                assert correction_sum.__wrapped__(p) == correction_sum_closed_form(p), p
            else:
                traced = TrigSums(*_traced_cos_sums(p),
                                  *_class_sums(p, (ident._INV_ONE_MINUS_COS,)))
                assert traced == _trig_closed_forms(p) == trig_sums(p), p

    check()


def test_correction_sum_routes_agree():
    # the literal per-element sweep, with its rationality check
    for p in range(2, 33):
        assert correction_sum_pipeline(p) == correction_sum.__wrapped__(p), p


def test_trig_paths_agree_with_small_brute():
    for p in range(2, 33):
        small = trig_sums_brute(p)
        sc, sc2 = _traced_cos_sums(p)
        assert (sc, sc2) == (small.sum_cos, small.sum_cos_sq), p
        assert _class_sums(p, (ident._INV_ONE_MINUS_COS,)) == (small.sum_inv_one_minus_cos,), p


def test_correction_sum_matches_closed_form_beyond_old_ceiling():
    # the int64 evaluator stopped at p = 300; the trace route has no ceiling
    for p in list(range(2, 601)) + [1009, 2003, 5040, 10007]:
        assert correction_sum.__wrapped__(p) == correction_sum_closed_form(p), p


def test_group_sums_at_the_primorial_47():
    # 47# = 2 * 3 * ... * 47 has 15 distinct primes and 2^15 divisors: each
    # divisor's trace is O(omega(d)) plus its few small-m terms, where a
    # trace over all 2^omega(d) Ramanujan weights took 18 s at this order
    p = 614889782588491410
    assert [q for q, _ in scalars._prime_factors(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    try:
        assert correction_sum.__wrapped__(p) == correction_sum_closed_form(p)
        assert trig_sums(p) == _trig_closed_forms(p)
    finally:
        ident._TRACES.clear()  # 5 * 32767 traces no other test reads


def test_trig_sums_match_closed_form_beyond_old_ceiling():
    # the int64 evaluator stopped at p = 2000
    for p in list(range(2, 2001)) + [10007]:
        assert _traced_cos_sums(p) == (-1, 1 if p == 2 else F(p - 2, 2)), p
        assert _class_sums(p, (ident._INV_ONE_MINUS_COS,)) == (F(p * p - 1, 6),), p
