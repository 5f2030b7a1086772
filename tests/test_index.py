"""Correction sums and the index, against frozen exact values."""

import random
from fractions import Fraction as F

import pytest

from oracles import Cyc, correction_sum_pipeline, cos_of, zeta
from orbifold_index.bundles import GroupElement
from orbifold_index.index import (
    ConsistencyError,
    CorrectionSum,
    Duality,
    TopologicalData,
    chi_orb,
    correction_at,
    correction_class,
    correction_sum,
    correction_sum_closed_form,
    index_closed_form,
    index_kawasaki,
    index_smooth,
    tau_orb,
)
from orbifold_index.scalars import Cyclotomic, Laurent


def test_correction_at_p2_full_element():
    # (2e + 6h)(1/4 - h^2/16)(1 - e^2/12) = e/2 + 3h/2 exactly
    c = correction_at(GroupElement(2, 1))
    vals = [getattr(c, s).as_rational() for s in ("c0", "ce", "ch", "cee", "ceh", "chh")]
    assert vals == [0, F(1, 2), F(3, 2), 0, 0, 0]


def test_correction_at_p4_full_element():
    z = zeta(4, 1)
    c = correction_at(GroupElement(4, 1)).map(Cyc.of)
    assert c.c0 == z
    assert c.ce.as_rational() == F(-7, 2)
    assert c.ch.as_rational() == -5
    assert c.cee == z * F(-1, 12)
    assert c.ceh == z * F(-7, 2)
    assert c.chh == -5 * z


def test_correction_at_degree_two_displays():
    # e slot: -(1/2)(8cos + 7); h slot: -4cos - 5/(1 - cos), exactly
    for p in range(2, 21):
        for j in range(1, p):
            c = correction_at(GroupElement(p, j)).map(Cyc.of)
            cos = cos_of(p, j)
            assert c.ce == (8 * cos + 7) * F(-1, 2), (p, j)
            assert c.ch == -4 * cos - 5 * (1 - cos).inverse(), (p, j)


def test_correction_at_rejects_identity():
    with pytest.raises(ValueError):
        correction_at(GroupElement(5, 0))


def test_correction_sum_frozen_values():
    assert correction_sum(1) == CorrectionSum(F(0), F(0))
    assert correction_sum(2) == CorrectionSum(F(1, 4), F(3, 4))
    # brute force is the oracle here: both routes and the closed form give
    # h = -8/9 at p = 3 and h = -548/45 at p = 15
    assert correction_sum(3) == CorrectionSum(F(-1), F(-8, 9))
    assert correction_sum(5) == CorrectionSum(F(-2), F(-16, 5))
    assert correction_sum(15) == CorrectionSum(F(-3), F(-548, 45))


def test_correction_sum_closed_form_values():
    assert correction_sum_closed_form(2) == CorrectionSum(F(1, 4), F(3, 4))
    assert correction_sum_closed_form(3) == CorrectionSum(F(-1), F(-8, 9))
    with pytest.raises(ValueError):
        correction_sum_closed_form(1)


def test_correction_sum_equals_closed_form():
    for p in range(2, 61):
        assert correction_sum(p) == correction_sum_closed_form(p), p


def test_correction_sum_against_sympy_trig():
    # fully independent oracle: per-element terms evaluated with sympy's own
    # exact cos(2*pi*j/p) arithmetic, summed and simplified
    sp = pytest.importorskip("sympy")
    for p in (2, 3, 4, 6, 12):
        e_sum = sp.Integer(0)
        h_sum = sp.Integer(0)
        for j in range(1, p):
            c = sp.cos(2 * sp.pi * j / p)
            e_sum += -(8 * c + 7) / 2
            h_sum += -4 * c - 5 / (1 - c)
        e_val = sp.nsimplify(sp.simplify(e_sum / p))
        h_val = sp.nsimplify(sp.simplify(h_sum / p))
        mine = correction_sum(p)
        assert F(str(e_val)) == mine.coeff_e, p
        assert F(str(h_val)) == mine.coeff_h, p


def test_correction_sum_rejects_non_rational_sums(monkeypatch):
    # skewing a single group element breaks Galois symmetry, so the literal
    # sweep's summed coefficients stop being rational and its guard must
    # fire; skewing the generic run of the algebra (Laurent scalars) breaks
    # the symmetry check of the derived class
    import oracles
    import orbifold_index.index as index_mod
    from orbifold_index.ring import CohomElement

    def skew(c, z):
        return c + CohomElement(z * 0, z, z, z * 0, z * 0, z * 0)

    real_element, real_term = oracles.correction_at_pipeline, index_mod.correction_term

    def skewed_element(gamma):
        out = real_element(gamma)
        return skew(out.map(Cyc.of), zeta(gamma.p, 1)).map(Cyc.value) if gamma.j == 1 else out

    def skewed_term(symbol, thom):
        out = real_term(symbol, thom)
        return skew(out, Laurent({1: 1})) if isinstance(out.ce, Laurent) else out

    monkeypatch.setattr(oracles, "correction_at_pipeline", skewed_element)
    monkeypatch.setattr(index_mod, "correction_term", skewed_term)
    index_mod.correction_class.cache_clear()
    try:
        with pytest.raises(ConsistencyError):
            correction_sum_pipeline(5)
        with pytest.raises(ConsistencyError):
            correction_sum.__wrapped__(5)
    finally:
        index_mod.correction_class.cache_clear()


def test_an_evaluated_correction_term_is_read_only():
    # Cyclotomic values have no arithmetic, so neither has a CohomElement of
    # them; comparing, hashing, mapping and serialising still work
    a, b = correction_at(GroupElement(7, 2)), correction_at(GroupElement(7, 2))
    with pytest.raises(TypeError):
        a + b
    assert a == b and hash(a) == hash(b) and a != correction_at(GroupElement(7, 3))
    assert a.map(Cyc.of).map(Cyc.value) == a
    assert a.to_json() == b.to_json() and a.to_json()["e"]["order"] == 7


def test_correction_at_never_inverts_a_cyclotomic(capsys, monkeypatch):
    # the library has no inverse in Q(zeta_p): Cyclotomic is a value with no
    # arithmetic, and a GroupElement has no phase of its own to compute with
    import orbifold_index.index as index_mod
    from orbifold_index import cli, ring

    for name in ("inverse", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__"):
        assert not hasattr(Cyclotomic, name), name
    with pytest.raises(TypeError):
        Cyc.from_rational(7, 0).value() + 1
    assert not hasattr(GroupElement, "zeta")
    # nor do correction_at and the CLI's element dump reach the ring's unit
    # inverse, at any element of any order up to 40
    correction_class()  # the generic derivation inverts its Laurent Thom class once

    def boom(*args):
        raise AssertionError("inverse called")

    monkeypatch.setattr(ring, "invert_unit", boom)
    monkeypatch.setattr(index_mod, "invert_unit", boom)
    for p in range(2, 41):
        for j in range(1, p):
            correction_at(GroupElement(p, j))
            argv = ["--json", "correction", "--p", str(p), "--dump-element", str(j)]
            assert cli.main(argv) == 0, (p, j)
    capsys.readouterr()


def test_index_examples():
    sd, asd = Duality.SD, Duality.ASD
    assert index_kawasaki(TopologicalData(2, 0, 1, -2, 5), sd) == 3
    assert index_kawasaki(TopologicalData(2, 0, 2, 0, 1), asd) == 15
    d = TopologicalData(5, 3, 2, 3, 3)
    assert index_kawasaki(d, sd) == index_closed_form(d, sd) == -2
    assert index_closed_form(TopologicalData(2, 0, 1, -2, 7), sd) == 3
    assert index_closed_form(TopologicalData(3 + 2, 3, 2, 3, 4), sd) == -2
    assert index_closed_form(TopologicalData(2, 0, 2 - 2 * 2, 0, 2), sd) == 23


def test_index_smooth():
    assert index_smooth(2, 0, Duality.ASD) == 15
    assert index_smooth(0, 0, Duality.ASD) == 0
    for n in range(1, 8):
        assert index_smooth(n + 2, n, Duality.SD) == 15 - 7 * n


def test_closed_form_rejects_smooth_case():
    with pytest.raises(ValueError):
        index_closed_form(TopologicalData(2, 0, 1, -2, 1), Duality.SD)


def test_smooth_limit():
    rng = random.Random(17)
    for _ in range(30):
        chi = rng.randint(-20, 20)
        tau = rng.randint(-20, 20)
        if (chi + tau) % 2:
            tau += 1
        d = TopologicalData(chi, tau, rng.randint(-9, 9), rng.randint(-9, 9), 1)
        for duality in Duality:
            assert index_kawasaki(d, duality) == index_smooth(chi, tau, duality)


def test_duality_is_input_negation():
    rng = random.Random(23)
    for _ in range(40):
        chi = rng.randint(-20, 20)
        tau = rng.randint(-20, 20)
        if (chi + tau) % 2:
            chi += 1
        schi, ssq = rng.randint(-9, 9), rng.randint(-9, 9)
        p = rng.randint(2, 12)
        a = TopologicalData(chi, tau, schi, ssq, p)
        b = TopologicalData(chi, -tau, schi, -ssq, p)
        assert index_closed_form(a, Duality.SD) == index_closed_form(b, Duality.ASD)
        assert index_kawasaki(a, Duality.SD) == index_kawasaki(b, Duality.ASD)


def test_cone_angle_independence():
    d0 = (2, 0, 1, -2)
    values = {index_kawasaki(TopologicalData(*d0, p), Duality.SD)
              for p in range(2, 51)}
    assert values == {3}


def test_index_integrality_guard():
    # chi + tau odd makes the smooth term a half-integer; the engine must
    # refuse rather than round, and name the route and the exact value
    with pytest.raises(ConsistencyError,
                       match=r"^fixed-point index is not an integer: 7/2$"):
        index_kawasaki(TopologicalData(1, 0, 1, 0, 2), Duality.ASD)
    with pytest.raises(ConsistencyError,
                       match=r"^closed-form index is not an integer: 7/2$"):
        index_closed_form(TopologicalData(1, 0, 1, 0, 2), Duality.ASD)


def test_topological_data_validation():
    with pytest.raises(ValueError):
        TopologicalData(2, 0, 1, -2, 0)


def test_orbifold_characteristics():
    assert chi_orb(2, F(1), 1) == 2
    assert tau_orb(7, F(1), -2) == 7
    assert chi_orb(2, F(1, 2), 1) == F(3, 2)
    assert tau_orb(0, F(1, 2), -2) == F(1, 2)
    assert tau_orb(0, F(1, 3), 9) == F(-8, 3)
    with pytest.raises(ValueError):
        chi_orb(2, F(0), 1)
    with pytest.raises(ValueError):
        tau_orb(2, F(-1, 2), 1)


def test_correction_sum_serialization():
    assert correction_sum(3).to_json() == {"e": "-1", "h": "-8/9"}
