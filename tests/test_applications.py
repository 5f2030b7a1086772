"""Corollary reproductions: bounds, filtering, rigidity, moduli dimensions."""

import pytest

from orbifold_index.applications import (
    ModuliReport,
    SurfaceKind,
    conf_dim,
    feasible_self_intersections,
    h0_bound,
    hitchin_report,
    lebrun_report,
    orientable_verdict,
    ricci_flat_moduli_dim,
    whitney_massey_values,
)
from orbifold_index.index import Duality, TopologicalData, index_closed_form

ALL_KINDS = ([SurfaceKind(True, j) for j in range(8)]
             + [SurfaceKind(False, j) for j in range(1, 8)])


def test_conf_dim_table():
    assert conf_dim(SurfaceKind(True, 0)) == 6
    assert conf_dim(SurfaceKind(True, 1)) == 2
    assert conf_dim(SurfaceKind(True, 2)) == 0
    assert conf_dim(SurfaceKind(False, 1)) == 3
    assert conf_dim(SurfaceKind(False, 2)) == 2
    assert conf_dim(SurfaceKind(False, 3)) == 0


def test_h0_bound_table():
    assert h0_bound(SurfaceKind(True, 0)) == 11
    assert h0_bound(SurfaceKind(True, 1)) == 7
    assert h0_bound(SurfaceKind(True, 3)) == 5
    assert h0_bound(SurfaceKind(False, 1)) == 8
    assert h0_bound(SurfaceKind(False, 2)) == 7
    assert h0_bound(SurfaceKind(False, 5)) == 5


def test_h0_bound_is_conf_dim_plus_five():
    for kind in ALL_KINDS:
        assert h0_bound(kind) == conf_dim(kind) + 5


def test_euler_characteristics():
    assert SurfaceKind(True, 0).euler_char == 2
    assert SurfaceKind(True, 2).euler_char == -2
    assert SurfaceKind(False, 3).euler_char == -1


def test_surface_kind_validation():
    # one check and one message: no crosscap surface has j < 1
    for j in (0, -1):
        with pytest.raises(ValueError, match="invalid surface description"):
            SurfaceKind(False, j)


def test_whitney_massey_values():
    assert whitney_massey_values(1) == [-2, 2]
    assert whitney_massey_values(2) == [-4, 0, 4]
    assert whitney_massey_values(3) == [-6, -2, 2, 6]
    with pytest.raises(ValueError):
        whitney_massey_values(0)


def test_whitney_congruence():
    for j in range(1, 51):
        chi = 2 - j
        for s in whitney_massey_values(j):
            assert (s - 2 * chi) % 4 == 0


def test_feasible_self_intersections_examples():
    assert feasible_self_intersections(1) == [-2]
    assert feasible_self_intersections(2) == [-4]
    assert feasible_self_intersections(5) == [-10, -6]


def test_feasible_equals_interval_intersection():
    for j in range(1, 51):
        expected = [s for s in whitney_massey_values(j) if -2 * j <= s < -j]
        assert feasible_self_intersections(j) == expected, j


def test_orientable_verdict():
    r = orientable_verdict(1)
    assert r.index == 15 and r.dim_h0 == 7 and r.verdict == "nonexistence"
    r = orientable_verdict(2)
    assert r.index == 23 and r.dim_h0 == 5 and r.verdict == "nonexistence"
    r = orientable_verdict(0)
    assert r.index == 7 and r.dim_h0 == 11 and r.verdict == "inconclusive"
    for j in range(1, 21):
        r = orientable_verdict(j)
        assert r.index == 7 + 8 * j
        assert r.index > r.dim_h0
    with pytest.raises(ValueError, match="invalid surface description"):
        orientable_verdict(-1)


def test_hitchin_report():
    r = hitchin_report(4)
    assert r.index == 3 and r.dim_h1 == 0 and r.verdict == "rigid"
    assert hitchin_report(3).verdict == "rigid"
    for k in range(3, 101):
        assert hitchin_report(k).index == 3, k
    with pytest.raises(ValueError):
        hitchin_report(2)


def test_lebrun_report():
    r = lebrun_report(3, 2)
    assert r.index == -2 and r.dim_h1 == 3 and "3" in r.verdict
    r = lebrun_report(5, 4)
    assert r.index == -8 and r.dim_h1 == 9
    r = lebrun_report(4, 3)
    assert r.index == -5 and r.dim_h1 == 6
    assert lebrun_report(2, 2).index == 1
    assert lebrun_report(2, 2).dim_h1 is None
    for n in range(1, 31):
        for p in (2, 5, 10):
            assert lebrun_report(n, p).index + 3 * n == 7
    with pytest.raises(ValueError):
        lebrun_report(0, 2)
    with pytest.raises(ValueError):
        lebrun_report(3, 1)


def test_ricci_flat_moduli_dim():
    assert ricci_flat_moduli_dim(TopologicalData(2, 0, 2, 0, 2)) == -7
    assert ricci_flat_moduli_dim(TopologicalData(24, -16, 2, -4, 2)) == 44
    d = TopologicalData(8, -4, 0, 2, 3)
    assert ricci_flat_moduli_dim(d) == -index_closed_form(d, Duality.ASD)


def test_moduli_report_euler_identity():
    with pytest.raises(ValueError):
        ModuliReport(index=3, dim_h0=3, dim_h1=1, dim_h2=0, verdict="bad")
    r = ModuliReport(index=3, dim_h0=3, dim_h1=0, dim_h2=0, verdict="rigid")
    assert r.dim_h0 - r.dim_h1 + r.dim_h2 == r.index


def test_moduli_report_serialization():
    r = hitchin_report(5)
    data = r.to_json()
    assert data["index"] == 3 and data["verdict"] == "rigid"
    assert "unobstructed" in data["assumptions"]
