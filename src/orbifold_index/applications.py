"""Corollary-level consequences of the index: automorphism bounds,
nonexistence on orientable singular sets, self-intersection filtering for
crosscap surfaces, rigidity of the cone metrics on (S^4, RP^2), moduli
dimensions for the hyperbolic-monopole family, and the Ricci-flat moduli
formula.

Analytic inputs (unobstructedness, conformal-group dimensions) are declared
assumptions recorded in the reports, never computed here.
"""

from __future__ import annotations

from typing import Optional

from .index import Duality, TopologicalData, index_closed_form
from .scalars import _Record, _set


class SurfaceKind(_Record):
    """Closed surface: orientable of genus j >= 0 (the sphere is
    SurfaceKind(True, 0)), or j >= 1 crosscaps (SurfaceKind(False, j))."""

    _fields = ("orientable", "j")

    def __init__(self, orientable: bool, j: int):
        if j < 0 or (not orientable and j < 1):
            raise ValueError("invalid surface description")
        _set(self, "orientable", orientable)
        _set(self, "j", j)

    @property
    def euler_char(self) -> int:
        if self.orientable:
            return 2 - 2 * self.j
        return 2 - self.j


class ModuliReport(_Record):
    """Index plus the declared cohomology dimensions and the verdict they
    force through index = dim H0 - dim H1 + dim H2."""

    _fields = ("index", "dim_h0", "dim_h1", "dim_h2", "verdict", "assumptions")

    def __init__(self, index: int, dim_h0: int, dim_h1: Optional[int],
                 dim_h2: Optional[int], verdict: str, assumptions: tuple[str, ...] = ()):
        if dim_h1 is not None and dim_h2 is not None:
            if dim_h0 - dim_h1 + dim_h2 != index:
                raise ValueError("cohomology dimensions contradict the index")
        _set(self, "index", index)
        _set(self, "dim_h0", dim_h0)
        _set(self, "dim_h1", dim_h1)
        _set(self, "dim_h2", dim_h2)
        _set(self, "verdict", verdict)
        _set(self, "assumptions", assumptions)

    def to_json(self) -> dict:
        return {**vars(self), "assumptions": list(self.assumptions)}


def conf_dim(kind: SurfaceKind) -> int:
    """Dimension of the conformal automorphism group of the surface."""
    if kind.orientable:
        if kind.j == 0:
            return 6
        return 2 if kind.j == 1 else 0
    if kind.j == 1:
        return 3
    return 2 if kind.j == 2 else 0


def h0_bound(kind: SurfaceKind) -> int:
    """Upper bound on dim H0: the surface conformal dimension plus 5 (the
    normal-rotation factor and the prolongation bound)."""
    return conf_dim(kind) + 5


def whitney_massey_values(j: int) -> list[int]:
    """Realizable self-intersection numbers of j crosscaps embedded in the
    four-sphere: the arithmetic progression -2j, -2j+4, ..., 2j."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return list(range(-2 * j, 2 * j + 1, 4))


def feasible_self_intersections(j: int) -> list[int]:
    """Massey values surviving the unobstructed-index constraint
    index <= dim H0 bound; equals the Massey list intersected with
    [-2j, -j)."""
    bound = h0_bound(SurfaceKind(False, j))
    out = []
    for s in whitney_massey_values(j):
        data = TopologicalData(chi_M=2, tau_M=0, chi_Sigma=2 - j,
                               sigma_sq=s, p=2)
        if index_closed_form(data, Duality.SD) <= bound:
            out.append(s)
    return out


def orientable_verdict(j: int) -> ModuliReport:
    """Genus-j orientable singular set in the four-sphere: index 7 + 8j
    exceeds every H0 bound once j >= 1, so no unobstructed metric exists.
    j = 0 (the sphere, [Sigma]^2 = 0) stays inconclusive; j < 0 raises
    ValueError, from SurfaceKind."""
    kind = SurfaceKind(True, j)
    data = TopologicalData(chi_M=2, tau_M=0, chi_Sigma=kind.euler_char,
                           sigma_sq=0, p=2)
    idx = index_closed_form(data, Duality.SD)
    bound = h0_bound(kind)
    verdict = "nonexistence" if j >= 1 and idx > bound else "inconclusive"
    return ModuliReport(index=idx, dim_h0=bound, dim_h1=None, dim_h2=None,
                        verdict=verdict, assumptions=("unobstructed", f"dim_h0<={bound}"))


def hitchin_report(k: int) -> ModuliReport:
    """The cone metrics on (S^4, RP^2) with [Sigma]^2 = -2 and cone order
    p = k - 2: index 3 independently of k, hence rigid once unobstructedness
    and dim H0 = 3 are granted.  k = 3 is the round metric."""
    if k < 3:
        raise ValueError("k must be >= 3")
    # the closed form carries no p dependence; k = 3 (p = 1, smooth round
    # metric) is reported with the same family value
    data = TopologicalData(chi_M=2, tau_M=0, chi_Sigma=1, sigma_sq=-2,
                           p=max(k - 2, 2))
    idx = index_closed_form(data, Duality.SD)
    assumptions = ["unobstructed", "dim_h0=3"]
    if k == 3:
        assumptions.append("k=3 is the round metric (smooth case)")
    return ModuliReport(index=idx, dim_h0=3, dim_h1=0, dim_h2=0,
                        verdict="rigid", assumptions=tuple(assumptions))


def lebrun_report(n: int, p: int) -> ModuliReport:
    """Hyperbolic-monopole conical metrics on n# CP^2 with spherical singular
    set: index 7 - 3n; for n >= 3 the unobstructed moduli dimension is
    3n - 6 and nearby deformations stay circle-equivariant."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if p < 2:
        raise ValueError("p must be >= 2")
    data = TopologicalData(chi_M=n + 2, tau_M=n, chi_Sigma=2, sigma_sq=n, p=p)
    idx = index_closed_form(data, Duality.SD)
    assumptions = ("unobstructed", "dim_h0=1")
    if n >= 3:
        dim_h1 = 3 * n - 6
        return ModuliReport(
            index=idx, dim_h0=1, dim_h1=dim_h1, dim_h2=0,
            verdict=f"moduli dimension {dim_h1} (S^1-equivariant deformations)",
            assumptions=assumptions)
    return ModuliReport(index=idx, dim_h0=1, dim_h1=None, dim_h2=None,
                        verdict="inconclusive (moduli count needs n >= 3)",
                        assumptions=assumptions)


def ricci_flat_moduli_dim(data: TopologicalData) -> int:
    """Moduli dimension of Ricci-flat anti-self-dual cone metrics, under the
    no-parallel-fields hypotheses: minus the anti-self-dual closed form.  A
    negative value flags that the hypotheses cannot all hold; it is reported,
    not suppressed."""
    return -index_closed_form(data, Duality.ASD)
