"""Exact-arithmetic index engine for anti-self-dual orbifold-cone metrics.

Evaluates equivariant fixed-point correction terms in a truncated cohomology
ring over cyclotomic scalars, checks them against their closed forms, and
reproduces the deformation-complex index and its corollaries exactly.
"""

from .scalars import (
    ConsistencyError,
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    parse_rational,
)
from .identities import TrigSums, trig_sums
from .ring import (
    CohomElement,
    a_hat_squared,
    divide_by_e,
    exp_class,
    invert_unit,
    ring_mul,
    scalar_mul,
)
from .bundles import (
    GroupElement,
    character_dump,
)
from .index import (
    CorrectionSum,
    Duality,
    TopologicalData,
    chi_orb,
    correction_at,
    correction_sum,
    correction_sum_closed_form,
    index_closed_form,
    index_kawasaki,
    index_smooth,
    tau_orb,
)
from .applications import (
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

__version__ = "0.1.0"
