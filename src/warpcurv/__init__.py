"""Numerical verification of curvature on multiply warped and twisted
products carrying a semi-symmetric non-metric connection or its
torsion-free affine variant.

The package computes every curvature quantity two independent ways: a
structure-blind coordinate pipeline (`chart_core`, `connections`) and
closed-form component formulas (`structured`), cross-checks them, and
verifies the classified Einstein / constant-scalar-curvature warping
families (`einstein`, `families`).  `cli` exposes the scenario runner.
"""

__version__ = "0.1.0"

from .connections import ConnectionKind
from .errors import WarpcurvError
from .geometry import (
    Circle,
    FlatBase,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    TorsionVectorFieldSpec,
    p_dt,
)

__all__ = [
    "__version__",
    "ConnectionKind",
    "WarpcurvError",
    "Circle",
    "FlatBase",
    "FlatTorus",
    "HyperbolicPlane",
    "IntervalBase",
    "ProductManifoldSpec",
    "Sphere",
    "TorsionVectorFieldSpec",
    "p_dt",
]
