"""Shared fixtures: a zoo of product specs covering every block pattern,
and the paper's scalar thresholds of the constant-scalar families."""

import numpy as np
import pytest

from warpcurv import einstein
from warpcurv.exprs import Const, parse_expr
from warpcurv.geometry import (
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


def make_zoo():
    """(name, spec, P) triples: P on base / on fiber / absent, 1-3 fibers,
    all fiber geometries, interval and flat multi-dimensional bases, and a
    twisted case."""
    zoo = []
    zoo.append((
        "grw-exp-torus",
        ProductManifoldSpec(IntervalBase(), [FlatTorus(2)],
                            [parse_expr("exp(t)")]),
        p_dt(),
    ))
    zoo.append((
        "grw-sphere",
        ProductManifoldSpec(IntervalBase(), [Sphere(1.0)],
                            [parse_expr("2 + 0.5*sin(t)")]),
        p_dt(),
    ))
    zoo.append((
        "grw-hyperbolic-const",
        ProductManifoldSpec(IntervalBase(), [HyperbolicPlane()],
                            [Const(2 ** -0.5)]),
        p_dt(),
    ))
    zoo.append((
        "two-fiber-scaled-p",
        ProductManifoldSpec(
            IntervalBase(),
            [Circle(), FlatTorus(2)],
            [parse_expr("exp(t)"), parse_expr("2 + 0.4*cos(t)")],
        ),
        TorsionVectorFieldSpec("base", [parse_expr("0.8 + 0.3*t")]),
    ))
    zoo.append((
        "rotation-field-on-torus",
        ProductManifoldSpec(
            IntervalBase(),
            [Circle(), FlatTorus(2)],
            [Const(1.0), Const(1.0)],
        ),
        TorsionVectorFieldSpec(1, [parse_expr("0-w"), parse_expr("z")]),
    ))
    zoo.append((
        "p-on-circle",
        ProductManifoldSpec(
            IntervalBase(),
            [Circle(), FlatTorus(2)],
            [parse_expr("1.5 + 0.5*cos(t)"), parse_expr("exp(0.5*t)")],
        ),
        TorsionVectorFieldSpec(0, [Const(0.7)]),
    ))
    zoo.append((
        "p-on-hyperbolic",
        ProductManifoldSpec(
            IntervalBase(),
            [HyperbolicPlane(), Circle()],
            [parse_expr("2 + 0.3*sin(t)"), parse_expr("exp(0.3*t)")],
        ),
        TorsionVectorFieldSpec(0, [Const(1.0), Const(0.5)]),
    ))
    zoo.append((
        "flat2-base",
        ProductManifoldSpec(
            FlatBase((-1.0, 1.0)),
            [FlatTorus(2)],
            [parse_expr("exp(0.3*t + 0.4*u)")],
        ),
        TorsionVectorFieldSpec("base", [Const(0.5), Const(0.25)]),
    ))
    zoo.append((
        "flat3-base-sphere",
        ProductManifoldSpec(
            FlatBase((-1.0, 1.0, 1.0)),
            [Sphere(2.0)],
            [parse_expr("1 + 0.1*t^2 + 0.05*u + 0.08*v")],
        ),
        TorsionVectorFieldSpec("base", [Const(0.4), Const(0.2), Const(0.1)]),
    ))
    zoo.append((
        "twisted-torus",
        ProductManifoldSpec(
            IntervalBase(),
            [FlatTorus(2)],
            [parse_expr("exp(0.2*t*(1 + 0.3*x^2 + 0.1*x*y))")],
            twisted=True,
        ),
        p_dt(),
    ))
    zoo.append((
        "twisted-torus-fiber-field",
        ProductManifoldSpec(
            IntervalBase(),
            [FlatTorus(2)],
            [parse_expr("exp(0.2*t)*(1 + 0.1*x^2)")],
            twisted=True,
        ),
        TorsionVectorFieldSpec(0, [Const(0.5), Const(0.3)]),
    ))
    zoo.append((
        "kasner-three-circles",
        ProductManifoldSpec(
            IntervalBase(),
            [Circle(), Circle(), Circle()],
            [parse_expr("exp(t)"), parse_expr("exp(2*t)"), parse_expr("exp(0-3*t)")],
        ),
        p_dt(),
    ))
    zoo.append((
        "no-torsion-field",
        ProductManifoldSpec(IntervalBase(), [Sphere(1.0)],
                            [parse_expr("2 + 0.5*sin(t)")]),
        None,
    ))
    return zoo


def grw_scalar_threshold(l):
    """Target scalar value separating real from complex characteristic roots."""
    if l == 3:
        return 75.0 / 16.0
    return l**3 / (4.0 * (l + 1.0)) + l


def kasner_scalar_threshold(zeta, eta):
    """The same threshold for the Kasner profile equation."""
    return 9.0 * zeta**2 / (4.0 * (eta + zeta**2)) + 3.0


@pytest.fixture(scope="session")
def spec_zoo():
    return make_zoo()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def grw_exp_spec():
    return ProductManifoldSpec(IntervalBase(), [FlatTorus(2)],
                               [parse_expr("exp(t)")])


def multiwarped_scalar_formula(spec, P, grid):
    """Closed-form scalar curvature over the grid for P = d/dt, on a fiber
    (at the fiber's first sample point), or absent: the closed form that
    `multiwarped_scalar` compares with the oracle."""
    return einstein._closed_form(spec, P, grid).values
