"""Einstein / pseudo-Einstein / constant-scalar residual checks."""

import math

import numpy as np
import pytest

from warpcurv.connections import ConnectionKind, connection_curvature
from warpcurv.einstein import (
    chebyshev_grid,
    constant_scalar_separation_check,
    grw_einstein_residuals,
    multiwarped_scalar,
    multiwarped_scalar_formula,
    pseudo_einstein_residuals,
)
from warpcurv.errors import DimensionTooSmall, FiberNotEinstein, UnsupportedP
from warpcurv.exprs import Const, parse_expr
from warpcurv.geometry import (
    Circle,
    FiberSpec,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    TorsionVectorFieldSpec,
    p_dt,
)
SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC


def spec_of(warpings, fibers):
    return ProductManifoldSpec(IntervalBase(), fibers, warpings)


def test_exponential_family_passes(grw_exp_spec):
    result = grw_einstein_residuals(grw_exp_spec, 0.0)
    assert result.passed
    assert {r.equation for r in result.reports} == {"einstein-trace", "einstein-fiber-0"}


def test_constant_family_passes():
    spec = spec_of([Const(2 ** -0.5)], [FiberSpec(HyperbolicPlane())])
    assert grw_einstein_residuals(spec, 2.0).passed


def test_quadratic_warping_fails():
    spec = spec_of([parse_expr("t^2+1")], [FiberSpec(FlatTorus(2))])
    result = grw_einstein_residuals(spec, 0.0)
    assert not result.passed
    trace = next(r for r in result.reports if r.equation == "einstein-trace")
    # residual of 2 (1 - 2/(t^2+1)) reaches 2 (1 - 2/(1+1)) = 1 near t = 1
    assert trace.max_abs_residual > 0.5


def test_fiber_not_einstein_rejected():
    broken = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(FlatTorus(2), declared_einstein=False)],
        [parse_expr("exp(t)")],
    )
    with pytest.raises(FiberNotEinstein):
        grw_einstein_residuals(broken, 0.0)


def test_residuals_iff_oracle_einstein(spec_zoo):
    """Passing residuals must coincide with the generic Einstein property."""
    cases = [
        (spec_of([parse_expr("1.3*exp(t)")], [FiberSpec(FlatTorus(2))]), 0.0),
        (spec_of([Const(2 ** -0.5)], [FiberSpec(HyperbolicPlane())]), 2.0),
        (spec_of([parse_expr("exp(t)"), parse_expr("exp(t)")],
                 [FiberSpec(Circle()), FiberSpec(FlatTorus(2))]), 0.0),
        (spec_of([parse_expr("2 + 0.5*sin(t)")], [FiberSpec(Sphere(1.0))]), 0.0),
        (spec_of([parse_expr("exp(t)"), parse_expr("exp(2*t)")],
                 [FiberSpec(Circle()), FiberSpec(FlatTorus(2))]), 0.0),
    ]
    grid = chebyshev_grid(0.1, 0.9, 7)
    for spec, lam in cases:
        passed = grw_einstein_residuals(spec, lam, grid).passed
        worst = 0.0
        for t in grid[::3]:
            cur = connection_curvature(SSNM, spec, p_dt(), spec.make_point([t]))
            worst = max(worst, float(np.max(np.abs(cur.ricci - lam * cur.metric))))
        assert passed == (worst < 1e-6)


def test_pseudo_einstein_passing_case():
    # circle fiber carrying P = c d/theta with c^2 = 2 a^2 / 3 for b_2 = e^{at}
    c = math.sqrt(2.0 / 3.0)
    spec = spec_of([Const(1.0), parse_expr("exp(t)")],
                   [FiberSpec(Circle()), FiberSpec(FlatTorus(2))])
    P = TorsionVectorFieldSpec(0, [Const(c)])
    result = pseudo_einstein_residuals(spec, P, -2.0)
    assert result.passed, [(r.equation, r.max_abs_residual) for r in result.reports]
    # and the oracle agrees: symmetrized Ricci equals lambda g
    for t in (0.2, 0.7):
        cur = connection_curvature(SSNM, spec, P, spec.make_point([t]))
        sym = 0.5 * (cur.ricci + cur.ricci.T)
        assert np.max(np.abs(sym + 2.0 * cur.metric)) < 1e-12


def test_pseudo_einstein_residual_matches_oracle():
    # rotation field on a static torus: not pseudo-Einstein, but the
    # torsion-fiber residual must equal the symmetrized-Ricci deviation
    spec = spec_of([Const(1.0), Const(1.0)],
                   [FiberSpec(Circle()), FiberSpec(FlatTorus(2))])
    P = TorsionVectorFieldSpec(1, [parse_expr("0-w"), parse_expr("z")])
    lam = 0.0
    grid = np.array([0.4])
    result = pseudo_einstein_residuals(spec, P, lam, grid)
    formula = next(r for r in result.reports if r.equation == "pseudo-torsion-fiber-1")

    worst = 0.0
    for fc in spec.fibers[1].geometry.sample_coords(3):
        p = spec.make_point([0.4], [None, fc])
        cur = connection_curvature(SSNM, spec, P, p)
        sym = 0.5 * (cur.ricci + cur.ricci.T)
        sl = spec.block_slice(1)
        worst = max(worst, float(np.max(np.abs(sym[sl, sl] - lam * cur.metric[sl, sl]))))
    assert formula.max_abs_residual == pytest.approx(worst, rel=1e-12)


def test_pseudo_einstein_requires_fiber_p(grw_exp_spec):
    with pytest.raises(UnsupportedP):
        pseudo_einstein_residuals(grw_exp_spec, p_dt(), 0.0)


def test_pseudo_einstein_dimension_guard():
    spec = spec_of([Const(1.0)], [FiberSpec(Circle())])
    P = TorsionVectorFieldSpec(0, [Const(1.0)])
    with pytest.raises(DimensionTooSmall):
        pseudo_einstein_residuals(spec, P, 0.0)


def test_pseudo_einstein_invariant_under_torus_shift():
    # pushing the field forward by a torus translation and moving the sample
    # point along leaves the symmetrized-Ricci deviation unchanged
    spec = spec_of([Const(1.0), Const(1.0)],
                   [FiberSpec(Circle()), FiberSpec(FlatTorus(2))])
    P = TorsionVectorFieldSpec(1, [parse_expr("0-w"), parse_expr("z")])
    dz, dw = 0.4, 0.25
    shifted = TorsionVectorFieldSpec(
        1, [parse_expr(f"0-(w-{dw})"), parse_expr(f"z-{dz}")])
    lam = 0.0
    for fc in ([0.3, 0.9], [1.1, 0.2]):
        pa = spec.make_point([0.5], [None, fc])
        pb = spec.make_point([0.5], [None, [fc[0] + dz, fc[1] + dw]])
        ca = connection_curvature(SSNM, spec, P, pa)
        cb = connection_curvature(SSNM, spec, shifted, pb)
        da = 0.5 * (ca.ricci + ca.ricci.T) - lam * ca.metric
        db = 0.5 * (cb.ricci + cb.ricci.T) - lam * cb.metric
        assert np.max(np.abs(da - db)) < 1e-12


def test_scalar_formula_matches_oracle(spec_zoo):
    grid = chebyshev_grid(0.15, 0.85, 5)
    cases = [
        (spec_of([Const(1.0)], [FiberSpec(FlatTorus(2))]), p_dt()),
        (spec_of([parse_expr("exp(t)")], [FiberSpec(FlatTorus(2))]), p_dt()),
        (spec_of([parse_expr("2+0.5*sin(t)"), parse_expr("exp(0.4*t)")],
                 [FiberSpec(Sphere(1.0)), FiberSpec(FlatTorus(2))]), p_dt()),
        (spec_of([parse_expr("1.5+0.5*cos(t)"), parse_expr("exp(0.5*t)")],
                 [FiberSpec(Circle()), FiberSpec(FlatTorus(2))]),
         TorsionVectorFieldSpec(0, [Const(0.7)])),
        (spec_of([parse_expr("exp(t)")], [FiberSpec(FlatTorus(2))]), None),
    ]
    for spec, P in cases:
        rep = multiwarped_scalar(spec, P, grid)
        assert rep.passed, rep


def test_scalar_static_value():
    spec = spec_of([Const(1.0)], [FiberSpec(FlatTorus(2))])
    grid = np.array([0.2, 0.5, 0.8])
    vals = multiwarped_scalar_formula(spec, p_dt(), grid) + 0.0
    assert np.allclose(vals, 2.0)


def test_scalar_exponential_vanishes(grw_exp_spec):
    grid = np.array([0.1, 0.5, 0.9])
    vals = multiwarped_scalar_formula(grw_exp_spec, p_dt(), grid)
    assert np.allclose(vals, 0.0, atol=1e-12)


def test_scalar_requires_unit_time_field(grw_exp_spec):
    crooked = TorsionVectorFieldSpec("base", [parse_expr("1 + t")])
    with pytest.raises(UnsupportedP):
        multiwarped_scalar_formula(grw_exp_spec, crooked, np.array([0.3]))


def test_constancy_check_reports(grw_exp_spec):
    rep = constant_scalar_separation_check(grw_exp_spec, p_dt())
    assert rep.scalar_constant and rep.grid_adequate

    bad = spec_of([parse_expr("t^2+1")], [FiberSpec(FlatTorus(2))])
    rep = constant_scalar_separation_check(bad, p_dt())
    assert not rep.scalar_constant
    assert "not constant" in rep.message

    tiny = constant_scalar_separation_check(grw_exp_spec, p_dt(), grid=[0.5])
    assert not tiny.grid_adequate
    assert "too small" in tiny.message


def test_constancy_p_invariants():
    spec = spec_of([Const(1.0), Const(1.0)],
                   [FiberSpec(Circle()), FiberSpec(FlatTorus(2))])
    const_P = TorsionVectorFieldSpec(1, [Const(0.4), Const(0.1)])
    rep = constant_scalar_separation_check(spec, const_P)
    assert rep.p_invariants_constant is True

    rot_P = TorsionVectorFieldSpec(1, [parse_expr("0-w"), parse_expr("z")])
    rep = constant_scalar_separation_check(spec, rot_P)
    assert rep.p_invariants_constant is False
