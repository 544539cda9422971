"""Coordinate-chart oracle: metric assembly, coefficients, curvature."""

import math

import numpy as np
import pytest
from connection_reference import finite_difference_field

from warpcurv.chart_core import (
    assemble_metric,
    curvature_from_coefficients,
    levi_civita_coefficients,
    metric_derivatives,
)
from warpcurv.connections import ConnectionKind, connection_curvature
from warpcurv.errors import NonPositiveWarping, OutOfChart, SingularMetric
from warpcurv.exprs import Const, parse_expr
from warpcurv.geometry import (
    Circle,
    FiberSpec,
    FlatBase,
    FlatTorus,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
)

LC = ConnectionKind.LEVI_CIVITA


def test_metric_exponential_warping(grw_exp_spec):
    g0 = assemble_metric(grw_exp_spec, grw_exp_spec.make_point([0.0], [[0.3, 0.7]]))
    assert np.allclose(g0, np.diag([-1.0, 1.0, 1.0]))
    g1 = assemble_metric(grw_exp_spec, grw_exp_spec.make_point([math.log(2)], [[0.3, 0.7]]))
    assert np.allclose(g1, np.diag([-1.0, 4.0, 4.0]))


def test_metric_two_fiber_powers():
    spec = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(Circle()), FiberSpec(FlatTorus(2))],
        [parse_expr("exp(t)"), parse_expr("exp(2*t)")],
    )
    g = assemble_metric(spec, spec.make_point([1.0]))
    assert np.allclose(np.diag(g[0]), [-1.0, math.e**2, math.e**4, math.e**4])


def test_nonpositive_warping_raises():
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [parse_expr("t")])
    with pytest.raises(NonPositiveWarping):
        assemble_metric(spec, spec.make_point([-1.0]))


def test_sphere_pole_out_of_chart():
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(Sphere(1.0))], [Const(1.0)])
    with pytest.raises(OutOfChart):
        assemble_metric(spec, spec.make_point([0.0], [[0.05, 1.0]]))


def test_metric_derivatives_match_finite_differences(spec_zoo):
    for name, spec, _ in spec_zoo[:6]:
        p = spec.sample_points(1)
        g, dg, d2g = metric_derivatives(spec, p)
        assert np.array_equal(g, assemble_metric(spec, p)), name
        h = 1e-5
        for k in range(spec.n_bar):
            up = p.copy()
            up[0, k] += h
            dn = p.copy()
            dn[0, k] -= h
            fd = (assemble_metric(spec, up) - assemble_metric(spec, dn)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(fd))))
            assert np.max(np.abs(dg[:, k] - fd)) / scale < 1e-6, name
            fd2 = (metric_derivatives(spec, up)[1] - metric_derivatives(spec, dn)[1]) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(fd2))))
            assert np.max(np.abs(d2g[:, k] - fd2)) / scale < 1e-6, name


def test_metric_derivative_values():
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [parse_expr("exp(t)")])
    p = spec.make_point([0.0])
    _, (dg,), (d2g,) = metric_derivatives(spec, p)
    assert dg[0, 1, 1] == pytest.approx(2.0)  # d_t e^{2t} at t = 0
    assert d2g[0, 0, 1, 1] == pytest.approx(4.0)  # d_t^2 e^{2t} at t = 0

    quad = ProductManifoldSpec(IntervalBase(), [FiberSpec(Circle())],
                               [parse_expr("t^2+1")])
    _, (dg,), (d2g,) = metric_derivatives(quad, quad.make_point([1.0]))
    assert dg[0, 1, 1] == pytest.approx(8.0)  # 2 (t^2+1)(2t) at t = 1
    assert d2g[0, 0, 1, 1] == pytest.approx(16.0)  # 12 t^2 + 4 at t = 1


def test_flat_chart_all_zero():
    spec = ProductManifoldSpec(FlatBase((1.0, 1.0)), [FiberSpec(FlatTorus(2))],
                               [Const(1.0)])
    p = spec.make_point([0.1, 0.2])
    assert all(np.allclose(d, 0.0) for d in metric_derivatives(spec, p)[1:])
    assert all(np.allclose(c, 0.0) for c in levi_civita_coefficients(spec, p))
    cur = connection_curvature(LC, spec, None, p)
    assert np.allclose(cur.riemann, 0.0, atol=1e-9)
    assert cur.scalar == pytest.approx(0.0, abs=1e-9)


def test_christoffel_exponential_values(grw_exp_spec):
    (G,), _ = levi_civita_coefficients(grw_exp_spec, grw_exp_spec.make_point([0.0]))
    # order (t, x, y): G^t_xx = f f' = e^{2t}, G^x_tx = f'/f = 1
    assert G[0, 1, 1] == pytest.approx(1.0)
    assert G[1, 0, 1] == pytest.approx(1.0)
    assert G[1, 1, 0] == pytest.approx(1.0)
    assert np.allclose(G, np.transpose(G, (0, 2, 1)))


def test_sphere_christoffel_against_geometry():
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(Sphere(1.0))], [Const(1.0)])
    th = 1.1
    p = spec.make_point([0.0], [[th, 0.5]])
    (G,), _ = levi_civita_coefficients(spec, p)
    assert G[1, 2, 2] == pytest.approx(-math.sin(th) * math.cos(th), rel=1e-9)
    assert G[2, 1, 2] == pytest.approx(math.cos(th) / math.sin(th), rel=1e-9)


def test_unit_sphere_block_curvature():
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(Sphere(1.0))], [Const(1.0)])
    p = spec.make_point([0.0], [[math.pi / 2, 0.5]])
    cur = connection_curvature(LC, spec, None, p)
    # product of a line with a unit sphere: engine-convention scalar is -2
    assert cur.scalar[0] == pytest.approx(-2.0, abs=1e-12)
    g = cur.metric[0]
    sec = cur.riemann[0, 1, 1, 2, 2]  # R^theta_{theta phi phi} = K g_{phi phi}
    assert sec == pytest.approx(g[2, 2], rel=1e-12)


def test_levi_civita_symmetries(spec_zoo):
    for name, spec, _ in spec_zoo[:8]:
        cur = connection_curvature(LC, spec, None, spec.sample_points(1))
        (R,), (ricci,) = cur.riemann, cur.ricci
        assert np.max(np.abs(R + np.transpose(R, (0, 2, 1, 3)))) < 1e-12, name
        bianchi = R + np.transpose(R, (0, 3, 1, 2)) + np.transpose(R, (0, 2, 3, 1))
        assert np.max(np.abs(bianchi)) < 1e-12, name
        assert np.max(np.abs(ricci - ricci.T)) < 1e-12, name


def test_scalar_invariant_under_fiber_permutation():
    w1, w2 = parse_expr("exp(t)"), parse_expr("2 + 0.4*cos(t)")
    spec_a = ProductManifoldSpec(IntervalBase(),
                                 [FiberSpec(Circle()), FiberSpec(FlatTorus(2))],
                                 [w1, w2])
    spec_b = ProductManifoldSpec(IntervalBase(),
                                 [FiberSpec(FlatTorus(2)), FiberSpec(Circle())],
                                 [w2, w1])
    for t in (0.2, 0.6):
        sa = connection_curvature(LC, spec_a, None, spec_a.make_point([t])).scalar
        sb = connection_curvature(LC, spec_b, None, spec_b.make_point([t])).scalar
        assert sa == pytest.approx(sb, abs=1e-12)


def test_singular_metric_raises():
    from warpcurv.chart_core import inverse_metric

    with pytest.raises(SingularMetric, match=r"at \[0\.5, 1\.0\]"):
        inverse_metric(np.zeros((1, 2, 2)), np.array([[0.5, 1.0]]))


def test_unstable_coefficient_field_detected():
    from warpcurv.errors import NumericalInstability

    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [Const(1.0)])

    def jittery(q):
        return np.full((len(q), 3, 3, 3), np.sin(q[:, 0, None, None, None] / 1e-7))

    with pytest.raises(NumericalInstability):
        curvature_from_coefficients(spec, finite_difference_field(jittery),
                                    spec.make_point([0.3]))


def test_non_finite_curvature_detected():
    from warpcurv.errors import NumericalInstability

    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [Const(1.0)])

    def overflowing(q):  # finite coefficients whose products overflow
        return np.full((len(q), 3, 3, 3), 1e200), np.zeros((len(q), 3, 3, 3, 3))

    def undefined(q):
        return np.zeros((len(q), 3, 3, 3)), np.full((len(q), 3, 3, 3, 3), np.nan)

    for field in (overflowing, undefined):
        with pytest.raises(NumericalInstability):
            curvature_from_coefficients(spec, field, spec.make_point([0.3]))


def _bad_row_error(spec, rows, bad, call):
    """The error of `call` on a stack whose row `bad` is bad, and that of the
    same call on the one-row stack of that point: same type, and the
    stack's names it."""
    from warpcurv.errors import WarpcurvError

    stack = np.array(rows, dtype=float)
    with pytest.raises(WarpcurvError) as at_stack:
        call(spec, stack)
    with pytest.raises(WarpcurvError) as at_point:
        call(spec, stack[[bad]])
    assert type(at_stack.value) is type(at_point.value)
    return at_stack.value, at_point.value


def _curvature(spec, p):
    return connection_curvature(ConnectionKind.SEMI_SYMMETRIC_NON_METRIC, spec, None, p)


def test_a_stack_raises_the_typed_error_of_its_bad_point():
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [parse_expr("exp(-400*t)")])
    good = [[0.1, 0.3, 0.4], [0.5, 0.3, 0.4]]

    # a point outside the interval
    err, alone = _bad_row_error(spec, good + [[12.0, 0.3, 0.4]] + good, 2, _curvature)
    assert isinstance(err, OutOfChart) and str(err) == str(alone)
    assert "t=12.0 outside interval" in str(err)

    # exp(-400)^2 underflows to 0: a singular metric, not a bare LinAlgError
    err, _ = _bad_row_error(spec, good + [[1.0, 0.3, 0.4]] + good, 2, _curvature)
    assert isinstance(err, SingularMetric)
    assert str(err) == "Singular matrix at [1.0, 0.3, 0.4]"


def test_a_stack_names_its_first_non_finite_point():
    from warpcurv.errors import NumericalInstability

    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [Const(1.0)])

    def field(q):  # finite coefficients except at t = 0.7
        G = np.zeros((len(q), 3, 3, 3))
        G[q[:, 0] == 0.7] = np.nan
        return G, np.zeros((len(q), 3, 3, 3, 3))

    def call(spec, q):
        return curvature_from_coefficients(spec, field, q)

    rows = [[0.1, 0.3, 0.4], [0.7, 0.3, 0.4], [0.9, 0.3, 0.4]]
    err, alone = _bad_row_error(spec, rows, 1, call)
    assert isinstance(err, NumericalInstability) and str(err) == str(alone)
    assert str(err) == "connection or curvature not finite at [0.7, 0.3, 0.4]"


def test_check_point_raises_for_the_first_failing_point_in_check_order():
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(Sphere(1.0))],
                               [parse_expr("0.6 - t")])
    # row 1 has a non-positive warping, row 2 is off the interval and near a
    # pole: the first failing point wins, and at it the chart comes first
    stack = np.array([[0.1, 1.0, 0.5], [0.8, 1.0, 0.5], [11.0, 0.05, 0.5]])
    with pytest.raises(NonPositiveWarping, match=r"warping 0 = -0\.2"):
        spec.check_point(stack)
    with pytest.raises(OutOfChart, match="t=11.0 outside interval"):
        spec.check_point(stack[[0, 2]])
    # a point that passed before passes again; a new one is still checked
    spec.check_point(stack[:1])
    with pytest.raises(NonPositiveWarping):
        spec.check_point(stack[:2])
