"""Spec-level validation: block layout, warping restrictions, sampling,
the fiber geometry table and the chart edges."""

import math
import re

import numpy as np
import pytest

from warpcurv.cli import build_spec, parse_scenario
from warpcurv.errors import ConfigParseError, OutOfChart, WarpcurvError
from warpcurv.exprs import Const, eval_jet, parse_expr
from warpcurv.geometry import (
    FIBER_GEOMETRIES,
    Circle,
    FlatBase,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
)


def test_block_layout():
    spec = ProductManifoldSpec(
        IntervalBase(),
        [Circle(), FlatTorus(2)],
        [Const(1.0), Const(1.0)],
    )
    assert spec.n == 1 and spec.n_bar == 4
    assert spec.coord_names == ("t", "x", "z", "w")
    assert spec.block_slice("base") == slice(0, 1)
    assert spec.block_slice(0) == slice(1, 2)
    assert spec.block_slice(1) == slice(2, 4)


def test_untwisted_warping_cannot_use_fiber_coordinates():
    with pytest.raises(WarpcurvError):
        ProductManifoldSpec(IntervalBase(), [FlatTorus(2)],
                            [parse_expr("exp(t)*(1+x^2)")])


def test_twisted_warping_restricted_to_own_fiber():
    with pytest.raises(WarpcurvError):
        ProductManifoldSpec(
            IntervalBase(),
            [FlatTorus(2), Circle()],
            [parse_expr("exp(t)"), parse_expr("1 + z^2 + x^2")],  # x from fiber 0
            twisted=True,
        )


def test_warping_count_must_match():
    with pytest.raises(WarpcurvError):
        ProductManifoldSpec(IntervalBase(), [Circle()],
                            [Const(1.0), Const(1.0)])


def test_fiber_constants_consistent():
    assert Sphere(1.0).einstein_constant == pytest.approx(-1.0)
    assert Sphere(2.0).scalar_curvature == pytest.approx(-0.5)
    assert HyperbolicPlane().einstein_constant == pytest.approx(1.0)
    assert FlatTorus(3).scalar_curvature == 0.0
    for f in (Sphere(1.5), HyperbolicPlane(), Circle()):
        assert f.scalar_curvature == pytest.approx(f.dim * f.einstein_constant)


def test_flat_base_signature_validation():
    assert FlatBase((-1.0, 1.0, 1.0)).coord_names == ("t", "u", "v")
    with pytest.raises(WarpcurvError):
        FlatBase((-1.0, 1.0, 1.0, 1.0))
    with pytest.raises(WarpcurvError):
        FlatBase((-2.0, 1.0))


def test_fiber_geometries_table():
    assert FIBER_GEOMETRIES["flat_torus"](dim=3).dim == 3
    assert FIBER_GEOMETRIES["sphere"](radius=2.0).radius == 2.0
    assert FIBER_GEOMETRIES["circle"]().dim == 1
    assert FIBER_GEOMETRIES["hyperbolic"]().dim == 2
    with pytest.raises(ConfigParseError, match="must be one of flat_torus, circle, "
                                               "sphere, hyperbolic, got 'klein_bottle'"):
        parse_scenario("task = oracle-verify\nfiber.geometry = klein_bottle\n")


def test_a_fiber_block_calls_its_constructor_with_its_other_keys():
    cfg = parse_scenario("task = oracle-verify\n"
                         "fiber.geometry = flat_torus\nfiber.dim = 3\n"
                         "fiber.geometry = sphere\nfiber.radius = 2.5\nfiber.warping = 2\n"
                         "fiber.geometry = circle\nfiber.geometry = hyperbolic\n")
    torus, sphere, circle, plane = build_spec(cfg).fibers
    assert type(torus) is FlatTorus and torus.dim == 3
    assert type(sphere) is Sphere and sphere.radius == 2.5
    assert type(circle) is Circle and type(plane) is HyperbolicPlane
    for text, message in [("fiber.geometry = sphere\nfiber.dim = 2\n",
                           "'fiber.dim' is read only by flat_torus fibers, not sphere"),
                          ("fiber.geometry = circle\nfiber.radius = 2\n",
                           "'fiber.radius' is read only by sphere fibers, not circle")]:
        with pytest.raises(ConfigParseError, match=re.escape(message)):
            parse_scenario("task = oracle-verify\n" + text)


# Every FIBER_GEOMETRIES entry, at several radii and torus dimensions.
_EACH_GEOMETRY = [(name, {}) for name in ("circle", "hyperbolic")]
_EACH_GEOMETRY += [("sphere", {"radius": r}) for r in (0.3, 1.0, 1.7, 4.0)]
_EACH_GEOMETRY += [("flat_torus", {"dim": d}) for d in (1, 2, 3, 5)]


def test_the_cases_cover_every_fiber_geometry():
    assert {name for name, _ in _EACH_GEOMETRY} == set(FIBER_GEOMETRIES)


@pytest.mark.parametrize("name, kwargs", _EACH_GEOMETRY,
                         ids=["-".join([n, *map(str, k.values())]) for n, k in _EACH_GEOMETRY])
def test_every_fiber_geometry_is_einstein_with_its_scalar(name, kwargs):
    fiber = FIBER_GEOMETRIES[name](**kwargs)
    d = fiber.dim
    assert fiber.scalar_curvature == pytest.approx(d * fiber.einstein_constant, abs=1e-12)
    # the stored constant is the one of the fiber's own Ricci tensor, the
    # trace Ric_ik = R^j_ijk of its curvature, at three sample points
    names = tuple(f"x{k}" for k in range(d))
    val, _, _ = eval_jet([e for row in fiber.metric_exprs(names) for e in row], names,
                         fiber.sample_coords(3))
    g = val.reshape(3, d, d)
    ricci = fiber.ricci(g)
    assert np.allclose(ricci, np.einsum("...jijk->...ik", fiber.curvature(g)), atol=1e-12)
    assert np.allclose(ricci, fiber.einstein_constant * g, atol=1e-12)


def _chart_error(fiber, coords):
    """The error a one-fiber spec raises at the fiber point `coords`, or None."""
    spec = ProductManifoldSpec(IntervalBase(), [fiber], [Const(1.0)])
    try:
        spec.check_point(spec.make_point([0.5], [coords]))
    except OutOfChart as exc:
        return str(exc)
    return None


def test_the_sphere_chart_ends_at_its_polar_margin():
    margin = Sphere.polar_margin
    for th in (margin, math.pi - margin):
        assert _chart_error(Sphere(1.3), [th, 0.4]) is None
    for th in (np.nextafter(margin, 0.0), np.nextafter(math.pi - margin, 4.0)):
        assert _chart_error(Sphere(1.3), [th, 0.4]) == \
            f"polar angle {float(th)!r} too close to a pole"


def test_the_half_plane_chart_ends_above_y_1e_9():
    assert _chart_error(HyperbolicPlane(), [0.3, 1e-9]) == \
        "half-plane coordinate y=1e-09 must be positive"
    above = np.nextafter(1e-9, 1.0)
    assert _chart_error(HyperbolicPlane(), [0.3, above]) is None


def test_the_interval_base_is_the_open_interval_from_minus_10_to_10():
    spec = ProductManifoldSpec(IntervalBase(), [Circle()], [Const(1.0)])
    for t in (-10.0, 10.0):
        with pytest.raises(OutOfChart) as err:
            spec.check_point(spec.make_point([t]))
        assert str(err.value) == f"t={t} outside interval (-10.0, 10.0)"
    spec.check_point(spec.make_point([[np.nextafter(-10.0, 0.0)], [np.nextafter(10.0, 0.0)]]))


def test_sample_points_stay_in_chart():
    spec = ProductManifoldSpec(
        FlatBase((-1.0, 1.0)),
        [Sphere(1.0), HyperbolicPlane()],
        [Const(1.0), Const(2.0)],
    )
    pts = spec.sample_points(6)
    assert pts.shape == (6, spec.n_bar)
    for p in pts:
        spec.check_point(p[None])


def test_block_layout_of_every_zoo_spec(spec_zoo):
    for name, spec, _ in spec_zoo:
        dims = [f.dim for f in spec.fibers]
        assert list(spec.fiber_dims) == dims, name
        assert spec.n_bar == spec.n + sum(dims), name
        blocks = ["base"] + list(range(spec.m))
        covered = []
        for block, dim in zip(blocks, [spec.n, *dims]):
            sl = spec.block_slice(block)
            assert sl.stop - sl.start == dim, name
            covered.extend(range(sl.start, sl.stop))
        assert covered == list(range(spec.n_bar)), name
