"""Spec-level validation: block layout, warping restrictions, sampling."""

import pytest

from warpcurv.errors import WarpcurvError
from warpcurv.exprs import Const, parse_expr
from warpcurv.geometry import (
    Circle,
    FiberSpec,
    FlatBase,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    make_geometry,
)


def test_block_layout():
    spec = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(Circle()), FiberSpec(FlatTorus(2))],
        [Const(1.0), Const(1.0)],
    )
    assert spec.n == 1 and spec.n_bar == 4
    assert spec.coord_names == ("t", "x", "z", "w")
    assert spec.block_slice("base") == slice(0, 1)
    assert spec.block_slice(0) == slice(1, 2)
    assert spec.block_slice(1) == slice(2, 4)


def test_untwisted_warping_cannot_use_fiber_coordinates():
    with pytest.raises(WarpcurvError):
        ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                            [parse_expr("exp(t)*(1+x^2)")])


def test_twisted_warping_restricted_to_own_fiber():
    with pytest.raises(WarpcurvError):
        ProductManifoldSpec(
            IntervalBase(),
            [FiberSpec(FlatTorus(2)), FiberSpec(Circle())],
            [parse_expr("exp(t)"), parse_expr("1 + z^2 + x^2")],  # x from fiber 0
            twisted=True,
        )


def test_warping_count_must_match():
    with pytest.raises(WarpcurvError):
        ProductManifoldSpec(IntervalBase(), [FiberSpec(Circle())],
                            [Const(1.0), Const(1.0)])


def test_fiber_constants_consistent():
    assert FiberSpec(Sphere(1.0)).einstein_constant == pytest.approx(-1.0)
    assert FiberSpec(Sphere(2.0)).scalar_curvature == pytest.approx(-0.5)
    assert FiberSpec(HyperbolicPlane()).einstein_constant == pytest.approx(1.0)
    assert FiberSpec(FlatTorus(3)).scalar_curvature == 0.0
    for f in (FiberSpec(Sphere(1.5)), FiberSpec(HyperbolicPlane()),
              FiberSpec(Circle())):
        assert f.scalar_curvature == pytest.approx(f.dim * f.einstein_constant)
    with pytest.raises(WarpcurvError):
        FiberSpec(Sphere(1.0), einstein_constant=-1.0, scalar_curvature=5.0)


def test_flat_base_signature_validation():
    assert FlatBase((-1.0, 1.0, 1.0)).coord_names == ("t", "u", "v")
    with pytest.raises(WarpcurvError):
        FlatBase((-1.0, 1.0, 1.0, 1.0))
    with pytest.raises(WarpcurvError):
        FlatBase((-2.0, 1.0))


def test_make_geometry():
    assert make_geometry("flat_torus", dim=3).dim == 3
    assert make_geometry("sphere", radius=2.0).radius == 2.0
    assert make_geometry("circle").dim == 1
    assert make_geometry("hyperbolic").dim == 2
    with pytest.raises(WarpcurvError):
        make_geometry("klein_bottle")


def test_sample_points_stay_in_chart():
    spec = ProductManifoldSpec(
        FlatBase((-1.0, 1.0)),
        [FiberSpec(Sphere(1.0)), FiberSpec(HyperbolicPlane())],
        [Const(1.0), Const(2.0)],
    )
    for p in spec.sample_points(6):
        spec.check_point(p)
        assert p.shape == (spec.n_bar,)


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
