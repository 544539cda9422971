"""Torsion-bearing connections: coefficients, torsion, non-metricity,
curvature relation."""

import numpy as np
import pytest
from connection_reference import (
    curvature_via_relation,
    finite_difference_field,
    nonmetricity,
    pi_covector,
    relation_check,
    torsion_tensor,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcurv.chart_core import assemble_metric, levi_civita_coefficients
from warpcurv.connections import ConnectionKind, connection_curvature, modified_coefficients
from warpcurv.exprs import Const, parse_expr
from warpcurv.geometry import (
    FiberSpec,
    FlatTorus,
    IntervalBase,
    ProductManifoldSpec,
    TorsionVectorFieldSpec,
    p_dt,
)

LC = ConnectionKind.LEVI_CIVITA
SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
SYM = ConnectionKind.SYMMETRIZED_AFFINE


def test_zero_field_reduces_to_levi_civita(grw_exp_spec):
    p = grw_exp_spec.make_point([0.4])
    G, dG = levi_civita_coefficients(grw_exp_spec, p)
    zero = TorsionVectorFieldSpec("base", [Const(0.0)])
    for kind in (SSNM, SYM):
        Gm, dGm = modified_coefficients(kind, grw_exp_spec, zero, p)
        assert np.allclose(Gm, G) and np.allclose(dGm, dG)
        assert np.allclose(torsion_tensor(kind, grw_exp_spec, zero, p), 0.0)
        assert np.allclose(nonmetricity(kind, grw_exp_spec, zero, p), 0.0, atol=1e-12)


def test_modified_coefficient_values(grw_exp_spec):
    # coordinates (t, x, y); pi_t = -1 for P = d/dt
    p = grw_exp_spec.make_point([0.0])
    (G,), _ = modified_coefficients(SSNM, grw_exp_spec, p_dt(), p)
    assert G[1, 1, 0] == pytest.approx(0.0)  # 1 + (-1)
    assert G[1, 0, 1] == pytest.approx(1.0)
    (Gs,), _ = modified_coefficients(SYM, grw_exp_spec, p_dt(), p)
    assert Gs[1, 0, 1] == pytest.approx(0.0)  # 1 - 1 + 0


def test_torsion_components(grw_exp_spec):
    p = grw_exp_spec.make_point([0.2])
    (T,) = torsion_tensor(SSNM, grw_exp_spec, p_dt(), p)
    assert T[1, 0, 1] == pytest.approx(1.0)  # T(dt, dx) = dx
    assert np.allclose(T, -np.transpose(T, (0, 2, 1)))
    assert np.allclose(torsion_tensor(SYM, grw_exp_spec, p_dt(), p), 0.0)
    assert np.allclose(torsion_tensor(LC, grw_exp_spec, None, p), 0.0)


def test_torsion_semi_symmetric_form(spec_zoo):
    # T^k_ij = pi_j d^k_i - pi_i d^k_j for the semi-symmetric connection
    for name, spec, P in spec_zoo[:7]:
        if P is None:
            continue
        p = spec.sample_points(1)
        T = torsion_tensor(SSNM, spec, P, p)
        pi = pi_covector(spec, P, p)
        eye = np.eye(spec.n_bar)
        expected = np.einsum("zj,ki->zkij", pi, eye) - np.einsum("zi,kj->zkij", pi, eye)
        assert np.max(np.abs(T - expected)) < 1e-10, name


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-3.0, max_value=3.0))
def test_torsion_linear_in_p(c):
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [parse_expr("exp(t)")])
    p = spec.make_point([0.3])
    base = torsion_tensor(SSNM, spec, p_dt(), p)
    scaled = torsion_tensor(SSNM, spec,
                            TorsionVectorFieldSpec("base", [Const(c)]), p)
    assert np.max(np.abs(scaled - c * base)) < 1e-9


def test_nonmetricity_identity(spec_zoo):
    # (nabla_X g)(Y, Z) = -pi(Y) g(X, Z) - pi(Z) g(X, Y)
    for name, spec, P in spec_zoo:
        p = spec.sample_points(1)
        nm = nonmetricity(SSNM, spec, P, p)
        g = assemble_metric(spec, p)
        pi = pi_covector(spec, P, p)
        expected = -np.einsum("zj,zik->zijk", pi, g) - np.einsum("zk,zij->zijk", pi, g)
        assert np.max(np.abs(nm - expected)) < 1e-8, name
        assert np.max(np.abs(nonmetricity(LC, spec, P, p))) < 1e-9, name


def test_nonmetricity_component_value(grw_exp_spec):
    # component (X, Y, Z) = (dx, dx, dt) equals +1 at t = 0
    p = grw_exp_spec.make_point([0.0])
    nm = nonmetricity(SSNM, grw_exp_spec, p_dt(), p)
    assert nm[0, 1, 1, 0] == pytest.approx(1.0)


def test_relation_vs_coefficient_paths(spec_zoo):
    for name, spec, P in spec_zoo:
        for p in spec.sample_points(2)[:, None]:
            for kind in (LC, SSNM, SYM):
                rel = curvature_via_relation(kind, spec, P, p)
                direct = connection_curvature(kind, spec, P, p)
                assert np.max(np.abs(rel.riemann - direct.riemann)) < 1e-11, name
                assert np.max(np.abs(rel.ricci - direct.ricci)) < 1e-11, name
                assert np.max(np.abs(rel.scalar - direct.scalar)) < 1e-11, name


@pytest.mark.parametrize("kind", [LC, SSNM, SYM], ids=lambda k: k.value)
def test_exact_partials_match_finite_differences(kind, spec_zoo):
    # the jet path's exact dG against the Richardson cross-check of G alone
    for name, spec, P in spec_zoo:
        p = spec.sample_points(1)
        G, dG = modified_coefficients(kind, spec, P, p)
        fd_G, fd_dG = finite_difference_field(
            lambda q: modified_coefficients(kind, spec, P, q)[0])(p)
        assert np.array_equal(G, fd_G), name
        scale = max(1.0, float(np.max(np.abs(G))))
        assert np.max(np.abs(dG - fd_dG)) / scale < 1e-6, name


def test_relation_internal_check_runs(grw_exp_spec):
    cur = relation_check(SSNM, grw_exp_spec, p_dt(), grw_exp_spec.make_point([0.3]))
    assert np.max(np.abs(cur.ricci)) < 1e-12


def test_exponential_family_ricci_flat(grw_exp_spec):
    for t in (0.0, 0.5, 0.9):
        cur = connection_curvature(SSNM, grw_exp_spec, p_dt(),
                                   grw_exp_spec.make_point([t]))
        assert np.max(np.abs(cur.ricci)) < 1e-12


def test_constant_family_einstein():
    from warpcurv.geometry import HyperbolicPlane

    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(HyperbolicPlane())],
                               [Const(2 ** -0.5)])
    for t in (0.0, 0.7):
        p = spec.make_point([t])
        cur = connection_curvature(SSNM, spec, p_dt(), p)
        assert np.max(np.abs(cur.ricci - 2.0 * cur.metric)) < 1e-12


def test_mixed_block_p_rejected():
    from warpcurv.errors import UnsupportedP

    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [parse_expr("exp(t)")])
    bad = TorsionVectorFieldSpec("base", [parse_expr("x")])  # fiber coordinate
    with pytest.raises(UnsupportedP):
        pi_covector(spec, bad, spec.make_point([0.0]))
    toolong = TorsionVectorFieldSpec("base", [Const(1.0), Const(1.0)])
    with pytest.raises(UnsupportedP):
        pi_covector(spec, toolong, spec.make_point([0.0]))
    nowhere = TorsionVectorFieldSpec(5, [Const(1.0)])
    with pytest.raises(UnsupportedP):
        pi_covector(spec, nowhere, spec.make_point([0.0]))
