"""Einstein / pseudo-Einstein / constant-scalar residual checks."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from conftest import multiwarped_scalar_formula

from warpcurv import einstein, structured
from warpcurv.connections import ConnectionKind, connection_curvature
from warpcurv.einstein import (
    chebyshev_grid,
    constant_scalar_separation_check,
    grw_einstein_residuals,
    multiwarped_scalar,
    pseudo_einstein_residuals,
)
from warpcurv.errors import (
    DimensionTooSmall,
    NonPositiveWarping,
    OutOfChart,
    UnsupportedP,
    WarpcurvError,
)
from warpcurv.exprs import Const, eval_jet, parse_expr
from warpcurv.geometry import (
    Circle,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    TorsionVectorFieldSpec,
    p_dt,
)
from warpcurv.structured import StructuredGeometryCache

SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC


def spec_of(warpings, fibers):
    return ProductManifoldSpec(IntervalBase(), fibers, warpings)


def _closed(spec, P, grid):
    """The ClosedFormScalar that `multiwarped_scalar` returns over the grid."""
    return einstein._closed_form(spec, P, np.asarray(grid, dtype=float))


def _constancy(spec, P, grid, caplog):
    """The constancy check as `cli.run_scenario` calls it, with the closed
    form of `multiwarped_scalar` over the same grid: its row and the text of
    the INFO line it writes."""
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="warpcurv"):
        row = constant_scalar_separation_check(spec, P, grid, _closed(spec, P, grid))
    ((name, level, line),) = caplog.record_tuples
    assert (name, level, row.check) == ("warpcurv", logging.INFO, "scalar-constancy")
    assert row.tolerance == einstein.CONSTANCY_TOL
    return row, line.removeprefix("scalar constancy: ")


def test_exponential_family_passes(grw_exp_spec):
    rows = grw_einstein_residuals(grw_exp_spec, 0.0, chebyshev_grid())
    assert all(r.passed for r in rows)
    assert {r.check for r in rows} == {"einstein-trace", "einstein-fiber-0"}


def test_constant_family_passes():
    spec = spec_of([Const(2 ** -0.5)], [HyperbolicPlane()])
    assert all(r.passed for r in grw_einstein_residuals(spec, 2.0, chebyshev_grid()))


def test_quadratic_warping_fails():
    spec = spec_of([parse_expr("t^2+1")], [FlatTorus(2)])
    rows = grw_einstein_residuals(spec, 0.0, chebyshev_grid())
    assert not all(r.passed for r in rows)
    trace = next(r for r in rows if r.check == "einstein-trace")
    # residual of 2 (1 - 2/(t^2+1)) reaches 2 (1 - 2/(1+1)) = 1 near t = 1
    assert trace.grid_max_residual > 0.5


def test_residuals_iff_oracle_einstein(spec_zoo):
    """Passing residuals must coincide with the generic Einstein property."""
    cases = [
        (spec_of([parse_expr("1.3*exp(t)")], [FlatTorus(2)]), 0.0),
        (spec_of([Const(2 ** -0.5)], [HyperbolicPlane()]), 2.0),
        (spec_of([parse_expr("exp(t)"), parse_expr("exp(t)")],
                 [Circle(), FlatTorus(2)]), 0.0),
        (spec_of([parse_expr("2 + 0.5*sin(t)")], [Sphere(1.0)]), 0.0),
        (spec_of([parse_expr("exp(t)"), parse_expr("exp(2*t)")],
                 [Circle(), FlatTorus(2)]), 0.0),
    ]
    grid = chebyshev_grid(0.1, 0.9, 7)
    for spec, lam in cases:
        passed = all(r.passed for r in grw_einstein_residuals(spec, lam, grid))
        worst = 0.0
        for t in grid[::3]:
            cur = connection_curvature(SSNM, spec, p_dt(), spec.make_point([t]))
            worst = max(worst, float(np.max(np.abs(cur.ricci - lam * cur.metric))))
        assert passed == (worst < 1e-6)


@pytest.mark.parametrize("a,b,n", [(-0.7, 2.3, 9), (0.1, 0.9, 7), (-3.0, -1.0, 4)])
def test_chebyshev_grid_maps_the_nodes_onto_its_interval(a, b, n):
    grid = chebyshev_grid(a, b, n)
    k = np.arange(n)
    want = np.sort(a + (b - a) * (1 + np.cos((2 * k + 1) * np.pi / (2 * n))) / 2)
    assert np.allclose(grid, want, rtol=0, atol=1e-14)
    assert np.all(np.diff(grid) > 0)
    assert np.all((a < grid) & (grid < b))
    assert np.allclose(grid + grid[::-1], a + b, rtol=0, atol=1e-14)


def test_pseudo_einstein_passing_case():
    # circle fiber carrying P = c d/theta with c^2 = 2 a^2 / 3 for b_2 = e^{at}
    c = math.sqrt(2.0 / 3.0)
    spec = spec_of([Const(1.0), parse_expr("exp(t)")],
                   [Circle(), FlatTorus(2)])
    P = TorsionVectorFieldSpec(0, [Const(c)])
    rows = pseudo_einstein_residuals(spec, P, -2.0, chebyshev_grid())
    assert all(r.passed for r in rows), rows
    # and the oracle agrees: symmetrized Ricci equals lambda g
    for t in (0.2, 0.7):
        cur = connection_curvature(SSNM, spec, P, spec.make_point([t]))
        (ric,), (g,) = cur.ricci, cur.metric
        sym = 0.5 * (ric + ric.T)
        assert np.max(np.abs(sym + 2.0 * g)) < 1e-12


def test_pseudo_einstein_residual_matches_oracle():
    # rotation field on a static torus: not pseudo-Einstein, but the
    # torsion-fiber residual must equal the symmetrized-Ricci deviation
    spec = spec_of([Const(1.0), Const(1.0)],
                   [Circle(), FlatTorus(2)])
    P = TorsionVectorFieldSpec(1, [parse_expr("0-w"), parse_expr("z")])
    lam = 0.0
    grid = np.array([0.4])
    rows = pseudo_einstein_residuals(spec, P, lam, grid)
    formula = next(r for r in rows if r.check == "pseudo-torsion-fiber-1")

    worst = 0.0
    for fc in spec.fibers[1].sample_coords(3):
        p = spec.make_point([0.4], [None, fc])
        cur = connection_curvature(SSNM, spec, P, p)
        (ric,), (g,) = cur.ricci, cur.metric
        sym = 0.5 * (ric + ric.T)
        sl = spec.block_slice(1)
        worst = max(worst, float(np.max(np.abs(sym[sl, sl] - lam * g[sl, sl]))))
    assert formula.grid_max_residual == pytest.approx(worst, rel=1e-12)


def _torsion_fiber_case(geometry, other, r):
    """P with non-constant components on fiber r, next to one other fiber;
    both warpings vary with t, so every term of the torsion-fiber row is live."""
    fibers = [other, other]
    fibers[r] = geometry
    spec = spec_of([parse_expr("exp(0.4*t + 0.1)"), parse_expr("1.5 + 0.3*sin(t)")], fibers)
    names = spec.fiber_coord_names(r)
    comps = [parse_expr(f"0.3 + 0.2*{names[0]}*{names[-1]}")]
    comps += [parse_expr(f"0.5*cos({x}) + 0.1*{x}^2") for x in names[1:]]
    return spec, TorsionVectorFieldSpec(r, comps)


TORSION_FIBER_CASES = {
    "sphere": (Sphere(1.3), FlatTorus(2), 0),
    "hyperbolic": (HyperbolicPlane(), Circle(), 1),
    "flat-T3": (FlatTorus(3), Circle(), 0),
}


def _per_point_torsion_rows(spec, P, lam, grid):
    """Reference: the per-(t, fiber sample) loop the grid-wide rows replaced."""
    r = P.location
    b = einstein.warping_samples(spec, grid)
    dims = np.array(spec.fiber_dims, dtype=float)
    nbar = spec.n_bar
    ratio = b[:, 1] / b[:, 0]
    lr = spec.fiber_dims[r]
    worst = []
    for j, t in enumerate(grid):
        for fc in spec.fibers[r].sample_coords(3):
            p = spec.make_point([t], [fc if k == r else None for k in range(spec.m)])
            c = StructuredGeometryCache(spec, P, p)
            br, dbr, ddbr = b[r, :, j]
            cross = (dims @ ratio[:, j]) - dims[r] * ratio[r, j]
            bracket = br * ddbr + (lr - 1) * dbr**2 + br * dbr * cross + lam * br**2
            gF = c.gF[r][0]
            ricF = c.RicF[r][0]
            pi = c.pi(r)[0]
            gnP = c.g_W_nabla_V_P(r)[0]  # gnP[w, v] = g(e_w, nabla_{e_v} P)
            for a in range(lr):
                ea = np.zeros(lr)
                ea[a] = 1.0
                for bb in range(a, lr):
                    eb = np.zeros(lr)
                    eb[bb] = 1.0
                    lhs = float(ea @ ricF @ eb) - float(ea @ gF @ eb) * bracket
                    rhs = (nbar - 1) * (
                        float(pi[a]) * float(pi[bb])
                        - 0.5 * (float(gnP[bb, a]) + float(gnP[a, bb]))
                    )
                    worst.append(lhs - rhs)
    return np.array(worst)


def _per_point_fiber_p_scalar(spec, P, grid):
    """Reference: the per-t loop, one cache per t, of the P-on-a-fiber scalar,
    whose frame sum is the trace l_r P(b_r)/b_r + div_F P of nabla P."""
    total = multiwarped_scalar_formula(spec, None, grid)
    r = P.location
    for j, t in enumerate(grid):
        c = StructuredGeometryCache(spec, P, spec.make_point([t]))
        trace = c.dims[r] * c.P_b(r)[0] / c.b[r][0] + c.div_F_P()[0]
        total[j] += (1 - spec.n_bar) * c.pi_P()[0] + (spec.n_bar - 1) * trace
    return total


@pytest.mark.parametrize("name", sorted(TORSION_FIBER_CASES))
def test_torsion_fiber_row_matches_oracle_on_curved_fibers(name):
    spec, P = _torsion_fiber_case(*TORSION_FIBER_CASES[name])
    r, lam = P.location, 0.7
    grid = chebyshev_grid(0.1, 0.9, 3)
    rows = pseudo_einstein_residuals(spec, P, lam, grid)
    formula = next(x for x in rows if x.check == f"pseudo-torsion-fiber-{r}")

    sl = spec.block_slice(r)
    worst = 0.0
    for t in grid:
        for fc in spec.fibers[r].sample_coords(3):
            p = spec.make_point([t], [fc if k == r else None for k in range(spec.m)])
            cur = connection_curvature(SSNM, spec, P, p)
            (ric,), (g,) = cur.ricci, cur.metric
            sym = 0.5 * (ric + ric.T)
            worst = max(worst, float(np.max(np.abs(sym[sl, sl] - lam * g[sl, sl]))))
    assert worst > 1e-3  # not pseudo-Einstein: the comparison has something to see
    assert formula.grid_max_residual == pytest.approx(worst, rel=1e-12)


@pytest.mark.parametrize("name", sorted(TORSION_FIBER_CASES))
def test_grid_wide_fiber_checks_keep_the_per_point_bits(name, monkeypatch):
    spec, P = _torsion_fiber_case(*TORSION_FIBER_CASES[name])
    grid = chebyshev_grid(0.1, 0.9, 7)
    rows = {}
    residual_row = einstein._residual_row

    def keep(check, values, tolerance):
        rows[check] = np.asarray(values, dtype=float).ravel()
        return residual_row(check, values, tolerance)

    monkeypatch.setattr(einstein, "_residual_row", keep)
    pseudo_einstein_residuals(spec, P, 0.7, grid)
    new = rows[f"pseudo-torsion-fiber-{P.location}"]
    old = _per_point_torsion_rows(spec, P, 0.7, grid)
    assert np.array_equal(np.sort(new), np.sort(old))
    assert np.array_equal(multiwarped_scalar_formula(spec, P, grid),
                          _per_point_fiber_p_scalar(spec, P, grid))


def test_fiber_checks_build_one_cache_per_fiber_sample(monkeypatch, caplog):
    # each check holds its fiber samples as the rows of one cache, from one
    # jet walk over their points
    built = []

    class CountingCache(StructuredGeometryCache):
        def __init__(self, spec, P, points):
            built.append(len(spec.point_stack(points)))
            super().__init__(spec, P, points)

    walks = []

    def walk(exprs_, names, pts):
        walks.append(len(pts))
        return eval_jet(exprs_, names, pts)

    monkeypatch.setattr(einstein, "StructuredGeometryCache", CountingCache)
    monkeypatch.setattr(structured, "eval_jet", walk)
    spec, P = _torsion_fiber_case(*TORSION_FIBER_CASES["sphere"])
    grid = chebyshev_grid(0.1, 0.9, 9)
    pseudo_einstein_residuals(spec, P, 0.7, grid)
    assert built == [3] and walks == [3]
    built.clear()
    walks.clear()
    multiwarped_scalar_formula(spec, P, grid)
    assert built == [1] and walks == [1]
    built.clear()
    walks.clear()
    _constancy(spec, P, grid, caplog)
    assert built == [1, 5] and walks == [1, 5]


@pytest.mark.parametrize("grid,error,match", [
    ([0.5, 10.5, 0.1], OutOfChart, "t=10.5"),
    ([0.5, 0.1, 10.5], NonPositiveWarping, "warping 0 = -0.1"),
    ([0.5, 0.25, 0.1], NonPositiveWarping, "warping 0 = 0.0 "),
])
def test_fiber_checks_raise_at_the_first_bad_grid_point(grid, error, match):
    # checked over the whole grid at once, in the order of a walk along t
    spec = spec_of([parse_expr("t - 0.25"), Const(1.0)],
                   [FlatTorus(2), Sphere(1.0)])
    P = TorsionVectorFieldSpec(1, [Const(0.5), Const(0.2)])
    with pytest.raises(error, match=match):
        pseudo_einstein_residuals(spec, P, 0.0, np.array(grid))
    with pytest.raises(error, match=match):
        multiwarped_scalar_formula(spec, P, np.array(grid))


def test_fiber_checks_reject_an_empty_grid():
    # their fiber data are read at the first grid point
    spec, P = _torsion_fiber_case(*TORSION_FIBER_CASES["sphere"])
    with pytest.raises(WarpcurvError, match="no points"):
        pseudo_einstein_residuals(spec, P, 0.0, np.array([]))
    with pytest.raises(WarpcurvError, match="no points"):
        multiwarped_scalar_formula(spec, P, np.array([]))


def test_grid_checks_reject_an_empty_grid():
    # the t^2+1 torus fails on the default grid; no grid at all must not pass
    spec = spec_of([parse_expr("t^2+1")], [FlatTorus(2)])
    assert not all(r.passed for r in grw_einstein_residuals(spec, 5.0, chebyshev_grid()))
    with pytest.raises(WarpcurvError, match="no points"):
        grw_einstein_residuals(spec, 5.0, np.array([]))
    with pytest.raises(WarpcurvError, match="no points"):
        multiwarped_scalar(spec, p_dt(), np.array([]))
    with pytest.raises(WarpcurvError, match="no points"):
        constant_scalar_separation_check(spec, None, np.array([]), _closed(spec, None, [0.5]))


def test_pseudo_einstein_requires_fiber_p(grw_exp_spec):
    with pytest.raises(UnsupportedP):
        pseudo_einstein_residuals(grw_exp_spec, p_dt(), 0.0, chebyshev_grid())


def test_pseudo_einstein_dimension_guard():
    spec = spec_of([Const(1.0)], [Circle()])
    P = TorsionVectorFieldSpec(0, [Const(1.0)])
    with pytest.raises(DimensionTooSmall):
        pseudo_einstein_residuals(spec, P, 0.0, chebyshev_grid())


def test_pseudo_einstein_invariant_under_torus_shift():
    # pushing the field forward by a torus translation and moving the sample
    # point along leaves the symmetrized-Ricci deviation unchanged
    spec = spec_of([Const(1.0), Const(1.0)],
                   [Circle(), FlatTorus(2)])
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
        (ra,), (rb,) = ca.ricci, cb.ricci
        da = 0.5 * (ra + ra.T) - lam * ca.metric[0]
        db = 0.5 * (rb + rb.T) - lam * cb.metric[0]
        assert np.max(np.abs(da - db)) < 1e-12


def test_scalar_formula_matches_oracle(spec_zoo):
    grid = chebyshev_grid(0.15, 0.85, 5)
    cases = [
        (spec_of([Const(1.0)], [FlatTorus(2)]), p_dt()),
        (spec_of([parse_expr("exp(t)")], [FlatTorus(2)]), p_dt()),
        (spec_of([parse_expr("2+0.5*sin(t)"), parse_expr("exp(0.4*t)")],
                 [Sphere(1.0), FlatTorus(2)]), p_dt()),
        (spec_of([parse_expr("1.5+0.5*cos(t)"), parse_expr("exp(0.5*t)")],
                 [Circle(), FlatTorus(2)]),
         TorsionVectorFieldSpec(0, [Const(0.7)])),
        (spec_of([parse_expr("exp(t)")], [FlatTorus(2)]), None),
    ]
    for spec, P in cases:
        rep, closed = multiwarped_scalar(spec, P, grid)
        assert rep.passed, rep
        assert np.array_equal(closed.values, multiwarped_scalar_formula(spec, P, grid))


def _four_torus_spec():
    warpings = ["exp(t)", "2 + 0.5*sin(t)", "1 + t^2", "2 + cos(t)"]
    return spec_of([parse_expr(w) for w in warpings],
                   [FlatTorus(2) for _ in warpings])


def test_scalar_check_walks_a_large_grid_in_blocks(monkeypatch):
    spec = _four_torus_spec()  # n_bar 9
    grid = chebyshev_grid(n=200)
    tracemalloc.start()
    try:
        multiwarped_scalar(spec, p_dt(), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20

    rows, blocks = {}, []
    residual_row = einstein._residual_row

    def keep(check, values, tolerance):
        rows[check] = np.asarray(values, dtype=float)
        return residual_row(check, values, tolerance)

    def counted(kind, spec, P, p):
        blocks.append(len(p))
        return connection_curvature(kind, spec, P, p)

    monkeypatch.setattr(einstein, "_residual_row", keep)
    monkeypatch.setattr(einstein, "connection_curvature", counted)
    _, closed = multiwarped_scalar(spec, p_dt(), grid)
    assert len(blocks) > 1 and sum(blocks) == len(grid)
    whole = connection_curvature(SSNM, spec, p_dt(), spec.make_point(grid[:, None]))
    devs = rows["scalar-closed-form-vs-oracle"]
    assert devs.tobytes() == (closed.values - whole.scalar).tobytes()

    blocks.clear()
    multiwarped_scalar(spec, p_dt(), chebyshev_grid(n=17))
    assert blocks == [17]  # the grids of the scenario files stay one oracle call


def test_scalar_static_value():
    spec = spec_of([Const(1.0)], [FlatTorus(2)])
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


def test_constancy_check_reports(grw_exp_spec, caplog):
    row, line = _constancy(grw_exp_spec, p_dt(), chebyshev_grid(), caplog)
    assert row.passed and row.grid_max_residual < einstein.CONSTANCY_TOL

    bad = spec_of([parse_expr("t^2+1")], [FlatTorus(2)])
    row, line = _constancy(bad, p_dt(), chebyshev_grid(), caplog)
    assert not row.passed and row.grid_max_residual >= einstein.CONSTANCY_TOL
    assert "not constant" in line

    # a constant scalar on one grid point: the spread is 0, the grid too small
    row, line = _constancy(grw_exp_spec, p_dt(), [0.5], caplog)
    assert not row.passed and row.grid_max_residual < einstein.CONSTANCY_TOL
    assert "too small" in line


def test_constancy_p_invariants(caplog):
    spec = spec_of([Const(1.0), Const(1.0)],
                   [Circle(), FlatTorus(2)])
    const_P = TorsionVectorFieldSpec(1, [Const(0.4), Const(0.1)])
    row, line = _constancy(spec, const_P, chebyshev_grid(), caplog)
    assert row.passed and line == "scalar curvature constant; all factor scalars constant"

    rot_P = TorsionVectorFieldSpec(1, [parse_expr("0-w"), parse_expr("z")])
    row, line = _constancy(spec, rot_P, chebyshev_grid(), caplog)
    assert not row.passed and "not constant" in line


def test_constancy_spread_runs_over_the_fiber_samples(caplog):
    # P = cos(x) d_x on a sphere fiber: the scalar at each t varies with the
    # polar angle, though the t-grid alone at one fiber point sees no change
    spec = spec_of([Const(1.3)], [Sphere(1.0)])
    P = TorsionVectorFieldSpec(0, [parse_expr("cos(x)"), Const(0.0)])
    grid = chebyshev_grid(0.05, 0.95, 5)
    assert np.ptp(multiwarped_scalar_formula(spec, P, grid)) == 0.0
    row, line = _constancy(spec, P, grid, caplog)
    assert not row.passed and "not constant" in line
    samples = spec.fibers[0].sample_coords(5)
    pts = spec.make_point(np.repeat(grid, 5)[:, None], [np.tile(samples, (len(grid), 1))])
    oracle = connection_curvature(SSNM, spec, P, pts).scalar
    assert row.grid_max_residual > 0.3
    assert row.grid_max_residual == pytest.approx(np.ptp(oracle), rel=1e-12)
