"""Einstein, pseudo-Einstein and constant-scalar-curvature checks for
multiply warped products over a Lorentzian interval.

All checks are residual functionals sampled on a t-grid: the caller
supplies the candidate Einstein constant (or target scalar curvature) and
gets back per-condition residual reports.  Closed-form family *generation*
lives in `families`; here we only verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .connections import ConnectionKind, connection_curvature
from .errors import DimensionTooSmall, UnsupportedP, WarpcurvError
from .exprs import eval_grid
from .geometry import IntervalBase, ProductManifoldSpec, TorsionVectorFieldSpec
from .structured import StructuredGeometryCache

DEFAULT_GRID_POINTS = 17
CLOSED_FORM_TOL = 1e-8
ORACLE_TOL = 1e-6
# largest spread of the closed-form scalar that still counts as constant
CONSTANCY_TOL = 1e-8
# Points times n_bar**4 in one oracle call of the scalar check, whose
# (N, n_bar, n_bar, n_bar, n_bar) tensors grow with the grid: a grid of up
# to 17 points at n_bar 9 stays one call, and larger grids go in blocks.
_ORACLE_BLOCK_ELEMENTS = 1 << 17


def chebyshev_grid(a=0.0, b=1.0, n=DEFAULT_GRID_POINTS):
    """Chebyshev-spaced points on [a, b] (endpoints excluded by the nodes)."""
    k = np.arange(n)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * n))
    return np.sort(0.5 * (a + b) + 0.5 * (b - a) * nodes)


@dataclass
class ResidualReport:
    equation: str
    max_abs_residual: float
    tolerance: float
    passed: bool

    @staticmethod
    def from_values(equation, values, tolerance):
        worst = float(np.max(np.abs(np.asarray(values)))) if len(values) else 0.0
        return ResidualReport(equation, worst, tolerance, worst < tolerance)


@dataclass
class EinsteinCheckResult:
    reports: list = field(default_factory=list)
    passed: bool = True

    def add(self, report):
        self.reports.append(report)
        self.passed = self.passed and report.passed


def _require_interval_warped(spec: ProductManifoldSpec):
    if not isinstance(spec.base, IntervalBase):
        raise WarpcurvError("check requires a one-dimensional interval base")
    if spec.twisted:
        raise WarpcurvError("check requires plain (untwisted) warpings")


def warping_samples(spec, grid):
    """b_i, b_i', b_i'' for every fiber over the t-grid, shape (m, 3, len).

    Untwisted warpings on an interval base depend on t alone.  A grid with
    no points is an error: every check samples through here, and a check
    over no points would pass vacuously.
    """
    _require_interval_warped(spec)
    if not len(grid):
        raise WarpcurvError("grid has no points")
    out = np.zeros((spec.m, 3, len(grid)))
    for i, w in enumerate(spec.warpings):
        out[i] = eval_grid(w, grid)
    return out


def _grid_points(spec, grid, fiber_coords=None, then=None):
    """The checked (len(grid), n_bar) stack of points at the grid values;
    the rows of `then` are checked after them, in the same call."""
    pts = spec.make_point(np.asarray(grid, dtype=float)[:, None], fiber_coords)
    spec.check_point(pts if then is None else np.vstack([pts, then]))
    return pts


def _on_fiber(spec, r, coords):
    """make_point's fiber coordinates: `coords` on fiber r, defaults elsewhere."""
    return [coords if k == r else None for k in range(spec.m)]


def grw_einstein_residuals(spec, lam, grid, tolerance=CLOSED_FORM_TOL):
    """Residuals of the Einstein conditions for P = d/dt.

    Condition A: sum_i l_i (1 - b_i''/b_i) = lambda.
    Condition B (per fiber): lambda_i - b_i b_i'' - (l_i - 1) b_i'^2
        - b_i b_i' sum_{j != i} l_j b_j'/b_j + (nbar - 1) b_i b_i' = lambda b_i^2.

    The last coefficient is (nbar - 1), which the frame trace of the
    curvature formulas forces; for a single fiber it coincides with the
    l_i-weighted form.  Passing here is equivalent (to tolerance) to the
    generic-oracle Einstein property Ric = lambda g.
    """
    b = warping_samples(spec, grid)
    dims = np.array(spec.fiber_dims, dtype=float)
    nbar = spec.n_bar

    result = EinsteinCheckResult()
    cond_a = dims @ (1.0 - b[:, 2] / b[:, 0]) - lam
    result.add(ResidualReport.from_values("einstein-trace", cond_a, tolerance))
    ratio = b[:, 1] / b[:, 0]
    for i, f in enumerate(spec.fibers):
        bi, dbi, ddbi = b[i]
        cross = (dims @ ratio) - dims[i] * ratio[i]
        res = (
            f.einstein_constant
            - bi * ddbi
            - (dims[i] - 1) * dbi**2
            - bi * dbi * cross
            + (nbar - 1) * bi * dbi
            - lam * bi**2
        )
        result.add(ResidualReport.from_values(f"einstein-fiber-{i}", res, tolerance))
    return result


def pseudo_einstein_residuals(spec, P: TorsionVectorFieldSpec, lam, grid,
                              tolerance=CLOSED_FORM_TOL):
    """Residuals of the symmetrized-Ricci Einstein conditions for P on a fiber."""
    if spec.n_bar <= 2:
        raise DimensionTooSmall("pseudo-Einstein check needs total dimension > 2")
    if P is None or P.location == "base":
        raise UnsupportedP("pseudo-Einstein check requires P on a fiber")
    r = P.location
    b = warping_samples(spec, grid)
    dims = np.array(spec.fiber_dims, dtype=float)
    nbar = spec.n_bar
    ratio = b[:, 1] / b[:, 0]

    result = EinsteinCheckResult()
    cond_a = -(dims @ (b[:, 2] / b[:, 0])) - lam
    result.add(ResidualReport.from_values("pseudo-trace", cond_a, tolerance))

    for i, f in enumerate(spec.fibers):
        if i == r:
            continue
        bi, dbi, ddbi = b[i]
        cross = (dims @ ratio) - dims[i] * ratio[i]
        res = (
            f.einstein_constant
            - bi * ddbi
            - (dims[i] - 1) * dbi**2
            - bi * dbi * cross
            - lam * bi**2
        )
        result.add(ResidualReport.from_values(f"pseudo-fiber-{i}", res, tolerance))

    # Fiber r carries the torsion field: the tensor identity on frame pairs
    # (e_a, e_b) at three points of F_r, from one cache over the three, each
    # entry a (point, t) array.  Entries keep the per-point bits: dot
    # products are (1, l) @ (l, 1) products at each point (a matrix product
    # sums in another order), squares go through np.float_power (libm's pow),
    # as the cache's b2 does.
    samples = spec.fibers[r].sample_coords(3)
    on_r = spec.make_point([grid[0]], _on_fiber(spec, r, samples))
    _grid_points(spec, grid, _on_fiber(spec, r, samples[0]), then=on_r)
    lr = spec.fiber_dims[r]
    br, dbr, ddbr = b[r]
    br2 = np.float_power(br, 2.0)
    cross = np.array([dims @ ratio[:, j] for j in range(len(grid))]) - dims[r] * ratio[r]
    bracket = br * ddbr + (lr - 1) * np.float_power(dbr, 2.0) + br * dbr * cross + lam * br2
    c = StructuredGeometryCache(spec, P, on_r)
    gF, ricF = c.gF[r], c.RicF[r]
    # pi(e_a) = b_r^2 gP[a] and g(e_w, nabla_{e_v} P) = b_r^2 gnP[w][v]
    gP = [_row_dot(gF[:, a], c.Pc) for a in range(lr)]
    nP = [c.nablaF_V_P(e) for e in np.eye(lr)]
    gnP = [[_row_dot(gF[:, w], nP[v]) for v in range(lr)] for w in range(lr)]
    worst = []
    for a in range(lr):
        for bb in range(a, lr):
            lhs = ricF[:, a, bb, None] - gF[:, a, bb, None] * bracket
            rhs = (nbar - 1) * (br2 * gP[a] * (br2 * gP[bb])
                                - 0.5 * (br2 * gnP[bb][a] + br2 * gnP[a][bb]))
            worst.append(lhs - rhs)
    result.add(ResidualReport.from_values(f"pseudo-torsion-fiber-{r}",
                                          np.concatenate(worst), tolerance))
    return result


def _row_dot(u, v):
    """u . v at each row of two (N, l) stacks as an (N, 1) column, each
    with the bits of numpy's vector dot."""
    return (u[:, None, :] @ v[:, :, None])[:, 0]


def _closed_form_scalar(spec, P, grid):
    """The warping samples over the grid, and the closed-form scalar there
    for P = d/dt or absent, or without its P terms for P on a fiber."""
    b = warping_samples(spec, grid)
    dims = np.array(spec.fiber_dims, dtype=float)
    svals = np.array([f.scalar_curvature for f in spec.fibers])
    ratio = b[:, 1] / b[:, 0]

    total = -2.0 * dims @ (b[:, 2] / b[:, 0])
    total = total + svals @ (1.0 / b[:, 0] ** 2)
    total = total - (dims * (dims - 1)) @ ratio**2
    cross = np.zeros(len(grid))
    for i in range(spec.m):
        for j in range(spec.m):
            if i != j:
                cross += dims[i] * dims[j] * ratio[i] * ratio[j]
    total = total - cross

    if P is None or P.location != "base":
        return b, total
    if len(P.components) != 1:
        raise UnsupportedP("interval base expects a single P component")
    h, dh, _ = eval_grid(P.components[0], grid)
    if np.any(np.abs(h - 1.0) > 1e-12) or np.any(np.abs(dh) > 1e-12):
        raise UnsupportedP("closed-form scalar expression assumes P = d/dt")
    # P = d/dt contributes sum_i l_i + sum_{i,j} l_i l_j b_j'/b_j
    total = total + np.sum(dims)
    total = total + np.sum(dims) * (dims @ ratio)
    return b, total


def _fiber_p_scalar(spec, P, br, pts):
    """The P terms of the scalar curvature for P on fiber r, over the grid
    whose b_r values are `br`: one row per point of `pts`, which differ only
    on F_r, with g_F(P, P) and div_F P at each point.

    The terms are (1 - nbar) pi(P) + (nbar - 1) (l_r P(b_r)/b_r + div_F P),
    with pi(P) = b_r^2 g_F(P, P) and P(b_r) = 0 for warpings of t alone.
    """
    r, nbar = P.location, spec.n_bar
    c = StructuredGeometryCache(spec, P, pts)
    # g_F(P, P) at each point with the bits of numpy's Pc @ gF @ Pc
    gPP = (c.Pc[:, None, :] @ c.gF[r] @ c.Pc[:, :, None])[:, 0]
    divP = c.div_F_P()[:, None]
    invariants = np.hstack([gPP, divP])
    return (1 - nbar) * (np.float_power(br, 2.0) * gPP) + (nbar - 1) * divP, invariants


class ClosedFormScalar(NamedTuple):
    """The closed-form scalar curvature over a grid: its `values` (for P on
    a fiber at the fiber's first sample point), the warping samples `b` of
    `warping_samples`, and the `total` without the terms of P on a fiber."""

    values: np.ndarray
    b: np.ndarray
    total: np.ndarray


def _closed_form(spec, P, grid):
    """The ClosedFormScalar over the grid."""
    b, total = _closed_form_scalar(spec, P, grid)
    if P is None or P.location == "base":
        return ClosedFormScalar(total, b, total)
    terms, _ = _fiber_p_scalar(spec, P, b[P.location, 0], _grid_points(spec, grid)[:1])
    return ClosedFormScalar(total + terms[0], b, total)


def multiwarped_scalar(spec, P, grid, tolerance=ORACLE_TOL):
    """Compare the closed-form scalar expression with the semi-symmetric
    oracle; the symmetrized connection has the same scalar curvature.

    The oracle walks the grid in blocks of at most `_ORACLE_BLOCK_ELEMENTS`
    points times n_bar**4, so memory stays bounded on large grids.  Returns
    the report and the closed form over the grid, a ClosedFormScalar, which
    `constant_scalar_separation_check` takes instead of computing it again.
    """
    closed = _closed_form(spec, P, grid)
    pts = _grid_points(spec, grid)
    step = max(1, _ORACLE_BLOCK_ELEMENTS // spec.n_bar**4)
    oracle = np.concatenate([
        connection_curvature(ConnectionKind.SEMI_SYMMETRIC_NON_METRIC, spec, P,
                             pts[i:i + step]).scalar
        for i in range(0, len(pts), step)
    ])
    devs = closed.values - oracle
    return (ResidualReport.from_values("scalar-closed-form-vs-oracle", devs, tolerance),
            closed)


@dataclass
class ScalarConstancyReport:
    scalar_constant: bool
    scalar_spread: float
    tolerance: float
    grid_adequate: bool
    p_invariants_constant: object  # True/False or None when P not on a fiber
    message: str


def constant_scalar_separation_check(spec, P, grid, closed):
    """Constancy of the closed-form scalar curvature.

    Every built-in fiber has constant scalar curvature, so with P absent or
    on the base the scalar depends on t alone: its spread over the grid
    decides.  With P on fiber r it also depends on the point of F_r,
    through g(P, P) and div P: the spread is taken over the grid times five
    sample points of F_r, from the warping samples and the P-free total,
    and `p_invariants_constant` says whether those two invariants are
    constant over the samples.  Both are judged against CONSTANCY_TOL, which
    the report carries.  `closed` is the ClosedFormScalar of
    `multiwarped_scalar` over the same grid.  A grid with no points is an
    error, as in every other check.
    """
    grid = np.asarray(grid, dtype=float)
    if not len(grid):
        raise WarpcurvError("grid has no points")
    p_const = None
    if P is not None and P.location != "base":
        r = P.location
        samples = spec.fibers[r].sample_coords(5)
        on_r = spec.make_point([grid[0]], _on_fiber(spec, r, samples))
        _grid_points(spec, grid, then=on_r)
        terms, invariants = _fiber_p_scalar(spec, P, closed.b[r, 0], on_r)
        values = closed.total + terms
        p_const = bool(np.max(np.ptp(invariants, axis=0)) < CONSTANCY_TOL)
    else:
        values = closed.values
    spread = float(np.max(values) - np.min(values))
    grid_adequate = len(grid) >= 2
    constant = spread < CONSTANCY_TOL

    if not grid_adequate:
        msg = "grid too small to assess constancy"
    elif not constant:
        msg = f"scalar curvature not constant (spread {spread:.3e})"
    else:
        msg = "scalar curvature constant; all factor scalars constant"
        if p_const is False:
            msg = "scalar constant but torsion-field invariants vary over the fiber"
    return ScalarConstancyReport(
        scalar_constant=constant,
        scalar_spread=spread,
        tolerance=CONSTANCY_TOL,
        grid_adequate=grid_adequate,
        p_invariants_constant=p_const,
        message=msg,
    )
