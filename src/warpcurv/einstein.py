"""Einstein, pseudo-Einstein and constant-scalar-curvature checks for
multiply warped products over a Lorentzian interval.

All checks are residual functionals sampled on a t-grid: the caller
supplies the candidate Einstein constant (or target scalar curvature) and
gets back one CheckRow per condition, the constancy of the scalar
curvature included.  Every check samples the warpings through
`warping_samples`, which rejects a sample that is not positive or whose
square or inverse square is not finite.  Closed-form family *generation*
lives in `families`; here we only verify.  The closed forms take warping
samples (`einstein_rows`, `scalar_samples`, `with_dt_terms`), so the
families evaluate these same formulas at their own warpings.
"""

from __future__ import annotations

import logging
import math
from typing import NamedTuple

import numpy as np

from .connections import ConnectionKind, connection_curvature
from .errors import DimensionTooSmall, UnsupportedP, WarpcurvError
from .exprs import eval_grid
from .geometry import IntervalBase, ProductManifoldSpec, TorsionVectorFieldSpec
from .structured import StructuredGeometryCache
from .verify import CheckRow

logger = logging.getLogger("warpcurv")

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


def _residual_row(check, values, tolerance):
    """The row of a check whose residual is the largest |value|; no values
    give 0."""
    worst = float(np.max(np.abs(np.asarray(values)))) if len(values) else 0.0
    return CheckRow.of(check, worst, tolerance)


def _require_interval_warped(spec: ProductManifoldSpec):
    if not isinstance(spec.base, IntervalBase):
        raise WarpcurvError("check requires a one-dimensional interval base")
    if spec.twisted:
        raise WarpcurvError("check requires plain (untwisted) warpings")


def warping_samples(spec, grid):
    """b_i, b_i', b_i'' for every fiber over the t-grid, shape (m, 3, len).

    Untwisted warpings on an interval base depend on t alone.  A grid with
    no points is an error: every check samples through here, and a check
    over no points would pass vacuously.  A warping that is not positive
    at some grid value raises the error of `check_point` at the first such
    point.  The closed forms take b_i^2 and 1/b_i^2: a sample at which
    either is not finite (b_i = 1e200 or 1e-200) is an error too, naming
    the warping, the sample and its t.
    """
    _require_interval_warped(spec)
    if not len(grid):
        raise WarpcurvError("grid has no points")
    out = np.array([eval_grid(w, grid) for w in spec.warpings])
    b = out[:, 0]
    low = b.min()
    if not low > 0.0:  # a NaN minimum fails too
        _grid_points(spec, grid)
    # every sample is positive now, so the largest one bounds b^2 and the
    # smallest one 1/b^2; in Python floats, which do not warn
    high, low = float(b.max()), float(low)
    if high * high == math.inf:
        raise not_finite_error(b, grid, np.unravel_index(b.argmax(), b.shape), "b^2")
    if low * low == 0.0 or 1.0 / (low * low) == math.inf:
        raise not_finite_error(b, grid, np.unravel_index(b.argmin(), b.shape), "1/b^2")
    return out


def not_finite_error(b, grid, at, what):
    """The WarpcurvError for warping samples b (m, T) over the grid whose
    `what` is not finite at b[at], naming the warping, the sample and its t."""
    return WarpcurvError(f"warping {at[0]} = {float(b[at])!r} at t = {float(grid[at[1]])!r}: "
                         f"{what} is not finite")


def _grid_points(spec, grid, fiber_coords=None, then=None):
    """The checked (len(grid), n_bar) stack of points at the grid values;
    the rows of `then` are checked after them, in the same call."""
    pts = spec.make_point(np.asarray(grid, dtype=float)[:, None], fiber_coords)
    spec.check_point(pts if then is None else np.vstack([pts, then]))
    return pts


def _on_fiber(spec, r, coords):
    """make_point's fiber coordinates: `coords` on fiber r, defaults elsewhere."""
    return [coords if k == r else None for k in range(spec.m)]


def einstein_rows(b, dims, lam, fiber_constants, dt_terms=True):
    """The trace row and the fiber rows, each (T,), of the Einstein
    conditions for P = d/dt at warping samples `b`, shape (m, 3, T), of
    fibers of dimensions `dims` and Einstein constants `fiber_constants`.

    Condition A: sum_i l_i (1 - b_i''/b_i) = lambda.
    Condition B (per fiber): lambda_i - b_i b_i'' - (l_i - 1) b_i'^2
        - b_i b_i' sum_{j != i} l_j b_j'/b_j + (nbar - 1) b_i b_i' = lambda b_i^2.

    The last coefficient is (nbar - 1) = sum_i l_i, which the frame trace
    of the curvature formulas forces; for a single fiber it coincides with
    the l_i-weighted form.  Without `dt_terms` the rows leave out the terms
    of P = d/dt, sum_i l_i in A and (nbar - 1) b_i b_i' in B: the rows of
    the symmetrized Ricci tensor for P on a fiber off that fiber.
    """
    nbar1 = float(sum(dims))
    dims = np.asarray(dims, dtype=float)
    quotient = b[:, 2] / b[:, 0]
    trace = (dims @ (1.0 - quotient) if dt_terms else -(dims @ quotient)) - lam
    ratio = b[:, 1] / b[:, 0]
    fibers = []
    for i, lam_i in enumerate(fiber_constants):
        bi, dbi, ddbi = b[i]
        cross = (dims @ ratio) - dims[i] * ratio[i]
        row = lam_i - bi * ddbi - (dims[i] - 1) * dbi**2 - bi * dbi * cross
        if dt_terms:
            row = row + nbar1 * bi * dbi
        fibers.append(row - lam * bi**2)
    return trace, fibers


def grw_einstein_residuals(spec, lam, grid, tolerance=CLOSED_FORM_TOL):
    """Residuals of the Einstein conditions for P = d/dt (`einstein_rows`)
    over the grid.  Passing here is equivalent (to tolerance) to the
    generic-oracle Einstein property Ric = lambda g."""
    trace, fibers = einstein_rows(warping_samples(spec, grid), spec.fiber_dims, lam,
                                  [f.einstein_constant for f in spec.fibers])
    return [_residual_row("einstein-trace", trace, tolerance),
            *(_residual_row(f"einstein-fiber-{i}", res, tolerance)
              for i, res in enumerate(fibers))]


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

    trace, fibers = einstein_rows(b, spec.fiber_dims, lam,
                                  [f.einstein_constant for f in spec.fibers], dt_terms=False)
    rows = [_residual_row("pseudo-trace", trace, tolerance),
            *(_residual_row(f"pseudo-fiber-{i}", res, tolerance)
              for i, res in enumerate(fibers) if i != r)]

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
    rows.append(_residual_row(f"pseudo-torsion-fiber-{r}", np.concatenate(worst), tolerance))
    return rows


def _row_dot(u, v):
    """u . v at each row of two (N, l) stacks as an (N, 1) column, each
    with the bits of numpy's vector dot."""
    return (u[:, None, :] @ v[:, :, None])[:, 0]


def scalar_samples(b, dims, svals):
    """The closed-form scalar curvature without P terms over warping samples
    `b`, shape (m, 3, T), of fibers of dimensions `dims` and scalar
    curvatures `svals` over an interval base."""
    dims = np.asarray(dims, dtype=float)
    ratio = b[:, 1] / b[:, 0]
    total = -2.0 * dims @ (b[:, 2] / b[:, 0])
    total = total + np.asarray(svals, dtype=float) @ (1.0 / b[:, 0] ** 2)
    total = total - (dims * (dims - 1)) @ ratio**2
    cross = np.zeros(b.shape[-1])
    for i in range(len(dims)):
        for j in range(len(dims)):
            if i != j:
                cross += dims[i] * dims[j] * ratio[i] * ratio[j]
    return total - cross


def with_dt_terms(total, b, dims):
    """`total` plus the terms of P = d/dt over the same warping samples:
    sum_i l_i + sum_{i,j} l_i l_j b_j'/b_j."""
    nbar1 = float(sum(dims))
    dims = np.asarray(dims, dtype=float)
    return total + nbar1 + nbar1 * (dims @ (b[:, 1] / b[:, 0]))


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
    """The ClosedFormScalar over the grid, for P = d/dt, absent or on a fiber."""
    b = warping_samples(spec, grid)
    total = scalar_samples(b, spec.fiber_dims, [f.scalar_curvature for f in spec.fibers])
    if P is not None and P.location == "base":
        if len(P.components) != 1:
            raise UnsupportedP("interval base expects a single P component")
        h, dh, _ = eval_grid(P.components[0], grid)
        if np.any(np.abs(h - 1.0) > 1e-12) or np.any(np.abs(dh) > 1e-12):
            raise UnsupportedP("closed-form scalar expression assumes P = d/dt")
        total = with_dt_terms(total, b, spec.fiber_dims)
    if P is None or P.location == "base":
        return ClosedFormScalar(total, b, total)
    terms, _ = _fiber_p_scalar(spec, P, b[P.location, 0], _grid_points(spec, grid)[:1])
    return ClosedFormScalar(total + terms[0], b, total)


def multiwarped_scalar(spec, P, grid, tolerance=ORACLE_TOL):
    """Compare the closed-form scalar expression with the semi-symmetric
    oracle; the symmetrized connection has the same scalar curvature.

    The oracle walks the grid in blocks of at most `_ORACLE_BLOCK_ELEMENTS`
    points times n_bar**4, so memory stays bounded on large grids.  Returns
    the row and the closed form over the grid, a ClosedFormScalar, which
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
    return _residual_row("scalar-closed-form-vs-oracle", devs, tolerance), closed


def constant_scalar_separation_check(spec, P, grid, closed):
    """The `scalar-constancy` row: constancy of the closed-form scalar
    curvature.

    Every built-in fiber has constant scalar curvature, so with P absent or
    on the base the scalar depends on t alone: its spread over the grid
    decides.  With P on fiber r it also depends on the point of F_r,
    through g(P, P) and div P: the spread is taken over the grid times five
    sample points of F_r, from the warping samples and the P-free total.
    The row holds the spread and CONSTANCY_TOL, and passes when the spread
    is below it on a grid of at least two points.  The verdict's reason
    goes to the INFO line `scalar constancy: ...`, which also says when the
    scalar is constant but g(P, P) or div P varies over the samples.
    `closed` is the ClosedFormScalar of `multiwarped_scalar` over the same
    grid.  A grid with no points is an error, as in every other check.
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
    elif p_const is False:
        msg = "scalar constant but torsion-field invariants vary over the fiber"
    else:
        msg = "scalar curvature constant; all factor scalars constant"
    logger.info("scalar constancy: %s", msg)
    return CheckRow("scalar-constancy", spread, CONSTANCY_TOL,
                    "pass" if constant and grid_adequate else "fail")
