"""Generic coordinate-chart computations on product metrics.

Everything here is brute force and structure-blind: assemble the block
metric, differentiate it twice exactly with one order-2 jet walk through
the expression trees, and form the Levi-Civita coefficients together with
their exact partials (Taylor-mode forward differentiation), from which the
full curvature tensor follows at the point itself.  This is the
independent oracle that the component formulas elsewhere in the package
are tested against.

The oracle takes its points as a stack, an (N, n_bar) array, and nothing
else: one point is a one-row stack.  The jet walk runs once over the whole
stack (`exprs.eval_stack`), whose value, gradient and Hessian arrays fill
g, dg and d2g with one index-array write each, and every tensor carries a
leading point axis, so a grid costs one call.  The point axis is only a
list of points; each row's result has the bits a one-row stack of that
point gives.  The test suite holds the exact partials against central
differences and the curvature against its closed-form relation to the
Levi-Civita one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInstability, SingularMetric
from .exprs import Const, Pow, Prod, eval_stack
from .geometry import ProductManifoldSpec


def metric_exprs(spec: ProductManifoldSpec):
    """(i, j, ScalarExpr) for every entry of the block-diagonal metric that
    is not identically zero."""
    cached = getattr(spec, "_metric_expr_cache", None)
    if cached is not None:
        return cached
    entries = [(a, a, Const(float(s))) for a, s in enumerate(spec.base.signs)]
    for i, fiber in enumerate(spec.fibers):
        start = spec.block_slice(i).start
        gf = fiber.metric_exprs(spec.fiber_coord_names(i))
        b2 = Pow(spec.warpings[i], 2.0)
        for a, b in itertools.product(range(fiber.dim), repeat=2):
            if not (isinstance(gf[a][b], Const) and gf[a][b].value == 0.0):
                entries.append((start + a, start + b, Prod(b2, gf[a][b])))
    spec._metric_expr_cache = entries
    return entries


def _metric_walk(spec, pts, order):
    """The index lists (i, j) of the metric entries that are not
    identically zero, and eval_stack's (val, grad, hess) of those entries
    over a checked stack of points."""
    spec.check_point(pts)
    i, j, trees = zip(*metric_exprs(spec))
    return (list(i), list(j)), eval_stack(trees, spec.coord_names, pts, order)


def assemble_metric(spec: ProductManifoldSpec, p) -> np.ndarray:
    """Metric matrix g[p, i, j] at each row of an (N, n_bar) stack p;
    validates chart membership and warping positivity."""
    pts = spec.point_stack(p)
    (i, j), (val, _, _) = _metric_walk(spec, pts, order=0)
    g = np.zeros((len(pts), spec.n_bar, spec.n_bar))
    g[:, i, j] = val
    return g


def metric_derivatives(spec: ProductManifoldSpec, p):
    """Metric at each row of an (N, n_bar) stack p with its exact first and
    second partials, from one order-2 jet walk over the entries: g[p, i, j],
    dg[p, k, i, j] = d_k g_ij and d2g[p, k, l, i, j] = d_k d_l g_ij."""
    pts = spec.point_stack(p)
    (i, j), (val, grad, hess) = _metric_walk(spec, pts, order=2)
    N, n = len(pts), spec.n_bar
    g, dg, d2g = np.zeros((N, n, n)), np.zeros((N, n, n, n)), np.zeros((N, n, n, n, n))
    g[:, i, j] = val
    dg[:, :, i, j] = grad.transpose(0, 2, 1)
    d2g[:, :, :, i, j] = hess.transpose(0, 2, 3, 1)
    return g, dg, d2g


def inverse_metric(g, points):
    """Inverse of each metric of a stack g, at the rows of the (N, n_bar)
    `points`.  A singular or non-finite inverse raises SingularMetric for
    the first such metric, naming its point."""
    try:
        ginv = np.linalg.inv(g)
        if np.isfinite(ginv).all():
            return ginv
    except np.linalg.LinAlgError:
        pass
    # the first metric that fails, as one metric at a time finds it
    for k, gk in enumerate(g):
        try:
            if np.isfinite(np.linalg.inv(gk)).all():
                continue
            why = "metric inverse is not finite"
        except np.linalg.LinAlgError as exc:
            why = str(exc)
        raise SingularMetric(f"{why} at {points[k].tolist()}")


def levi_civita_coefficients(spec: ProductManifoldSpec, p):
    """Christoffel symbols G[p, k, i, j] = G^k_ij of the Levi-Civita
    connection and their exact partials dG[p, m, k, i, j] = d_m G^k_ij at
    each row of an (N, n_bar) stack p."""
    pts = spec.point_stack(p)
    g, dg, d2g = metric_derivatives(spec, pts)
    ginv = inverse_metric(g, pts)
    N, n = len(pts), spec.n_bar
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, and dT[m] = d_m T
    T = np.einsum("zijl->zlij", dg) + np.einsum("zjil->zlij", dg) - dg
    dT = np.einsum("zmijl->zmlij", d2g) + np.einsum("zmjil->zmlij", d2g) - d2g
    G = 0.5 * np.einsum("zkl,zlij->zkij", ginv, T)
    # d_m G^k_ij = 1/2 (d_m g^kl) T_lij + 1/2 g^kl d_m T_lij,
    # with d_m g^kl = -g^ka (d_m g_ab) g^bl
    ginv = ginv[:, None]
    dginv = -(ginv @ dg @ ginv)
    dG = 0.5 * (dginv @ T.reshape(N, 1, n, n * n) + ginv @ dT.reshape(N, n, n, n * n))
    return G, dG.reshape(N, n, n, n, n)


@dataclass
class CurvatureAtPoint:
    """Full curvature data of one connection at each point of a stack, a
    leading point axis on every field.

    riemann[p, l, i, j, k] are the components of R(d_i, d_j)d_k along d_l;
    ricci[p, i, k] = riemann[p, j, i, j, k] summed over j (orthonormal-frame
    trace with signature signs); scalar[p] is the signed trace of ricci;
    coefficients[p, k, i, j] = G^k_ij are the connection's coefficients.
    """

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: np.ndarray
    metric: np.ndarray
    coefficients: np.ndarray


def curvature_from_coefficients(spec, coeff_field, p) -> CurvatureAtPoint:
    """Curvature of a coefficient field at each row of an (N, n_bar) stack p.

    `coeff_field(pts)` returns the coefficients G[p, k, i, j] = G^k_ij at
    the stack's rows and their partials dG[p, m, k, i, j] = d_m G^k_ij.  A
    non-finite coefficient, partial or curvature component raises
    NumericalInstability, naming the first point where it occurs.
    """
    pts = spec.point_stack(p)
    G, dG = coeff_field(pts)
    # R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik;
    # an overflow is reported by the finiteness check, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        R = (
            np.einsum("ziljk->zlijk", dG)
            - np.einsum("zjlik->zlijk", dG)
            + np.einsum("zlim,zmjk->zlijk", G, G)
            - np.einsum("zljm,zmik->zlijk", G, G)
        )
    bad = ~np.logical_and.reduce([np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
                                  for a in (G, dG, R)])
    if bad.any():
        where = pts[np.argmax(bad)].tolist()
        raise NumericalInstability(f"connection or curvature not finite at {where}")
    g = assemble_metric(spec, pts)
    ginv = inverse_metric(g, pts)
    ricci = np.einsum("zjijk->zik", R)
    scalar = np.einsum("zik,zik->z", ginv, ricci)
    return CurvatureAtPoint(riemann=R, ricci=ricci, scalar=scalar, metric=g, coefficients=G)
