"""Generic coordinate-chart computations on product metrics.

Everything here is brute force and structure-blind: assemble the block
metric, differentiate it twice exactly with one order-2 jet walk through
the expression trees, and form the Levi-Civita coefficients together with
their exact partials (Taylor-mode forward differentiation), from which the
full curvature tensor follows at the point itself.  This is the
independent oracle that the component formulas elsewhere in the package
are tested against.

`finite_difference_field` gives any coefficient field partials by
Richardson-extrapolated central differences, an explicit cross-check for
fields that carry no exact ones; it raises NumericalInstability when its
two stencils disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalInstability, SingularMetric
from .exprs import Const, Pow, Prod, jet_env
from .geometry import ProductManifoldSpec

FD_STEP = 1e-5
FD_INSTABILITY_TOL = 1e-4


def metric_exprs(spec: ProductManifoldSpec):
    """Block-diagonal matrix of ScalarExpr entries for the full metric."""
    cached = getattr(spec, "_metric_expr_cache", None)
    if cached is not None:
        return cached
    nbar = spec.n_bar
    entries = [[Const(0.0) for _ in range(nbar)] for _ in range(nbar)]
    for a, s in enumerate(spec.base.signs):
        entries[a][a] = Const(float(s))
    for i, fiber in enumerate(spec.fibers):
        sl = spec.block_slice(i)
        names = spec.fiber_coord_names(i)
        gf = fiber.geometry.metric_exprs(names)
        b2 = Pow(spec.warpings[i], 2.0)
        for a in range(fiber.dim):
            for b in range(fiber.dim):
                if isinstance(gf[a][b], Const) and gf[a][b].value == 0.0:
                    continue
                entries[sl.start + a][sl.start + b] = Prod(b2, gf[a][b])
    spec._metric_expr_cache = entries
    return entries


def assemble_metric(spec: ProductManifoldSpec, p) -> np.ndarray:
    """Metric matrix at p; validates chart membership and warping positivity."""
    p = np.asarray(p, dtype=float)
    spec.check_point(p)
    entries = metric_exprs(spec)
    env = dict(zip(spec.coord_names, map(float, p)))
    nbar = spec.n_bar
    g = np.zeros((nbar, nbar))
    for i in range(nbar):
        for j in range(nbar):
            e = entries[i][j]
            if isinstance(e, Const):
                g[i, j] = e.value
            else:
                g[i, j] = float(e.eval(env))
    return g


def metric_derivatives(spec: ProductManifoldSpec, p):
    """Metric at p with its exact first and second partials, from one
    order-2 jet walk over the entries: g[i, j], dg[k, i, j] = d_k g_ij and
    d2g[k, l, i, j] = d_k d_l g_ij."""
    p = np.asarray(p, dtype=float)
    spec.check_point(p)
    entries = metric_exprs(spec)
    env = jet_env(spec.coord_names, p, order=2)
    nbar = spec.n_bar
    g = np.zeros((nbar, nbar))
    dg = np.zeros((nbar, nbar, nbar))
    d2g = np.zeros((nbar, nbar, nbar, nbar))
    for i in range(nbar):
        for j in range(nbar):
            e = entries[i][j]
            val = e.value if isinstance(e, Const) else e.eval(env)
            if isinstance(val, float):
                g[i, j] = val
                continue
            g[i, j] = val.val
            dg[:, i, j] = val.grad
            d2g[:, :, i, j] = val.hess
    return g, dg, d2g


def inverse_metric(g):
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc)) from exc
    if not np.all(np.isfinite(ginv)):
        raise SingularMetric("metric inverse is not finite")
    return ginv


def levi_civita_coefficients(spec: ProductManifoldSpec, p):
    """Christoffel symbols G[k, i, j] = G^k_ij of the Levi-Civita connection
    and their exact partials dG[m, k, i, j] = d_m G^k_ij."""
    g, dg, d2g = metric_derivatives(spec, p)
    ginv = inverse_metric(g)
    n = spec.n_bar
    # T[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, and dT[m] = d_m T
    T = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    dT = np.einsum("mijl->mlij", d2g) + np.einsum("mjil->mlij", d2g) - d2g
    G = 0.5 * np.einsum("kl,lij->kij", ginv, T)
    # d_m G^k_ij = 1/2 (d_m g^kl) T_lij + 1/2 g^kl d_m T_lij,
    # with d_m g^kl = -g^ka (d_m g_ab) g^bl
    dginv = -(ginv @ dg @ ginv)
    dG = 0.5 * (dginv @ T.reshape(n, n * n) + ginv @ dT.reshape(n, n, n * n))
    return G, dG.reshape(n, n, n, n)


@dataclass
class CurvatureAtPoint:
    """Full curvature data of one connection at one chart point.

    riemann[l, i, j, k] are the components of R(d_i, d_j)d_k along d_l;
    ricci[i, k] = riemann[j, i, j, k] summed over j (orthonormal-frame trace
    with signature signs); scalar is the signed trace of ricci;
    coefficients[k, i, j] = G^k_ij are the connection's coefficients.
    """

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float
    metric: np.ndarray
    coefficients: np.ndarray


def curvature_from_coefficients(spec, coeff_field, p) -> CurvatureAtPoint:
    """Curvature of a coefficient field at p.

    `coeff_field(q)` returns the coefficients G[k, i, j] = G^k_ij at q and
    their partials dG[m, k, i, j] = d_m G^k_ij.  A non-finite coefficient,
    partial or curvature component raises NumericalInstability.
    """
    p = np.asarray(p, dtype=float)
    G, dG = coeff_field(p)
    # R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik;
    # an overflow is reported by the finiteness check, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        R = (
            np.einsum("iljk->lijk", dG)
            - np.einsum("jlik->lijk", dG)
            + np.einsum("lim,mjk->lijk", G, G)
            - np.einsum("ljm,mik->lijk", G, G)
        )
    if not (np.isfinite(G).all() and np.isfinite(dG).all() and np.isfinite(R).all()):
        raise NumericalInstability(f"connection or curvature not finite at {p.tolist()}")
    g = assemble_metric(spec, p)
    ginv = inverse_metric(g)
    ricci = np.einsum("jijk->ik", R)
    scalar = float(np.einsum("ik,ik->", ginv, ricci))
    return CurvatureAtPoint(riemann=R, ricci=ricci, scalar=scalar, metric=g,
                            coefficients=G)


def finite_difference_field(coeff_field):
    """The field q -> (G, dG) of a field q -> G, by central differences.

    Each partial takes step FD_STEP and one Richardson extrapolation;
    disagreement between the two stencils beyond FD_INSTABILITY_TOL
    (relative to the field scale) raises NumericalInstability.  It is the
    cross-check for fields without exact partials.
    """

    def field(p):
        G = coeff_field(p)
        n = p.shape[0]
        dG = np.zeros((n,) + G.shape)
        scale = max(1.0, float(np.max(np.abs(G))))
        for i in range(n):
            e = np.zeros(n)
            e[i] = FD_STEP
            d_h = (coeff_field(p + e) - coeff_field(p - e)) / (2 * FD_STEP)
            d_h2 = (coeff_field(p + e / 2) - coeff_field(p - e / 2)) / FD_STEP
            if np.max(np.abs(d_h2 - d_h)) > FD_INSTABILITY_TOL * scale:
                raise NumericalInstability(
                    f"coefficient-field derivative unstable along coordinate {i}"
                )
            dG[i] = (4.0 * d_h2 - d_h) / 3.0
        return G, dG

    return field


def levi_civita_curvature(spec, p) -> CurvatureAtPoint:
    return curvature_from_coefficients(
        spec, lambda q: levi_civita_coefficients(spec, q), p
    )
