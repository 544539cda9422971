"""Reference connection code that the tests hold the oracle against.

None of it runs in a task.  `curvature_via_relation` is a second curvature
path: the Levi-Civita curvature plus the closed-form correction of the
torsion-bearing connection.  `finite_difference_field` differentiates a
coefficient field by Richardson-extrapolated central differences, the
cross-check for the oracle's exact partials.  The torsion, non-metricity
and pi tensors, and the mixed base-fiber Ricci block, are read from the
oracle's coefficients and curvature.  Every function takes an (N, n_bar)
stack of points and returns a leading point axis, as the oracle does.
"""

import numpy as np

from warpcurv.chart_core import (
    CurvatureAtPoint,
    assemble_metric,
    curvature_from_coefficients,
    inverse_metric,
    metric_derivatives,
)
from warpcurv.connections import (
    ConnectionKind,
    _with_pi,
    connection_curvature,
    modified_coefficients,
    pi_and_dpi,
)
from warpcurv.errors import NumericalInstability
from warpcurv.geometry import ambient_components

FD_STEP = 1e-5
FD_INSTABILITY_TOL = 1e-4
RELATION_CHECK_TOL = 1e-4


def pi_covector(spec, P, p):
    """Covariant components pi[p, j] = g_jm P^m at the rows of p."""
    g = assemble_metric(spec, p)
    Pvec, _ = ambient_components(spec, P, p)
    return np.einsum("zjm,zm->zj", g, Pvec)


def torsion_tensor(kind, spec, P, p):
    """T^k_ij = G^k_ij - G^k_ji; vanishes except for the semi-symmetric case."""
    G, _ = modified_coefficients(kind, spec, P, p)
    return G - np.swapaxes(G, 2, 3)


def nonmetricity(kind, spec, P, p):
    """Components NM[p, i, j, k] = (nabla_{d_i} g)(d_j, d_k)."""
    g, dg, _ = metric_derivatives(spec, p)
    G, _ = modified_coefficients(kind, spec, P, p)
    return (
        dg
        - np.einsum("zmij,zmk->zijk", G, g)
        - np.einsum("zmik,zjm->zijk", G, g)
    )


def finite_difference_field(coeff_field):
    """The field q -> (G, dG) of a field q -> G over a stack of points, by
    central differences, dG[p, i] = d_i G[p].

    Each partial takes step FD_STEP and one Richardson extrapolation;
    disagreement between the two stencils beyond FD_INSTABILITY_TOL
    (relative to the field scale) raises NumericalInstability.
    """

    def field(p):
        G = coeff_field(p)
        n = p.shape[1]
        dG = np.zeros((len(G), n) + G.shape[1:])
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
            dG[:, i] = (4.0 * d_h2 - d_h) / 3.0
        return G, dG

    return field


def curvature_via_relation(kind, spec, P, p):
    """Curvature through the closed-form relation to Levi-Civita curvature.

    For the semi-symmetric connection the correction is
        g(Z, nabla_X P) Y - g(Z, nabla_Y P) X + pi(Z)[pi(Y) X - pi(X) Y],
    and the torsion-free variant adds [X(pi(Y)) - Y(pi(X))] Z, which on
    coordinate frames is the exterior derivative of pi (the pi([X,Y]) term
    drops since coordinate fields commute).
    """
    base = connection_curvature(ConnectionKind.LEVI_CIVITA, spec, None, p)
    if kind == ConnectionKind.LEVI_CIVITA:
        return base

    g = base.metric
    G = base.coefficients
    eye = np.eye(spec.n_bar)
    pi, dpi = pi_and_dpi(spec, P, p, g, G)
    # A[p, i, k] = g(d_k, nabla_{d_i} P) = d_i pi_k - G^l_ik pi_l
    A = dpi - np.einsum("zlik,zl->zik", G, pi)

    R = (
        base.riemann
        + np.einsum("zik,lj->zlijk", A, eye)
        - np.einsum("zjk,li->zlijk", A, eye)
        + np.einsum("zk,zj,li->zlijk", pi, pi, eye)
        - np.einsum("zk,zi,lj->zlijk", pi, pi, eye)
    )
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        dpi_anti = dpi - np.swapaxes(dpi, 1, 2)
        R = R + np.einsum("zij,lk->zlijk", dpi_anti, eye)

    ginv = inverse_metric(g, spec.point_stack(p))
    ricci = np.einsum("zjijk->zik", R)
    scalar = np.einsum("zik,zik->z", ginv, ricci)
    return CurvatureAtPoint(riemann=R, ricci=ricci, scalar=scalar, metric=g,
                            coefficients=_with_pi(kind, G, pi))


def relation_check(kind, spec, P, p):
    """`curvature_via_relation`, compared with the curvature of the modified
    coefficients differentiated by `finite_difference_field`: disagreement
    beyond RELATION_CHECK_TOL raises NumericalInstability."""
    result = curvature_via_relation(kind, spec, P, p)
    direct = curvature_from_coefficients(
        spec,
        finite_difference_field(lambda q: modified_coefficients(kind, spec, P, q)[0]),
        p,
    )
    dev = float(np.max(np.abs(direct.riemann - result.riemann)))
    if dev > RELATION_CHECK_TOL:
        raise NumericalInstability(
            f"relation-path and coefficient-path curvature differ by {dev:.3e}"
        )
    return result


def mixed_ricci_flat_check(spec, P, kind, points, tolerance=1e-8):
    """Whether the base-fiber Ricci blocks vanish over the points to
    `tolerance`, and their largest |entry|, from one oracle call."""
    ricci = connection_curvature(kind, spec, P, points).ricci
    base = spec.block_slice("base")
    worst = 0.0
    for i in range(spec.m):
        sl = spec.block_slice(i)
        for block in (ricci[:, base, sl], ricci[:, sl, base]):
            worst = max(worst, float(np.max(np.abs(block), initial=0.0)))
    return worst <= tolerance, worst
