"""Semi-symmetric non-metric and torsion-free affine connections.

Both connections are built from Levi-Civita data and the one-form
pi = g(., P):

* semi-symmetric non-metric:  nabla'_X Y = nabla_X Y + pi(Y) X
* symmetrized affine:         nabla~_X Y = nabla_X Y + pi(X) Y + pi(Y) X

The curvature of either connection is computed two independent ways: from
the modified coefficients and their exact partials (`chart_core`) and from
the closed-form relation to the Levi-Civita curvature; the two must agree.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .chart_core import (
    CurvatureAtPoint,
    assemble_metric,
    curvature_from_coefficients,
    finite_difference_field,
    inverse_metric,
    levi_civita_coefficients,
    levi_civita_curvature,
    metric_derivatives,
)
from .errors import NumericalInstability
from .geometry import ambient_components, as_given

RELATION_CHECK_TOL = 1e-4


class ConnectionKind(Enum):
    LEVI_CIVITA = "levi-civita"
    SEMI_SYMMETRIC_NON_METRIC = "semi-symmetric"
    SYMMETRIZED_AFFINE = "symmetrized"


def pi_covector(spec, P, p):
    """Covariant components pi_j = g_jm P^m at p."""
    g = assemble_metric(spec, p)
    Pvec = ambient_components(spec, P, p)
    return g @ Pvec


def pi_and_dpi(spec, P, p, g, G):
    """pi_j and its exact partials dpi[i, j] = d_i pi_j at p, from the metric
    g at p and its Levi-Civita coefficients G; a leading point axis on all
    four for a stack.

    That connection is metric, so d_i pi_j = g_jm (nabla_i P)^m + G^l_ij pi_l.
    """
    pts = spec.point_stack(p)
    N, n = len(pts), spec.n_bar
    g, G = np.reshape(g, (N, n, n)), np.reshape(G, (N, n, n, n))
    Pvec, dP = ambient_components(spec, P, pts, order=1)  # dP[i, m] = d_i P^m
    pi = (g @ Pvec[:, :, None])[:, :, 0]
    nablaP = dP + np.einsum("zmin,zn->zim", G, Pvec)  # (nabla_{d_i} P)^m
    dpi = np.einsum("zjm,zim->zij", g, nablaP) + np.einsum("zlij,zl->zij", G, pi)
    return as_given(p, pi), as_given(p, dpi)


def _with_pi(kind, G, pi):
    """G^k_ij + pi_j delta^k_i, plus pi_i delta^k_j for the symmetrized kind.

    A leading derivative axis on G and pi rides along, so the same call
    turns the partials of the Levi-Civita coefficients into those of the
    connection.
    """
    eye = np.eye(pi.shape[-1])
    G = G + np.einsum("ki,...j->...kij", eye, pi)
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        G = G + np.einsum("kj,...i->...kij", eye, pi)
    return G


def modified_coefficients(kind, spec, P, p):
    """Coefficients G[k, i, j] = G^k_ij of the requested connection at p and
    their exact partials dG[m, k, i, j] = d_m G^k_ij; a leading point axis
    for a stack."""
    G, dG = levi_civita_coefficients(spec, p)
    if kind == ConnectionKind.LEVI_CIVITA:
        return G, dG
    pi, dpi = pi_and_dpi(spec, P, p, assemble_metric(spec, p), G)
    return _with_pi(kind, G, pi), _with_pi(kind, dG, dpi)


def torsion_tensor(kind, spec, P, p):
    """T^k_ij = G^k_ij - G^k_ji; vanishes except for the semi-symmetric case."""
    G, _ = modified_coefficients(kind, spec, P, p)
    return G - np.transpose(G, (0, 2, 1))


def nonmetricity(kind, spec, P, p):
    """Components NM[i, j, k] = (nabla_{d_i} g)(d_j, d_k)."""
    g, dg, _ = metric_derivatives(spec, p)
    G, _ = modified_coefficients(kind, spec, P, p)
    return (
        dg
        - np.einsum("mij,mk->ijk", G, g)
        - np.einsum("mik,jm->ijk", G, g)
    )


def curvature_via_relation(kind, spec, P, p, check=True):
    """Curvature through the closed-form relation to Levi-Civita curvature.

    For the semi-symmetric connection the correction is
        g(Z, nabla_X P) Y - g(Z, nabla_Y P) X + pi(Z)[pi(Y) X - pi(X) Y],
    and the torsion-free variant adds [X(pi(Y)) - Y(pi(X))] Z, which on
    coordinate frames is the exterior derivative of pi (the pi([X,Y]) term
    drops since coordinate fields commute).

    When `check` is set the result is compared against the curvature of
    `modified_coefficients` differentiated by `finite_difference_field`;
    disagreement beyond RELATION_CHECK_TOL raises NumericalInstability.
    """
    base = levi_civita_curvature(spec, p)
    if kind == ConnectionKind.LEVI_CIVITA:
        return base

    g = base.metric
    G = base.coefficients
    eye = np.eye(spec.n_bar)
    pi, dpi = pi_and_dpi(spec, P, p, g, G)
    # A[i, k] = g(d_k, nabla_{d_i} P) = d_i pi_k - G^l_ik pi_l
    A = dpi - np.einsum("lik,l->ik", G, pi)

    R = (
        base.riemann
        + np.einsum("ik,lj->lijk", A, eye)
        - np.einsum("jk,li->lijk", A, eye)
        + np.einsum("k,j,li->lijk", pi, pi, eye)
        - np.einsum("k,i,lj->lijk", pi, pi, eye)
    )
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        dpi_anti = dpi - dpi.T
        R = R + np.einsum("ij,lk->lijk", dpi_anti, eye)

    ginv = inverse_metric(g)
    ricci = np.einsum("jijk->ik", R)
    scalar = float(np.einsum("ik,ik->", ginv, ricci))
    result = CurvatureAtPoint(riemann=R, ricci=ricci, scalar=scalar, metric=g,
                              coefficients=_with_pi(kind, G, pi))

    if check:
        direct = curvature_from_coefficients(
            spec,
            finite_difference_field(lambda q: modified_coefficients(kind, spec, P, q)[0]),
            p,
        )
        dev = float(np.max(np.abs(direct.riemann - R)))
        if dev > RELATION_CHECK_TOL:
            raise NumericalInstability(
                f"relation-path and coefficient-path curvature differ by {dev:.3e}"
            )
    return result


def connection_curvature(kind, spec, P, p):
    """Curvature of the requested connection from its exact coefficients, at
    a point or at every row of an (N, n_bar) stack in one pass."""
    return curvature_from_coefficients(
        spec, lambda q: modified_coefficients(kind, spec, P, q), p
    )
