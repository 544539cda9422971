"""Semi-symmetric non-metric and torsion-free affine connections.

Both connections are built from Levi-Civita data and the one-form
pi = g(., P):

* semi-symmetric non-metric:  nabla'_X Y = nabla_X Y + pi(Y) X
* symmetrized affine:         nabla~_X Y = nabla_X Y + pi(X) Y + pi(Y) X

The curvature of either connection comes from the modified coefficients
and their exact partials (`chart_core`): the structure-blind oracle that
the closed-form clauses of `structured` are checked against.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .chart_core import assemble_metric, curvature_from_coefficients, levi_civita_coefficients
from .geometry import ambient_components


class ConnectionKind(Enum):
    LEVI_CIVITA = "levi-civita"
    SEMI_SYMMETRIC_NON_METRIC = "semi-symmetric"
    SYMMETRIZED_AFFINE = "symmetrized"


def pi_and_dpi(spec, P, p, g, G):
    """pi[p, j] = pi_j and its exact partials dpi[p, i, j] = d_i pi_j at each
    row of an (N, n_bar) stack p, from the metrics g at the rows and their
    Levi-Civita coefficients G.

    That connection is metric, so d_i pi_j = g_jm (nabla_i P)^m + G^l_ij pi_l.
    """
    Pvec, dP = ambient_components(spec, P, p)  # dP[p, i, m] = d_i P^m
    pi = (g @ Pvec[:, :, None])[:, :, 0]
    nablaP = dP + np.einsum("zmin,zn->zim", G, Pvec)  # (nabla_{d_i} P)^m
    dpi = np.einsum("zjm,zim->zij", g, nablaP) + np.einsum("zlij,zl->zij", G, pi)
    return pi, dpi


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
    """Coefficients G[p, k, i, j] = G^k_ij of the requested connection and
    their exact partials dG[p, m, k, i, j] = d_m G^k_ij at each row of an
    (N, n_bar) stack p."""
    G, dG = levi_civita_coefficients(spec, p)
    if kind == ConnectionKind.LEVI_CIVITA:
        return G, dG
    pi, dpi = pi_and_dpi(spec, P, p, assemble_metric(spec, p), G)
    return _with_pi(kind, G, pi), _with_pi(kind, dG, dpi)


def connection_curvature(kind, spec, P, p):
    """Curvature of the requested connection from its exact coefficients at
    every row of an (N, n_bar) stack p, in one pass."""
    return curvature_from_coefficients(
        spec, lambda q: modified_coefficients(kind, spec, P, q), p
    )
