"""Two-path verification: structured component formulas against the
generic coordinate oracle.

For a given spec, torsion field and connection kind this enumerates every
argument block pattern the spec supports (covariant derivative pairs,
curvature triples, Ricci pairs, scalar) and compares the closed-form
component value with the coordinate computation at a set of sample points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .connections import ConnectionKind, connection_curvature
from .structured import (
    BlockVector,
    StructuredGeometryCache,
    structured_covariant_derivative,
    structured_curvature,
    structured_ricci_matrix,
    structured_scalar,
)

DEFAULT_TOLERANCE = 1e-6


@dataclass
class ClauseReport:
    clause: str
    max_deviation: float
    tolerance: float
    passed: bool


def _pattern_vectors(spec, block):
    """Pattern vectors of `block`, each paired with its ambient components."""
    sl = spec.block_slice(block)
    d = sl.stop - sl.start
    comps = []
    for a in range(d):
        e = np.zeros(d)
        e[a] = 1.0
        comps.append(e)
    if d >= 2:
        mix = np.zeros(d)
        mix[0], mix[1] = 1.0, 0.37
        comps.append(mix)
    out = []
    for c in comps:
        ambient = np.zeros(spec.n_bar)
        ambient[sl] = c
        out.append((BlockVector(block, c), ambient))
    return out


def _worst(dev, diff):
    """max(dev, max|diff|), where a NaN on either side wins, so that a
    non-finite deviation fails its row instead of vanishing from the max."""
    x = float(np.max(np.abs(diff)))
    return x if x > dev or x != x else dev


def _block_label(block):
    return "base" if block == "base" else f"f{block}"


def oracle_comparison(spec, P, kind, points, tolerance=DEFAULT_TOLERANCE):
    """Compare every structured clause against the coordinate oracle.

    Returns one ClauseReport per block pattern, plus Ricci-matrix and
    scalar reports, with deviations maximized over the supplied points.
    Curvature triples run over each block's first two coordinate vectors,
    so the oracle value R(d_i, d_j)d_k is read off its tensor by index.
    """
    blocks = ["base"] + list(range(spec.m))
    cov_vecs = {b: _pattern_vectors(spec, b) for b in blocks}
    # A block's first two patterns (one, in a 1-d block) are unit vectors.
    curv_vecs = {b: [(X, int(np.argmax(xe))) for X, xe in cov_vecs[b][:2]]
                 for b in blocks}
    worst_cov = {}
    worst_curv = {}
    worst_ric = 0.0
    worst_scal = 0.0

    for p in points:
        cache = StructuredGeometryCache(spec, P, p)
        cur = connection_curvature(kind, spec, P, p)
        G = cur.coefficients

        for bx, by in itertools.product(blocks, repeat=2):
            key = f"cov[{_block_label(bx)},{_block_label(by)}]"
            dev = worst_cov.get(key, 0.0)
            for X, xe in cov_vecs[bx]:
                for Y, ye in cov_vecs[by]:
                    sv = structured_covariant_derivative(spec, P, kind, X, Y, p,
                                                         cache=cache)
                    ov = np.einsum("kij,i,j->k", G, xe, ye)
                    dev = _worst(dev, sv - ov)
            worst_cov[key] = dev

        for bx, by, bz in itertools.product(blocks, repeat=3):
            key = f"curv[{_block_label(bx)},{_block_label(by)},{_block_label(bz)}]"
            dev = worst_curv.get(key, 0.0)
            for X, i in curv_vecs[bx]:
                for Y, j in curv_vecs[by]:
                    for Z, k in curv_vecs[bz]:
                        sv = structured_curvature(spec, P, kind, X, Y, Z, p,
                                                  cache=cache)
                        ov = cur.riemann[:, i, j, k]
                        dev = _worst(dev, sv - ov)
            worst_curv[key] = dev

        sric = structured_ricci_matrix(spec, P, kind, p, cache=cache)
        worst_ric = _worst(worst_ric, sric - cur.ricci)
        sscal = structured_scalar(spec, P, kind, p, cache=cache)
        worst_scal = _worst(worst_scal, sscal - cur.scalar)

    reports = []
    for key in sorted(worst_cov):
        reports.append(ClauseReport(key, worst_cov[key], tolerance,
                                    worst_cov[key] < tolerance))
    for key in sorted(worst_curv):
        reports.append(ClauseReport(key, worst_curv[key], tolerance,
                                    worst_curv[key] < tolerance))
    reports.append(ClauseReport("ricci-matrix", worst_ric, tolerance,
                                worst_ric < tolerance))
    reports.append(ClauseReport("scalar", worst_scal, tolerance,
                                worst_scal < tolerance))
    return reports


def oracle_comparison_all_kinds(spec, P, points, tolerance=DEFAULT_TOLERANCE):
    """Run the comparison for all three connection kinds."""
    out = {}
    for kind in (ConnectionKind.LEVI_CIVITA,
                 ConnectionKind.SEMI_SYMMETRIC_NON_METRIC,
                 ConnectionKind.SYMMETRIZED_AFFINE):
        out[kind] = oracle_comparison(spec, P, kind, points, tolerance)
    return out
