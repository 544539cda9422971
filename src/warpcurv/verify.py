"""Two-path verification: structured component formulas against the
generic coordinate oracle.

For a given spec, torsion field and connection kind this enumerates every
argument block pattern the spec supports (covariant derivative pairs,
curvature triples, Ricci pairs, scalar) and compares the closed-form
values with the coordinate computation at a set of sample points.  Both
sides walk the stack of points once per call: one oracle call for all the
points, and one jet walk that gives every point's structured cache.  At
each point there is then one whole-tensor call each for the covariant
derivative, the curvature, the Ricci matrix and the scalar, each running
only the clauses of its layout's sweep plan, and over all the points one
|S - O| per tensor whose block maxima are the rows.  A pattern the plan
skips is zero on the structured side and still compared with the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .connections import connection_curvature
from .structured import (
    BlockVector,
    StructuredGeometryCache,
    coordinate_stack,
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


def _cov_stack(spec, block):
    """The coordinate vectors of `block`, then e0 + 0.37 e1 if it has two."""
    V = coordinate_stack(spec, block)
    if len(V.components) >= 2:
        mix = np.zeros(len(V.components))
        mix[0], mix[1] = 1.0, 0.37
        V = BlockVector(block, np.vstack([V.components, mix]))
    return V


def _cov_frames(spec, blocks):
    """One `_cov_stack` per block, the index of each stack's first vector
    among all the stacked vectors, and the block-diagonal matrix whose row
    A holds the ambient components of stacked vector A."""
    frames = [_cov_stack(spec, b) for b in blocks]
    ends = np.cumsum([len(F.components) for F in frames])
    rows = [0, *ends[:-1]]
    matrix = np.zeros((ends[-1], spec.n_bar))
    for F, r in zip(frames, rows):
        matrix[r:r + len(F.components), spec.block_slice(F.block)] = F.components
    return frames, rows, matrix


def _frame_contraction(spec, gamma, frames, rows, matrix):
    """sum_ij gamma[k, i, j] E[x, i] E[y, j] for the frame matrix E of
    `_cov_frames`, one stack of rows at a time with i on the stack's block:
    E is zero there off the block, and leaving out those products keeps the
    bits of the contraction with the whole of E."""
    out = np.empty((len(gamma), len(matrix), len(matrix)))
    for F, r in zip(frames, rows):
        out[:, r:r + len(F.components)] = np.einsum(
            "kij,xi,yj->kxy", gamma[:, spec.block_slice(F.block)], F.components, matrix)
    return out


def _block_max(dev, starts):
    """max of dev[:, :, s_1, ..., s_k] for each tuple of blocks, a (B,) * k
    array, over the points and components on the first two axes; `starts`
    holds each block's first index along every argument axis.  A maximum is
    exact, and max lets a NaN win, so that a non-finite deviation fails its
    row instead of vanishing from the max."""
    m = dev.max(axis=(0, 1))
    for axis in range(m.ndim):
        m = np.maximum.reduceat(m, starts, axis=axis)
    return m


def _block_label(block):
    return "base" if block == "base" else f"f{block}"


def oracle_comparison(spec, P, kind, points, tolerance=DEFAULT_TOLERANCE):
    """Compare every structured clause against the coordinate oracle.

    Returns one ClauseReport per block pattern, plus Ricci-matrix and
    scalar reports, with deviations maximized over the supplied points.
    At each point the structured curvature tensor is one call, and each
    curvature triple's row is the largest |S - R| over the points and the
    oracle's Riemann blocks `riemann[:, :, sX, sY, sZ]`.  The covariant derivative is one call
    over each block's coordinate vectors plus the mixed vector e0 + 0.37 e1
    of each block of dimension >= 2, and each pair's row is the largest
    |S - O| over its block, against the oracle's coefficients contracted
    with the same vectors.
    """
    blocks = ["base"] + list(range(spec.m))
    starts = [spec.block_slice(b).start for b in blocks]
    frames, rows, frame = _cov_frames(spec, blocks)

    stack = np.reshape(points, (-1, spec.n_bar))
    cur = connection_curvature(kind, spec, P, stack)
    caches = StructuredGeometryCache.at_points(spec, P, stack)
    sv = np.array([structured_covariant_derivative(c, kind, frames) for c in caches])
    ov = np.array([_frame_contraction(spec, g, frames, rows, frame) for g in cur.coefficients])
    worst_cov = _block_max(np.abs(sv - ov), rows)
    sr = np.array([structured_curvature(c, kind) for c in caches])
    worst_curv = _block_max(np.abs(sr - cur.riemann), starts)
    sric = np.array([structured_ricci_matrix(c, kind) for c in caches])
    worst_ric = np.max(np.abs(sric - cur.ricci))
    sscal = np.array([structured_scalar(c, kind) for c in caches])
    worst_scal = np.max(np.abs(sscal - cur.scalar))

    labels = [_block_label(b) for b in blocks]
    cov = {f"cov[{labels[ix]},{labels[iy]}]": float(worst_cov[ix, iy])
           for ix, iy in itertools.product(range(len(blocks)), repeat=2)}
    curv = {f"curv[{labels[ix]},{labels[iy]},{labels[iz]}]": float(worst_curv[ix, iy, iz])
            for ix, iy, iz in itertools.product(range(len(blocks)), repeat=3)}

    devs = {key: worst[key] for worst in (cov, curv) for key in sorted(worst)}
    devs["ricci-matrix"] = float(worst_ric)
    devs["scalar"] = float(worst_scal)
    return [ClauseReport(key, dev, tolerance, dev < tolerance) for key, dev in devs.items()]
