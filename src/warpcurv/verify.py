"""Two-path verification: structured component formulas against the
generic coordinate oracle.

For a given spec, torsion field and connection kind this enumerates every
argument block pattern the spec supports (covariant derivative pairs,
curvature triples, Ricci pairs, scalar) and compares the closed-form
values with the coordinate computation at a set of sample points.  Both
sides take the stack of points in one call each: one oracle call, and one
structured cache from one jet walk.  The covariant derivative, the
curvature, the Ricci matrix and the scalar are then one call per stack
each, running the clauses of the layout's sweep plan once for all the
points, and there is one |S - O| per tensor whose block maxima are the
rows.  A pattern the plan skips is zero on the structured side and still
compared with the oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .connections import connection_curvature
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


@functools.lru_cache(maxsize=64)
def _cov_frames(n, dims):
    """The frames of base dimension n and fiber dimensions dims, made once
    per layout: one stack per block, base first, of the block's coordinate
    vectors, then e0 + 0.37 e1 if it has two; the index of each stack's
    first vector among all the stacked vectors; and the block-diagonal
    matrix whose row A holds the ambient components of stacked vector A."""
    frames = []
    for block, d in zip(["base", *range(len(dims))], (n, *dims)):
        V = np.eye(d)
        if d >= 2:
            mix = np.zeros(d)
            mix[0], mix[1] = 1.0, 0.37
            V = np.vstack([V, mix])
        frames.append(BlockVector(block, V))
    ends = np.cumsum([len(F.components) for F in frames])
    rows = [0, *ends[:-1]]
    starts = np.cumsum([0, n, *dims])
    matrix = np.zeros((ends[-1], starts[-1]))
    for F, r, a, b in zip(frames, rows, starts, starts[1:]):
        matrix[r:r + len(F.components), a:b] = F.components
    return frames, rows, matrix


def _frame_contraction(spec, gamma, frames, rows, matrix):
    """sum_ij gamma[p, k, i, j] E[x, i] E[y, j] at each point for the frame
    matrix E of `_cov_frames`, one stack of rows at a time with i on the
    stack's block: E is zero there off the block, and leaving out those
    products keeps the bits of the contraction with the whole of E."""
    out = np.empty((len(gamma), gamma.shape[1], len(matrix), len(matrix)))
    for F, r in zip(frames, rows):
        out[:, :, r:r + len(F.components)] = np.einsum(
            "pkij,xi,yj->pkxy", gamma[:, :, spec.block_slice(F.block)], F.components, matrix)
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


@functools.lru_cache(maxsize=16)
def _report_rows(m):
    """(key, tensor, block indices) of each covariant pair (tensor 0), then
    of each curvature triple (tensor 1), for m fibers, each group in key
    order."""
    labels = ["base", *(f"f{i}" for i in range(m))]
    cov = {f"cov[{labels[x]},{labels[y]}]": (x, y)
           for x, y in itertools.product(range(m + 1), repeat=2)}
    curv = {f"curv[{labels[x]},{labels[y]},{labels[z]}]": (x, y, z)
            for x, y, z in itertools.product(range(m + 1), repeat=3)}
    return ([(key, 0, cov[key]) for key in sorted(cov)]
            + [(key, 1, curv[key]) for key in sorted(curv)])


def oracle_comparison(spec, P, kind, points, tolerance=DEFAULT_TOLERANCE):
    """Compare every structured clause against the coordinate oracle.

    Returns one ClauseReport per block pattern, plus Ricci-matrix and
    scalar reports, with deviations maximized over the supplied points.
    The structured curvature tensor is one call over all the points, and
    each curvature triple's row is the largest |S - R| over the points and
    the oracle's Riemann blocks `riemann[:, :, sX, sY, sZ]`.  The covariant
    derivative is one call over each block's coordinate vectors plus the
    mixed vector e0 + 0.37 e1 of each block of dimension >= 2, and each
    pair's row is the largest |S - O| over its block, against the oracle's
    coefficients contracted with the same vectors.
    """
    blocks = ["base"] + list(range(spec.m))
    starts = [spec.block_slice(b).start for b in blocks]
    frames, rows, frame = _cov_frames(spec.n, spec.fiber_dims)

    stack = np.reshape(points, (-1, spec.n_bar))
    cur = connection_curvature(kind, spec, P, stack)
    cache = StructuredGeometryCache(spec, P, stack)
    sv = structured_covariant_derivative(cache, kind, frames)
    ov = _frame_contraction(spec, cur.coefficients, frames, rows, frame)
    worst_cov = _block_max(np.abs(sv - ov), rows)
    worst_curv = _block_max(np.abs(structured_curvature(cache, kind) - cur.riemann), starts)
    worst_ric = np.max(np.abs(structured_ricci_matrix(cache, kind) - cur.ricci))
    worst_scal = np.max(np.abs(structured_scalar(cache, kind) - cur.scalar))

    worst = (worst_cov, worst_curv)
    devs = {key: float(worst[w][index]) for key, w, index in _report_rows(spec.m)}
    devs["ricci-matrix"] = float(worst_ric)
    devs["scalar"] = float(worst_scal)
    return [ClauseReport(key, dev, tolerance, dev < tolerance) for key, dev in devs.items()]
