"""Two-path verification: structured component formulas against the
generic coordinate oracle.

For a given spec, torsion field and connection kind this enumerates every
argument block pattern the spec supports (covariant derivative pairs,
curvature triples, Ricci pairs, scalar) and compares the closed-form
values with the coordinate computation at a set of sample points, an
(N, n_bar) stack, the only point shape.  Both sides take the stack in one
call each: one oracle call, and one structured cache from one jet walk.
The covariant derivative, the curvature, the Ricci matrix and the scalar
are then one whole-tensor call per stack each, running the clauses of the
layout's sweep plan once for all the points, one call per pattern class
and group of fibers, and there is one |S - O| per tensor against the
oracle's tensor of the same layout, whose block maxima are the rows.  A
pattern the plan skips is zero on the structured side and still compared
with the oracle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .connections import connection_curvature
from .structured import (
    StructuredGeometryCache,
    structured_covariant_derivative,
    structured_curvature,
    structured_ricci_matrix,
    structured_scalar,
)

DEFAULT_TOLERANCE = 1e-6


@dataclass
class CheckRow:
    """One row of a report: a check, its largest residual over the grid or
    points, the tolerance it is judged against and its verdict.  The field
    names are the report's csv and json keys."""

    check: str
    grid_max_residual: float
    tolerance: float
    verdict: str  # "pass" | "fail"

    @classmethod
    def of(cls, check, worst, tolerance):
        """The row of a check that passes at worst < tolerance, so that a
        NaN residual fails."""
        return cls(check, worst, tolerance, "pass" if worst < tolerance else "fail")

    @property
    def passed(self):
        return self.verdict == "pass"


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

    Returns one CheckRow per block pattern, plus Ricci-matrix and scalar
    rows, with deviations maximized over the supplied (N, n_bar)
    stack of points.  The structured covariant derivative and curvature
    are one whole-tensor call each over all the points, and each
    block pair's or triple's row is the largest |S - O| over the points and
    its block of the oracle's coefficients `coefficients[:, :, sX, sY]` or
    Riemann tensor `riemann[:, :, sX, sY, sZ]`.
    """
    blocks = ["base"] + list(range(spec.m))
    starts = [spec.block_slice(b).start for b in blocks]

    stack = spec.point_stack(points)
    cur = connection_curvature(kind, spec, P, stack)
    cache = StructuredGeometryCache(spec, P, stack)
    sv = structured_covariant_derivative(cache, kind)
    worst_cov = _block_max(np.abs(sv - cur.coefficients), starts)
    worst_curv = _block_max(np.abs(structured_curvature(cache, kind) - cur.riemann), starts)
    worst_ric = np.max(np.abs(structured_ricci_matrix(cache, kind) - cur.ricci))
    worst_scal = np.max(np.abs(structured_scalar(cache, kind) - cur.scalar))

    worst = (worst_cov, worst_curv)
    devs = {key: float(worst[w][index]) for key, w, index in _report_rows(spec.m)}
    devs["ricci-matrix"] = float(worst_ric)
    devs["scalar"] = float(worst_scal)
    return [CheckRow.of(key, dev, tolerance) for key, dev in devs.items()]
