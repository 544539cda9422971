"""Component formulas for covariant derivatives, curvature, Ricci and scalar
curvature on multiply warped/twisted products, dispatched on the block
pattern of the arguments and the location of the torsion field P.

Each operation evaluates the closed-form clause matching its argument
pattern; nothing here touches finite differences, so agreement with the
`chart_core` oracle is a genuine two-path check.  The data the clauses read
at a point (`StructuredGeometryCache`) is that point's row of one jet walk:
the warpings, every fiber metric entry and the components of P with their
exact partials, read back by slicing.  `StructuredGeometryCache.at_points`
walks a whole stack of points at once, so the caches of every sample point
of a scenario cost one walk.

Clause arguments are `BlockVector`s: constant components over one block of
the chart, understood as coordinate vector fields with constant components.
A `BlockVector` may also hold a (k, d) stack of such vectors, and every
clause is multilinear in its arguments, so one call with the block's
coordinate vectors returns the whole block of the tensor.  Each operation
is one call at a point and takes that point's cache, which carries the
spec and P.  The covariant derivative takes one stack per block and
returns nabla over every pair of stacked vectors, one clause call per
block pair.  The curvature tensor, the Ricci matrix and the scalar are
whole at a point.  The curvature fills each mirrored triple, one whose
clause is R(X, Y)Z = -R(Y, X)Z of another, from that triple's slice.

Which clauses a whole-tensor operation runs is a sweep plan, made once per
block layout, P block and kind (`_sweep_plan`): it leaves out the block
patterns whose clauses give exact zeros, each class stated with the clause
formulas it is read from, and the symmetrized kind's dpi term where dpi
vanishes.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connections import ConnectionKind
from .errors import CaseMismatch
from .exprs import eval_jet
from .geometry import ProductManifoldSpec

_ALL = slice(None)

# outer product that keeps the axes of its arguments: a single vector's 0-d
# value gives no axis, a stack's (k,) values give one
_outer = np.multiply.outer


@dataclass
class BlockVector:
    """Constant-component vector supported on one block of the chart, or a
    (k, d) stack of k of them."""

    block: object  # "base" or fiber index
    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)


class StructuredGeometryCache:
    """Per-point geometric data feeding the component formulas.

    Holds the warping values with their exact first and second partials,
    the fiber metrics with their partials, analytic Christoffel symbols and
    curvature, and the torsion-field data (components, partials, pi).  Every
    value and partial is the point's row of one eval_jet walk: `at_points`
    walks a whole stack of points once and makes a cache from each row, and
    a cache made alone is the one-row case of that walk.
    """

    def __init__(self, spec: ProductManifoldSpec, P, p, jets=None):
        """The cache at p; `jets` is p's row (values, gradients, Hessians)
        of an `at_points` walk, and without it the cache walks [p]."""
        if jets is None:
            (p,), (val,), (grad,), (hess,) = _cache_jets(spec, P, [p])
        else:
            val, grad, hess = jets
        self.spec = spec
        self.p = p
        self.P = P
        self.n = spec.n
        self.m = spec.m
        self.nbar = spec.n_bar
        self.dims = spec.fiber_dims

        self.gB = np.diag([float(s) for s in spec.base.signs])
        self.gBinv = np.linalg.inv(self.gB)

        m = self.m
        base = spec.block_slice("base")
        fibers = [spec.block_slice(i) for i in range(m)]

        self.b = val[:m].tolist()
        self.db_base = [grad[i, base] for i in range(m)]
        self.db_fiber = [grad[i, sl] for i, sl in enumerate(fibers)]
        self.H_bb = [hess[i, base, base] for i in range(m)]
        self.H_bf = [hess[i, base, sl] for i, sl in enumerate(fibers)]
        self.H_ff = [hess[i, sl, sl] for i, sl in enumerate(fibers)]

        self.gF, self.dgF, self.GF, self.RF, self.RicF = [], [], [], [], []
        row = m
        for f, sl in zip(spec.fibers, fibers):
            geo, l = f.geometry, f.dim
            rows = slice(row, row + l * l)
            row += l * l
            g = val[rows].reshape(l, l)
            self.gF.append(g)
            # dgF[i][c, a, b] = d_c g_ab in the fiber's own coordinates
            self.dgF.append(grad[rows, sl].T.reshape(l, l, l))
            self.GF.append(geo.christoffels(p[sl]))
            self.RF.append(geo.curvature(g))
            self.RicF.append(geo.ricci(g))
        self.gFinv = [np.linalg.inv(g) for g in self.gF]

        # torsion field data within its hosting block
        if P is None:
            self.P_loc = self.Pc = self.dPc = None
        else:
            self.P_loc = P.location
            self.Pc = val[row:]
            # dPc[a, c] = d_a P^c
            self.dPc = grad[row:, spec.block_slice(P.location)].T
        self._p_free = None

    @classmethod
    def at_points(cls, spec, P, points):
        """One cache per row of an (N, n_bar) stack of points, all from one
        jet walk over the stack; each has the bits of the cache made at its
        point alone.  The first failing point raises what a cache made
        there alone raises."""
        pts, *jets = _cache_jets(spec, P, points)
        return [cls(spec, P, p, row) for p, *row in zip(pts, *jets)]

    def without_p(self):
        """This point's data with the torsion field cleared, made at most once.

        Equal to `StructuredGeometryCache(spec, None, p)`: nothing but the
        P fields depends on P, so the view shares every other array.
        """
        if self.P_loc is None:
            return self
        if self._p_free is None:
            view = copy.copy(self)
            view.P = view.P_loc = view.Pc = view.dPc = None
            self._p_free = view
        return self._p_free

    # -- basic block helpers -------------------------------------------------

    def g_inner_block(self, block, A, B):
        """g(A, B) for components on `block`; (k, d) stacks give one value
        per pair."""
        if block == "base":
            return A @ self.gB @ B.T
        return self.b[block] ** 2 * (A @ self.gF[block] @ B.T)

    # -- warping derivatives --------------------------------------------------

    def P_b(self, i):
        """P(b_i)."""
        if self.P_loc is None:
            return 0.0
        if self.P_loc == "base":
            return float(self.Pc @ self.db_base[i])
        if self.P_loc == i:
            return float(self.Pc @ self.db_fiber[i])
        return 0.0

    def grad_B(self, i):
        """Components of grad_B b_i on the base block."""
        return self.gBinv @ self.db_base[i]

    def grad_F(self, i):
        """Components of grad_{F_i} b_i (gradient of b_i w.r.t. g_{F_i})."""
        return self.gFinv[i] @ self.db_fiber[i]

    def lap_B(self, i):
        return float(np.einsum("ab,ab->", self.gBinv, self.H_bb[i]))

    def grad_inner_B(self, i, j):
        """g_B(grad_B b_i, grad_B b_j)."""
        return float(self.db_base[i] @ self.gBinv @ self.db_base[j])

    def _d2_ln_fb(self, i):
        """Mixed partials d_beta d_a ln b_i, shape (l_i, n)."""
        b = self.b[i]
        return self.H_bf[i].T / b - _outer(self.db_fiber[i], self.db_base[i]) / b**2

    # twisted-only data built on k = ln b_i restricted to fiber i

    def k_fiber(self, i):
        """Fiber partials of ln b_i."""
        return self.db_fiber[i] / self.b[i]

    def hessF_k(self, i):
        """Fiber-metric Hessian of ln b_i (base point held fixed)."""
        b = self.b[i]
        d2k = self.H_ff[i] / b - _outer(self.db_fiber[i], self.db_fiber[i]) / b**2
        return d2k - np.einsum("cab,c->ab", self.GF[i], self.k_fiber(i))

    def lapF_k(self, i):
        return float(np.einsum("ab,ab->", self.gFinv[i], self.hessF_k(i)))

    def gradF_k(self, i):
        """g_F-gradient components of ln b_i."""
        return self.gFinv[i] @ self.k_fiber(i)

    def gradF_k_norm2(self, i):
        dk = self.k_fiber(i)
        return float(dk @ self.gFinv[i] @ dk)

    def fiber_twisted(self, i):
        return bool(np.any(self.db_fiber[i]))

    # -- torsion field helpers --------------------------------------------------

    def pi(self, V: BlockVector):
        """pi(V) = g(V, P), one value per vector of a stack."""
        if V.block != self.P_loc:
            return np.zeros(V.components.shape[:-1])
        return self.g_inner_block(V.block, V.components, self.Pc)

    def pi_P(self):
        if self.P_loc is None:
            return 0.0
        return float(self.g_inner_block(self.P_loc, self.Pc, self.Pc))

    def div_B_P(self):
        if self.P_loc != "base":
            return 0.0
        return float(np.trace(self.dPc))

    def div_F_P(self):
        """Divergence of P on (F_r, g_{F_r})."""
        if self.P_loc is None or self.P_loc == "base":
            return 0.0
        r = self.P_loc
        return float(np.trace(self.dPc) + np.einsum("aab,b->", self.GF[r], self.Pc))

    def nablaF_V_P(self, Vf):
        """Fiber components of nabla^{F_r}_V P for V, P on fiber r."""
        r = self.P_loc
        return self.dPc.T @ Vf + np.einsum("cab,a,b->c", self.GF[r], Vf, self.Pc)

    def _fiber_nabla_P(self, Vf):
        """Fiber-r components of the Levi-Civita derivative nabla_V P for V, P
        on fiber r; its base components are -b_r g_F(V, P) grad_B b_r."""
        r = self.P_loc
        b = self.b[r]
        V_ln = float(Vf @ self.db_fiber[r]) / b
        gVP = float(Vf @ self.gF[r] @ self.Pc)
        return (V_ln * self.Pc + (self.P_b(r) / b) * Vf + self.nablaF_V_P(Vf)
                - (gVP / b) * self.grad_F(r))

    def nabla_P(self):
        """Levi-Civita nabla P within P's block: column a holds the block
        components of nabla_{d_a} P for the block's coordinate vector d_a."""
        if self.P_loc == "base":
            return self.dPc.T  # flat base
        return np.array([self._fiber_nabla_P(e) for e in np.eye(self.dims[self.P_loc])]).T

    def g_W_nabla_V_P(self, W: BlockVector, V: BlockVector):
        """g(W, nabla_V P) for W, V on P's block, or on one fiber without P
        (where nabla_V P = 0); (k, d) stacks give one value per pair."""
        if V.block != self.P_loc:
            return np.zeros(W.components.shape[:-1] + V.components.shape[:-1])
        return self.g_inner_block(V.block, W.components, V.components @ self.nabla_P().T)

    def dpi(self, A: BlockVector, B: BlockVector):
        """Exterior derivative dpi(A, B) = A(pi(B)) - B(pi(A)) - pi([A, B]);
        (k, d) stacks give one value per pair."""
        a, bv = A.components, B.components
        r = self.P_loc
        if r == "base" and A.block == B.block == "base":
            dpiB = self.dPc @ self.gB  # dpiB[a, b] = d_a(g_bc P^c) = d_a P^c g_cb
            return a @ (dpiB - dpiB.T) @ bv.T
        if r is not None and r != "base":
            if A.block == "base" and B.block == r:
                return 2.0 * _outer(a @ self.db_base[r] / self.b[r], self.pi(B))
            if A.block == r and B.block == "base":
                return -2.0 * _outer(self.pi(A), bv @ self.db_base[r] / self.b[r])
            if A.block == B.block == r:
                gf = self.gF[r]
                gfP = gf @ self.Pc
                # d_beta pi_gamma = 2 b (d_beta b) (g_F P)_gamma + b^2 d_beta(g_F P)_gamma
                dgfP = (np.einsum("bgc,c->bg", self.dgF[r], self.Pc)
                        + np.einsum("bc,cg->bg", self.dPc, gf))
                dpi_ff = 2.0 * self.b[r] * _outer(self.db_fiber[r], gfP) + self.b[r] ** 2 * dgfP
                return a @ (dpi_ff - dpi_ff.T) @ bv.T
        return np.zeros(a.shape[:-1] + bv.shape[:-1])


def _cache_jets(spec, P, points):
    """The checked (N, n_bar) stack of points, then the values (N, k),
    gradients (N, k, n_bar) and Hessians (N, k, n_bar, n_bar) of the
    warpings, every fiber metric entry and P's components at its rows, from
    one eval_jet walk."""
    pts = spec.point_stack(points)
    spec.check_point(pts)
    entries = [e for i, f in enumerate(spec.fibers)
               for row in f.geometry.metric_exprs(spec.fiber_coord_names(i)) for e in row]
    comps = []
    if P is not None:
        P.validate(spec)
        comps = P.components
    return (pts, *eval_jet([*spec.warpings, *entries, *comps], spec.coord_names, pts))


# ---------------------------------------------------------------------------
# Argument stacks


def coordinate_stack(spec, block):
    """The coordinate vectors of `block` as one (d, d) stack."""
    sl = spec.block_slice(block)
    return BlockVector(block, np.eye(sl.stop - sl.start))


def _check_kind(kind):
    if not isinstance(kind, ConnectionKind):
        raise CaseMismatch(f"unknown connection kind {kind!r}")


def _check_blocks(spec, frames):
    """One (k, d) stack per block, base first, each as wide as its block."""
    blocks = ["base", *range(spec.m)]
    if [F.block for F in frames] != blocks:
        raise CaseMismatch(f"need one stack per block {blocks}, "
                           f"got {[F.block for F in frames]!r}")
    for F in frames:
        sl = spec.block_slice(F.block)
        want = sl.stop - sl.start
        if F.components.ndim != 2 or F.components.shape[1] != want:
            raise CaseMismatch(f"vector on block {F.block!r} needs {want} components")


def _dispatch(c, kind, p_base_clause, p_fiber_clause):
    """The cache view, the clause family and whether the dpi term applies
    for `kind`: the P-free view and the P-on-base clauses, which are the
    Levi-Civita ones there, for the Levi-Civita kind or no P."""
    if kind == ConnectionKind.LEVI_CIVITA or c.P_loc is None:
        return c.without_p(), p_base_clause, False
    clause = p_base_clause if c.P_loc == "base" else p_fiber_clause
    return c, clause, kind == ConnectionKind.SYMMETRIZED_AFFINE


# ---------------------------------------------------------------------------
# Sweep plans
#
# Which block clauses a whole-tensor sweep runs depends only on the block
# layout and on r, P's block on the dispatched view (None for the
# Levi-Civita kind or no P).  Each zero class below is read off the clauses.


def _zero_triple(bx, by, bz, r):
    """Non-mirrored triples whose curvature clause gives exact zeros:
    (base, base, Z) unless Z = r (a flat base, and the P terms of
    `_curv_p_base` and `_curv_p_fiber` there need Z on P's block);
    (f_i, f_i, f_j); (f_i, f_j, base) unless r is i or j; and
    (base, f_i, f_j) unless r = j, for i != j."""
    if bx == by == "base":
        return bz != r
    if "base" not in (bx, by):
        if bx == by:
            return bz not in ("base", bx)
        return bz == "base" and r not in (bx, by)
    return bx == "base" and bz not in ("base", by, r)


def _zero_nabla(bx, by, r, sym):
    """Block pairs whose nabla_X Y is zero: the Levi-Civita clause is zero
    on (base, base) and (f_i, f_j), i != j, and the pi(Y) X term needs Y on
    r, the symmetrized kind's pi(X) Y term X on r."""
    lc_zero = bx == by == "base" or "base" not in (bx, by) and bx != by
    return lc_zero and by != r and not (sym and bx == r)


def _dpi_pair(bx, by, r):
    """Whether dpi(X, Y) can be non-zero: on (base, base) with P on the
    base, and on the pairs inside {base, r} that touch r for P on fiber r."""
    if r == "base":
        return bx == by == "base"
    return r is not None and r in (bx, by) and {bx, by} <= {"base", r}


def _zero_ricci(bx, by):
    """Block pairs whose Ricci clause gives exact zeros: (f_i, f_j), i != j,
    where no clause has a term and dpi vanishes."""
    return "base" not in (bx, by) and bx != by


class _SweepPlan(NamedTuple):
    """What the whole-tensor sweep of one layout runs, made once."""

    clauses: list  # (X, Y, Z, slice of out) of each triple whose clause runs
    mirrored: np.ndarray  # (n_bar,) * 3 mask of the entries (a, b, d) of mirrored triples
    dpi: list  # (X, Y, [(Z, slice)...]) of each pair whose dpi term runs (symmetrized kind)
    dpi_zero: np.ndarray | None  # the entries in the rows of Z's block of the other triples
    nabla_pairs: list  # (i, j) of each block pair whose nabla can be non-zero
    ricci: list  # (X, Y, slice) of each block pair whose Ricci value can be non-zero


@functools.lru_cache(maxsize=64)
def _sweep_plan(n, dims, r, sym):
    """The sweep plan of base dimension n, fiber dimensions dims and P's
    block r on the dispatched view, for the symmetrized kind if sym."""
    blocks = ["base", *range(len(dims))]
    bounds = np.cumsum([0, n, *dims])
    sl = {b: slice(int(bounds[k]), int(bounds[k + 1])) for k, b in enumerate(blocks)}
    frames = {b: BlockVector(b, np.eye(sl[b].stop - sl[b].start)) for b in blocks}
    block_of = np.repeat(np.arange(len(blocks)), np.diff(bounds))
    mirrored = np.array([[[_mirrored(bx, by, bz) for bz in blocks] for by in blocks]
                         for bx in blocks])
    triples = [t for t in itertools.product(blocks, repeat=3) if not _distinct_fibers(*t)]

    def where(t):
        return (_ALL, *(sl[b] for b in t))

    dpi_zero = None
    if sym:
        live = np.array([[_dpi_pair(bx, by, r) for by in blocks] for bx in blocks])
        same = block_of[:, None] == block_of
        dpi_zero = same[:, None, None, :] & ~live[np.ix_(block_of, block_of)][None, :, :, None]
    return _SweepPlan(
        clauses=[(*(frames[b] for b in t), where(t)) for t in triples
                 if not _mirrored(*t) and not _zero_triple(*t, r)],
        mirrored=mirrored[np.ix_(block_of, block_of, block_of)],
        dpi=[(frames[bx], frames[by],
              [(frames[t[2]], where(t)) for t in triples if t[:2] == (bx, by)])
             for bx, by in itertools.product(blocks, repeat=2) if sym and _dpi_pair(bx, by, r)],
        dpi_zero=dpi_zero,
        nabla_pairs=[(i, j) for (i, bx), (j, by) in itertools.product(enumerate(blocks), repeat=2)
                     if not _zero_nabla(bx, by, r, sym)],
        ricci=[(frames[bx], frames[by], (sl[bx], sl[by]))
               for bx, by in itertools.product(blocks, repeat=2) if not _zero_ricci(bx, by)],
    )


def _plan(c, kind):
    """The sweep plan of the cache's layout for `kind`, keyed as
    `_dispatch` views the cache."""
    view, _, sym = _dispatch(c, kind, None, None)
    return _sweep_plan(c.n, c.dims, view.P_loc, sym)


# ---------------------------------------------------------------------------
# Covariant derivative clauses
#
# Each clause takes (k, d) stacks and returns the ambient components of its
# value for every combination of their vectors, one axis per argument:
# out[l, x, y] for nabla_X Y.


def structured_covariant_derivative(c, kind, frames):
    """Covariant derivative at the cache's point over per-block stacks:
    `frames` holds one (k, d) `BlockVector` stack per block, base first,
    and out[l, A, B] is the ambient component l of nabla_{V_A} V_B for the
    stacked vectors V, one block clause call per block pair that the
    layout's sweep plan does not know to be zero."""
    _check_kind(kind)
    _check_blocks(c.spec, frames)
    rows = np.cumsum([0] + [len(F.components) for F in frames])
    out = np.zeros((c.nbar, rows[-1], rows[-1]))
    for i, j in _plan(c, kind).nabla_pairs:
        out[:, rows[i]:rows[i + 1], rows[j]:rows[j + 1]] = _covariant_block(
            c, kind, frames[i], frames[j])
    return out


def _covariant_block(c, kind, X, Y):
    """nabla_X Y for (k, d) stacks X, Y, with no argument checks: the
    Levi-Civita clause plus pi(Y) X, and pi(X) Y for the symmetrized kind."""
    out = _levi_civita_derivative(c, X, Y)
    if kind in (ConnectionKind.SEMI_SYMMETRIC_NON_METRIC, ConnectionKind.SYMMETRIZED_AFFINE):
        out[c.spec.block_slice(X.block)] += np.einsum("y,xl->lxy", c.pi(Y), X.components)
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        out[c.spec.block_slice(Y.block)] += np.einsum("x,yl->lxy", c.pi(X), Y.components)
    return out


def _levi_civita_derivative(c, X, Y):
    """Levi-Civita nabla_X Y for constant-component X, Y."""
    x, y = X.components, Y.components
    out = np.zeros((c.nbar, len(x), len(y)))
    if X.block == "base" and Y.block == "base":
        return out  # flat base

    if X.block == "base":
        i = Y.block
        out[c.spec.block_slice(i)] = np.einsum("x,yl->lxy", x @ c.db_base[i] / c.b[i], y)
        return out

    if Y.block == "base":
        i = X.block
        out[c.spec.block_slice(i)] = np.einsum("y,xl->lxy", y @ c.db_base[i] / c.b[i], x)
        return out

    i, j = X.block, Y.block
    if i != j:
        return out

    # same fiber: twisted-product formula
    b = c.b[i]
    gUW = x @ c.gF[i] @ y.T
    out[c.spec.block_slice(i)] = (
        np.einsum("x,yl->lxy", x @ c.db_fiber[i] / b, y)
        + np.einsum("y,xl->lxy", y @ c.db_fiber[i] / b, x)
        + np.einsum("cab,xa,yb->cxy", c.GF[i], x, y)
        - _outer(c.grad_F(i), gUW / b)
    )
    out[: c.n] = -_outer(c.grad_B(i), b * gUW)
    return out


# ---------------------------------------------------------------------------
# Curvature clauses: out[l, x, y, z] for R(X, Y)Z


def _curvature_block(c, kind, X, Y, Z):
    """R(X, Y)Z for (k, d) stacks X, Y, Z: the clause of their block
    pattern, with no argument checks, and the per-pattern form of
    `structured_curvature`.  The symmetrized kind adds `_dpi_term`."""
    c, clause, sym = _dispatch(c, kind, _curv_p_base, _curv_p_fiber)
    out = clause(c, X, Y, Z)
    if sym:
        _dpi_term(c, out, c.dpi(X, Y), Z)
    return out


def _dpi_term(c, out, dpi, Z):
    """Add [X(pi(Y)) - Y(pi(X)) - pi([X,Y])] Z = dpi(X, Y) Z, the
    symmetrized kind's term, to the block `out` of R(X, Y)Z, given
    dpi = dpi(X, Y)."""
    out[c.spec.block_slice(Z.block)] += np.einsum("xy,zl->lxyz", dpi, Z.components)


def _distinct_fibers(bX, bY, bZ):
    """R(U, V)W with U, V, W on three distinct fibers is zero: no clause
    has a term there, and dpi vanishes across two distinct fibers."""
    return "base" not in (bX, bY, bZ) and len({bX, bY, bZ}) == 3


def _mirrored(bX, bY, bZ):
    """The patterns whose clause is R(X, Y)Z = -R(Y, X)Z, the clause of the
    pattern with X and Y swapped: (base, f, base), (f, base, f') and
    (f_i, f_j, f_i) for i != j.  Their mirrors are not mirrored."""
    if bY == "base":
        return bX != "base" and bZ != "base"
    if bX == "base":
        return bZ == "base"
    return bZ == bX != bY


def structured_curvature(c, kind):
    """Whole curvature tensor out[l, a, b, d] = R(e_a, e_b)e_d at the
    cache's point, shape (n_bar,) * 4, from the layout's sweep plan: one
    block clause call per block triple over the coordinate vectors of each
    block, except the triples the plan knows to be zero, which stay zero.
    Each mirrored triple runs no clause: its slice is its mirror's clause
    value with the X and Y axes swapped and the sign flipped, taken before
    the dpi term of the symmetrized kind, so it holds the bits of its own
    clause.  The dpi term runs where dpi(X, Y) can be non-zero; elsewhere
    the rows of Z's block get the +0.0 that the zero term adds."""
    _check_kind(kind)
    c, clause, sym = _dispatch(c, kind, _curv_p_base, _curv_p_fiber)
    plan = _sweep_plan(c.n, c.dims, c.P_loc, sym)
    out = np.zeros((c.nbar,) * 4)
    for X, Y, Z, where in plan.clauses:
        out[where] = clause(c, X, Y, Z)
    # a mirror is never mirrored, so no entry read here is written here
    np.negative(out.swapaxes(1, 2), out=out, where=plan.mirrored)
    if sym:
        np.add(out, 0.0, out=out, where=plan.dpi_zero)
        for X, Y, targets in plan.dpi:
            dpi = c.dpi(X, Y)
            for Z, where in targets:
                _dpi_term(c, out[where], dpi, Z)
    return out


def _antisym(clause, c, X, Y, Z):
    """R(X, Y)Z = -R(Y, X)Z."""
    return -np.swapaxes(clause(c, Y, X, Z), 1, 2)


def _p_block_terms(c, X, Y, Z):
    """P terms of R(X, Y)Z for X, Y, Z on P's block:
    [g(Z, nabla_X P) - pi(Z) pi(X)] Y - [g(Z, nabla_Y P) - pi(Z) pi(Y)] X."""
    piX, piY, piZ = c.pi(X), c.pi(Y), c.pi(Z)
    return (np.einsum("zx,yl->lxyz", c.g_W_nabla_V_P(Z, X) - _outer(piZ, piX), Y.components)
            - np.einsum("zy,xl->lxyz", c.g_W_nabla_V_P(Z, Y) - _outer(piZ, piY), X.components))


def _curv_p_base(c, X, Y, Z):
    """Clauses for P on the base, semi-symmetric connection; on the P-free view
    they are the Levi-Civita clauses, which `_curv_p_fiber` builds on."""
    bX, bY, bZ = X.block, Y.block, Z.block
    if _mirrored(bX, bY, bZ):
        return _antisym(_curv_p_base, c, X, Y, Z)
    x, y, z = X.components, Y.components, Z.components
    out = np.zeros((c.nbar, len(x), len(y), len(z)))

    if bX == "base" and bY == "base" and bZ == "base":
        # flat base: only the pi terms of P on the base curve it
        if c.P_loc == "base":
            out[: c.n] = _p_block_terms(c, X, Y, Z)
        return out

    if bX != "base" and bY == "base" and bZ == "base":
        i = bX
        coef = (y @ c.H_bb[i] @ z.T / c.b[i] + c.g_W_nabla_V_P(Z, Y).T
                - _outer(c.pi(Y), c.pi(Z)))
        out[c.spec.block_slice(i)] = -np.einsum("yz,xl->lxyz", coef, x)
        return out

    if bX == "base" and bY == "base" and bZ != "base":
        return out

    if bX != "base" and bY != "base" and bZ == "base":
        i, j = bX, bY
        if i == j:
            d2 = c._d2_ln_fb(i)
            out[c.spec.block_slice(i)] = (np.einsum("xz,yl->lxyz", x @ d2 @ z.T, y)
                                          - np.einsum("yz,xl->lxyz", y @ d2 @ z.T, x))
        return out

    if bX == "base" and bY != "base" and bZ != "base":
        i, j = bY, bZ
        if i != j:
            return out
        # R(X, V)W with V, W on the same fiber: X(W(ln b_i)) V - g(W, V) bracket
        b = c.b[i]
        sl = c.spec.block_slice(i)
        d2 = c._d2_ln_fb(i)
        out[sl] = np.einsum("zx,yl->lxyz", z @ d2 @ x.T, y)
        bracket = np.zeros((c.nbar, len(x)))
        bracket[: c.n] = c.gBinv @ c.H_bb[i] @ x.T / b + (c.P_b(i) / b) * x.T
        bracket[sl] = c.gFinv[i] @ d2 @ x.T / b**2
        out -= np.einsum("lx,zy->lxyz", bracket, c.g_inner_block(i, z, y))
        return out

    i, j, k = bX, bY, bZ  # all fibers
    if i == j == k:
        return _curv_same_fiber(c, X, Y, Z)
    if j == k and i != j:
        # R(U, V)W with V, W in one fiber, U in another
        coef = c.grad_inner_B(j, i) / (c.b[i] * c.b[j]) + c.P_b(j) / c.b[j]
        out[c.spec.block_slice(i)] = -coef * np.einsum("yz,xl->lxyz",
                                                       c.g_inner_block(j, y, z), x)
        return out
    return out  # i == j != k, or all distinct


def _curv_same_fiber(c, X, Y, Z):
    """R(U, V)W for U, V, W on one fiber, with the P(b_i)/b_i term of P on the base.

    R(U, V)W = R^F(U, V)W + A(U, W) V - A(V, W) U + g(U, W) S_V - g(V, W) S_U,
    where S_V is grad_B V(ln b_i) plus, on a twisted fiber, a fiber part.
    """
    i = X.block
    x, y, z = X.components, Y.components, Z.components
    b = c.b[i]
    sl = c.spec.block_slice(i)
    gUW = c.g_inner_block(i, x, z)
    gVW = c.g_inner_block(i, y, z)
    coef = c.grad_inner_B(i, i) / b**2 + c.P_b(i) / b
    d2 = c._d2_ln_fb(i)
    S_U = np.zeros((c.nbar, len(x)))
    S_V = np.zeros((c.nbar, len(y)))
    S_U[: c.n] = c.gBinv @ (x @ d2).T
    S_V[: c.n] = c.gBinv @ (y @ d2).T
    if c.fiber_twisted(i):
        # fiber-direction second derivatives of ln b_i, absent for warpings
        b2 = b**2
        dk = c.k_fiber(i)
        Hk = c.hessF_k(i)
        coef += c.gradF_k_norm2(i) / b2
        A_UW = coef * gUW + x @ Hk @ z.T - _outer(x @ dk, z @ dk)
        A_VW = coef * gVW + y @ Hk @ z.T - _outer(y @ dk, z @ dk)
        S_U[sl] = (c.gFinv[i] @ Hk @ x.T - _outer(c.gradF_k(i), x @ dk)) / b2
        S_V[sl] = (c.gFinv[i] @ Hk @ y.T - _outer(c.gradF_k(i), y @ dk)) / b2
    else:
        A_UW, A_VW = coef * gUW, coef * gVW
    out = np.einsum("xz,ly->lxyz", gUW, S_V) - np.einsum("yz,lx->lxyz", gVW, S_U)
    out[sl] += (np.einsum("abcd,xb,yc,zd->axyz", c.RF[i], x, y, z)
                + np.einsum("xz,yl->lxyz", A_UW, y) - np.einsum("yz,xl->lxyz", A_VW, x))
    return out


def _curv_p_fiber(c, X, Y, Z):
    """Clauses for P on fiber r, semi-symmetric connection: the P-free clause
    of the pattern plus its P terms."""
    r = c.P_loc
    bX, bY, bZ = X.block, Y.block, Z.block
    if _mirrored(bX, bY, bZ):
        return _antisym(_curv_p_fiber, c, X, Y, Z)

    out = _curv_p_base(c.without_p(), X, Y, Z)
    x, y, z = X.components, Y.components, Z.components

    def ln_b(v):
        """v(ln b_r) for base vectors v."""
        return v @ c.db_base[r] / c.b[r]

    if bX == "base" and bY == "base":
        if bZ == r:
            piZ = c.pi(Z)
            out[: c.n] += (np.einsum("z,x,yl->lxyz", piZ, ln_b(x), y)
                           - np.einsum("z,y,xl->lxyz", piZ, ln_b(y), x))
    elif bY == "base":  # R(V, X)Y
        if bX == r:
            out[: c.n] -= np.einsum("x,z,yl->lxyz", c.pi(X), ln_b(z), y)
    elif bZ == "base":  # R(U, V)X
        if bX == r:
            out[c.spec.block_slice(bY)] -= np.einsum("x,z,yl->lxyz", c.pi(X), ln_b(z), y)
        if bY == r:
            out[c.spec.block_slice(bX)] += np.einsum("y,z,xl->lxyz", c.pi(Y), ln_b(z), x)
    elif bX == "base":  # R(X, V)W
        out[c.spec.block_slice(bY)] += np.einsum("x,z,yl->lxyz", ln_b(x), c.pi(Z), y)
        if bY == bZ:
            out[: c.n] += np.einsum("zy,xl->lxyz",
                                    _outer(c.pi(Z), c.pi(Y)) - c.g_W_nabla_V_P(Z, Y), x)
    elif bX == bY == bZ:  # R(U, V)W on one fiber
        if bX == r:
            out[c.spec.block_slice(r)] += _p_block_terms(c, X, Y, Z)
    elif bY == bZ:  # R(U, V)W: V, W in fiber j, U in fiber i
        piZ = c.pi(Z)
        out[c.spec.block_slice(bX)] += np.einsum(
            "zy,xl->lxyz", _outer(piZ, c.pi(Y)) - c.g_W_nabla_V_P(Z, Y), x)
        out[c.spec.block_slice(bY)] -= np.einsum("z,x,yl->lxyz", piZ, c.pi(X), y)
    return out


# ---------------------------------------------------------------------------
# Ricci clauses: out[x, y] for Ric(X, Y)


def _ricci_block(c, kind, X, Y):
    """Ric(X, Y) for (k, d) stacks X, Y: the clause of their block pattern,
    with no argument checks."""
    c, clause, sym = _dispatch(c, kind, _ricci_p_base, _ricci_p_fiber)
    val = clause(c, X, Y)
    return val + c.dpi(X, Y) if sym else val


def _ricci_p_base(c, X, Y):
    bX, bY = X.block, Y.block
    x, y = X.components, Y.components
    if bX == "base" and bY == "base":
        # g(Y, nabla_X P) - pi(X) pi(Y): zero unless P is on the base
        p_term = c.g_W_nabla_V_P(Y, X).T - _outer(c.pi(X), c.pi(Y))
        total = (c.n - 1) * p_term
        for i in range(c.m):
            total = total + c.dims[i] * (x @ c.H_bb[i] @ y.T / c.b[i] + p_term)
        return total
    if bX == "base":  # Ric(X, V) = (l_i - 1) V(X(ln b_i))
        return (c.dims[bY] - 1) * (x @ c._d2_ln_fb(bY).T @ y.T)
    if bY == "base":
        return (c.dims[bX] - 1) * (x @ c._d2_ln_fb(bX) @ y.T)
    i, j = bX, bY
    if i != j:
        return np.zeros((len(x), len(y)))
    bracket = c.lap_B(i) / c.b[i]
    bracket += (c.dims[i] - 1) * c.grad_inner_B(i, i) / c.b[i] ** 2
    for j2 in range(c.m):
        if j2 != i:
            bracket += c.dims[j2] * c.grad_inner_B(i, j2) / (c.b[i] * c.b[j2])
    if c.P_loc == "base":
        # weight (nbar - 1) on P(b_i)/b_i: forced by the frame trace of the
        # curvature clauses and confirmed against the generic oracle
        bracket += (c.nbar - 1) * c.P_b(i) / c.b[i]
    return (x @ c.RicF[i] @ y.T + bracket * c.g_inner_block(i, x, y)
            + _ricci_twist_extra(c, i, x, y))


def _ricci_p_fiber(c, X, Y):
    """Ric(X, Y) for P on fiber r: the P-free clause plus the P terms."""
    r = c.P_loc
    nbar = c.nbar
    bX, bY = X.block, Y.block
    val = _ricci_p_base(c.without_p(), X, Y)
    if bX != "base" and bY == "base":  # Ric(V, X)
        val += (1 - nbar) * _outer(c.pi(X), Y.components @ c.db_base[r] / c.b[r])
    elif bX == "base" and bY != "base":  # Ric(X, V)
        val += (nbar - 1) * _outer(X.components @ c.db_base[r] / c.b[r], c.pi(Y))
    elif bX == bY != "base":
        val += (nbar - 1) * (c.g_W_nabla_V_P(Y, X).T - _outer(c.pi(X), c.pi(Y)))
    return val


def _ricci_twist_extra(c, i, x, y):
    """Fiber-Hessian contribution to Ric(V, W), zero for plain warpings."""
    if not c.fiber_twisted(i):
        return 0.0
    l = c.dims[i]
    b2 = c.b[i] ** 2
    dk = c.k_fiber(i)
    val = (l - 2) * (x @ c.hessF_k(i) @ y.T)
    val += (2 - l) * _outer(x @ dk, y @ dk)
    val += c.g_inner_block(i, x, y) * (c.lapF_k(i) / b2 + (l - 2) * c.gradF_k_norm2(i) / b2)
    return val


def structured_ricci_matrix(c, kind):
    """Full Ricci matrix at the cache's point, one block clause call per
    block pair that the layout's sweep plan does not know to be zero."""
    _check_kind(kind)
    out = np.zeros((c.nbar, c.nbar))
    for X, Y, where in _plan(c, kind).ricci:
        out[where] = _ricci_block(c, kind, X, Y)
    return out


# ---------------------------------------------------------------------------
# Scalar curvature


def structured_scalar(c, kind):
    """Scalar curvature at the cache's point from the closed-form trace
    expressions.

    P on the base uses the div_B P - pi(P) form; P on fiber r uses the
    (1 - nbar) pi(P) + (nbar - 1) sum_j eps_j g(nabla_{E_j} P, E_j) form,
    whose frame sum is the trace of the fiber block of nabla P,
    l_r P(b_r)/b_r + div_F P.  The torsion-free variant has the same scalar
    curvature (the correction to the Ricci tensor is antisymmetric).
    """
    _check_kind(kind)
    if kind == ConnectionKind.LEVI_CIVITA:
        c = c.without_p()

    total = 0.0
    for i in range(c.m):
        total += 2.0 * c.dims[i] * c.lap_B(i) / c.b[i]
        total += c.spec.fibers[i].scalar_curvature / c.b[i] ** 2
        total += c.dims[i] * (c.dims[i] - 1) * c.grad_inner_B(i, i) / c.b[i] ** 2
        for j in range(c.m):
            if j != i:
                total += c.dims[i] * c.dims[j] * c.grad_inner_B(i, j) / (c.b[i] * c.b[j])
        if c.fiber_twisted(i):
            l = c.dims[i]
            b2 = c.b[i] ** 2
            total += 2.0 * (l - 1) * c.lapF_k(i) / b2
            total += (l - 1) * (l - 2) * c.gradF_k_norm2(i) / b2

    if c.P_loc is None:
        return total
    if c.P_loc == "base":
        div_term = c.div_B_P() - c.pi_P()
        total += (c.n - 1) * div_term  # flat-base scalar of the modified base connection
        for i in range(c.m):
            total += (c.n - 1) * c.dims[i] * c.P_b(i) / c.b[i]
            for j in range(c.m):
                total += c.dims[i] * c.dims[j] * c.P_b(j) / c.b[j]
            total += c.dims[i] * div_term
        return total
    r = c.P_loc
    total += (1 - c.nbar) * c.pi_P()
    total += (c.nbar - 1) * (c.dims[r] * c.P_b(r) / c.b[r] + c.div_F_P())
    return total
