"""Component formulas for covariant derivatives, curvature, Ricci and scalar
curvature on multiply warped/twisted products, dispatched on the block
pattern of the arguments and the location of the torsion field P.

Each operation evaluates the closed-form clause matching its argument
pattern; nothing here touches finite differences, so agreement with the
`chart_core` oracle is a genuine two-path check.  The data the clauses read
(`StructuredGeometryCache`) is one jet walk over a stack of points: the
warpings, every fiber metric entry and the components of P with their
exact partials, each with a leading point axis, read back by slicing.

Clause arguments are block ids, "base" or a fiber index.  Every formula
is multilinear in its arguments and the same for every fiber index, so the
coordinate vectors of each block determine every value: a clause returns
the block of its tensor over the coordinate vectors of its argument blocks,
out[p, l, x, y, z] for R(X, Y)Z, and reads the cache arrays whole.  A term
v(...) X along an argument X is a write of v onto the (l, x) diagonal of
X's block of rows (`_diag`), not a product with X's components, so it does
no arithmetic beyond v: a non-finite v stays on that diagonal, where a
product with the other coordinate vectors would smear NaN (0 * inf) across
the block.  Each operation is one call per stack of points, an (N, n_bar)
array and the only point shape, and takes the stack's cache, which carries
the spec and P; its value has a leading point axis, of length 1 for a
one-row stack.  Row k of a value holds the bits of the same call on the
cache of the one-row stack of point k.  The covariant derivative, the
curvature tensor, the Ricci matrix and the scalar are whole, one clause
call per block pair or triple.  The curvature fills each mirrored triple,
one whose clause is R(X, Y)Z = -R(Y, X)Z of another, from that triple's
slice.

Which clauses a whole-tensor operation runs is a sweep plan, made once per
block layout, P block and kind (`_sweep_plan`): it leaves out the block
patterns whose clauses give exact zeros, each class stated with the clause
formulas it is read from, and the symmetrized kind's dpi term where dpi
vanishes.

Every product over a point axis is written in a form whose rows keep the
bits of the one-point product: matrix products with a stacked operand,
vector dots as (1, d) @ (d, 1) products, einsums with a leading point index
and squares through libm pow (`np.float_power`), as Python's `b ** 2` is.
A multi-term sum adds its terms in the order the formula states them, the
diagonal writes included.
"""

from __future__ import annotations

import copy
import functools
import itertools
from typing import NamedTuple

import numpy as np

from .connections import ConnectionKind
from .errors import CaseMismatch, WarpcurvError
from .exprs import eval_jet
from .geometry import ProductManifoldSpec

_ALL = slice(None)


def _outer(u, v):
    """Outer product at each point: out[p, i, j...] = u[p, i] v[p, j...]."""
    return u[(...,) + (None,) * (v.ndim - 1)] * v[:, None]


def _mv(A, v):
    """A v at each point for the (N, d) rows v, A a (k, d) matrix or one per point."""
    return (A @ v[..., :, None])[..., 0]


def _dot(u, v):
    """u . v at each point, each row with the bits of numpy's vector dot."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _quad(u, A, v):
    """u A v at each point, each row with the bits of numpy's u @ A @ v."""
    return (u[..., None, :] @ A @ v[..., :, None])[..., 0, 0]


def _diag(a, axis):
    """The writeable view of a[:, l, ...], the rows l of one block then the
    argument axes, on its entries with l equal to the index on argument axis
    `axis` (2, 3 or 4), that axis kept: adding v[p, x, ...] there adds the
    term v X for X the argument on that axis, whose block the rows are."""
    args = "xyz"[:a.ndim - 2]
    return np.einsum(f"p{args[axis - 2]}{args}->p{args}", a)


def _add_wedge(out, K):
    """Add K(X, Z) Y - K(Y, Z) X to `out`, a curvature block over the rows of
    X's and Y's block, from K[p, x, z]: K[p, x, z] on l = y, then minus
    K[p, y, z] on l = x, in the formula's order."""
    _diag(out, 3)[...] += K[:, :, None]
    _diag(out, 2)[...] -= K[:, None]
    return out


def _once(method):
    """A cache method computed once per cache and argument tuple; an array
    value is read-only, as every caller shares it."""
    name = method.__name__

    @functools.wraps(method)
    def once(self, *args):
        key = name, args
        try:
            return self._memo[key]
        except KeyError:
            val = self._memo[key] = method(self, *args)
            if isinstance(val, np.ndarray):
                val.flags.writeable = False
            return val

    return once


class StructuredGeometryCache:
    """Geometric data feeding the component formulas at a stack of points.

    Holds the warping values with their exact first and second partials,
    the fiber metrics with their partials, analytic Christoffel symbols and
    curvature, and the torsion-field data (components, partials, pi), each
    with a leading axis over the points.  Every value and partial is a row
    of one eval_jet walk over the stack, and row k holds the bits of a cache
    made at point k alone.  The quantities the clauses derive from them
    (warping gradients, d_beta d_a ln b_i, nabla P, ...) are computed once
    per cache.
    """

    def __init__(self, spec: ProductManifoldSpec, P, points):
        """The cache at every row of an (N, n_bar) stack of points; the
        first failing point raises what a cache made there alone raises,
        and a stack without rows raises WarpcurvError."""
        pts, val, grad, hess = _cache_jets(spec, P, points)
        N = len(pts)
        self.spec = spec
        self.p = pts
        self.P = P
        self.n = spec.n
        self.m = spec.m
        self.nbar = spec.n_bar
        self.dims = spec.fiber_dims
        self.zeros = np.zeros(N)
        self.zeros.flags.writeable = False

        self.gB = np.diag([float(s) for s in spec.base.signs])
        self.gBinv = np.linalg.inv(self.gB)

        m = self.m
        base = spec.block_slice("base")
        fibers = [spec.block_slice(i) for i in range(m)]

        self.b = val[:, :m].T
        self.db_base = [grad[:, i, base] for i in range(m)]
        self.db_fiber = [grad[:, i, sl] for i, sl in enumerate(fibers)]
        self._d_base = grad[:, :m, base]
        # whether b_i has a non-zero fiber gradient at some point of the
        # stack; a warping of the base alone has none anywhere
        self.twisted = [bool(np.any(d)) for d in self.db_fiber]
        self.H_bb = [hess[:, i, base, base] for i in range(m)]
        self.H_bf = [hess[:, i, base, sl] for i, sl in enumerate(fibers)]
        self.H_ff = [hess[:, i, sl, sl] for i, sl in enumerate(fibers)]

        self.gF, self.dgF, self.GF, self.RF, self.RicF = [], [], [], [], []
        row = m
        for f, sl in zip(spec.fibers, fibers):
            l = f.dim
            rows = slice(row, row + l * l)
            row += l * l
            g = val[:, rows].reshape(N, l, l)
            self.gF.append(g)
            # dgF[i][p, c, a, b] = d_c g_ab in the fiber's own coordinates
            self.dgF.append(grad[:, rows, sl].transpose(0, 2, 1).reshape(N, l, l, l))
            # sin and cos of the sphere chart stay libm's, one point at a time
            self.GF.append(np.array([f.christoffels(q) for q in pts[:, sl]]))
            self.RF.append(f.curvature(g))
            self.RicF.append(f.ricci(g))
        self.gFinv = [np.linalg.inv(g) for g in self.gF]

        # torsion field data within its hosting block
        if P is None:
            self.P_loc = self.Pc = self.dPc = None
        else:
            self.P_loc = P.location
            self.Pc = val[:, row:]
            # dPc[p, a, c] = d_a P^c
            self.dPc = grad[:, row:, spec.block_slice(P.location)].transpose(0, 2, 1)
        self._p_free = None
        self._memo = {}

    def without_p(self):
        """This stack's data with the torsion field cleared, made at most once.

        Equal to `StructuredGeometryCache(spec, None, points)`: nothing but
        the P fields depends on P, so the view shares every other array.
        """
        if self.P_loc is None:
            return self
        if self._p_free is None:
            view = copy.copy(self)
            view.P = view.P_loc = view.Pc = view.dPc = None
            view._memo = {}
            self._p_free = view
        return self._p_free

    # -- basic block helpers -------------------------------------------------

    def dim(self, block):
        """The dimension of the block."""
        return self.n if block == "base" else self.dims[block]

    @_once
    def g_inner_block(self, i):
        """g(e_a, e_b) over fiber i's coordinate vectors, out[p, a, b]."""
        return self.b2[i][:, None, None] * self.gF[i]

    def _lower(self, block, A):
        """g(e_a, A_b) over the block's coordinate vectors e_a at each point,
        out[p, a, b], for the (N, d, k) block components A of k vectors."""
        if block == "base":
            return self.gB @ A
        return self.b2[block][:, None, None] * (self.gF[block] @ A)

    # -- warping derivatives --------------------------------------------------

    @functools.cached_property
    def b2(self):
        """b2[i] = b_i squared through libm pow, with the bits of Python's
        b ** 2."""
        return np.float_power(self.b, 2.0)

    @functools.cached_property
    def grad_inner_B(self):
        """grad_inner_B[p, i, j] = g_B(grad_B b_i, grad_B b_j); the base
        metric is diagonal, so each entry has the bits of a vector dot."""
        return self._d_base @ self.gBinv @ self._d_base.transpose(0, 2, 1)

    def P_b(self, i):
        """P(b_i) at each point."""
        if self.P_loc == "base" or self.P_loc == i:
            return self._P_b(i)
        return self.zeros

    @_once
    def _P_b(self, i):
        return _dot(self.Pc, self.db_base[i] if self.P_loc == "base" else self.db_fiber[i])

    @_once
    def d_ln_b(self, i):
        """Base partials of ln b_i, out[p, a] = d_a b_i / b_i."""
        return self.db_base[i] / self.b[i][:, None]

    @_once
    def grad_B(self, i):
        """Components of grad_B b_i on the base block."""
        return _mv(self.gBinv, self.db_base[i])

    @_once
    def grad_F(self, i):
        """Components of grad_{F_i} b_i (gradient of b_i w.r.t. g_{F_i})."""
        return _mv(self.gFinv[i], self.db_fiber[i])

    @_once
    def lap_B(self, i):
        return np.einsum("ab,pab->p", self.gBinv, self.H_bb[i])

    @_once
    def _d2_ln_fb(self, i):
        """Mixed partials d_beta d_a ln b_i, shape (N, l_i, n)."""
        return (np.swapaxes(self.H_bf[i], 1, 2) / self.b[i][:, None, None]
                - _outer(self.db_fiber[i], self.db_base[i]) / self.b2[i][:, None, None])

    # twisted-only data built on k = ln b_i restricted to fiber i

    @_once
    def k_fiber(self, i):
        """Fiber partials of ln b_i."""
        return self.db_fiber[i] / self.b[i][:, None]

    @_once
    def hessF_k(self, i):
        """Fiber-metric Hessian of ln b_i (base point held fixed)."""
        d2k = (self.H_ff[i] / self.b[i][:, None, None]
               - _outer(self.db_fiber[i], self.db_fiber[i]) / self.b2[i][:, None, None])
        return d2k - np.einsum("pcab,pc->pab", self.GF[i], self.k_fiber(i))

    @_once
    def lapF_k(self, i):
        return np.einsum("pab,pab->p", self.gFinv[i], self.hessF_k(i))

    @_once
    def gradF_k(self, i):
        """g_F-gradient components of ln b_i."""
        return _mv(self.gFinv[i], self.k_fiber(i))

    @_once
    def gradF_k_norm2(self, i):
        dk = self.k_fiber(i)
        return _quad(dk, self.gFinv[i], dk)

    # -- torsion field helpers --------------------------------------------------

    @_once
    def pi(self, block):
        """pi(e_v) = g(e_v, P) over the block's coordinate vectors, out[p, v]."""
        if block != self.P_loc:
            return np.zeros((len(self.p), self.dim(block)))
        return self._lower(block, self.Pc[..., None])[..., 0]

    def pi_P(self):
        if self.P_loc is None:
            return self.zeros
        g = self.gB if self.P_loc == "base" else self.gF[self.P_loc]
        gPP = _quad(self.Pc, g, self.Pc)
        return gPP if self.P_loc == "base" else self.b2[self.P_loc] * gPP

    def div_B_P(self):
        if self.P_loc != "base":
            return self.zeros
        return np.trace(self.dPc, axis1=1, axis2=2)

    @_once
    def div_F_P(self):
        """Divergence of P on (F_r, g_{F_r})."""
        if self.P_loc is None or self.P_loc == "base":
            return self.zeros
        r = self.P_loc
        return (np.trace(self.dPc, axis1=1, axis2=2)
                + np.einsum("paab,pb->p", self.GF[r], self.Pc))

    def nablaF_V_P(self, Vf):
        """Fiber components of nabla^{F_r}_V P at each point for one vector
        V, with V and P on fiber r."""
        r = self.P_loc
        return (np.swapaxes(self.dPc, 1, 2) @ Vf
                + np.einsum("pcab,a,pb->pc", self.GF[r], Vf, self.Pc))

    def _fiber_nabla_P(self, Vf):
        """Fiber-r components of the Levi-Civita derivative nabla_V P for V, P
        on fiber r; its base components are -b_r g_F(V, P) grad_B b_r."""
        r = self.P_loc
        b = self.b[r][:, None]
        V_ln = _dot(Vf, self.db_fiber[r])[:, None] / b
        gVP = _quad(Vf, self.gF[r], self.Pc)[:, None]
        return (V_ln * self.Pc + (self.P_b(r)[:, None] / b) * Vf + self.nablaF_V_P(Vf)
                - (gVP / b) * self.grad_F(r))

    @_once
    def nabla_P(self):
        """Levi-Civita nabla P within P's block: column a holds the block
        components of nabla_{d_a} P for the block's coordinate vector d_a,
        shape (N, d, d)."""
        if self.P_loc == "base":
            return np.swapaxes(self.dPc, 1, 2)  # flat base
        return np.stack([self._fiber_nabla_P(e) for e in np.eye(self.dims[self.P_loc])],
                        axis=-1)

    def g_W_nabla_V_P(self, block):
        """g(e_w, nabla_{e_v} P) over the block's coordinate vectors,
        out[p, w, v]: zero off P's block, where nabla_V P = 0 for V on a fiber
        without P."""
        if block != self.P_loc:
            d = self.dim(block)
            return np.zeros((len(self.p), d, d))
        return self._lower(block, self.nabla_P())

    def dpi(self, bx, by):
        """Exterior derivative dpi(A, B) = A(pi(B)) - B(pi(A)) - pi([A, B])
        over the coordinate vectors of blocks bx and by, out[p, a, b]."""
        r = self.P_loc
        if r == "base" and bx == by == "base":
            dpiB = self.dPc @ self.gB  # dpiB[a, b] = d_a(g_bc P^c) = d_a P^c g_cb
            return dpiB - np.swapaxes(dpiB, 1, 2)
        if r is not None and r != "base":
            if bx == "base" and by == r:
                return 2.0 * _outer(self.d_ln_b(r), self.pi(r))
            if bx == r and by == "base":
                return -2.0 * _outer(self.pi(r), self.d_ln_b(r))
            if bx == by == r:
                gf = self.gF[r]
                gfP = _mv(gf, self.Pc)
                # d_beta pi_gamma = 2 b (d_beta b) (g_F P)_gamma + b^2 d_beta(g_F P)_gamma
                dgfP = (np.einsum("pbgc,pc->pbg", self.dgF[r], self.Pc)
                        + np.einsum("pbc,pcg->pbg", self.dPc, gf))
                dpi_ff = ((2.0 * self.b[r])[:, None, None] * _outer(self.db_fiber[r], gfP)
                          + self.b2[r][:, None, None] * dgfP)
                return dpi_ff - np.swapaxes(dpi_ff, 1, 2)
        return np.zeros((len(self.p), self.dim(bx), self.dim(by)))


def _cache_jets(spec, P, points):
    """The checked (N, n_bar) stack of points, then the values (N, k),
    gradients (N, k, n_bar) and Hessians (N, k, n_bar, n_bar) of the
    warpings, every fiber metric entry and P's components at its rows, from
    one eval_jet walk."""
    pts = spec.point_stack(points)
    if not len(pts):
        raise WarpcurvError("point stack has no points")
    spec.check_point(pts)
    entries = [e for i, f in enumerate(spec.fibers)
               for row in f.metric_exprs(spec.fiber_coord_names(i)) for e in row]
    comps = []
    if P is not None:
        P.validate(spec)
        comps = P.components
    return (pts, *eval_jet([*spec.warpings, *entries, *comps], spec.coord_names, pts))


# ---------------------------------------------------------------------------
# Argument checks


def _check_kind(kind):
    if not isinstance(kind, ConnectionKind):
        raise CaseMismatch(f"unknown connection kind {kind!r}")


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

    clauses: list  # (bx, by, bz, slice of out) of each triple whose clause runs
    mirrored: np.ndarray  # (n_bar,) * 3 mask of the entries (a, b, d) of mirrored triples
    dpi: list  # (bx, by, [(bz, slice)...]) of each pair whose dpi term runs (symmetrized kind)
    dpi_zero: np.ndarray | None  # the entries l = d of the other triples
    nabla: list  # (bx, by, slice) of each block pair whose nabla can be non-zero
    ricci: list  # (bx, by, slice) of each block pair whose Ricci value can be non-zero


@functools.lru_cache(maxsize=64)
def _sweep_plan(n, dims, r, sym):
    """The sweep plan of base dimension n, fiber dimensions dims and P's
    block r on the dispatched view, for the symmetrized kind if sym.  Its
    slices index values with a leading point axis."""
    blocks = ["base", *range(len(dims))]
    bounds = np.cumsum([0, n, *dims])
    sl = {b: slice(int(bounds[k]), int(bounds[k + 1])) for k, b in enumerate(blocks)}
    block_of = np.repeat(np.arange(len(blocks)), np.diff(bounds))
    mirrored = np.array([[[_mirrored(bx, by, bz) for bz in blocks] for by in blocks]
                         for bx in blocks])
    triples = [t for t in itertools.product(blocks, repeat=3) if not _distinct_fibers(*t)]
    pairs = list(itertools.product(blocks, repeat=2))

    def where(*t):
        return (_ALL, _ALL, *(sl[b] for b in t))

    dpi_zero = None
    if sym:
        live = np.array([[_dpi_pair(bx, by, r) for by in blocks] for bx in blocks])
        diag = np.eye(len(block_of), dtype=bool)
        dpi_zero = diag[:, None, None, :] & ~live[np.ix_(block_of, block_of)][None, :, :, None]
    return _SweepPlan(
        clauses=[(*t, where(*t)) for t in triples
                 if not _mirrored(*t) and not _zero_triple(*t, r)],
        mirrored=mirrored[np.ix_(block_of, block_of, block_of)],
        dpi=[(bx, by, [(t[2], where(*t)) for t in triples if t[:2] == (bx, by)])
             for bx, by in pairs if sym and _dpi_pair(bx, by, r)],
        dpi_zero=dpi_zero,
        nabla=[(bx, by, where(bx, by)) for bx, by in pairs if not _zero_nabla(bx, by, r, sym)],
        ricci=[(bx, by, (_ALL, sl[bx], sl[by])) for bx, by in pairs if not _zero_ricci(bx, by)],
    )


def _plan(c, kind):
    """The sweep plan of the cache's layout for `kind`, keyed as
    `_dispatch` views the cache."""
    view, _, sym = _dispatch(c, kind, None, None)
    return _sweep_plan(c.n, c.dims, view.P_loc, sym)


# ---------------------------------------------------------------------------
# Covariant derivative clauses
#
# Each clause takes the blocks bx, by of X and Y and returns the ambient
# components of nabla_X Y at each point over their coordinate vectors,
# out[p, l, x, y].


def structured_covariant_derivative(c, kind):
    """Whole covariant derivative out[p, l, a, b], the component l of
    nabla_{e_a} e_b at each of the cache's points, one block clause call per
    block pair that the layout's sweep plan does not know to be zero."""
    _check_kind(kind)
    out = np.zeros((len(c.p),) + (c.nbar,) * 3)
    for bx, by, where in _plan(c, kind).nabla:
        out[where] = _covariant_block(c, kind, bx, by)
    return out


def _covariant_block(c, kind, bx, by):
    """nabla_X Y over blocks bx, by: the Levi-Civita clause plus pi(Y) X,
    and pi(X) Y for the symmetrized kind."""
    out = _levi_civita_derivative(c, bx, by)
    if kind in (ConnectionKind.SEMI_SYMMETRIC_NON_METRIC, ConnectionKind.SYMMETRIZED_AFFINE):
        _diag(out[:, c.spec.block_slice(bx)], 2)[...] += c.pi(by)[:, None]
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        _diag(out[:, c.spec.block_slice(by)], 3)[...] += c.pi(bx)[:, :, None]
    return out


def _levi_civita_derivative(c, bx, by):
    """Levi-Civita nabla_X Y over blocks bx, by."""
    out = np.zeros((len(c.p), c.nbar, c.dim(bx), c.dim(by)))
    if bx == "base" and by == "base":
        return out  # flat base

    if bx == "base":  # nabla_X V = X(ln b_i) V
        _diag(out[:, c.spec.block_slice(by)], 3)[...] = c.d_ln_b(by)[:, :, None]
        return out

    if by == "base":  # nabla_V X = X(ln b_i) V
        _diag(out[:, c.spec.block_slice(bx)], 2)[...] = c.d_ln_b(bx)[:, None]
        return out

    i = bx
    if by != i:
        return out

    # same fiber: twisted-product formula
    b = c.b[i][:, None, None]
    blk = out[:, c.spec.block_slice(i)]
    _diag(blk, 3)[...] = c.k_fiber(i)[:, :, None]
    _diag(blk, 2)[...] += c.k_fiber(i)[:, None]
    blk += c.GF[i]
    blk -= _outer(c.grad_F(i), c.gF[i] / b)
    out[:, : c.n] = -_outer(c.grad_B(i), b * c.gF[i])
    return out


# ---------------------------------------------------------------------------
# Curvature clauses: out[p, l, x, y, z] for R(X, Y)Z


def _curvature_block(c, kind, bx, by, bz):
    """R(X, Y)Z over blocks bx, by, bz: the clause of their block pattern,
    the per-pattern form of `structured_curvature`.  The symmetrized kind
    adds `_dpi_term`."""
    c, clause, sym = _dispatch(c, kind, _curv_p_base, _curv_p_fiber)
    out = clause(c, bx, by, bz)
    if sym:
        _dpi_term(c, out, c.dpi(bx, by), bz)
    return out


def _dpi_term(c, out, dpi, bz):
    """Add [X(pi(Y)) - Y(pi(X)) - pi([X,Y])] Z = dpi(X, Y) Z, the
    symmetrized kind's term, to the block `out` of R(X, Y)Z, given
    dpi = dpi(X, Y)."""
    _diag(out[:, c.spec.block_slice(bz)], 4)[...] += dpi[..., None]


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
    """Whole curvature tensor out[p, l, a, b, d] = R(e_a, e_b)e_d at each of
    the cache's points, from the layout's sweep plan: one block clause call
    per block triple, except the triples the plan knows to be zero, which
    stay zero.  Each mirrored triple runs no clause: its slice is its
    mirror's clause value with the X and Y axes swapped and the sign
    flipped, taken before the dpi term of the symmetrized kind, so it holds
    the bits of its own clause.  The dpi term runs where dpi(X, Y) can be
    non-zero; elsewhere the entries l = d get the +0.0 that the zero term
    adds."""
    _check_kind(kind)
    c, clause, sym = _dispatch(c, kind, _curv_p_base, _curv_p_fiber)
    plan = _sweep_plan(c.n, c.dims, c.P_loc, sym)
    out = np.zeros((len(c.p),) + (c.nbar,) * 4)
    for bx, by, bz, where in plan.clauses:
        out[where] = clause(c, bx, by, bz)
    # a mirror is never mirrored, so no entry read here is written here
    np.negative(out.swapaxes(2, 3), out=out, where=plan.mirrored)
    if sym:
        np.add(out, 0.0, out=out, where=plan.dpi_zero)
        for bx, by, targets in plan.dpi:
            dpi = c.dpi(bx, by)
            for bz, where in targets:
                _dpi_term(c, out[where], dpi, bz)
    return out


def _antisym(clause, c, bx, by, bz):
    """R(X, Y)Z = -R(Y, X)Z."""
    return -np.swapaxes(clause(c, by, bx, bz), 2, 3)


def _p_block_terms(c):
    """P terms of R(X, Y)Z for X, Y, Z on P's block:
    [g(Z, nabla_X P) - pi(Z) pi(X)] Y - [g(Z, nabla_Y P) - pi(Z) pi(Y)] X."""
    r = c.P_loc
    d = c.dim(r)
    pi = c.pi(r)
    K = np.swapaxes(c.g_W_nabla_V_P(r) - _outer(pi, pi), 1, 2)
    return _add_wedge(np.zeros((len(c.p), d, d, d, d)), K)


def _curv_p_base(c, bx, by, bz):
    """Clauses for P on the base, semi-symmetric connection; on the P-free view
    they are the Levi-Civita clauses, which `_curv_p_fiber` builds on."""
    if _mirrored(bx, by, bz):
        return _antisym(_curv_p_base, c, bx, by, bz)
    out = np.zeros((len(c.p), c.nbar, c.dim(bx), c.dim(by), c.dim(bz)))

    if bx == "base" and by == "base" and bz == "base":
        # flat base: only the pi terms of P on the base curve it
        if c.P_loc == "base":
            out[:, : c.n] = _p_block_terms(c)
        return out

    if bx != "base" and by == "base" and bz == "base":
        i = bx
        pi = c.pi("base")
        coef = (c.H_bb[i] / c.b[i][:, None, None]
                + np.swapaxes(c.g_W_nabla_V_P("base"), 1, 2) - _outer(pi, pi))
        _diag(out[:, c.spec.block_slice(i)], 2)[...] = -coef[:, None]
        return out

    if bx == "base" and by == "base" and bz != "base":
        return out

    if bx != "base" and by != "base" and bz == "base":
        if bx == by:
            _add_wedge(out[:, c.spec.block_slice(bx)], c._d2_ln_fb(bx))
        return out

    if bx == "base" and by != "base" and bz != "base":
        i = by
        if bz != i:
            return out
        # R(X, V)W with V, W on the same fiber: X(W(ln b_i)) V - g(W, V) bracket
        b = c.b[i][:, None, None]
        sl = c.spec.block_slice(i)
        d2 = c._d2_ln_fb(i)
        _diag(out[:, sl], 3)[...] = np.swapaxes(d2, 1, 2)[:, :, None]
        bracket = np.zeros((len(c.p), c.nbar, c.n))
        bracket[:, : c.n] = c.gBinv @ c.H_bb[i] / b
        _diag(bracket[:, : c.n], 2)[...] += c.P_b(i)[:, None] / c.b[i][:, None]
        bracket[:, sl] = c.gFinv[i] @ d2 / c.b2[i][:, None, None]
        out -= np.einsum("plx,pzy->plxyz", bracket, c.g_inner_block(i))
        return out

    i, j, k = bx, by, bz  # all fibers
    if i == j == k:
        return _curv_same_fiber(c, i)
    if j == k and i != j:
        # R(U, V)W with V, W in one fiber, U in another
        coef = c.grad_inner_B[:, j, i] / (c.b[i] * c.b[j]) + c.P_b(j) / c.b[j]
        _diag(out[:, c.spec.block_slice(i)], 2)[...] = (
            -coef[:, None, None, None] * c.g_inner_block(j)[:, None])
        return out
    return out  # i == j != k, or all distinct


def _curv_same_fiber(c, i):
    """R(U, V)W for U, V, W on fiber i, with the P(b_i)/b_i term of P on the base.

    R(U, V)W = R^F(U, V)W + A(U, W) V - A(V, W) U + g(U, W) S_V - g(V, W) S_U,
    where S_V is grad_B V(ln b_i) plus, on a twisted fiber, a fiber part.
    """
    b = c.b[i]
    sl = c.spec.block_slice(i)
    g = c.g_inner_block(i)
    coef = c.grad_inner_B[:, i, i] / c.b2[i] + c.P_b(i) / b
    S = np.zeros((len(c.p), c.nbar, c.dims[i]))
    S[:, : c.n] = c.gBinv @ np.swapaxes(c._d2_ln_fb(i), 1, 2)
    if c.twisted[i]:
        # fiber-direction second derivatives of ln b_i, absent for warpings
        b2 = c.b2[i]
        dk = c.k_fiber(i)
        Hk = c.hessF_k(i)
        coef = (coef + c.gradF_k_norm2(i) / b2)[:, None, None]
        A = coef * g + Hk - _outer(dk, dk)
        S[:, sl] = (c.gFinv[i] @ Hk - _outer(c.gradF_k(i), dk)) / b2[:, None, None]
    else:
        A = coef[:, None, None] * g
    out = np.einsum("pxz,ply->plxyz", g, S) - np.einsum("pyz,plx->plxyz", g, S)
    out[:, sl] += _add_wedge(c.RF[i].copy(), A)
    return out


def _curv_p_fiber(c, bx, by, bz):
    """Clauses for P on fiber r, semi-symmetric connection: the P-free clause
    of the pattern plus its P terms."""
    r = c.P_loc
    if _mirrored(bx, by, bz):
        return _antisym(_curv_p_fiber, c, bx, by, bz)

    out = _curv_p_base(c.without_p(), bx, by, bz)
    ln_b = c.d_ln_b(r)  # X(ln b_r) over the base coordinate vectors

    if bx == "base" and by == "base":
        if bz == r:
            zeros = np.zeros((len(c.p), c.n, c.n, c.n, c.dims[r]))
            out[:, : c.n] += _add_wedge(zeros, _outer(ln_b, c.pi(r)))
    elif by == "base":  # R(V, X)Y
        if bx == r:
            _diag(out[:, : c.n], 3)[...] -= _outer(c.pi(r), ln_b)[:, :, None]
    elif bz == "base":  # R(U, V)X
        if bx == r:
            _diag(out[:, c.spec.block_slice(by)], 3)[...] -= _outer(c.pi(r), ln_b)[:, :, None]
        if by == r:
            _diag(out[:, c.spec.block_slice(bx)], 2)[...] += _outer(c.pi(r), ln_b)[:, None]
    elif bx == "base":  # R(X, V)W
        _diag(out[:, c.spec.block_slice(by)], 3)[...] += _outer(ln_b, c.pi(bz))[:, :, None]
        if by == bz:
            K = _outer(c.pi(bz), c.pi(by)) - c.g_W_nabla_V_P(by)
            _diag(out[:, : c.n], 2)[...] += np.swapaxes(K, 1, 2)[:, None]
    elif bx == by == bz:  # R(U, V)W on one fiber
        if bx == r:
            out[:, c.spec.block_slice(r)] += _p_block_terms(c)
    elif by == bz:  # R(U, V)W: V, W in fiber j, U in fiber i
        piZ = c.pi(bz)
        K = _outer(piZ, c.pi(by)) - c.g_W_nabla_V_P(by)
        _diag(out[:, c.spec.block_slice(bx)], 2)[...] += np.swapaxes(K, 1, 2)[:, None]
        _diag(out[:, c.spec.block_slice(by)], 3)[...] -= _outer(c.pi(bx), piZ)[:, :, None]
    return out


# ---------------------------------------------------------------------------
# Ricci clauses: out[p, x, y] for Ric(X, Y)


def _ricci_block(c, kind, bx, by):
    """Ric(X, Y) over blocks bx, by: the clause of their block pattern."""
    c, clause, sym = _dispatch(c, kind, _ricci_p_base, _ricci_p_fiber)
    val = clause(c, bx, by)
    return val + c.dpi(bx, by) if sym else val


def _ricci_p_base(c, bx, by):
    if bx == "base" and by == "base":
        # g(Y, nabla_X P) - pi(X) pi(Y): zero unless P is on the base
        pi = c.pi("base")
        p_term = np.swapaxes(c.g_W_nabla_V_P("base"), 1, 2) - _outer(pi, pi)
        total = (c.n - 1) * p_term
        for i in range(c.m):
            total = total + c.dims[i] * (c.H_bb[i] / c.b[i][:, None, None] + p_term)
        return total
    if bx == "base":  # Ric(X, V) = (l_i - 1) V(X(ln b_i))
        return (c.dims[by] - 1) * np.swapaxes(c._d2_ln_fb(by), 1, 2)
    if by == "base":
        return (c.dims[bx] - 1) * c._d2_ln_fb(bx)
    i = bx
    if by != i:
        return np.zeros((len(c.p), c.dims[i], c.dims[by]))
    bracket = c.lap_B(i) / c.b[i]
    bracket = bracket + (c.dims[i] - 1) * c.grad_inner_B[:, i, i] / c.b2[i]
    for j2 in range(c.m):
        if j2 != i:
            bracket = bracket + c.dims[j2] * c.grad_inner_B[:, i, j2] / (c.b[i] * c.b[j2])
    if c.P_loc == "base":
        # weight (nbar - 1) on P(b_i)/b_i: forced by the frame trace of the
        # curvature clauses and confirmed against the generic oracle
        bracket = bracket + (c.nbar - 1) * c.P_b(i) / c.b[i]
    return (c.RicF[i] + bracket[:, None, None] * c.g_inner_block(i)
            + _ricci_twist_extra(c, i))


def _ricci_p_fiber(c, bx, by):
    """Ric(X, Y) for P on fiber r: the P-free clause plus the P terms."""
    r = c.P_loc
    nbar = c.nbar
    val = _ricci_p_base(c.without_p(), bx, by)
    if bx != "base" and by == "base":  # Ric(V, X)
        val += (1 - nbar) * _outer(c.pi(bx), c.d_ln_b(r))
    elif bx == "base" and by != "base":  # Ric(X, V)
        val += (nbar - 1) * _outer(c.d_ln_b(r), c.pi(by))
    elif bx == by != "base":
        pi = c.pi(bx)
        val += (nbar - 1) * (np.swapaxes(c.g_W_nabla_V_P(bx), 1, 2) - _outer(pi, pi))
    return val


def _ricci_twist_extra(c, i):
    """Fiber-Hessian contribution to Ric(V, W), zero for plain warpings."""
    if not c.twisted[i]:
        return 0.0
    l = c.dims[i]
    b2 = c.b2[i]
    dk = c.k_fiber(i)
    val = (l - 2) * c.hessF_k(i)
    val = val + (2 - l) * _outer(dk, dk)
    return val + c.g_inner_block(i) * (
        c.lapF_k(i) / b2 + (l - 2) * c.gradF_k_norm2(i) / b2)[:, None, None]


def structured_ricci_matrix(c, kind):
    """Full Ricci matrix out[p, a, b] at each of the cache's points, one
    block clause call per block pair that the layout's sweep plan does not
    know to be zero."""
    _check_kind(kind)
    out = np.zeros((len(c.p), c.nbar, c.nbar))
    for bx, by, where in _plan(c, kind).ricci:
        out[where] = _ricci_block(c, kind, bx, by)
    return out


# ---------------------------------------------------------------------------
# Scalar curvature


def structured_scalar(c, kind):
    """Scalar curvature at each of the cache's points from the closed-form
    trace expressions.

    P on the base uses the div_B P - pi(P) form; P on fiber r uses the
    (1 - nbar) pi(P) + (nbar - 1) sum_j eps_j g(nabla_{E_j} P, E_j) form,
    whose frame sum is the trace of the fiber block of nabla P,
    l_r P(b_r)/b_r + div_F P.  The torsion-free variant has the same scalar
    curvature (the correction to the Ricci tensor is antisymmetric).
    """
    _check_kind(kind)
    if kind == ConnectionKind.LEVI_CIVITA:
        c = c.without_p()

    total = c.zeros
    for i in range(c.m):
        b, b2, l = c.b[i], c.b2[i], c.dims[i]
        total = total + 2.0 * l * c.lap_B(i) / b
        total = total + c.spec.fibers[i].scalar_curvature / b2
        total = total + l * (l - 1) * c.grad_inner_B[:, i, i] / b2
        for j in range(c.m):
            if j != i:
                total = total + l * c.dims[j] * c.grad_inner_B[:, i, j] / (b * c.b[j])
        if c.twisted[i]:
            total = total + 2.0 * (l - 1) * c.lapF_k(i) / b2
            total = total + (l - 1) * (l - 2) * c.gradF_k_norm2(i) / b2

    if c.P_loc == "base":
        div_term = c.div_B_P() - c.pi_P()
        total = total + (c.n - 1) * div_term  # flat-base scalar of the modified base connection
        for i in range(c.m):
            total = total + (c.n - 1) * c.dims[i] * c.P_b(i) / c.b[i]
            for j in range(c.m):
                total = total + c.dims[i] * c.dims[j] * c.P_b(j) / c.b[j]
            total = total + c.dims[i] * div_term
    elif c.P_loc is not None:
        r = c.P_loc
        total = total + (1 - c.nbar) * c.pi_P()
        total = total + (c.nbar - 1) * (c.dims[r] * c.P_b(r) / c.b[r] + c.div_F_P())
    return total
