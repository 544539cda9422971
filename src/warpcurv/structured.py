"""Component formulas for covariant derivatives, curvature, Ricci and scalar
curvature on multiply warped/twisted products, dispatched on the block
pattern of the arguments and the location of the torsion field P.

Each operation evaluates the closed-form clause matching its argument
pattern; nothing here touches finite differences, so agreement with the
`chart_core` oracle is a genuine two-path check.

Arguments are `BlockVector`s: constant components over one block of the
chart, understood as coordinate vector fields with constant components.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .connections import ConnectionKind
from .errors import CaseMismatch
from .exprs import eval_jet, jet_env
from .geometry import ProductManifoldSpec


@dataclass
class BlockVector:
    """Constant-component vector supported on one block of the chart."""

    block: object  # "base" or fiber index
    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)


def base_vec(*components):
    return BlockVector("base", np.array(components, dtype=float))


def fiber_vec(i, *components):
    return BlockVector(i, np.array(components, dtype=float))


class StructuredGeometryCache:
    """Per-point geometric data feeding the component formulas.

    Holds the warping values with their exact first and second partials,
    the fiber metrics with their analytic Christoffel symbols and
    curvature, and the torsion-field data (components, partials, pi).
    """

    def __init__(self, spec: ProductManifoldSpec, P, p):
        p = np.asarray(p, dtype=float)
        spec.check_point(p)
        self.spec = spec
        self.p = p
        self.P = P
        self.n = spec.n
        self.m = spec.m
        self.nbar = spec.n_bar
        self.dims = spec.fiber_dims

        self.gB = np.diag([float(s) for s in spec.base.signs])
        self.gBinv = np.linalg.inv(self.gB)

        names = spec.coord_names
        nb = self.n
        self.b = []
        self.db_base = []
        self.db_fiber = []
        self.H_bb = []
        self.H_bf = []
        self.H_ff = []
        for i, w in enumerate(spec.warpings):
            jet = eval_jet(w, names, p, order=2)
            sl = spec.block_slice(i)
            self.b.append(jet.val)
            self.db_base.append(jet.grad[:nb])
            self.db_fiber.append(jet.grad[sl])
            self.H_bb.append(jet.hess[:nb, :nb])
            self.H_bf.append(jet.hess[:nb, sl])
            self.H_ff.append(jet.hess[sl, sl])

        self.gF = []
        self.gFinv = []
        self.GF = []
        self.RF = []
        self.RicF = []
        self.dgF = []
        for i, f in enumerate(spec.fibers):
            fc = p[spec.block_slice(i)]
            geo = f.geometry
            l = geo.dim
            fnames = spec.fiber_coord_names(i)
            exprs = geo.metric_exprs(fnames)
            env = jet_env(fnames, fc, order=1)
            g = np.zeros((l, l))
            dg = np.zeros((l, l, l))
            for a in range(l):
                for bb in range(l):
                    val = exprs[a][bb].eval(env)
                    if isinstance(val, float):
                        g[a, bb] = val
                    else:
                        g[a, bb] = val.val
                        dg[:, a, bb] = val.grad
            self.gF.append(g)
            self.gFinv.append(np.linalg.inv(g))
            self.GF.append(geo.christoffels(fc))
            self.RF.append(geo.curvature(fc))
            self.RicF.append(geo.ricci(fc))
            self.dgF.append(dg)

        # torsion field data within its hosting block
        if P is None:
            self.P_loc = None
            self.Pc = None
            self.dPc = None
        else:
            block_names = P.validate(spec)
            self.P_loc = P.location
            sl = spec.block_slice(P.location)
            k = sl.stop - sl.start
            vals = np.zeros(k)
            dvals = np.zeros((k, k))  # dvals[a, c] = d_a P^c
            for c, comp in enumerate(P.components):
                jet = eval_jet(comp, block_names, p[sl], order=1)
                vals[c] = jet.val
                dvals[:, c] = jet.grad
            self.Pc = vals
            self.dPc = dvals
        self._p_free = None

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

    def ambient(self, block, comps):
        out = np.zeros(self.nbar)
        out[self.spec.block_slice(block)] = comps
        return out

    def g_inner_block(self, block, a, b):
        if block == "base":
            return float(a @ self.gB @ b)
        i = block
        return float(self.b[i] ** 2 * (a @ self.gF[i] @ b))

    def g_inner(self, avec, bvec):
        """Metric inner product of two ambient component vectors."""
        total = float(avec[: self.n] @ self.gB @ bvec[: self.n])
        for i in range(self.m):
            sl = self.spec.block_slice(i)
            total += self.b[i] ** 2 * float(avec[sl] @ self.gF[i] @ bvec[sl])
        return total

    # -- warping derivatives --------------------------------------------------

    def X_b(self, i, Xb):
        """X(b_i) for a base vector."""
        return float(Xb @ self.db_base[i])

    def V_b(self, i, block, comps):
        """V(b_i) for a vector on fiber `block` (zero off the own fiber)."""
        if block == i:
            return float(comps @ self.db_fiber[i])
        return 0.0

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

    def hess_B(self, i, Xb, Yb):
        """H^{b_i}_B(X, Y) on the flat base (plain second partials)."""
        return float(Xb @ self.H_bb[i] @ Yb)

    def _d2_ln_fb(self, i):
        """Mixed partials d_beta d_a ln b_i, shape (l_i, n)."""
        b = self.b[i]
        return self.H_bf[i].T / b - np.outer(self.db_fiber[i], self.db_base[i]) / b**2

    def VX_ln_b(self, i, Vf, Xb):
        """V(X(ln b_i)) for V on fiber i, X on the base."""
        return float(Vf @ self._d2_ln_fb(i) @ Xb)

    def grad_B_of_V_ln(self, i, Vf):
        """Base components of grad_B(V(ln b_i))."""
        return self.gBinv @ (Vf @ self._d2_ln_fb(i))

    def grad_F_of_X_ln(self, i, Xb):
        """Fiber-i components of grad_{F_i}(X(ln b_i))."""
        return self.gFinv[i] @ (self._d2_ln_fb(i) @ Xb)

    def nablaB_grad_B(self, i, Xb):
        """Base components of nabla^B_X(grad_B b_i) on the flat base."""
        return self.gBinv @ (self.H_bb[i] @ Xb)

    # twisted-only data built on k = ln b_i restricted to fiber i

    def k_fiber(self, i):
        """Fiber partials of ln b_i."""
        return self.db_fiber[i] / self.b[i]

    def hessF_k(self, i):
        """Fiber-metric Hessian of ln b_i (base point held fixed)."""
        b = self.b[i]
        d2k = self.H_ff[i] / b - np.outer(self.db_fiber[i], self.db_fiber[i]) / b**2
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

    def pi(self, vec: BlockVector):
        """pi(V) = g(V, P)."""
        if self.P_loc is None or vec.block != self.P_loc:
            return 0.0
        return self.g_inner_block(vec.block, vec.components, self.Pc)

    def pi_P(self):
        if self.P_loc is None:
            return 0.0
        return self.g_inner_block(self.P_loc, self.Pc, self.Pc)

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

    def nablaB_X_P(self, Xb):
        """Base components of nabla^B_X P for P on the flat base."""
        return self.dPc.T @ Xb

    def _gB_Y_nablaB_X_P(self, Yb, Xb):
        """g_B(Y, nabla^B_X P) for X, Y, P on the flat base."""
        if self.P_loc != "base":
            return 0.0
        return float(Yb @ self.gB @ self.nablaB_X_P(Xb))

    def nablaF_V_P(self, Vf):
        """Fiber components of nabla^{F_r}_V P for V, P on fiber r."""
        r = self.P_loc
        return self.dPc.T @ Vf + np.einsum("cab,a,b->c", self.GF[r], Vf, self.Pc)

    def nabla_V_P(self, V: BlockVector):
        """Ambient components of the Levi-Civita derivative nabla_V P."""
        if self.P_loc is None:
            return np.zeros(self.nbar)
        if self.P_loc == "base":
            if V.block == "base":
                return self.ambient("base", self.nablaB_X_P(V.components))
            i = V.block
            return self.ambient(i, (self.P_b(i) / self.b[i]) * V.components)
        r = self.P_loc
        if V.block == "base":
            return self.ambient(r, (self.X_b(r, V.components) / self.b[r]) * self.Pc)
        i = V.block
        if i != r:
            return np.zeros(self.nbar)
        b = self.b[r]
        gf = self.gF[r]
        V_ln = self.V_b(r, r, V.components) / b
        P_ln = self.P_b(r) / b
        gVP = float(V.components @ gf @ self.Pc)
        out = self.ambient(r, V_ln * self.Pc + P_ln * V.components + self.nablaF_V_P(V.components))
        out[self.spec.block_slice(r)] -= (gVP / b) * self.grad_F(r)
        out[: self.n] -= b * gVP * self.grad_B(r)
        return out

    def g_W_nabla_V_P(self, W: BlockVector, V: BlockVector):
        """g(W, nabla_V P)."""
        return self.g_inner(self.ambient(W.block, W.components), self.nabla_V_P(V))

    def frame_sum_nabla_P(self):
        """sum_j eps_j g(nabla_{E_j} P, E_j) over the fiber-r frame in (M, g)."""
        r = self.P_loc
        w, Vecs = np.linalg.eigh(self.gF[r])
        total = 0.0
        for a in range(self.dims[r]):
            ehat = Vecs[:, a] / np.sqrt(abs(w[a]))  # orthonormal for g_F
            E = BlockVector(r, ehat / self.b[r])  # orthonormal for g
            total += self.g_inner(self.nabla_V_P(E), self.ambient(r, E.components))
        return total

    def dpi(self, A: BlockVector, B: BlockVector):
        """Exterior derivative dpi(A, B) = A(pi(B)) - B(pi(A)) - pi([A, B])."""
        if self.P_loc is None:
            return 0.0
        if self.P_loc == "base":
            if A.block != "base" or B.block != "base":
                return 0.0
            dpiB = self.dPc @ self.gB  # dpiB[a, b] = d_a(g_bc P^c) = d_a P^c g_cb
            anti = dpiB - dpiB.T
            return float(A.components @ anti @ B.components)
        r = self.P_loc
        blocks = {A.block, B.block}
        if blocks == {"base", r}:
            X, V = (A, B) if A.block == "base" else (B, A)
            sign = 1.0 if A.block == "base" else -1.0
            val = 2.0 * (self.X_b(r, X.components) / self.b[r]) * self.pi(V)
            return sign * val
        if A.block == r and B.block == r:
            b2 = self.b[r] ** 2
            gf = self.gF[r]
            dgf = self.dgF[r]
            db = self.db_fiber[r]
            gfP = gf @ self.Pc
            # d_beta pi_gamma = 2 b (d_beta b) (g_F P)_gamma + b^2 d_beta(g_F P)_gamma
            dgfP = np.einsum("bgc,c->bg", dgf, self.Pc) + np.einsum("bc,cg->bg", self.dPc, gf)
            dpi_ff = 2.0 * self.b[r] * np.outer(db, gfP) + b2 * dgfP
            anti = dpi_ff - dpi_ff.T
            return float(A.components @ anti @ B.components)
        return 0.0


# ---------------------------------------------------------------------------
# Covariant derivative clauses


def structured_covariant_derivative(spec, P, kind, X: BlockVector, Y: BlockVector,
                                    p, cache=None):
    """Block-pattern covariant derivative nabla_X Y, ambient components: the
    Levi-Civita clause plus pi(Y) X, and pi(X) Y for the symmetrized kind."""
    c = cache if cache is not None else StructuredGeometryCache(spec, P, p)
    _check_blocks(spec, X, Y)
    out = _levi_civita_derivative(c, X, Y)
    if kind in (ConnectionKind.SEMI_SYMMETRIC_NON_METRIC, ConnectionKind.SYMMETRIZED_AFFINE):
        out += c.pi(Y) * c.ambient(X.block, X.components)
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        out += c.pi(X) * c.ambient(Y.block, Y.components)
    return out


def _levi_civita_derivative(c, X, Y):
    """Levi-Civita nabla_X Y for constant-component X, Y."""
    if X.block == "base" and Y.block == "base":
        return np.zeros(c.nbar)  # flat base

    if X.block == "base":
        i = Y.block
        return (c.X_b(i, X.components) / c.b[i]) * c.ambient(i, Y.components)

    if Y.block == "base":
        i = X.block
        return (c.X_b(i, Y.components) / c.b[i]) * c.ambient(i, X.components)

    i, j = X.block, Y.block
    if i != j:
        return np.zeros(c.nbar)

    # same fiber: twisted-product formula
    b = c.b[i]
    gf = c.gF[i]
    gUW = float(X.components @ gf @ Y.components)
    U_ln = c.V_b(i, i, X.components) / b
    W_ln = c.V_b(i, i, Y.components) / b
    sl = c.spec.block_slice(i)
    out = c.ambient(i, U_ln * Y.components + W_ln * X.components)
    out[sl] += np.einsum("cab,a,b->c", c.GF[i], X.components, Y.components)
    out[sl] -= (gUW / b) * c.grad_F(i)
    out[: c.n] -= b * gUW * c.grad_B(i)
    return out


def _check_blocks(spec, *vecs):
    for v in vecs:
        if v.block == "base":
            want = spec.n
        elif isinstance(v.block, int) and 0 <= v.block < spec.m:
            want = spec.fiber_dims[v.block]
        else:
            raise CaseMismatch(f"unknown block {v.block!r}")
        if v.components.shape != (want,):
            raise CaseMismatch(
                f"vector on block {v.block!r} needs {want} components"
            )


# ---------------------------------------------------------------------------
# Curvature clauses


def structured_curvature(spec, P, kind, X: BlockVector, Y: BlockVector,
                         Z: BlockVector, p, cache=None):
    """Block-pattern curvature R(X, Y)Z, ambient components."""
    c = cache if cache is not None else StructuredGeometryCache(spec, P, p)
    _check_blocks(spec, X, Y, Z)
    if kind == ConnectionKind.LEVI_CIVITA or c.P_loc is None:
        return _curv_p_base(c.without_p(), X, Y, Z)
    if kind == ConnectionKind.SEMI_SYMMETRIC_NON_METRIC:
        if c.P_loc == "base":
            return _curv_p_base(c, X, Y, Z)
        return _curv_p_fiber(c, X, Y, Z)
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        if c.P_loc == "base":
            out = _curv_p_base(c, X, Y, Z)
        else:
            out = _curv_p_fiber(c, X, Y, Z)
        # torsion-free variant: extra [X(pi(Y)) - Y(pi(X)) - pi([X,Y])] Z
        return out + c.dpi(X, Y) * c.ambient(Z.block, Z.components)
    raise CaseMismatch(f"unknown connection kind {kind!r}")


def _curv_p_base(c, X, Y, Z):
    """Clauses for P on the base, semi-symmetric connection; on the P-free view
    they are the Levi-Civita clauses, which `_curv_p_fiber` builds on."""
    bX, bY, bZ = X.block, Y.block, Z.block

    if bX == "base" and bY == "base" and bZ == "base":
        # base curvature of the base connection; flat base, so pure pi terms
        out = c._gB_Y_nablaB_X_P(Z.components, X.components) * c.ambient("base", Y.components)
        out -= c._gB_Y_nablaB_X_P(Z.components, Y.components) * c.ambient("base", X.components)
        out += c.pi(Z) * (c.pi(Y) * c.ambient("base", X.components)
                          - c.pi(X) * c.ambient("base", Y.components))
        return out

    if bX != "base" and bY == "base" and bZ == "base":
        i = bX
        coef = (
            c.hess_B(i, Y.components, Z.components) / c.b[i]
            + c._gB_Y_nablaB_X_P(Z.components, Y.components)
            - c.pi(Y) * c.pi(Z)
        )
        return -coef * c.ambient(i, X.components)

    if bX == "base" and bY != "base" and bZ == "base":
        return -_curv_p_base(c, Y, X, Z)

    if bX == "base" and bY == "base" and bZ != "base":
        return np.zeros(c.nbar)

    if bX != "base" and bY != "base" and bZ == "base":
        i, j = bX, bY
        if i != j:
            return np.zeros(c.nbar)
        VX = c.VX_ln_b(i, X.components, Z.components)
        WX = c.VX_ln_b(i, Y.components, Z.components)
        return VX * c.ambient(i, Y.components) - WX * c.ambient(i, X.components)

    if bX == "base" and bY != "base" and bZ != "base":
        i, j = bY, bZ
        if i != j:
            return np.zeros(c.nbar)
        # R(X, V)W with V, W on the same fiber
        WX = c.VX_ln_b(i, Z.components, X.components)
        out = WX * c.ambient(i, Y.components)
        gWV = c.g_inner_block(i, Z.components, Y.components)
        bracket = np.zeros(c.nbar)
        bracket[: c.n] += c.nablaB_grad_B(i, X.components) / c.b[i]
        bracket[c.spec.block_slice(i)] += c.grad_F_of_X_ln(i, X.components) / c.b[i] ** 2
        bracket[: c.n] += (c.P_b(i) / c.b[i]) * X.components
        return out - gWV * bracket

    if bX != "base" and bY == "base" and bZ != "base":
        return -_curv_p_base(c, Y, X, Z)

    i, j, k = bX, bY, bZ  # all fibers
    if i == j == k:
        return _curv_same_fiber(c, X, Y, Z)
    if j == k and i != j:
        # R(U, V)W with V, W in one fiber, U in another
        coef = c.grad_inner_B(j, i) / (c.b[i] * c.b[j]) + c.P_b(j) / c.b[j]
        return -c.g_inner_block(j, Y.components, Z.components) * coef * c.ambient(i, X.components)
    if i == k and i != j:
        return -_curv_p_base(c, Y, X, Z)
    return np.zeros(c.nbar)  # i == j != k, or all distinct


def _curv_same_fiber(c, X, Y, Z):
    """R(U, V)W for U, V, W on one fiber, with the P(b_i)/b_i term of P on the base."""
    i = X.block
    gUW = c.g_inner_block(i, X.components, Z.components)
    gVW = c.g_inner_block(i, Y.components, Z.components)
    out = np.zeros(c.nbar)
    out[: c.n] += gUW * c.grad_B_of_V_ln(i, Y.components)
    out[: c.n] -= gVW * c.grad_B_of_V_ln(i, X.components)
    out[c.spec.block_slice(i)] += np.einsum(
        "abcd,b,c,d->a", c.RF[i], X.components, Y.components, Z.components
    )
    coef = c.grad_inner_B(i, i) / c.b[i] ** 2 + c.P_b(i) / c.b[i]
    if c.fiber_twisted(i):
        # fiber-direction second derivatives of ln b_i, absent for warpings
        b2 = c.b[i] ** 2
        dk = c.k_fiber(i)
        Hk = c.hessF_k(i)
        Uk = float(X.components @ dk)
        Vk = float(Y.components @ dk)
        Wk = float(Z.components @ dk)
        sl = c.spec.block_slice(i)
        out += float(X.components @ Hk @ Z.components) * c.ambient(i, Y.components)
        out -= float(Y.components @ Hk @ Z.components) * c.ambient(i, X.components)
        out += (Vk * Wk) * c.ambient(i, X.components)
        out -= (Uk * Wk) * c.ambient(i, Y.components)
        out[sl] += (gVW * Uk - gUW * Vk) * c.gradF_k(i) / b2
        out[sl] -= (gVW * (c.gFinv[i] @ (Hk @ X.components))
                    - gUW * (c.gFinv[i] @ (Hk @ Y.components))) / b2
        coef += c.gradF_k_norm2(i) / b2
    out -= coef * (gVW * c.ambient(i, X.components) - gUW * c.ambient(i, Y.components))
    return out


def _curv_p_fiber(c, X, Y, Z):
    """Clauses for P on fiber r, semi-symmetric connection: the P-free clause
    of the pattern plus its P terms."""
    r = c.P_loc
    bX, bY, bZ = X.block, Y.block, Z.block
    if (bX == "base" and bY != "base" and bZ == "base"
            or bX != "base" and bY == "base" and bZ != "base"
            or "base" not in (bX, bY, bZ) and bX == bZ != bY):
        return -_curv_p_fiber(c, Y, X, Z)

    out = _curv_p_base(c.without_p(), X, Y, Z)
    if bX == "base" and bY == "base":
        if bZ == r:
            out += c.pi(Z) * (
                (c.X_b(r, X.components) / c.b[r]) * c.ambient("base", Y.components)
                - (c.X_b(r, Y.components) / c.b[r]) * c.ambient("base", X.components)
            )
    elif bY == "base":  # R(V, X)Y
        if bX == r:
            out -= c.pi(X) * (c.X_b(r, Z.components) / c.b[r]) * c.ambient("base", Y.components)
    elif bZ == "base":  # R(U, V)X
        if bX != bY:
            if bX == r:
                out -= (c.pi(X) / c.b[r]) * c.X_b(r, Z.components) * c.ambient(bY, Y.components)
            if bY == r:
                out += (c.pi(Y) / c.b[r]) * c.X_b(r, Z.components) * c.ambient(bX, X.components)
        elif bX == r:
            out -= (c.X_b(r, Z.components) / c.b[r]) * (
                c.pi(X) * c.ambient(r, Y.components) - c.pi(Y) * c.ambient(r, X.components)
            )
    elif bX == "base":  # R(X, V)W
        out += (c.X_b(r, X.components) / c.b[r]) * c.pi(Z) * c.ambient(bY, Y.components)
        if bY == bZ:
            out -= c.g_W_nabla_V_P(Z, Y) * c.ambient("base", X.components)
            out += c.pi(Y) * c.pi(Z) * c.ambient("base", X.components)
    elif bX == bY == bZ:  # R(U, V)W on one fiber
        if bX == r:
            out += c.g_W_nabla_V_P(Z, X) * c.ambient(r, Y.components)
            out -= c.g_W_nabla_V_P(Z, Y) * c.ambient(r, X.components)
            out += c.pi(Z) * (c.pi(Y) * c.ambient(r, X.components)
                              - c.pi(X) * c.ambient(r, Y.components))
    elif bY == bZ:  # R(U, V)W: V, W in fiber j, U in fiber i
        out -= c.g_W_nabla_V_P(Z, Y) * c.ambient(bX, X.components)
        out += c.pi(Z) * (c.pi(Y) * c.ambient(bX, X.components)
                          - c.pi(X) * c.ambient(bY, Y.components))
    return out


# ---------------------------------------------------------------------------
# Ricci clauses


def structured_ricci(spec, P, kind, X: BlockVector, Y: BlockVector, p, cache=None):
    """Block-pattern Ricci component Ric(X, Y)."""
    c = cache if cache is not None else StructuredGeometryCache(spec, P, p)
    _check_blocks(spec, X, Y)
    if kind == ConnectionKind.LEVI_CIVITA or c.P_loc is None:
        return _ricci_p_base(c.without_p(), X, Y)
    if c.P_loc == "base":
        val = _ricci_p_base(c, X, Y)
    else:
        val = _ricci_p_fiber(c, X, Y)
    if kind == ConnectionKind.SYMMETRIZED_AFFINE:
        val += c.dpi(X, Y)
    return val


def _ricci_p_base(c, X, Y):
    bX, bY = X.block, Y.block
    if bX == "base" and bY == "base":
        ricB = 0.0
        if c.P_loc == "base":
            A = c._gB_Y_nablaB_X_P(Y.components, X.components)
            ricB = (c.n - 1) * (A - c.pi(X) * c.pi(Y))
        total = ricB
        for i in range(c.m):
            term = c.hess_B(i, X.components, Y.components) / c.b[i]
            if c.P_loc == "base":
                term += c._gB_Y_nablaB_X_P(Y.components, X.components)
                term -= c.pi(X) * c.pi(Y)
            total += c.dims[i] * term
        return total
    if bX == "base" or bY == "base":
        V, Xb = (Y, X) if bX == "base" else (X, Y)
        i = V.block
        return (c.dims[i] - 1) * c.VX_ln_b(i, V.components, Xb.components)
    i, j = bX, bY
    if i != j:
        return 0.0
    ric_f = float(X.components @ c.RicF[i] @ Y.components)
    bracket = c.lap_B(i) / c.b[i]
    bracket += (c.dims[i] - 1) * c.grad_inner_B(i, i) / c.b[i] ** 2
    for j2 in range(c.m):
        if j2 != i:
            bracket += c.dims[j2] * c.grad_inner_B(i, j2) / (c.b[i] * c.b[j2])
    if c.P_loc == "base":
        # weight (nbar - 1) on P(b_i)/b_i: forced by the frame trace of the
        # curvature clauses and confirmed against the generic oracle
        bracket += (c.nbar - 1) * c.P_b(i) / c.b[i]
    return ric_f + bracket * c.g_inner_block(i, X.components, Y.components) \
        + _ricci_twist_extra(c, i, X, Y)


def _ricci_p_fiber(c, X, Y):
    """Ric(X, Y) for P on fiber r: the P-free clause plus the P terms."""
    r = c.P_loc
    nbar = c.nbar
    bX, bY = X.block, Y.block
    val = _ricci_p_base(c.without_p(), X, Y)
    if bX != "base" and bY == "base":  # Ric(V, X)
        val += (1 - nbar) * (c.X_b(r, Y.components) / c.b[r]) * c.pi(X)
    elif bX == "base" and bY != "base":  # Ric(X, V)
        val += (nbar - 1) * (c.X_b(r, X.components) / c.b[r]) * c.pi(Y)
    elif bX == bY != "base":
        val += (nbar - 1) * c.g_W_nabla_V_P(Y, X)
        val += (1 - nbar) * c.pi(X) * c.pi(Y)
    return val


def _ricci_twist_extra(c, i, X, Y):
    """Fiber-Hessian contribution to Ric(V, W), zero for plain warpings."""
    if not c.fiber_twisted(i):
        return 0.0
    l = c.dims[i]
    b2 = c.b[i] ** 2
    dk = c.k_fiber(i)
    Hk = c.hessF_k(i)
    val = (l - 2) * float(X.components @ Hk @ Y.components)
    val += (2 - l) * float(X.components @ dk) * float(Y.components @ dk)
    val += c.g_inner_block(i, X.components, Y.components) * (
        c.lapF_k(i) / b2 + (l - 2) * c.gradF_k_norm2(i) / b2
    )
    return val


def structured_ricci_matrix(spec, P, kind, p, cache=None):
    """Full Ricci matrix assembled from the block clauses."""
    c = cache if cache is not None else StructuredGeometryCache(spec, P, p)
    nbar = spec.n_bar
    out = np.zeros((nbar, nbar))
    blocks = ["base"] + list(range(spec.m))
    for b1 in blocks:
        s1 = spec.block_slice(b1)
        d1 = s1.stop - s1.start
        for b2 in blocks:
            s2 = spec.block_slice(b2)
            d2 = s2.stop - s2.start
            for a in range(d1):
                ea = np.zeros(d1)
                ea[a] = 1.0
                for bb in range(d2):
                    eb = np.zeros(d2)
                    eb[bb] = 1.0
                    out[s1.start + a, s2.start + bb] = structured_ricci(
                        spec, P, kind, BlockVector(b1, ea), BlockVector(b2, eb), p, cache=c
                    )
    return out


# ---------------------------------------------------------------------------
# Scalar curvature


def structured_scalar(spec, P, kind, p, cache=None):
    """Scalar curvature from the closed-form trace expressions.

    P on the base uses the div_B P - pi(P) form; P on a fiber uses the
    (1 - nbar) pi(P) + (nbar - 1) sum_j eps_j g(nabla_{E_j} P, E_j) form.
    The torsion-free variant has the same scalar curvature (the correction
    to the Ricci tensor is antisymmetric).
    """
    c = cache if cache is not None else StructuredGeometryCache(spec, P, p)
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
    total += (1 - c.nbar) * c.pi_P()
    total += (c.nbar - 1) * c.frame_sum_nabla_P()
    return total


# ---------------------------------------------------------------------------
# Mixed Ricci flatness


@dataclass
class MixedRicciReport:
    is_mixed_flat: bool
    max_mixed_component: float
    twisted: bool
    points_checked: int
    tolerance: float


def mixed_ricci_flat_check(spec, P, kind, points, tolerance=1e-8):
    """Check vanishing of the base-fiber Ricci block on a point sample.

    Uses the generic coordinate pipeline, so the verdict is independent of
    the component formulas.
    """
    from .connections import connection_curvature

    worst = 0.0
    for p in points:
        cur = connection_curvature(kind, spec, P, p)
        base = spec.block_slice("base")
        for i in range(spec.m):
            sl = spec.block_slice(i)
            worst = max(worst, float(np.max(np.abs(cur.ricci[base, sl]))))
            worst = max(worst, float(np.max(np.abs(cur.ricci[sl, base]))))
    return MixedRicciReport(
        is_mixed_flat=worst <= tolerance,
        max_mixed_component=worst,
        twisted=spec.twisted,
        points_checked=len(points),
        tolerance=tolerance,
    )
