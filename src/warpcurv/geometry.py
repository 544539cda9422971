"""Charts, fiber geometries and product-manifold specifications.

A product spec is a base chart (Lorentzian interval or a flat diagonal
chart), an ordered list of fibers, and one positive warping expression per
fiber.  Coordinates are kept in block order: base coordinates first, then
each fiber block in declaration order.

Curvature conventions used throughout the package (fixed once here):

* R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, so in
  coordinates R^l_ijk = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik.
* Ric(X,Y) = sum_a eps_a g(R(X, E_a)Y, E_a) over an orthonormal frame, i.e.
  Ric_ik = R^j_ijk.  For a space of constant sectional curvature K this
  gives Ric = -K (dim - 1) g; built-in fiber Einstein constants and scalar
  curvatures are stored in this same convention so that every component
  formula in the package is trace-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPositiveWarping, OutOfChart, UnsupportedP, WarpcurvError
from .exprs import Const, Pow, Prod, Recip, ScalarExpr, Sin, Var, eval_value

_BASE_COORD_NAMES = ("t", "u", "v")
_FIBER_COORD_PAIRS = (("x", "y"), ("z", "w"), ("p", "q"), ("r", "s"))


# ---------------------------------------------------------------------------
# Base charts


@dataclass(frozen=True)
class IntervalBase:
    """Open interval with the metric -dt^2."""

    domain: tuple = (-10.0, 10.0)

    @property
    def dim(self):
        return 1

    @property
    def signs(self):
        return (-1.0,)

    @property
    def coord_names(self):
        return ("t",)

    def check_point(self, coords):
        if not (self.domain[0] < coords[0] < self.domain[1]):
            raise OutOfChart(f"t={coords[0]} outside interval {self.domain}")


@dataclass(frozen=True)
class FlatBase:
    """Flat pseudo-Euclidean chart with a constant diagonal metric."""

    signs: tuple = (-1.0, 1.0)

    def __post_init__(self):
        if not 1 <= len(self.signs) <= 3:
            raise WarpcurvError("flat base supports dimensions 1 to 3")
        if any(s not in (-1.0, 1.0, -1, 1) for s in self.signs):
            raise WarpcurvError("flat base signature entries must be +-1")

    @property
    def dim(self):
        return len(self.signs)

    @property
    def coord_names(self):
        return _BASE_COORD_NAMES[: self.dim]

    def check_point(self, coords):
        pass


# ---------------------------------------------------------------------------
# Fiber geometries


class FiberGeometry:
    """Built-in homogeneous fiber with analytic curvature data."""

    kind = "abstract"
    dim = 0

    # curvature of the *unscaled* fiber metric g_F, engine conventions
    einstein_constant: float = 0.0
    scalar_curvature: float = 0.0

    def metric_exprs(self, names):
        raise NotImplementedError

    def metric(self, coords):
        l = self.dim
        names = [f"c{i}" for i in range(l)]
        exprs = self.metric_exprs(names)
        return np.array(
            [[eval_value(exprs[a][b], names, coords) for b in range(l)] for a in range(l)]
        )

    def christoffels(self, coords):
        return np.zeros((self.dim,) * 3)

    def curvature(self, coords):
        """R^a_bcd of g_F with R(e_b, e_c)e_d = R^a_bcd e_a."""
        return np.zeros((self.dim,) * 4)

    def ricci(self, coords):
        """Fiber Ricci matrix in the package trace convention."""
        return np.zeros((self.dim,) * 2)

    def check_chart(self, coords):
        pass

    def sample_coords(self, k):
        """k deterministic interior sample points, shape (k, dim)."""
        base = np.linspace(0.25, 1.45, k)
        cols = [np.roll(base, j) + 0.1 * j for j in range(self.dim)]
        return np.stack(cols, axis=1)


class FlatTorus(FiberGeometry):
    kind = "flat_torus"

    def __init__(self, dim=2):
        if dim < 1:
            raise WarpcurvError("torus dimension must be >= 1")
        self.dim = dim

    def metric_exprs(self, names):
        return [
            [Const(1.0) if a == b else Const(0.0) for b in range(self.dim)]
            for a in range(self.dim)
        ]


class Circle(FlatTorus):
    kind = "circle"

    def __init__(self):
        super().__init__(dim=1)


class _ConstantCurvatureSurface(FiberGeometry):
    dim = 2
    sectional = 0.0

    def curvature(self, coords):
        g = self.metric(coords)
        K = self.sectional
        eye = np.eye(2)
        # R^a_bcd = K (g_cd delta^a_b - g_bd delta^a_c)
        return K * (np.einsum("cd,ab->abcd", g, eye) - np.einsum("bd,ac->abcd", g, eye))

    def ricci(self, coords):
        return -self.sectional * (self.dim - 1) * self.metric(coords)

    @property
    def einstein_constant(self):
        return -self.sectional * (self.dim - 1)

    @property
    def scalar_curvature(self):
        return -self.sectional * self.dim * (self.dim - 1)


class Sphere(_ConstantCurvatureSurface):
    """Round two-sphere of radius r on the polar chart away from the poles."""

    kind = "sphere"
    polar_margin = 0.2

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise WarpcurvError("sphere radius must be positive")
        self.radius = float(radius)
        self.sectional = 1.0 / radius**2

    def metric_exprs(self, names):
        th = Var(names[0])
        r2 = Const(self.radius**2)
        return [[r2, Const(0.0)], [Const(0.0), Prod(r2, Pow(Sin(th), 2.0))]]

    def christoffels(self, coords):
        th = coords[0]
        G = np.zeros((2, 2, 2))
        G[0, 1, 1] = -math.sin(th) * math.cos(th)  # G^theta_phi,phi
        G[1, 0, 1] = G[1, 1, 0] = math.cos(th) / math.sin(th)
        return G

    def check_chart(self, coords):
        th = coords[0]
        if not (self.polar_margin <= th <= math.pi - self.polar_margin):
            raise OutOfChart(f"polar angle {th} too close to a pole")

    def sample_coords(self, k):
        th = np.linspace(0.8, 2.2, k)
        ph = np.linspace(0.3, 2.6, k)
        return np.stack([th, ph], axis=1)


class HyperbolicPlane(_ConstantCurvatureSurface):
    """Upper half-plane model, metric (dx^2 + dy^2)/y^2, K = -1."""

    kind = "hyperbolic"
    sectional = -1.0

    def metric_exprs(self, names):
        inv_y2 = Recip(Pow(Var(names[1]), 2.0))
        return [[inv_y2, Const(0.0)], [Const(0.0), inv_y2]]

    def christoffels(self, coords):
        y = coords[1]
        G = np.zeros((2, 2, 2))
        G[0, 0, 1] = G[0, 1, 0] = -1.0 / y
        G[1, 0, 0] = 1.0 / y
        G[1, 1, 1] = -1.0 / y
        return G

    def check_chart(self, coords):
        if coords[1] <= 1e-9:
            raise OutOfChart(f"half-plane coordinate y={coords[1]} must be positive")

    def sample_coords(self, k):
        x = np.linspace(-0.7, 0.9, k)
        y = np.linspace(0.6, 1.9, k)
        return np.stack([x, y], axis=1)


def make_geometry(kind, dim=2, radius=1.0):
    if kind == "flat_torus":
        return FlatTorus(dim)
    if kind == "circle":
        return Circle()
    if kind == "sphere":
        return Sphere(radius)
    if kind == "hyperbolic":
        return HyperbolicPlane()
    raise WarpcurvError(f"unknown fiber geometry {kind!r}")


# ---------------------------------------------------------------------------
# Fiber and product specifications


@dataclass
class FiberSpec:
    """One fiber factor: geometry plus its declared Einstein data.

    Constants default to the geometry's analytic values; passing
    `declared_einstein=False` marks the fiber as carrying no Einstein
    constant (for exercising the precondition failures of the residual
    checks).
    """

    geometry: FiberGeometry
    einstein_constant: float | None = None
    scalar_curvature: float | None = None
    declared_einstein: bool = True

    def __post_init__(self):
        if not self.declared_einstein:
            self.einstein_constant = None
        elif self.einstein_constant is None:
            self.einstein_constant = self.geometry.einstein_constant
        if self.scalar_curvature is None:
            self.scalar_curvature = self.geometry.scalar_curvature
        if self.einstein_constant is not None:
            expected = self.dim * self.einstein_constant
            if abs(self.scalar_curvature - expected) > 1e-12:
                raise WarpcurvError(
                    "fiber scalar curvature must equal dim * einstein constant"
                )

    @property
    def dim(self):
        return self.geometry.dim

    @property
    def is_einstein(self):
        return self.declared_einstein and self.einstein_constant is not None


class ProductManifoldSpec:
    """Base chart x fibers with one warping expression per fiber."""

    def __init__(self, base, fibers, warpings, twisted=False):
        if len(fibers) != len(warpings):
            raise WarpcurvError("need exactly one warping per fiber")
        if len(fibers) > len(_FIBER_COORD_PAIRS):
            raise WarpcurvError(f"at most {len(_FIBER_COORD_PAIRS)} fibers supported")
        if not fibers:
            raise WarpcurvError("need at least one fiber")
        self.base = base
        self.fibers = list(fibers)
        self.warpings = [w if isinstance(w, ScalarExpr) else Const(w) for w in warpings]
        self.twisted = bool(twisted)

        names = list(base.coord_names)
        self._fiber_names = []
        for i, f in enumerate(self.fibers):
            pair = _FIBER_COORD_PAIRS[i]
            if f.dim <= 2:
                fn = list(pair[: f.dim])
            else:
                fn = [f"{pair[0]}{k + 1}" for k in range(f.dim)]
            self._fiber_names.append(tuple(fn))
            names.extend(fn)
        self.coord_names = tuple(names)

        # The block layout is fixed once the spec is built.
        self.fiber_dims = tuple(f.dim for f in self.fibers)
        self.n_bar = self.n + sum(self.fiber_dims)
        self._base_slice = slice(0, self.n)
        self._fiber_slices = []
        start = self.n
        for d in self.fiber_dims:
            self._fiber_slices.append(slice(start, start + d))
            start += d

        allowed_base = set(base.coord_names)
        for i, w in enumerate(self.warpings):
            used = w.variables()
            allowed = allowed_base | (set(self._fiber_names[i]) if self.twisted else set())
            extra = used - allowed
            if extra:
                raise WarpcurvError(
                    f"warping {i} uses coordinates {sorted(extra)} outside its allowed blocks"
                )

    # -- block layout ------------------------------------------------------

    @property
    def n(self):
        return self.base.dim

    @property
    def m(self):
        return len(self.fibers)

    def block_slice(self, block):
        """Index slice for 'base' or a fiber index."""
        if block == "base":
            return self._base_slice
        return self._fiber_slices[block]

    def block_of_index(self, idx):
        if idx < self.n:
            return "base"
        off = idx - self.n
        for i, d in enumerate(self.fiber_dims):
            if off < d:
                return i
            off -= d
        raise IndexError(idx)

    def fiber_coord_names(self, i):
        return self._fiber_names[i]

    # -- points --------------------------------------------------------------

    def make_point(self, base_coords, fiber_coords=None):
        """Assemble a full coordinate vector from per-block pieces."""
        base_coords = np.atleast_1d(np.asarray(base_coords, dtype=float))
        parts = [base_coords]
        for i, f in enumerate(self.fibers):
            if fiber_coords is not None and fiber_coords[i] is not None:
                fc = np.asarray(fiber_coords[i], dtype=float)
            else:
                fc = f.geometry.sample_coords(1)[0]
            parts.append(fc)
        p = np.concatenate(parts)
        if p.shape != (self.n_bar,):
            raise WarpcurvError("point has wrong dimension")
        return p

    def check_point(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n_bar,):
            raise WarpcurvError(f"point must have length {self.n_bar}")
        self.base.check_point(p[: self.n])
        for i, f in enumerate(self.fibers):
            f.geometry.check_chart(p[self.block_slice(i)])
        for i in range(self.m):
            self.warping_value(i, p)

    def warping_value(self, i, p):
        b = eval_value(self.warpings[i], self.coord_names, np.asarray(p, dtype=float))
        if not (b > 0.0) or not math.isfinite(b):
            raise NonPositiveWarping(f"warping {i} = {b} at point {list(p)}")
        return b

    def sample_points(self, k, t_range=(0.1, 0.9)):
        """Deterministic in-chart sample points for tests and reports."""
        ts = np.linspace(t_range[0], t_range[1], k)
        pts = []
        fiber_samples = [f.geometry.sample_coords(k) for f in self.fibers]
        for j in range(k):
            base = [ts[j]] + [0.2 + 0.15 * b for b in range(self.n - 1)]
            p = self.make_point(base, [fs[j] for fs in fiber_samples])
            self.check_point(p)
            pts.append(p)
        return pts


# ---------------------------------------------------------------------------
# Torsion vector field


@dataclass
class TorsionVectorFieldSpec:
    """Vector field P generating the connection one-form pi = g(., P).

    P lives entirely in one block: the base or a single fiber.  Components
    are expressions in the hosting block's coordinates.
    """

    location: object  # "base" or fiber index
    components: list = field(default_factory=list)

    def validate(self, spec):
        if self.location == "base":
            names = spec.base.coord_names
        elif isinstance(self.location, int) and 0 <= self.location < spec.m:
            names = spec.fiber_coord_names(self.location)
        else:
            raise UnsupportedP(f"P location {self.location!r} is not a block of the spec")
        if len(self.components) != len(names):
            raise UnsupportedP(
                f"P needs {len(names)} components for block {self.location!r}"
            )
        allowed = set(names)
        for c in self.components:
            if not isinstance(c, ScalarExpr):
                raise UnsupportedP("P components must be ScalarExpr")
            extra = c.variables() - allowed
            if extra:
                raise UnsupportedP(
                    f"P components may only use coordinates {sorted(allowed)}, got {sorted(extra)}"
                )
        return names

    @staticmethod
    def zero():
        return None


def p_dt():
    """The field P = d/dt on an interval (or flat) base."""
    return TorsionVectorFieldSpec("base", [Const(1.0)])


def ambient_components(spec, P, p, order=0):
    """Full-length component vector of P at p (floats or Jets)."""
    from .exprs import Jet, jet_env

    nbar = spec.n_bar
    if P is None:
        if order == 0:
            return np.zeros(nbar)
        return [Jet.constant(0.0, nbar, order) for _ in range(nbar)]
    names = P.validate(spec)
    sl = spec.block_slice(P.location)
    if order == 0:
        out = np.zeros(nbar)
        env = dict(zip(spec.coord_names, map(float, p)))
        for k, c in enumerate(P.components):
            out[sl.start + k] = float(c.eval(env))
        return out
    env = jet_env(spec.coord_names, p, order)
    out = [Jet.constant(0.0, nbar, order) for _ in range(nbar)]
    for k, c in enumerate(P.components):
        val = c.eval(env)
        if not isinstance(val, Jet):
            val = Jet.constant(val, nbar, order)
        out[sl.start + k] = val
    return out
