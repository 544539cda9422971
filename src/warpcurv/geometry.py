"""Charts, fiber geometries and product-manifold specifications.

A product spec is a base chart (Lorentzian interval or a flat diagonal
chart), an ordered list of fiber geometries, and one positive warping
expression per fiber.  Coordinates are kept in block order: base
coordinates first, then each fiber block in declaration order.

Each fiber is a `FiberGeometry`: an Einstein manifold whose metric, chart,
curvature, Einstein constant and scalar curvature (dim times the Einstein
constant) its geometry fixes.  `FIBER_GEOMETRIES` names the built-in ones;
a scenario's fiber block calls the named constructor with its other keys.

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
from .exprs import Const, GridJet, Pow, Prod, Recip, ScalarExpr, Sin, Var, eval_stack

_BASE_COORD_NAMES = ("t", "u", "v")
_FIBER_COORD_PAIRS = (("x", "y"), ("z", "w"), ("p", "q"), ("r", "s"))
# the open t-interval of the interval base
_INTERVAL = (-10.0, 10.0)


# ---------------------------------------------------------------------------
# Base charts


@dataclass(frozen=True)
class IntervalBase:
    """Open interval with the metric -dt^2."""

    @property
    def dim(self):
        return 1

    @property
    def signs(self):
        return (-1.0,)

    @property
    def coord_names(self):
        return ("t",)

    def chart_faults(self, coords):
        t = coords[:, 0]
        bad = ~((_INTERVAL[0] < t) & (t < _INTERVAL[1]))
        return bad, lambda j: OutOfChart(f"t={t[j]} outside interval {_INTERVAL}")


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

    def chart_faults(self, coords):
        return np.zeros(len(coords), dtype=bool), None


# ---------------------------------------------------------------------------
# Fiber geometries


class FiberGeometry:
    """Built-in homogeneous fiber with analytic curvature data; an Einstein
    manifold, so scalar_curvature is dim * einstein_constant."""

    dim = 0

    # curvature of the *unscaled* fiber metric g_F, engine conventions
    einstein_constant: float = 0.0
    scalar_curvature: float = 0.0

    def metric_exprs(self, names):
        raise NotImplementedError

    def christoffels(self, coords):
        return np.zeros((self.dim,) * 3)

    def curvature(self, g):
        """R^a_bcd of g_F with R(e_b, e_c)e_d = R^a_bcd e_a, from the matrix
        g of g_F at the point, or from a stack of them."""
        return np.zeros(np.shape(g)[:-2] + (self.dim,) * 4)

    def ricci(self, g):
        """Fiber Ricci matrix in the package trace convention, from g_F or a
        stack of them."""
        return np.zeros(np.shape(g)[:-2] + (self.dim,) * 2)

    def chart_faults(self, coords):
        """Rows of an (N, dim) stack of chart points outside the chart, and
        the error a row raises."""
        return np.zeros(len(coords), dtype=bool), None

    def sample_coords(self, k):
        """k deterministic interior sample points, shape (k, dim)."""
        base = np.linspace(0.25, 1.45, k)
        cols = [np.roll(base, j) + 0.1 * j for j in range(self.dim)]
        return np.stack(cols, axis=1)


class FlatTorus(FiberGeometry):
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
    def __init__(self):
        super().__init__(dim=1)


class _ConstantCurvatureSurface(FiberGeometry):
    dim = 2
    sectional = 0.0

    def curvature(self, g):
        K = self.sectional
        eye = np.eye(2)
        # R^a_bcd = K (g_cd delta^a_b - g_bd delta^a_c)
        return K * (np.einsum("...cd,ab->...abcd", g, eye) - np.einsum("...bd,ac->...abcd", g, eye))

    def ricci(self, g):
        return -self.sectional * (self.dim - 1) * g

    @property
    def einstein_constant(self):
        return -self.sectional * (self.dim - 1)

    @property
    def scalar_curvature(self):
        return -self.sectional * self.dim * (self.dim - 1)


class Sphere(_ConstantCurvatureSurface):
    """Round two-sphere of radius r on the polar chart away from the poles."""

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

    def chart_faults(self, coords):
        th = coords[:, 0]
        bad = ~((self.polar_margin <= th) & (th <= math.pi - self.polar_margin))
        return bad, lambda j: OutOfChart(f"polar angle {th[j]} too close to a pole")

    def sample_coords(self, k):
        th = np.linspace(0.8, 2.2, k)
        ph = np.linspace(0.3, 2.6, k)
        return np.stack([th, ph], axis=1)


class HyperbolicPlane(_ConstantCurvatureSurface):
    """Upper half-plane model, metric (dx^2 + dy^2)/y^2, K = -1."""

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

    def chart_faults(self, coords):
        y = coords[:, 1]
        return y <= 1e-9, lambda j: OutOfChart(f"half-plane coordinate y={y[j]} must be positive")

    def sample_coords(self, k):
        x = np.linspace(-0.7, 0.9, k)
        y = np.linspace(0.6, 1.9, k)
        return np.stack([x, y], axis=1)


# The built-in fibers by the name that the scenario key fiber.geometry takes.
FIBER_GEOMETRIES = {
    "flat_torus": FlatTorus,
    "circle": Circle,
    "sphere": Sphere,
    "hyperbolic": HyperbolicPlane,
}


# ---------------------------------------------------------------------------
# Product specification


class ProductManifoldSpec:
    """Base chart x fiber geometries with one warping expression per fiber."""

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
        self._passed_points = frozenset()
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

    def fiber_coord_names(self, i):
        return self._fiber_names[i]

    # -- points --------------------------------------------------------------

    def make_point(self, base_coords, fiber_coords=None):
        """An (N, n_bar) stack of points from per-block pieces, each one row
        or an (N, d) stack of rows, the rows broadcasting: base coordinates
        [0.5] give one point.  A fiber block not given takes the fiber's
        first sample point."""
        parts = [np.atleast_2d(np.asarray(base_coords, dtype=float))]
        for i, f in enumerate(self.fibers):
            if fiber_coords is not None and fiber_coords[i] is not None:
                parts.append(np.atleast_2d(np.asarray(fiber_coords[i], dtype=float)))
            else:
                parts.append(f.sample_coords(1))
        if [q.shape[-1] for q in parts] != [self.n, *self.fiber_dims]:
            raise WarpcurvError("point has wrong dimension")
        p = np.empty(np.broadcast_shapes(*(q.shape[:-1] for q in parts)) + (self.n_bar,))
        for q, sl in zip(parts, [self._base_slice, *self._fiber_slices]):
            p[..., sl] = q
        return p

    def point_stack(self, p):
        """p as an (N, n_bar) float array; any other shape, a single point
        included, raises WarpcurvError naming the expected shape."""
        pts = np.asarray(p, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n_bar:
            raise WarpcurvError(f"expected an (N, {self.n_bar}) point stack, got shape {pts.shape}")
        return pts

    def check_point(self, p):
        """Chart membership and finite positive warpings at every row of an
        (N, n_bar) stack of points, by one array test per condition.

        The first failing point raises what a check of that point alone
        raises: the base chart, then each fiber chart, then each warping.
        Warpings are evaluated only at the points before the first one
        outside a chart, as a point-by-point check would; the points after
        it count as passing the warping test.  The oracle and the clause
        caches check the same points again and again, so the last stack
        that passed is kept, and points among its rows pass at once.
        """
        pts = self.point_stack(p)
        if all(row.tobytes() in self._passed_points for row in pts):
            return
        charts = [self.base.chart_faults(pts[:, self._base_slice])]
        charts += [f.chart_faults(pts[:, sl])
                   for f, sl in zip(self.fibers, self._fiber_slices)]
        bad = np.array([rows for rows, _ in charts])
        inside = int(np.argmax(bad.any(axis=0))) if bad.any() else len(pts)
        b = np.ones((self.m, len(pts)))
        for i, w in enumerate(eval_stack(self.warpings, self.coord_names, pts[:inside], order=0)):
            b[i, :inside] = w.val if isinstance(w, GridJet) else w
        bad = np.vstack([bad, ~((b > 0.0) & np.isfinite(b))])
        if bad.any():
            j = int(np.argmax(bad.any(axis=0)))
            k = int(np.argmax(bad[:, j]))
            if k < len(charts):
                raise charts[k][1](j)
            i = k - len(charts)
            raise NonPositiveWarping(f"warping {i} = {float(b[i, j])} at point {pts[j].tolist()}")
        self._passed_points = frozenset(row.tobytes() for row in pts)

    def sample_points(self, k, t_range=(0.1, 0.9)):
        """k deterministic in-chart sample points, a checked (k, n_bar) stack."""
        base = np.empty((k, self.n))
        base[:, 0] = np.linspace(t_range[0], t_range[1], k)
        base[:, 1:] = 0.2 + 0.15 * np.arange(self.n - 1)
        pts = self.make_point(base, [f.sample_coords(k) for f in self.fibers])
        self.check_point(pts)
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


def p_dt():
    """The field P = d/dt on an interval (or flat) base."""
    return TorsionVectorFieldSpec("base", [Const(1.0)])


def ambient_components(spec, P, p):
    """Full-length components vals[p, m] of P at each row of an (N, n_bar)
    stack of points, and their partials dP[p, i, m] = d_i P^m."""
    pts = spec.point_stack(p)
    nbar = spec.n_bar
    vals = np.zeros((len(pts), nbar))
    partials = np.zeros((len(pts), nbar, nbar))
    if P is not None:
        P.validate(spec)
        start = spec.block_slice(P.location).start
        for k, jet in enumerate(eval_stack(P.components, spec.coord_names, pts)):
            if isinstance(jet, GridJet):
                vals[:, start + k] = jet.val
                partials[:, :, start + k] = jet.grad
            else:
                vals[:, start + k] = jet
    return vals, partials
