"""Closed-form warping-function families and their verification machinery.

Each generator returns the complete list of families matching the supplied
constants, or an empty list when no closed form exists.  A closed-form
family is its data:

* its profile u, a closed form solving the linear constant-coefficient ODE
  u'' = alpha u + beta u' + gamma whose coefficients are `ode_coeffs`;
* the product it describes: warping i is u^{powers[i]} over a fiber of
  dimension dims[i] with Einstein constant or scalar curvature
  fiber_constants[i], and `target` is the Einstein constant or the total
  scalar curvature;
* which system its residual rows evaluate, `equations`: `einstein`'s
  closed-form Einstein conditions for P = d/dt at the warpings ("einstein"),
  the paper's Kasner system at the profile phi (`_kasner_system_values`,
  "kasner"), or `einstein`'s closed-form scalar curvature for P = d/dt at
  the warpings ("scalar").  The families of an auxiliary profile (v, w and
  psi, `auxiliary`) also check the profile's ODE in a `profile-ode` row.

`SolutionFamily.residuals` builds every row from that data.  Families
without a closed form (`numeric_only`) state their ODE as a first-order
system y' = F(t, y) on y = (u, u') or (u,), with the parameters that hold
y(0) named in `initial`, and `solve_numeric_profile` integrates it.

Nonexistence in the contradiction branches is evidenced by lattice scans:
the residual system stays bounded away from zero over the whole lattice.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .einstein import einstein_rows, not_finite_error, scalar_samples, with_dt_terms
from .errors import (
    ExprError,
    InvalidDimension,
    LengthMismatch,
    NonPositiveWarping,
    NumericalInstability,
    StepTooCoarse,
    UnsupportedType,
    WarpcurvError,
)
from .exprs import Const, Cos, Exp, Prod, ScalarExpr, Sin, Var, eval_grid, eval_jet
from .verify import CheckRow

logger = logging.getLogger("warpcurv")

_T = Var("t")
_EQ_TOL = 1e-9


def _close(a, b, tol=_EQ_TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _exp_t(rate):
    return Exp(Prod(Const(rate), _T))


def _cos_t(omega):
    return Cos(Prod(Const(omega), _T))


def _sin_t(omega):
    return Sin(Prod(Const(omega), _T))


def _sum_exp(c1, r1, c2, r2):
    return Const(c1) * _exp_t(r1) + Const(c2) * _exp_t(r2)


def _characteristic_roots(disc, half_trace):
    """Root case of u'' - 2 h u' + c u = 0 from its discriminant 4 h^2 - 4 c.

    Returns the case name, the root parameters it adds to a family and a
    builder of the general solution with coefficients p["c1"], p["c2"].
    """
    if disc > _EQ_TOL:
        rp = (2.0 * half_trace + math.sqrt(disc)) / 2.0
        rm = (2.0 * half_trace - math.sqrt(disc)) / 2.0
        return ("distinct-roots", {"r_plus": rp, "r_minus": rm},
                lambda p: _sum_exp(p["c1"], p["r_plus"], p["c2"], p["r_minus"]))
    if abs(disc) <= _EQ_TOL:
        return ("double-root", {},
                lambda p: (Const(p["c1"]) + Const(p["c2"]) * _T) * _exp_t(half_trace))
    return ("complex-roots", {"omega": math.sqrt(-disc) / 2.0},
            lambda p: _exp_t(half_trace) * (Const(p["c1"]) * _cos_t(p["omega"])
                                            + Const(p["c2"]) * _sin_t(p["omega"])))


def profile_derivatives(expr, ts):
    """u, u', u'' of a single-variable expression over a grid."""
    return eval_grid(expr, ts)


def _power_samples(u, e):
    """The rows (b, b', b'') of b = u^e from the profile samples u, the
    rows (u, u', u''), by the chain rule; a power of 1 is u itself."""
    if e == 1:
        return u
    u, du, ddu = u
    below = u ** (e - 1)
    return u**e, e * below * du, e * (e - 1) * u ** (e - 2) * du**2 + e * below * ddu


def _warpings(u, powers, ts):
    """The warping samples (m, 3, T) of the warpings u^{e_i}, one power e_i
    in `powers` per fiber, from the profile samples u (3, T) on the grid ts.
    A fractional power of a profile sample <= 0 is NonPositiveWarping, and
    a sample b, b' or b'' that is not finite is einstein's not_finite_error."""
    fractional = [e for e in powers if not float(e).is_integer()]
    if fractional and u[0].min() <= 0.0:
        raise NonPositiveWarping(f"power {fractional[0]} of a profile that is not positive")
    # an overflow is reported by the finiteness check, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.array([_power_samples(u, e) for e in powers])
    if not np.isfinite(b).all():
        i, k, j = np.argwhere(~np.isfinite(b))[0]
        raise not_finite_error(b[:, 0], ts, (i, j), "b" + "'" * k)
    return b


def _scalar_identity(b, dims, svals, scalar):
    """The closed-form scalar curvature for P = d/dt minus the target
    scalar at warping samples b of fibers of dimensions dims and scalar
    curvatures svals."""
    return with_dt_terms(scalar_samples(b, dims, svals), b, dims) - scalar


# check_positive's grid on [0, 1], built once: sample_params checks every
# draw on it
_POSITIVITY_GRID = np.linspace(0.0, 1.0, 33)
_POSITIVITY_GRID.flags.writeable = False
# draws sample_params makes before it gives up on a family
_SAMPLE_TRIES = 80


@dataclass
class SolutionFamily:
    """One classified closed-form (or integrator-backed) solution family."""

    family_id: str
    params: dict
    free_params: tuple
    param_ranges: dict
    # numeric-only: the parameters holding y(0), ("w0", "dw0") or ("phi0",)
    initial: tuple = ()
    # (alpha, beta, gamma) of the profile ODE u'' = alpha u + beta u' + gamma
    ode_coeffs: tuple = None
    # the product: warping i is profile ** powers[i] over a fiber of dimension
    # dims[i] and Einstein constant or scalar curvature fiber_constants[i]
    powers: tuple = ()
    dims: tuple = ()
    fiber_constants: tuple = ()
    # the Einstein constant or the total scalar curvature of the product
    target: float = 0.0
    # the rows: "einstein", "kasner" or "scalar" (see the module docstring)
    equations: str = "scalar"
    # the profile is an auxiliary one (v, w, psi): a profile-ode row checks it
    auxiliary: bool = False
    _profile_builder: object = None
    _ode_rhs: object = None  # numeric-only: params -> F(t, y), y = (u, u') or (u,)

    @property
    def numeric_only(self):
        """No closed form: the family names its y(0) parameters in `initial`."""
        return bool(self.initial)

    def merged(self, overrides=None):
        p = dict(self.params)
        if overrides:
            p.update(overrides)
        return p

    def profile(self, overrides=None) -> ScalarExpr:
        if self.numeric_only:
            raise WarpcurvError(f"{self.family_id} has no closed-form profile")
        return self._profile_builder(self.merged(overrides))

    def check_positive(self, overrides=None):
        expr = self.profile(overrides)
        try:
            vals = eval_grid(expr, _POSITIVITY_GRID, order=0)[0]
        except ExprError as exc:
            raise NonPositiveWarping(str(exc)) from exc
        if np.min(vals) <= 0.0:
            raise NonPositiveWarping(
                f"{self.family_id} profile not positive on (0.0, 1.0)"
            )

    def residuals(self, ts, overrides=None):
        """Residual arrays of the governing system, keyed by equation name."""
        if self.numeric_only:
            raise WarpcurvError(f"{self.family_id} is integrator-backed only")
        expr = self.profile(overrides)
        ts = _nonempty_grid(ts)
        u = profile_derivatives(expr, ts)
        if self.equations == "kasner":
            rows = _kasner_system_values(self.powers, self.dims, self.target,
                                         self.fiber_constants, *u)
            return {f"kasner-eq-{k}": row for k, row in enumerate(rows)}
        try:
            b = _warpings(u, self.powers, ts)
        except WarpcurvError as exc:
            raise type(exc)(f"{self.family_id}: {exc}") from None
        if self.equations == "einstein":
            trace, (fiber,) = einstein_rows(b, self.dims, self.target, self.fiber_constants)
            return {"einstein-trace": trace, "einstein-fiber": fiber}
        out = {}
        if self.auxiliary:
            alpha, beta, gamma = self.ode_coeffs
            out["profile-ode"] = u[2] - beta * u[1] + (-alpha) * u[0] - gamma
        out["scalar-identity"] = _scalar_identity(b, self.dims, self.fiber_constants,
                                                  self.target)
        return out

    def max_residual(self, ts, overrides=None):
        """The largest |value| of the residual rows, NaN if a row has one."""
        worst = [float(np.max(np.abs(v))) for v in self.residuals(ts, overrides).values()]
        return math.nan if any(map(math.isnan, worst)) else max(worst)

    def sample_params(self, rng):
        """Admissible random parameter draw keeping the profile positive."""
        for _ in range(_SAMPLE_TRIES):
            out = dict(self.params)
            for name in self.free_params:
                if name == "sign":
                    out[name] = float(rng.choice([-1.0, 1.0]))
                else:
                    lo, hi = self.param_ranges.get(name, (0.25, 1.75))
                    out[name] = float(rng.uniform(lo, hi))
            if self.numeric_only:
                return out
            try:
                self.check_positive(out)
            except NonPositiveWarping:
                continue
            return out
        raise NonPositiveWarping(
            f"could not sample admissible parameters for {self.family_id}"
        )


# ---------------------------------------------------------------------------
# Robertson-Walker Einstein families


def grw_einstein_family(l, lam, lam_fiber):
    """Closed-form warpings making interval x fiber Einstein at constant lam.

    Exactly two families exist: the exponential warping with both constants
    zero, and the constant warping sqrt(lam_fiber / l) when lam equals the
    fiber dimension and the fiber constant is positive.  The warping is the
    profile itself.
    """
    if l < 2:
        raise InvalidDimension("fiber dimension must exceed 1")
    out = []
    if _close(lam, 0.0) and _close(lam_fiber, 0.0):
        out.append(SolutionFamily(
            family_id="grw-einstein-exponential",
            params={"c1": 1.0, "l": l, "lam": 0.0, "lam_fiber": 0.0},
            free_params=("c1",),
            param_ranges={"c1": (0.2, 2.0)},
            _profile_builder=lambda p: Const(p["c1"]) * _exp_t(1.0),
            ode_coeffs=(1.0, 0.0, 0.0),
            powers=(1.0,), dims=(l,), fiber_constants=(0.0,), target=0.0,
            equations="einstein",
        ))
    if _close(lam, float(l)) and lam_fiber > _EQ_TOL:
        c = math.sqrt(lam_fiber / l)
        out.append(SolutionFamily(
            family_id="grw-einstein-constant",
            params={"l": l, "lam": float(l), "lam_fiber": lam_fiber, "c": c},
            free_params=(),
            param_ranges={},
            _profile_builder=lambda p: Const(p["c"]),
            ode_coeffs=(0.0, 0.0, 0.0),
            powers=(1.0,), dims=(l,), fiber_constants=(lam_fiber,), target=float(l),
            equations="einstein",
        ))
    return out


# ---------------------------------------------------------------------------
# Families of an auxiliary profile


def _lifted_ranges(shift, c1_high, c2_range):
    """Draw ranges keeping c1 + shift positive despite a possibly large
    negative constant part shift of the profile."""
    lift = max(0.0, -shift)
    return {"c1": (0.5 + 1.15 * lift, c1_high + 1.3 * lift), "c2": c2_range}


def _auxiliary_family(fid, params, builder, ode_coeffs, powers, dims, fiber_constants,
                      scalar, ranges):
    """A constant-scalar family of an auxiliary profile u (v, w or psi),
    free in c1 and c2: warping i is u^{powers[i]}, and u solves the ODE of
    `ode_coeffs`, which its profile-ode row checks."""
    return SolutionFamily(
        family_id=fid,
        params=params,
        free_params=("c1", "c2"),
        param_ranges=ranges,
        _profile_builder=builder,
        ode_coeffs=ode_coeffs,
        powers=tuple(powers), dims=tuple(dims), fiber_constants=tuple(fiber_constants),
        target=scalar, auxiliary=True,
    )


# ---------------------------------------------------------------------------
# Robertson-Walker constant-scalar families


def grw_scalar_discriminant(l, scalar):
    """Discriminant of the characteristic polynomial of the profile equation."""
    if l == 3:
        return 25.0 / 4.0 - 4.0 * scalar / 3.0
    return l**2 / 4.0 + (l + 1.0) * (l - scalar) / l


def grw_scalar_family(l, scalar, s_fiber):
    """Warping families giving constant total scalar curvature.

    A three-dimensional fiber admits closed forms for any fiber scalar, in
    v = f^2; other dimensions only for vanishing fiber scalar, in
    w = f^{(l + 1)/2}, otherwise the governing equation is nonlinear and the
    family is integrator-backed.
    """
    if l < 1:
        raise InvalidDimension("fiber dimension must be at least 1")
    if l == 3:
        if _close(scalar, 3.0):
            scalar = 3.0
            params = {"c1": 1.0, "c2": 0.3, "scalar": 3.0, "s_fiber": s_fiber, "l": 3}
            fid, ranges = "grw-scalar-l3-degenerate", {"c1": (0.6, 2.0), "c2": (0.05, 0.8)}

            def builder(p):
                return (Const(p["c1"]) + Const(-2.0 * p["s_fiber"] / 9.0) * _T
                        + Const(p["c2"]) * _exp_t(1.5))
        else:
            case, roots, homogeneous = _characteristic_roots(
                grw_scalar_discriminant(3, scalar), 0.75)
            shift = s_fiber / (scalar - 3.0)
            params = {"c1": 1.0, "c2": 0.5 if case == "distinct-roots" else 0.4,
                      "scalar": scalar, "s_fiber": s_fiber, "l": 3, "shift": shift, **roots}
            fid = f"grw-scalar-l3-{case}"
            ranges = ({"c1": (0.8, 1.8), "c2": (0.05, 0.5)} if case == "complex-roots"
                      else _lifted_ranges(shift, 1.8, (0.1, 1.0)))

            def builder(p):
                return homogeneous(p) + Const(p["shift"])
        # v'' = 1.5 v' - (scalar/3 - 1) v + s_fiber/3, and f = v^{1/2}
        return [_auxiliary_family(fid, params, builder,
                                  (-(scalar / 3.0 - 1.0), 1.5, s_fiber / 3.0),
                                  (0.5,), (3,), (s_fiber,), scalar, ranges)]
    expo = 4.0 / (l + 1.0)
    if abs(s_fiber) <= _EQ_TOL:
        case, roots, homogeneous = _characteristic_roots(
            grw_scalar_discriminant(l, scalar), l / 4.0)
        c2 = {"distinct-roots": 0.5, "double-root": 0.4, "complex-roots": 0.3}[case]
        # w'' = (l/2) w' - ((l + 1)/4) ((scalar - l)/l) w, and f = w^{expo/2}
        return [_auxiliary_family(
            f"grw-scalar-power-{case}",
            {"c1": 1.0, "c2": c2, **roots, "scalar": scalar, "s_fiber": 0.0, "l": l,
             "exponent": expo},
            homogeneous, (-(((l + 1.0) / 4.0) * ((scalar - l) / l)), l / 2.0, 0.0),
            (expo / 2.0,), (l,), (0.0,), scalar, {"c1": (0.4, 1.5), "c2": (0.05, 0.8)},
        )]

    # fiber scalar present and l != 3: nonlinear equation, integrator only
    return [SolutionFamily(
        family_id="grw-scalar-power-forced",
        params={"scalar": scalar, "s_fiber": s_fiber, "l": l, "exponent": expo,
                "w0": 1.0, "dw0": 0.2},
        free_params=("w0", "dw0"),
        param_ranges={"w0": (0.6, 1.6), "dw0": (-0.3, 0.6)},
        initial=("w0", "dw0"),
        _ode_rhs=lambda p: (lambda t, y: (y[1], (
            (p["l"] / 2.0) * y[1]
            - ((p["l"] + 1.0) / 4.0) * ((p["scalar"] - p["l"]) / p["l"]) * y[0]
            + ((p["l"] + 1.0) / 4.0) * (p["s_fiber"] / p["l"]) * y[0] ** (1.0 - p["exponent"])
        ))),
    )]


# ---------------------------------------------------------------------------
# Generalized Kasner spacetimes


def kasner_invariants(p, dims):
    """Aggregates (zeta, eta) = (sum l_i p_i, sum l_i p_i^2); an aggregate
    that is not finite is an error."""
    if len(p) != len(dims):
        raise LengthMismatch("exponent and dimension lists differ in length")
    p = np.asarray(p, dtype=float)
    dims = np.asarray(dims, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        zeta, eta = float(dims @ p), float(dims @ p**2)
    if not (math.isfinite(zeta) and math.isfinite(eta)):
        raise WarpcurvError(f"Kasner invariants of exponents {tuple(p.tolist())} are not "
                            f"finite: zeta = {zeta}, eta = {eta}")
    return zeta, eta


def _real_power(base, e):
    """base ** e over an array, taken as |base| ** e: numpy's power runs
    4-20 times slower on negative bases.  Where base > 0 the bits are those
    of base ** e.  An odd integer power takes back the sign of base (within
    an ulp of numpy's power there), and a fractional power is NaN where
    base < 0, as numpy's power is at every finite negative base."""
    out = np.abs(base) ** e
    if e.is_integer():
        return np.copysign(out, base) if e % 2 else out
    return np.where(base < 0.0, np.nan, out)


def _kasner_system_values(exponents, dims, lam, lam_fibers, phi, dphi, ddphi):
    zeta, eta = kasner_invariants(exponents, dims)
    ltot = float(sum(dims))
    ratio_sq = (dphi / phi) ** 2
    zeta_ratio = zeta * dphi / phi
    rows = [(eta - zeta) * ratio_sq + zeta * ddphi / phi + lam - ltot]
    for pi, lam_i in zip(exponents, lam_fibers):
        rows.append(
            lam_i * _real_power(phi, -2.0 * pi)
            - pi * ddphi / phi
            - (zeta - 1.0) * pi * ratio_sq
            + zeta_ratio
            - lam
        )
    return rows


def _nonempty_grid(grid):
    """The grid as a float array.  A grid with no points is an error: a
    residual check over no points would pass vacuously."""
    ts = np.asarray(grid, dtype=float)
    if ts.size == 0:
        raise WarpcurvError("grid has no points")
    return ts


def _check_type(kind, dims):
    if kind == "II":
        if tuple(dims) != (1, 2):
            raise UnsupportedType("type II requires fiber dimensions (1, 2)")
    elif kind == "III":
        if tuple(dims) != (1, 1, 1):
            raise UnsupportedType("type III requires fiber dimensions (1, 1, 1)")
    else:
        raise UnsupportedType(f"unsupported Kasner type {kind!r}")


def _phi_exp_family(fid, rate_sq, params, **product):
    """Family phi = c0 exp(sign sqrt(rate_sq) t) of the product data
    `product`: its powers, dims, fiber_constants, target and equations."""
    rate = math.sqrt(rate_sq)

    def builder(p):
        return Const(p["c0"]) * _exp_t(p["sign"] * rate)

    return SolutionFamily(
        family_id=fid,
        params={**params, "c0": 1.0, "sign": 1.0, "rate": rate},
        free_params=("c0", "sign"),
        param_ranges={"c0": (0.3, 1.8)},
        _profile_builder=builder,
        ode_coeffs=(rate_sq, 0.0, 0.0),
        **product,
    )


def kasner_einstein_families(kind, p, dims, lam, lam_fibers):
    """Einstein families of the Kasner classification system.

    Type II (fiber dimensions 1 and 2): either the trace-free exponent case
    with both constants zero, or a vanishing second exponent with constants
    (-6, -9).  Type III (three one-dimensional fibers, not all exponents
    equal): only the trace-free case at zero Einstein constant.  The
    warpings are phi^{p_i} of the profile phi.
    """
    _check_type(kind, dims)
    zeta, eta = kasner_invariants(p, dims)
    if len(lam_fibers) != len(dims):
        raise LengthMismatch("need one fiber Einstein constant per fiber")
    product = {"powers": tuple(p), "dims": tuple(dims), "equations": "kasner"}
    out = []
    if kind == "II":
        p1, p2 = p
        if abs(lam_fibers[0]) > _EQ_TOL:
            raise WarpcurvError("a one-dimensional fiber has zero Einstein constant")
        lam2 = lam_fibers[1]
        if _close(zeta, 0.0) and eta > _EQ_TOL and _close(lam, 0.0) and _close(lam2, 0.0):
            out.append(_phi_exp_family(
                "kasner2-einstein-null-trace", 3.0 / eta,
                {"p": tuple(p), "dims": tuple(dims), "lam": 0.0,
                 "lam_fibers": tuple(lam_fibers), "zeta": zeta, "eta": eta},
                fiber_constants=tuple(lam_fibers), target=0.0, **product,
            ))
        if (abs(p2) <= _EQ_TOL and abs(p1) > _EQ_TOL
                and _close(lam, -6.0) and _close(lam2, -9.0)):
            rate = 3.0 / zeta
            out.append(SolutionFamily(
                family_id="kasner2-einstein-exponential",
                params={"c1": 1.0, "p": tuple(p), "dims": tuple(dims), "lam": -6.0,
                        "lam_fibers": tuple(lam_fibers), "zeta": zeta, "eta": eta,
                        "rate": rate},
                free_params=("c1",),
                param_ranges={"c1": (0.3, 1.8)},
                _profile_builder=lambda q: Const(q["c1"]) * _exp_t(q["rate"]),
                ode_coeffs=(rate**2, 0.0, 0.0),
                fiber_constants=tuple(lam_fibers), target=-6.0, **product,
            ))
        return out
    if any(abs(x) > _EQ_TOL for x in lam_fibers):
        raise WarpcurvError("one-dimensional fibers have zero Einstein constants")
    distinct = any(abs(p[i] - p[j]) > _EQ_TOL
                   for i in range(3) for j in range(i + 1, 3))
    if distinct and _close(lam, 0.0) and _close(zeta, 0.0) and eta > _EQ_TOL:
        out.append(_phi_exp_family(
            "kasner3-einstein-null-trace", 3.0 / eta,
            {"p": tuple(p), "dims": tuple(dims), "lam": 0.0,
             "lam_fibers": (0.0, 0.0, 0.0), "zeta": zeta, "eta": eta},
            fiber_constants=(0.0, 0.0, 0.0), target=0.0, **product,
        ))
    return out


def kasner_scalar_discriminant(zeta, eta, scalar):
    return 9.0 / 4.0 - (scalar - 3.0) * (eta + zeta**2) / zeta**2


def kasner_scalar_families(kind, p, dims, scalar, s_fibers):
    """Constant-scalar-curvature families for four-dimensional Kasner types.

    Type III has the complete closed-form classification keyed on the
    discriminant; type II linearizes only when the surface fiber's scalar
    vanishes, the second exponent vanishes, or the exponent combination
    degenerates to a constant forcing term, and otherwise falls back to the
    integrator.  The warpings are phi^{p_i}: of the profile phi in the
    trace-free case, and psi^{mu p_i} of the auxiliary profile psi, with
    phi = psi^mu, otherwise.
    """
    _check_type(kind, dims)
    zeta, eta = kasner_invariants(p, dims)
    if len(s_fibers) != len(dims):
        raise LengthMismatch("need one fiber scalar per fiber")
    product = {"powers": tuple(p), "dims": tuple(dims),
               "fiber_constants": tuple(s_fibers), "target": scalar}

    def static_family(fid):
        return SolutionFamily(
            family_id=fid,
            params={"c0": 1.0, "p": tuple(p), "dims": tuple(dims), "scalar": scalar},
            free_params=("c0",),
            param_ranges={"c0": (0.3, 2.0)},
            _profile_builder=lambda q: Const(q["c0"]),
            ode_coeffs=(0.0, 0.0, 0.0),
            **product,
        )

    def trace_free_family(fid_prefix):
        # zeta = 0 and no fiber term: phi is constant at scalar 3, exponential below
        if _close(scalar, 3.0):
            return [static_family(f"{fid_prefix}-static")]
        if eta > _EQ_TOL and scalar < 3.0:
            return [_phi_exp_family(
                f"{fid_prefix}-exponential", (3.0 - scalar) / eta,
                {"p": tuple(p), "dims": tuple(dims), "scalar": scalar,
                 "zeta": zeta, "eta": eta},
                **product,
            )]
        return []

    def psi_family(fid_prefix, coeff0, disc, inhom=0.0):
        # psi'' - (3/2) psi' + coeff0 psi + inhom = 0
        case, roots, homogeneous = _characteristic_roots(disc, 0.75)
        c2 = {"distinct-roots": 0.4, "double-root": 0.3, "complex-roots": 0.25}[case]
        mu = 2.0 * zeta / (eta + zeta**2)
        shift = -inhom / coeff0 if abs(inhom) > 0.0 else 0.0

        def builder(q):
            psi = homogeneous(q)
            return psi + Const(shift) if abs(shift) > 0.0 else psi

        return [_auxiliary_family(
            f"{fid_prefix}-{case}",
            {"c1": 1.0, "c2": c2, **roots, "scalar": scalar, "mu": mu, "shift": shift},
            builder, (-coeff0, 1.5, -inhom), [mu * pi for pi in p], dims, s_fibers, scalar,
            _lifted_ranges(shift, 1.6, (0.05, 0.7)),
        )]

    if kind == "III":
        if any(abs(s) > _EQ_TOL for s in s_fibers):
            raise WarpcurvError("one-dimensional fibers have zero scalar curvature")
        if abs(zeta) <= _EQ_TOL:
            return trace_free_family("kasner3-scalar")
        disc = kasner_scalar_discriminant(zeta, eta, scalar)
        coeff0 = (scalar - 3.0) * (eta + zeta**2) / (4.0 * zeta**2)
        return psi_family("kasner3-scalar", coeff0, disc)

    # type II
    if abs(s_fibers[0]) > _EQ_TOL:
        raise WarpcurvError("the one-dimensional fiber has zero scalar curvature")
    s2 = s_fibers[1]
    if abs(zeta) <= _EQ_TOL:
        if abs(eta) <= _EQ_TOL:
            if _close(scalar, s2 + 3.0):
                return [static_family("kasner2-scalar-static")]
            return []
        if abs(s2) <= _EQ_TOL:
            return trace_free_family("kasner2-scalar")
        return [_kasner2_first_order_numeric(p, dims, scalar, s2, eta)]
    mu_expo = 1.0 - 4.0 * p[1] * zeta / (eta + zeta**2)
    coeff0 = (scalar - 3.0) * (eta + zeta**2) / (4.0 * zeta**2)
    if abs(s2) <= _EQ_TOL:
        disc = kasner_scalar_discriminant(zeta, eta, scalar)
        return psi_family("kasner2-scalar", coeff0, disc)
    if abs(p[1]) <= _EQ_TOL:
        # fiber term proportional to the profile: fold into the coefficient
        eff = scalar - 3.0 - s2
        disc = 9.0 / 4.0 - eff * (eta + zeta**2) / zeta**2
        coeff = eff * (eta + zeta**2) / (4.0 * zeta**2)
        return psi_family("kasner2-scalar-merged", coeff, disc)
    if abs(mu_expo) <= _EQ_TOL and not _close(scalar, 3.0):
        # fiber term constant: inhomogeneous linear equation
        disc = kasner_scalar_discriminant(zeta, eta, scalar)
        inhom = -s2 * (eta + zeta**2) / (4.0 * zeta**2)
        return psi_family("kasner2-scalar-offset", coeff0, disc, inhom=inhom)
    return [_kasner2_second_order_numeric(p, dims, scalar, s2, zeta, eta, mu_expo)]


def _kasner2_first_order_numeric(p, dims, scalar, s2, eta):
    def rhs(q):
        sign = q.get("sign", 1.0)

        def f(t, y):
            (u,) = y
            rad = (s2 * u ** (-2.0 * p[1]) + 3.0 - scalar) / eta
            if rad < 0:
                raise NonPositiveWarping("gradient radicand went negative")
            return (sign * u * math.sqrt(rad),)

        return f

    return SolutionFamily(
        family_id="kasner2-scalar-forced-gradient",
        params={"p": tuple(p), "dims": tuple(dims), "scalar": scalar, "s2": s2,
                "eta": eta, "phi0": 1.0, "sign": 1.0},
        free_params=("phi0", "sign"),
        param_ranges={"phi0": (0.6, 1.5)},
        initial=("phi0",),
        _ode_rhs=rhs,
    )


def _kasner2_second_order_numeric(p, dims, scalar, s2, zeta, eta, mu_expo):
    coef = (eta + zeta**2) / (4.0 * zeta**2)

    def rhs(q):
        def f(t, y):
            u, v = y
            return v, 1.5 * v + coef * ((3.0 - scalar) * u + s2 * u ** mu_expo)

        return f

    return SolutionFamily(
        family_id="kasner2-scalar-forced",
        params={"p": tuple(p), "dims": tuple(dims), "scalar": scalar, "s2": s2,
                "zeta": zeta, "eta": eta, "mu_expo": mu_expo,
                "psi0": 1.0, "dpsi0": 0.2},
        free_params=("psi0", "dpsi0"),
        param_ranges={"psi0": (0.6, 1.5), "dpsi0": (-0.2, 0.5)},
        initial=("psi0", "dpsi0"),
        _ode_rhs=rhs,
    )


# ---------------------------------------------------------------------------
# Runge-Kutta machinery


def rk4_integrate(coeffs, t0, u0, v0, t1, n_steps):
    """Classical fourth-order integration of the linear equation
    u'' = alpha u + beta u' + gamma, coefficients (alpha, beta, gamma).

    For y = (u, u') the equation is y' = A y + c with
    A = [[0, 1], [alpha, beta]] and c = (0, gamma), and one RK4 step is
    exactly the affine map y <- y + N y + d with N = sum_{k=1..4} (hA)^k / k!
    and d = h sum_{k=0..3} (hA)^k / (k+1)! c, so the coefficients are stepped
    through that map in place of four right-hand-side calls per step.  The
    map is applied in increment form, y + (N y + d): the rounding of N is
    relative to the small increment, where the rounding of I + N would put
    the same error of order ulp(1) into every step.  Returns the t values
    and u at every step.
    """
    h = (t1 - t0) / n_steps
    alpha, beta, gamma = coeffs
    # in plain floats, so that no BLAS kernel picks the rounding
    a10, a11 = h * alpha, h * beta  # hA = [[0, h], [a10, a11]]
    t00, t01, t10, t11 = 1.0, 0.0, 0.0, 1.0  # (hA)^k / k!
    n00 = n01 = n10 = n11 = 0.0  # N
    s01, s11 = 0.0, 1.0  # column 1 of sum_{k=0..3} (hA)^k / (k+1)!
    for k in range(1, 5):
        t00, t01, t10, t11 = (t01 * a10 / k, (t00 * h + t01 * a11) / k,
                              t11 * a10 / k, (t10 * h + t11 * a11) / k)
        n00, n01, n10, n11 = n00 + t00, n01 + t01, n10 + t10, n11 + t11
        if k < 4:
            s01, s11 = s01 + t01 / (k + 1), s11 + t11 / (k + 1)
    d0, d1 = h * gamma * s01, h * gamma * s11
    u, v = float(u0), float(v0)
    us = [u]
    for _ in range(n_steps):
        u, v = u + (n00 * u + n01 * v + d0), v + (n10 * u + n11 * v + d1)
        us.append(u)
    # t0 + k h per element: the bits of rk4_integrate_first_order's t values
    return t0 + np.arange(n_steps + 1) * h, np.array(us)


def rk4_integrate_first_order(rhs, t0, y0, t1, n_steps):
    """Classical fourth-order integration of the system y' = rhs(t, y).

    The state y is a tuple of floats and `rhs` returns a tuple of the same
    length; a second-order equation u'' = f(t, u, u') is the system on
    y = (u, u') whose rhs returns (u', f).  Returns the t values and the
    states, shape (n_steps + 1, len(y0)).  The stages are taken
    component-wise, y + h/2 k1 and so on, in plain floats.
    """
    h = (t1 - t0) / n_steps
    h2, h6 = h / 2, h / 6
    t, y = t0, tuple(map(float, y0))
    ys = [y]
    for k in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + h2, tuple(a + h2 * b for a, b in zip(y, k1)))
        k3 = rhs(t + h2, tuple(a + h2 * b for a, b in zip(y, k2)))
        k4 = rhs(t + h, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))
        t = t0 + (k + 1) * h
        ys.append(y)
    return t0 + np.arange(n_steps + 1) * h, np.array(ys)


def ode_cross_check(family: SolutionFamily, overrides=None, interval=(0.0, 1.0),
                    n_steps=1000, tolerance=1e-6, hard_limit=1e-4):
    """Integrate the family's governing equation from its own initial data.

    The closed form supplies the initial value and slope; the integration
    must track it over the interval: the row `<family_id>[rk4]` holds the
    largest deviation.  Deviations beyond `hard_limit` raise StepTooCoarse.
    """
    if family.numeric_only:
        raise WarpcurvError(f"{family.family_id} has no closed form to compare against")
    p = family.merged(overrides)
    expr = family._profile_builder(p)
    t0, t1 = interval
    val, grad, _ = eval_jet([expr], ("t",), [[t0]])
    ts, us = rk4_integrate(family.ode_coeffs, t0, val[0, 0], grad[0, 0, 0], t1, n_steps)
    exact = eval_grid(expr, ts, order=0)[0]
    dev = float(np.max(np.abs(us - exact)))
    if dev > hard_limit:
        raise StepTooCoarse(f"{family.family_id}: integration deviates by {dev:.3e}")
    return CheckRow.of(f"{family.family_id}[rk4]", dev, tolerance)


def solve_numeric_profile(family: SolutionFamily, overrides=None,
                          interval=(0.0, 1.0), n_steps=1000):
    """Integrate a numeric-only family from the initial data its `initial`
    parameters hold; returns the t values and the profile u at each."""
    p = family.merged(overrides)
    ts, ys = rk4_integrate_first_order(family._ode_rhs(p), interval[0],
                                       [p[name] for name in family.initial],
                                       interval[1], n_steps)
    return ts, ys[:, 0]


# ---------------------------------------------------------------------------
# Nonexistence scans


# Cells x t values in one chunk of a lattice scan: at 33 t values a chunk
# holds at most 248 cells, and each array of a chunk stays under 64 KiB.
# Larger chunks ran no faster and raised the peak memory of a run.
_SCAN_BLOCK_ELEMENTS = 1 << 13
# t values of a scan's coarse pass: that many evenly spaced grid indices, the
# ends included, or every index of a shorter grid.  Four keep the coarse pass
# of the default 41 x 41 box in one chunk; on 90 drawn scans, 3 to 6 pruned
# the same cells, and 5 and 6 ran slower.
_COARSE_T = 4
# cells in the first full chunk of a scan; each next chunk holds twice as many
_FIRST = 8


def _coarse_t(t_points):
    """The t indices of the coarse pass over a grid of t_points values (a
    set, not np.unique, which imports numpy.ma: 1.1 MB of peak memory)."""
    return np.array(sorted({round(k * (t_points - 1) / (_COARSE_T - 1))
                            for k in range(_COARSE_T)}))


def _cell_worst(rows, n):
    """Per cell, the last axis of each row: the largest g(value) over the
    rows and their t values, where g(x) is |x| for a finite x and 1e6
    otherwise, and whether every value was finite."""
    big = 1e6
    worst = np.zeros(n)
    fin = np.ones(n, dtype=bool)
    for r in rows:
        m = np.max(np.abs(r), axis=0)
        bad = ~np.isfinite(m)
        if bad.any():
            # the 1e6 rule, applied only where a value is not finite
            fin &= ~bad
            rb = r[:, bad]
            m[bad] = np.max(np.where(np.isfinite(rb), np.abs(rb), big), axis=0)
        worst = np.maximum(worst, m)
    return worst, fin


def _lattice_min_max(c1_axis, c2_axis, t_points, rows_for, admissible):
    """Smallest worst-case residual over the admissible (c1, c2) lattice cells.

    The cells are passed flat, c1 major: `rows_for(c1, c2, sel)` gives the
    residual rows of the cells whose coordinates are the 1-d arrays c1 and
    c2 at the t-grid indices `sel` (an index array or a slice), each row of
    shape (t values, cells) with t leading, and `admissible(c1, c2)` the
    mask of the cells that count.  A cell's residual is the largest g(value)
    of its rows over the whole t-grid, with g(x) = |x| for a finite x and
    1e6 otherwise.  A lattice on which no admissible cell has only finite
    values shows nothing, and raises NumericalInstability.

    The minimum is exact, a branch and bound over cells.  The largest g over
    the t indices `_coarse_t(t_points)` bounds a cell's residual from below.
    Cells are evaluated in full in order of rising bound, in chunks of
    `_FIRST` cells and then twice as many each time, at most
    `_SCAN_BLOCK_ELEMENTS` values, until the next bound reaches the best
    residual found: no cell left can be smaller.  Only a best residual of
    1e6 or more leaves open whether some admissible cell is finite; the
    cells left whose coarse values are finite are then walked until one is.
    """
    c1 = np.repeat(c1_axis, len(c2_axis))
    c2 = np.tile(c2_axis, len(c1_axis))
    full = max(1, _SCAN_BLOCK_ELEMENTS // t_points)  # cells per full chunk

    def values(cells, sel):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return _cell_worst(rows_for(c1[cells], c2[cells], sel), cells.size)

    cells = np.flatnonzero(admissible(c1, c2))
    lattice = f"{len(c1_axis)} x {len(c2_axis)} lattice"
    if not cells.size:
        raise WarpcurvError(f"no admissible cell on the {lattice}")
    sel = _coarse_t(t_points)
    step = max(1, _SCAN_BLOCK_ELEMENTS // sel.size)
    lb, coarse_fin = map(np.concatenate, zip(*(
        values(cells[s:s + step], sel) for s in range(0, cells.size, step))))
    rank = np.argsort(lb, kind="stable")
    cells, lb, coarse_fin = cells[rank], lb[rank], coarse_fin[rank]
    best, finite, done, size = np.inf, False, 0, min(_FIRST, full)
    while (end := min(done + size, int(np.searchsorted(lb, best)))) > done:
        worst, fin = values(cells[done:end], slice(None))
        best = min(best, float(worst.min()))
        finite = finite or bool(fin.any())
        done, size = end, min(2 * size, full)
    if not finite:
        rest = cells[done:][coarse_fin[done:]]
        finite = any(values(rest[s:s + full], slice(None))[1].any()
                     for s in range(0, rest.size, full))
    if not finite:
        raise NumericalInstability(
            f"no admissible cell of the {lattice} (c1 from {c1_axis[0]:g} to "
            f"{c1_axis[-1]:g}, c2 from {c2_axis[0]:g} to {c2_axis[-1]:g}) "
            f"has a finite residual")
    return best


def _scan_row(case, best, threshold, detail):
    """The row of a scan, which passes when the smallest worst-case residual
    `best` stays at or above `threshold`; `detail` names the branch's
    constants in an INFO line."""
    logger.info("scan detail: %s", detail)
    return CheckRow(case, best, threshold, "pass" if best >= threshold else "fail")


def _scan_ts(n_c, t_points):
    """The scans' t-grid on [0, 1], once both lattice counts are checked."""
    if n_c < 0:
        raise WarpcurvError(f"n_c must be at least 0, got {n_c}")
    if t_points < 1:
        raise WarpcurvError(f"t_points must be at least 1, got {t_points}")
    return np.linspace(0.0, 1.0, t_points)


def _off_origin(c1, c2):
    return (c1 != 0.0) | (c2 != 0.0)


def scan_grw_einstein_oscillatory(l=2, lam=5.0, lam_fiber=1.0, c_range=(-2.0, 2.0),
                                  n_c=41, t_points=33, threshold=0.01):
    """Scan the oscillatory-warping branch for Einstein solutions.

    For lam > l the trace equation forces f = c1 cos(bt) + c2 sin(bt); over
    the (c1, c2) lattice (origin excluded) the fiber equation's residual
    stays bounded away from zero, evidencing nonexistence.
    """
    if lam <= l:
        raise WarpcurvError("scan applies to the oscillatory branch lam > l")
    b = math.sqrt(lam / l - 1.0)
    ts = _scan_ts(n_c, t_points)
    cos_t, sin_t = np.cos(b * ts), np.sin(b * ts)
    axis = np.linspace(c_range[0], c_range[1], n_c)

    def rows_for(c1, c2, sel):
        cos_s, sin_s = cos_t[sel, None], sin_t[sel, None]
        f = c1 * cos_s + c2 * sin_s
        df = b * (-c1 * sin_s + c2 * cos_s)
        return [lam_fiber + (1 - l) * df**2 + (lam / l - 1 - lam) * f**2 + l * df * f]

    best = _lattice_min_max(axis, axis, t_points, rows_for, _off_origin)
    return _scan_row("grw-einstein-oscillatory", best, threshold,
                     f"l={l}, lam={lam}, lam_fiber={lam_fiber}")


def scan_kasner2_einstein_oscillatory(lam=5.0, lam2=1.0, p1=1.0, c_range=(-2.0, 2.0),
                                      n_c=41, t_points=33, threshold=0.01):
    """Scan the oscillatory Kasner branch (lam > 3) for Einstein solutions.

    Uses exponents (p1, 0) so the profile equals the auxiliary oscillator;
    the trace equation holds by construction while the per-fiber equations
    stay bounded away from zero over the lattice.
    """
    if lam <= 3.0:
        raise WarpcurvError("scan applies to the oscillatory branch lam > 3")
    # the trace zeta is p1, and the rate below divides by its square
    if abs(p1) <= _EQ_TOL:
        raise WarpcurvError("scan applies to the nonzero-trace branch")
    if not math.isfinite(p1 * p1):
        raise WarpcurvError(f"scan needs a trace p1 whose square is finite, got {p1!r}")
    p = (p1, 0.0)
    dims = (1, 2)
    zeta, eta = kasner_invariants(p, dims)
    a = math.sqrt((lam - 3.0) * eta / zeta**2)
    ts = _scan_ts(n_c, t_points)
    cos_t, sin_t = np.cos(a * ts), np.sin(a * ts)
    axis = np.linspace(c_range[0], c_range[1], n_c)

    def rows_for(c1, c2, sel):
        cos_s, sin_s = cos_t[sel, None], sin_t[sel, None]
        psi = c1 * cos_s + c2 * sin_s
        dpsi = a * (-c1 * sin_s + c2 * cos_s)
        ddpsi = -a * a * psi
        return _kasner_system_values(p, dims, lam, (0.0, lam2), psi, dpsi, ddpsi)

    best = _lattice_min_max(axis, axis, t_points, rows_for, _off_origin)
    return _scan_row("kasner2-einstein-oscillatory", best, threshold,
                     f"lam={lam}, lam2={lam2}, p=({p1}, 0)")


def scan_kasner3_einstein_linear(p=(1.0, 2.0, 3.0), lam=5.0, c_range=(0.1, 2.0),
                                 n_c=41, t_points=33, threshold=0.01):
    """Scan affine-profile candidates phi^zeta = c1 + c2 t for type III.

    In the nonzero-trace branch the per-fiber equations force phi^zeta to be
    affine in t; the scan shows no admissible pair comes close to solving
    the full system.
    """
    dims = (1, 1, 1)
    zeta, eta = kasner_invariants(p, dims)
    if abs(zeta) <= _EQ_TOL:
        raise WarpcurvError("scan applies to the nonzero-trace branch")
    ts = _scan_ts(n_c, t_points)
    c1_axis = np.linspace(c_range[0], c_range[1], n_c)
    c2_axis = np.linspace(-0.9 * c_range[0], c_range[1], n_c)

    def rows_for(c1, c2, sel):
        base = c1 + c2 * ts[sel, None]
        ratio = (c2 / zeta) / base  # phi'/phi
        ratio_sq = ratio**2
        ddphi_over = -(c2**2 / zeta) / base**2 + ratio_sq  # phi''/phi
        rows = [(eta - zeta) * ratio_sq + zeta * ddphi_over + lam - 3.0]
        fiber_part = ddphi_over + (zeta - 1.0) * ratio_sq
        zeta_ratio = zeta * ratio
        for pi in p:
            rows.append(-pi * fiber_part + zeta_ratio - lam)
        return rows

    def positive(c1, c2):
        # c1 + c2 t, rounded too, is monotone in t: its smallest value is at an end
        return np.minimum(c1 + c2 * ts[0], c1 + c2 * ts[-1]) > 1e-6

    best = _lattice_min_max(c1_axis, c2_axis, t_points, rows_for, positive)
    return _scan_row("kasner3-einstein-linear", best, threshold, f"p={tuple(p)}, lam={lam}")
