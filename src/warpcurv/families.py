"""Closed-form warping-function families and their verification machinery.

Each generator returns the complete list of families matching the supplied
constants, or an empty list when no closed form exists.  A family knows

* its governed profile: the function its linear ODE controls (the warping
  itself or an auxiliary power of it),
* a residual system: exact expressions that vanish identically on the
  family, evaluated over a t-grid,
* how to rebuild the actual warping expressions for end-to-end checks.

Families without a closed form (`numeric_only`) carry the governing ODE
right-hand side instead and are handled by the integrator.

Nonexistence in the contradiction branches is evidenced by lattice scans:
the residual system stays bounded away from zero over the whole lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .einstein import ResidualReport
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
    case: str
    params: dict
    free_params: tuple
    param_ranges: dict
    numeric_only: bool = False
    ode_order: int = 2
    _profile_builder: object = None
    _residuals: object = None
    _ode_rhs: object = None

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
        p = self.merged(overrides)
        return self._residuals(self._profile_builder(p), p, _nonempty_grid(ts))

    def max_residual(self, ts, overrides=None):
        res = self.residuals(ts, overrides)
        return max(float(np.max(np.abs(v))) for v in res.values())

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


def _grw_einstein_residual_fn(l, lam, lam_fiber):
    def residuals(expr, p, ts):
        f, df, ddf = profile_derivatives(expr, ts)
        trace = l * (1.0 - ddf / f) - lam
        fiber = lam_fiber + (1 - l) * df**2 + (lam / l - 1 - lam) * f**2 + l * df * f
        return {"einstein-trace": trace, "einstein-fiber": fiber}

    return residuals


def grw_einstein_family(l, lam, lam_fiber):
    """Closed-form warpings making interval x fiber Einstein at constant lam.

    Exactly two families exist: the exponential warping with both constants
    zero, and the constant warping sqrt(lam_fiber / l) when lam equals the
    fiber dimension and the fiber constant is positive.
    """
    if l < 2:
        raise InvalidDimension("fiber dimension must exceed 1")
    out = []
    if _close(lam, 0.0) and _close(lam_fiber, 0.0):
        out.append(SolutionFamily(
            family_id="grw-einstein-exponential",
            case="exponential",
            params={"c1": 1.0, "l": l, "lam": 0.0, "lam_fiber": 0.0},
            free_params=("c1",),
            param_ranges={"c1": (0.2, 2.0)},
            _profile_builder=lambda p: Const(p["c1"]) * _exp_t(1.0),
            _residuals=_grw_einstein_residual_fn(l, 0.0, 0.0),
            _ode_rhs=lambda p: (lambda t, u, v: u),
        ))
    if _close(lam, float(l)) and lam_fiber > _EQ_TOL:
        c = math.sqrt(lam_fiber / l)
        out.append(SolutionFamily(
            family_id="grw-einstein-constant",
            case="constant",
            params={"l": l, "lam": float(l), "lam_fiber": lam_fiber, "c": c},
            free_params=(),
            param_ranges={},
            _profile_builder=lambda p: Const(p["c"]),
            _residuals=_grw_einstein_residual_fn(l, float(l), lam_fiber),
            _ode_rhs=lambda p: (lambda t, u, v: 0.0 * u),
        ))
    return out


# ---------------------------------------------------------------------------
# Robertson-Walker constant-scalar families


def grw_scalar_discriminant(l, scalar):
    """Discriminant of the characteristic polynomial of the profile equation."""
    if l == 3:
        return 25.0 / 4.0 - 4.0 * scalar / 3.0
    return l**2 / 4.0 + (l + 1.0) * (l - scalar) / l


def _grw_scalar_identity(l, scalar, s_fiber, v, dv, ddv):
    """Residual of the closed-form scalar curvature at warping f = sqrt(v)."""
    f = np.sqrt(v)
    df = dv / (2.0 * f)
    ddf = ddv / (2.0 * f) - dv**2 / (4.0 * v * f)
    return (
        s_fiber / v
        - 2.0 * l * ddf / f
        - l * (l - 1) * (df / f) ** 2
        + l
        + l**2 * df / f
        - scalar
    )


def _v_family(fid, case, params, builder, scalar, s_fiber,
              ranges=None):
    # v'' = 1.5 v' - a v + b
    a, b = scalar / 3.0 - 1.0, s_fiber / 3.0

    def residuals(expr, p, ts):
        v, dv, ddv = profile_derivatives(expr, ts)
        ode = ddv - 1.5 * dv + a * v - b
        scal = _grw_scalar_identity(3, scalar, s_fiber, v, dv, ddv)
        return {"profile-ode": ode, "scalar-identity": scal}

    if ranges is None:
        # keep v positive despite a possibly large negative constant part
        lift = max(0.0, -params.get("shift", 0.0))
        ranges = {"c1": (0.5 + 1.15 * lift, 1.8 + 1.3 * lift), "c2": (0.1, 1.0)}
    return SolutionFamily(
        family_id=fid,
        case=case,
        params=params,
        free_params=("c1", "c2"),
        param_ranges=ranges,
        _profile_builder=builder,
        _residuals=residuals,
        _ode_rhs=lambda p: (lambda t, u, w: 1.5 * w - a * u + b),
    )


def _w_family(fid, case, params, builder, l, scalar):
    expo = 4.0 / (l + 1.0)
    # w'' = half w' - coef w
    half, coef = l / 2.0, ((l + 1.0) / 4.0) * ((scalar - l) / l)

    def residuals(expr, p, ts):
        w, dw, ddw = profile_derivatives(expr, ts)
        ode = ddw - half * dw + coef * w
        v = w**expo
        dv = expo * w ** (expo - 1) * dw
        ddv = expo * (expo - 1) * w ** (expo - 2) * dw**2 + expo * w ** (expo - 1) * ddw
        scal = _grw_scalar_identity(l, scalar, 0.0, v, dv, ddv)
        return {"profile-ode": ode, "scalar-identity": scal}

    return SolutionFamily(
        family_id=fid,
        case=case,
        params={**params, "exponent": expo},
        free_params=("c1", "c2"),
        param_ranges={"c1": (0.4, 1.5), "c2": (0.05, 0.8)},
        _profile_builder=builder,
        _residuals=residuals,
        _ode_rhs=lambda p: (lambda t, u, w: half * w - coef * u),
    )


def grw_scalar_family(l, scalar, s_fiber):
    """Warping families giving constant total scalar curvature.

    A three-dimensional fiber admits closed forms for any fiber scalar;
    other dimensions only for vanishing fiber scalar, otherwise the
    governing equation is nonlinear and the family is integrator-backed.
    """
    if l < 1:
        raise InvalidDimension("fiber dimension must be at least 1")
    if l == 3 and _close(scalar, 3.0):
        return [_v_family(
            "grw-scalar-l3-degenerate", "degenerate-trace",
            {"c1": 1.0, "c2": 0.3, "scalar": 3.0, "s_fiber": s_fiber, "l": 3},
            lambda p: (Const(p["c1"]) + Const(-2.0 * p["s_fiber"] / 9.0) * _T
                       + Const(p["c2"]) * _exp_t(1.5)),
            3.0, s_fiber,
            ranges={"c1": (0.6, 2.0), "c2": (0.05, 0.8)},
        )]
    if l == 3:
        case, roots, homogeneous = _characteristic_roots(
            grw_scalar_discriminant(3, scalar), 0.75)
        return [_v_family(
            f"grw-scalar-l3-{case}", case,
            {"c1": 1.0, "c2": 0.5 if case == "distinct-roots" else 0.4,
             "scalar": scalar, "s_fiber": s_fiber, "l": 3,
             "shift": s_fiber / (scalar - 3.0), **roots},
            lambda p: homogeneous(p) + Const(p["shift"]),
            scalar, s_fiber,
            ranges=({"c1": (0.8, 1.8), "c2": (0.05, 0.5)}
                    if case == "complex-roots" else None),
        )]
    if abs(s_fiber) <= _EQ_TOL:
        case, roots, homogeneous = _characteristic_roots(
            grw_scalar_discriminant(l, scalar), l / 4.0)
        c2 = {"distinct-roots": 0.5, "double-root": 0.4, "complex-roots": 0.3}[case]
        return [_w_family(
            f"grw-scalar-power-{case}", case,
            {"c1": 1.0, "c2": c2, **roots, "scalar": scalar, "s_fiber": 0.0, "l": l},
            homogeneous, l, scalar,
        )]

    # fiber scalar present and l != 3: nonlinear equation, integrator only
    expo = 4.0 / (l + 1.0)
    return [SolutionFamily(
        family_id="grw-scalar-power-forced",
        case="forced-nonlinear",
        params={"scalar": scalar, "s_fiber": s_fiber, "l": l, "exponent": expo,
                "w0": 1.0, "dw0": 0.2},
        free_params=("w0", "dw0"),
        param_ranges={"w0": (0.6, 1.6), "dw0": (-0.3, 0.6)},
        numeric_only=True,
        _ode_rhs=lambda p: (lambda t, u, v: (
            (p["l"] / 2.0) * v
            - ((p["l"] + 1.0) / 4.0) * ((p["scalar"] - p["l"]) / p["l"]) * u
            + ((p["l"] + 1.0) / 4.0) * (p["s_fiber"] / p["l"]) * u ** (1.0 - p["exponent"])
        )),
    )]


# ---------------------------------------------------------------------------
# Generalized Kasner spacetimes


def kasner_invariants(p, dims):
    """Aggregates (zeta, eta) = (sum l_i p_i, sum l_i p_i^2)."""
    if len(p) != len(dims):
        raise LengthMismatch("exponent and dimension lists differ in length")
    p = np.asarray(p, dtype=float)
    dims = np.asarray(dims, dtype=float)
    return float(dims @ p), float(dims @ p**2)


@dataclass
class KasnerSpec:
    """Single-profile power-law warpings phi^{p_i} over an interval base."""

    exponents: tuple
    dims: tuple
    phi: ScalarExpr

    def __post_init__(self):
        zeta, eta = kasner_invariants(self.exponents, self.dims)
        if eta < -1e-12:
            raise WarpcurvError("eta must be nonnegative")
        if abs(eta) <= 1e-12 and any(abs(x) > 1e-12 for x in self.exponents):
            raise WarpcurvError("eta vanishes only for all-zero exponents")
        if zeta**2 > eta * sum(self.dims) + 1e-9:
            raise WarpcurvError("zeta^2 exceeds the Cauchy-Schwarz bound eta * sum(dims)")
        self.zeta = zeta
        self.eta = eta


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


def kasner_scalar_identity(kspec: KasnerSpec, scalar, s_fibers, grid):
    """Residual of the closed-form scalar curvature for a Kasner profile."""
    ts = _nonempty_grid(grid)
    phi, dphi, ddphi = profile_derivatives(kspec.phi, ts)
    zeta, eta = kspec.zeta, kspec.eta
    nbar1 = float(sum(kspec.dims))  # total dimension minus one
    total = np.zeros(len(ts))
    for pi, si in zip(kspec.exponents, s_fibers):
        total += si * phi ** (-2.0 * pi)
    total += -2.0 * zeta * ddphi / phi
    total += -(eta + zeta**2 - 2.0 * zeta) * (dphi / phi) ** 2
    total += nbar1 * zeta * dphi / phi + nbar1
    return total - scalar


def _check_type(kind, dims):
    if kind == "II":
        if tuple(dims) != (1, 2):
            raise UnsupportedType("type II requires fiber dimensions (1, 2)")
    elif kind == "III":
        if tuple(dims) != (1, 1, 1):
            raise UnsupportedType("type III requires fiber dimensions (1, 1, 1)")
    else:
        raise UnsupportedType(f"unsupported Kasner type {kind!r}")


def _kasner_einstein_residual_fn(exponents, dims, lam, lam_fibers):
    def residuals(expr, p, ts):
        phi, dphi, ddphi = profile_derivatives(expr, ts)
        rows = _kasner_system_values(exponents, dims, lam, lam_fibers,
                                     phi, dphi, ddphi)
        return {f"kasner-eq-{k}": row for k, row in enumerate(rows)}

    return residuals


def _kasner_scalar_residual_fn(exponents, dims, scalar, s_fibers):
    def residuals(expr, p, ts):
        kspec = KasnerSpec(tuple(exponents), tuple(dims), expr)
        return {"scalar-identity": kasner_scalar_identity(kspec, scalar, s_fibers, ts)}

    return residuals


def _phi_exp_family(fid, case, rate_sq, params, residual_builder):
    """Family phi = c0 exp(sign sqrt(rate_sq) t)."""
    rate = math.sqrt(rate_sq)

    def builder(p):
        return Const(p["c0"]) * _exp_t(p["sign"] * rate)

    return SolutionFamily(
        family_id=fid,
        case=case,
        params={**params, "c0": 1.0, "sign": 1.0, "rate": rate},
        free_params=("c0", "sign"),
        param_ranges={"c0": (0.3, 1.8)},
        _profile_builder=builder,
        _residuals=residual_builder,
        _ode_rhs=lambda p: _scaled_rhs(rate_sq),
    )


def kasner_einstein_families(kind, p, dims, lam, lam_fibers):
    """Einstein families of the Kasner classification system.

    Type II (fiber dimensions 1 and 2): either the trace-free exponent case
    with both constants zero, or a vanishing second exponent with constants
    (-6, -9).  Type III (three one-dimensional fibers, not all exponents
    equal): only the trace-free case at zero Einstein constant.
    """
    _check_type(kind, dims)
    zeta, eta = kasner_invariants(p, dims)
    if len(lam_fibers) != len(dims):
        raise LengthMismatch("need one fiber Einstein constant per fiber")
    out = []
    if kind == "II":
        p1, p2 = p
        if abs(lam_fibers[0]) > _EQ_TOL:
            raise WarpcurvError("a one-dimensional fiber has zero Einstein constant")
        lam2 = lam_fibers[1]
        if _close(zeta, 0.0) and eta > _EQ_TOL and _close(lam, 0.0) and _close(lam2, 0.0):
            out.append(_phi_exp_family(
                "kasner2-einstein-null-trace", "trace-free-exponents", 3.0 / eta,
                {"p": tuple(p), "dims": tuple(dims), "lam": 0.0,
                 "lam_fibers": tuple(lam_fibers), "zeta": zeta, "eta": eta},
                _kasner_einstein_residual_fn(p, dims, 0.0, lam_fibers),
            ))
        if (abs(p2) <= _EQ_TOL and abs(p1) > _EQ_TOL
                and _close(lam, -6.0) and _close(lam2, -9.0)):
            rate = 3.0 / zeta
            out.append(SolutionFamily(
                family_id="kasner2-einstein-exponential",
                case="degenerate-second-exponent",
                params={"c1": 1.0, "p": tuple(p), "dims": tuple(dims), "lam": -6.0,
                        "lam_fibers": tuple(lam_fibers), "zeta": zeta, "eta": eta,
                        "rate": rate},
                free_params=("c1",),
                param_ranges={"c1": (0.3, 1.8)},
                _profile_builder=lambda q: Const(q["c1"]) * _exp_t(q["rate"]),
                _residuals=_kasner_einstein_residual_fn(p, dims, -6.0, lam_fibers),
                _ode_rhs=lambda q: _scaled_rhs(q["rate"] ** 2),
            ))
        return out
    if any(abs(x) > _EQ_TOL for x in lam_fibers):
        raise WarpcurvError("one-dimensional fibers have zero Einstein constants")
    distinct = any(abs(p[i] - p[j]) > _EQ_TOL
                   for i in range(3) for j in range(i + 1, 3))
    if distinct and _close(lam, 0.0) and _close(zeta, 0.0) and eta > _EQ_TOL:
        out.append(_phi_exp_family(
            "kasner3-einstein-null-trace", "trace-free-exponents", 3.0 / eta,
            {"p": tuple(p), "dims": tuple(dims), "lam": 0.0,
             "lam_fibers": (0.0, 0.0, 0.0), "zeta": zeta, "eta": eta},
            _kasner_einstein_residual_fn(p, dims, 0.0, (0.0, 0.0, 0.0)),
        ))
    return out


def kasner_scalar_discriminant(zeta, eta, scalar):
    return 9.0 / 4.0 - (scalar - 3.0) * (eta + zeta**2) / zeta**2


def _psi_family(fid, case, params, psi_builder, exponents, dims, scalar,
                s_fibers, coeff0, inhom=0.0):
    """Auxiliary-profile family: psi'' - (3/2) psi' + coeff0 psi + inhom = 0,
    with warping profile phi = psi^{2 zeta / (eta + zeta^2)}."""
    zeta, eta = kasner_invariants(exponents, dims)
    mu = 2.0 * zeta / (eta + zeta**2)
    shift = -inhom / coeff0 if abs(inhom) > 0.0 else 0.0

    def psi_full(p):
        psi = psi_builder(p)
        return psi + Const(shift) if abs(shift) > 0.0 else psi

    def residuals(expr, p, ts):
        psi, dpsi, ddpsi = profile_derivatives(expr, ts)
        ode = ddpsi - 1.5 * dpsi + coeff0 * psi + inhom
        kspec = KasnerSpec(tuple(exponents), tuple(dims), expr ** mu)
        scal = kasner_scalar_identity(kspec, scalar, s_fibers, ts)
        return {"profile-ode": ode, "scalar-identity": scal}

    lift = max(0.0, -shift)
    return SolutionFamily(
        family_id=fid,
        case=case,
        params={**params, "mu": mu, "shift": shift},
        free_params=("c1", "c2"),
        param_ranges={"c1": (0.5 + 1.15 * lift, 1.6 + 1.3 * lift), "c2": (0.05, 0.7)},
        _profile_builder=psi_full,
        _residuals=residuals,
        _ode_rhs=lambda p: (lambda t, u, v: 1.5 * v - coeff0 * u - inhom),
    )


def _constant_phi_family(fid, p, dims, scalar, s_fibers):
    return SolutionFamily(
        family_id=fid,
        case="constant",
        params={"c0": 1.0, "p": tuple(p), "dims": tuple(dims), "scalar": scalar},
        free_params=("c0",),
        param_ranges={"c0": (0.3, 2.0)},
        _profile_builder=lambda q: Const(q["c0"]),
        _residuals=_kasner_scalar_residual_fn(p, dims, scalar, s_fibers),
        _ode_rhs=lambda q: (lambda t, u, v: 0.0 * u),
    )


def kasner_scalar_families(kind, p, dims, scalar, s_fibers):
    """Constant-scalar-curvature families for four-dimensional Kasner types.

    Type III has the complete closed-form classification keyed on the
    discriminant; type II linearizes only when the surface fiber's scalar
    vanishes, the second exponent vanishes, or the exponent combination
    degenerates to a constant forcing term, and otherwise falls back to the
    integrator.
    """
    _check_type(kind, dims)
    zeta, eta = kasner_invariants(p, dims)
    if len(s_fibers) != len(dims):
        raise LengthMismatch("need one fiber scalar per fiber")

    def trace_free_family(fid_prefix):
        # zeta = 0 and no fiber term: phi is constant at scalar 3, exponential below
        if _close(scalar, 3.0):
            return [_constant_phi_family(f"{fid_prefix}-static", p, dims, scalar,
                                         s_fibers)]
        if eta > _EQ_TOL and scalar < 3.0:
            return [_phi_exp_family(
                f"{fid_prefix}-exponential", "exponential", (3.0 - scalar) / eta,
                {"p": tuple(p), "dims": tuple(dims), "scalar": scalar,
                 "zeta": zeta, "eta": eta},
                _kasner_scalar_residual_fn(p, dims, scalar, s_fibers),
            )]
        return []

    def psi_family(fid_prefix, coeff, disc, inhom=0.0):
        case, roots, homogeneous = _characteristic_roots(disc, 0.75)
        c2 = {"distinct-roots": 0.4, "double-root": 0.3, "complex-roots": 0.25}[case]
        return [_psi_family(f"{fid_prefix}-{case}", case,
                            {"c1": 1.0, "c2": c2, **roots, "scalar": scalar},
                            homogeneous, p, dims, scalar, s_fibers, coeff, inhom)]

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
                return [_constant_phi_family("kasner2-scalar-static", p, dims,
                                             scalar, s_fibers)]
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

        def f(t, u):
            rad = (s2 * u ** (-2.0 * p[1]) + 3.0 - scalar) / eta
            if rad < 0:
                raise NonPositiveWarping("gradient radicand went negative")
            return sign * u * math.sqrt(rad)

        return f

    return SolutionFamily(
        family_id="kasner2-scalar-forced-gradient",
        case="forced-first-order",
        params={"p": tuple(p), "dims": tuple(dims), "scalar": scalar, "s2": s2,
                "eta": eta, "phi0": 1.0, "sign": 1.0},
        free_params=("phi0", "sign"),
        param_ranges={"phi0": (0.6, 1.5)},
        numeric_only=True,
        ode_order=1,
        _ode_rhs=rhs,
    )


def _kasner2_second_order_numeric(p, dims, scalar, s2, zeta, eta, mu_expo):
    coef = (eta + zeta**2) / (4.0 * zeta**2)

    def rhs(q):
        def f(t, u, v):
            return 1.5 * v + coef * ((3.0 - scalar) * u + s2 * u ** mu_expo)

        return f

    return SolutionFamily(
        family_id="kasner2-scalar-forced",
        case="forced-nonlinear",
        params={"p": tuple(p), "dims": tuple(dims), "scalar": scalar, "s2": s2,
                "zeta": zeta, "eta": eta, "mu_expo": mu_expo,
                "psi0": 1.0, "dpsi0": 0.2},
        free_params=("psi0", "dpsi0"),
        param_ranges={"psi0": (0.6, 1.5), "dpsi0": (-0.2, 0.5)},
        numeric_only=True,
        _ode_rhs=rhs,
    )


# ---------------------------------------------------------------------------
# Runge-Kutta machinery


def _scaled_rhs(c):
    """The right-hand side c u of u'' = c u."""
    return lambda t, u, v: c * u


def rk4_integrate(rhs, t0, u0, v0, t1, n_steps):
    """Classical fourth-order integration of u'' = rhs(t, u, u')."""
    h = (t1 - t0) / n_steps
    h2, h6 = h / 2, h / 6
    t, u, v = t0, float(u0), float(v0)
    us = [u]
    for k in range(n_steps):
        k1v = rhs(t, u, v)
        k2u = v + h2 * k1v
        k2v = rhs(t + h2, u + h2 * v, k2u)
        k3u = v + h2 * k2v
        k3v = rhs(t + h2, u + h2 * k2u, k3u)
        k4u = v + h * k3v
        k4v = rhs(t + h, u + h * k3u, k4u)
        u += h6 * (v + 2 * k2u + 2 * k3u + k4u)
        v += h6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t = t0 + (k + 1) * h
        us.append(u)
    # t0 + k h per element: the bits of the stepped t above
    return t0 + np.arange(n_steps + 1) * h, np.array(us)


def rk4_integrate_first_order(rhs, t0, u0, t1, n_steps):
    """Classical fourth-order integration of u' = rhs(t, u)."""
    h = (t1 - t0) / n_steps
    h2, h6 = h / 2, h / 6
    t, u = t0, float(u0)
    us = [u]
    for k in range(n_steps):
        k1 = rhs(t, u)
        k2 = rhs(t + h2, u + h2 * k1)
        k3 = rhs(t + h2, u + h2 * k2)
        k4 = rhs(t + h, u + h * k3)
        u += h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + (k + 1) * h
        us.append(u)
    return t0 + np.arange(n_steps + 1) * h, np.array(us)


def ode_cross_check(family: SolutionFamily, overrides=None, interval=(0.0, 1.0),
                    n_steps=1000, tolerance=1e-6, hard_limit=1e-4):
    """Integrate the family's governing equation from its own initial data.

    The closed form supplies the initial value and slope; the integration
    must track it over the interval.  Deviations beyond `hard_limit` raise
    StepTooCoarse.
    """
    if family.numeric_only:
        raise WarpcurvError(f"{family.family_id} has no closed form to compare against")
    p = family.merged(overrides)
    expr = family._profile_builder(p)
    t0, t1 = interval
    val, grad, _ = eval_jet([expr], ("t",), [t0])
    rhs = family._ode_rhs(p)
    ts, us = rk4_integrate(rhs, t0, val[0], grad[0, 0], t1, n_steps)
    exact = eval_grid(expr, ts, order=0)[0]
    dev = float(np.max(np.abs(us - exact)))
    if dev > hard_limit:
        raise StepTooCoarse(f"{family.family_id}: integration deviates by {dev:.3e}")
    return ResidualReport("rk4-cross-check", dev, tolerance, dev < tolerance)


def solve_numeric_profile(family: SolutionFamily, overrides=None,
                          interval=(0.0, 1.0), n_steps=1000):
    """Integrate a numeric-only family from its stored initial data."""
    p = family.merged(overrides)
    rhs = family._ode_rhs(p)
    u0 = p.get("w0", p.get("psi0", p.get("phi0", 1.0)))
    if family.ode_order == 1:
        return rk4_integrate_first_order(rhs, interval[0], u0, interval[1], n_steps)
    v0 = p.get("dw0", p.get("dpsi0", 0.0))
    return rk4_integrate(rhs, interval[0], u0, v0, interval[1], n_steps)


# ---------------------------------------------------------------------------
# Nonexistence scans


@dataclass
class ScanReport:
    case_id: str
    grid_shape: tuple
    min_max_residual: float
    threshold: float
    passed: bool
    detail: str = ""


# Cells x t values in one block of a lattice scan: the default 41 x 41 box
# at 33 t values takes seven blocks of up to six c1 values, and each array
# of a block stays under 64 KiB.  Larger blocks ran no faster and raised the
# peak memory of a run.
_SCAN_BLOCK_ELEMENTS = 1 << 13


def _lattice_min_max(c1_axis, c2_axis, t_points, rows_for, admissible):
    """Smallest worst-case residual over the admissible (c1, c2) lattice cells.

    The lattice is walked in blocks of consecutive c1 values, as many as
    keep a block's cells times `t_points` within `_SCAN_BLOCK_ELEMENTS`
    (at least one).  A block passes c1 as the (B, 1, 1) array of its values
    and c2 as the (1, len(c2_axis), 1) array of the whole axis:
    `rows_for(c1, c2)` gives the residual rows of all its cells at once,
    each of shape (B, len(c2_axis), t_points) with t last, and
    `admissible(c1, c2)` the (B, len(c2_axis), 1) mask of the cells that
    count.  A cell's residual is its largest |row| value; non-finite values
    count as 1e6.  A lattice on which no admissible cell has a finite
    residual shows nothing, and raises NumericalInstability.
    """
    big = 1e6
    best = np.inf
    finite = False  # some admissible cell has only finite values
    c2 = c2_axis[None, :, None]
    step = max(1, _SCAN_BLOCK_ELEMENTS // max(1, len(c2_axis) * t_points))
    for start in range(0, len(c1_axis), step):
        c1 = c1_axis[start:start + step, None, None]
        keep = admissible(c1, c2)
        if not keep.any():
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rows = rows_for(c1, c2)
        worst = np.zeros(keep.shape)
        fin = keep.copy()
        for r in rows:
            m = np.max(np.abs(r), axis=-1, keepdims=True)
            bad = ~np.isfinite(m)
            if bad.any():
                # the 1e6 rule, applied only where a value is not finite
                fin &= ~bad
                rb = r[bad[..., 0]]
                m[bad] = np.max(np.where(np.isfinite(rb), np.abs(rb), big), axis=-1)
            worst = np.maximum(worst, m)
        best = min(best, float(np.min(worst[keep])))
        finite = finite or bool(fin.any())
    lattice = f"{len(c1_axis)} x {len(c2_axis)} lattice"
    if best == np.inf:
        raise WarpcurvError(f"no admissible cell on the {lattice}")
    if not finite:
        raise NumericalInstability(
            f"no admissible cell of the {lattice} (c1 from {c1_axis[0]:g} to "
            f"{c1_axis[-1]:g}, c2 from {c2_axis[0]:g} to {c2_axis[-1]:g}) "
            f"has a finite residual")
    return best


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

    def rows_for(c1, c2):
        f = c1 * cos_t + c2 * sin_t
        df = b * (-c1 * sin_t + c2 * cos_t)
        return [lam_fiber + (1 - l) * df**2 + (lam / l - 1 - lam) * f**2 + l * df * f]

    best = _lattice_min_max(axis, axis, t_points, rows_for, _off_origin)
    return ScanReport("grw-einstein-oscillatory", (n_c, n_c), best, threshold,
                      best >= threshold, f"l={l}, lam={lam}, lam_fiber={lam_fiber}")


def scan_kasner2_einstein_oscillatory(lam=5.0, lam2=1.0, p1=1.0, c_range=(-2.0, 2.0),
                                      n_c=41, t_points=33, threshold=0.01):
    """Scan the oscillatory Kasner branch (lam > 3) for Einstein solutions.

    Uses exponents (p1, 0) so the profile equals the auxiliary oscillator;
    the trace equation holds by construction while the per-fiber equations
    stay bounded away from zero over the lattice.
    """
    if lam <= 3.0:
        raise WarpcurvError("scan applies to the oscillatory branch lam > 3")
    p = (p1, 0.0)
    dims = (1, 2)
    zeta, eta = kasner_invariants(p, dims)
    a = math.sqrt((lam - 3.0) * eta / zeta**2)
    ts = _scan_ts(n_c, t_points)
    cos_t, sin_t = np.cos(a * ts), np.sin(a * ts)
    axis = np.linspace(c_range[0], c_range[1], n_c)

    def rows_for(c1, c2):
        psi = c1 * cos_t + c2 * sin_t
        dpsi = a * (-c1 * sin_t + c2 * cos_t)
        ddpsi = -a * a * psi
        return _kasner_system_values(p, dims, lam, (0.0, lam2), psi, dpsi, ddpsi)

    best = _lattice_min_max(axis, axis, t_points, rows_for, _off_origin)
    return ScanReport("kasner2-einstein-oscillatory", (n_c, n_c), best, threshold,
                      best >= threshold, f"lam={lam}, lam2={lam2}, p=({p1}, 0)")


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

    def rows_for(c1, c2):
        base = c1 + c2 * ts
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
        return np.min(c1 + c2 * ts, axis=-1, keepdims=True) > 1e-6

    best = _lattice_min_max(c1_axis, c2_axis, t_points, rows_for, positive)
    return ScanReport("kasner3-einstein-linear", (n_c, n_c), best, threshold,
                      best >= threshold, f"p={tuple(p)}, lam={lam}")
