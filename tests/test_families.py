"""Solution-family generators, residuals, integrator cross-checks, scans."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from conftest import grw_scalar_threshold, kasner_scalar_threshold
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jet_reference import eval_value

from warpcurv import families
from warpcurv.cli import FAMILY_GENERATORS
from warpcurv.errors import (
    ExprError,
    InvalidDimension,
    LengthMismatch,
    NonPositiveWarping,
    NumericalInstability,
    StepTooCoarse,
    UnsupportedType,
    WarpcurvError,
)
from warpcurv.families import (
    KasnerSpec,
    grw_einstein_family,
    grw_scalar_discriminant,
    grw_scalar_family,
    kasner_einstein_families,
    kasner_invariants,
    kasner_scalar_discriminant,
    kasner_scalar_identity,
    kasner_scalar_families,
    ode_cross_check,
    rk4_integrate,
    rk4_integrate_first_order,
    scan_grw_einstein_oscillatory,
    scan_kasner2_einstein_oscillatory,
    scan_kasner3_einstein_linear,
    solve_numeric_profile,
)
from warpcurv.exprs import Pow, Recip, Sqrt, eval_grid, parse_expr

TS = np.linspace(0.0, 1.0, 33)
SCANS = (scan_grw_einstein_oscillatory, scan_kasner2_einstein_oscillatory,
         scan_kasner3_einstein_linear)


def draws(fam, rng, n=3):
    return [fam.sample_params(rng) for _ in range(n)]


# -- Robertson-Walker Einstein families --------------------------------------


def test_einstein_exponential_family(rng):
    fams = grw_einstein_family(2, 0.0, 0.0)
    assert [f.family_id for f in fams] == ["grw-einstein-exponential"]
    for params in draws(fams[0], rng):
        assert fams[0].max_residual(TS, params) < 1e-10


def test_einstein_constant_family(rng):
    fams = grw_einstein_family(2, 2.0, 1.0)
    assert [f.family_id for f in fams] == ["grw-einstein-constant"]
    fam = fams[0]
    assert fam.params["c"] == pytest.approx(1 / math.sqrt(2))
    assert fam.max_residual(TS) < 1e-12


def test_einstein_no_family_cases():
    assert grw_einstein_family(2, 5.0, 1.0) == []
    assert grw_einstein_family(2, 0.0, 1.0) == []
    assert grw_einstein_family(2, 2.0, -1.0) == []
    with pytest.raises(InvalidDimension):
        grw_einstein_family(1, 0.0, 0.0)


# -- Robertson-Walker scalar families -----------------------------------------


@pytest.mark.parametrize("scalar,s_fiber,expected", [
    (3.0, 9.0, "grw-scalar-l3-degenerate"),
    (2.0, 9.0, "grw-scalar-l3-distinct-roots"),
    (75.0 / 16.0, 0.0, "grw-scalar-l3-double-root"),
    (75.0 / 16.0, 2.0, "grw-scalar-l3-double-root"),
    (6.0, 1.0, "grw-scalar-l3-complex-roots"),
])
def test_scalar_l3_cases(scalar, s_fiber, expected, rng):
    fams = grw_scalar_family(3, scalar, s_fiber)
    assert [f.family_id for f in fams] == [expected]
    for params in draws(fams[0], rng):
        assert fams[0].max_residual(TS, params) < 1e-10


def test_scalar_l3_degenerate_profile():
    fam = grw_scalar_family(3, 3.0, 9.0)[0]
    expr = fam.profile({"c1": 1.0, "c2": 1.0})
    # v = c1 - 2 t + c2 e^{1.5 t} for fiber scalar 9
    got = eval_value(expr, ("t",), [0.5])
    assert got == pytest.approx(1.0 - 2.0 * 0.5 + math.exp(0.75))


@pytest.mark.parametrize("l", [2, 4, 5])
def test_scalar_power_cases(l, rng):
    thr = grw_scalar_threshold(l)
    for scalar, expected in [
        (thr - 1.0, f"grw-scalar-power-distinct-roots"),
        (thr, f"grw-scalar-power-double-root"),
        (thr + 1.0, f"grw-scalar-power-complex-roots"),
    ]:
        fams = grw_scalar_family(l, scalar, 0.0)
        assert [f.family_id for f in fams] == [expected]
        for params in draws(fams[0], rng):
            assert fams[0].max_residual(TS, params) < 1e-10


def test_scalar_threshold_sharp():
    for l in (2, 3, 5):
        thr = grw_scalar_threshold(l)
        assert grw_scalar_discriminant(l, thr - 1e-6) > 0
        assert grw_scalar_discriminant(l, thr + 1e-6) < 0
        assert abs(grw_scalar_discriminant(l, thr)) < 1e-9


def test_scalar_forced_family_numeric():
    fams = grw_scalar_family(2, 1.0, 2.0)
    assert fams[0].numeric_only
    ts, us = solve_numeric_profile(fams[0])
    assert np.all(us > 0)
    # central finite differences of the numeric profile satisfy the equation
    h = ts[1] - ts[0]
    mid = slice(1, -1)
    ddu = (us[2:] - 2 * us[1:-1] + us[:-2]) / h**2
    du = (us[2:] - us[:-2]) / (2 * h)
    p = fams[0].params
    l, scalar, s_f, expo = p["l"], p["scalar"], p["s_fiber"], p["exponent"]
    res = ddu - (l / 2) * du + ((l + 1) / 4) * ((scalar - l) / l) * us[mid] \
        - ((l + 1) / 4) * (s_f / l) * us[mid] ** (1 - expo)
    assert np.max(np.abs(res)) < 1e-5


# -- Kasner machinery ---------------------------------------------------------


def test_kasner_invariants_values():
    assert kasner_invariants((1, 1, -1), (1, 1, 1)) == (1.0, 3.0)
    zeta, eta = kasner_invariants((1.0, -0.5), (1, 2))
    assert zeta == pytest.approx(0.0)
    assert eta == pytest.approx(1.5)
    assert kasner_invariants((0.0, 0.0), (1, 2)) == (0.0, 0.0)
    with pytest.raises(LengthMismatch):
        kasner_invariants((1.0,), (1, 2))


@pytest.mark.parametrize("kind,p,dims", [("II", (1.0, -0.5), (1, 2)),
                                         ("III", (1.0, -0.5, -0.5), (1, 1, 1))])
def test_kasner_einstein_needs_one_constant_per_fiber(kind, p, dims):
    # a short list used to end in an IndexError (type II) or pass unread (type III)
    with pytest.raises(LengthMismatch):
        kasner_einstein_families(kind, p, dims, 0.0, (0.0,))


@settings(max_examples=40, deadline=None)
@given(st.permutations([(1.0, 1), (-0.5, 2), (2.0, 1)]))
def test_kasner_invariants_permutation_invariant(pairs):
    p = [x for x, _ in pairs]
    dims = [d for _, d in pairs]
    zeta, eta = kasner_invariants(p, dims)
    assert zeta == pytest.approx(1.0 - 1.0 + 2.0)
    assert eta == pytest.approx(1.0 + 0.5 + 4.0)


def test_kasner_spec_invariants():
    k = KasnerSpec((1.0, -0.5), (1, 2), parse_expr("exp(t)"))
    assert k.zeta == pytest.approx(0.0)
    assert k.eta == pytest.approx(1.5)
    assert k.zeta**2 <= k.eta * sum(k.dims) + 1e-12
    with pytest.raises(WarpcurvError):
        KasnerSpec((1.0, 0.5), (0, 0), parse_expr("exp(t)"))  # eta = 0, p != 0


def _kasner_eq_rows(family, overrides, ts=TS):
    """The family's kasner-eq-* rows, which evaluate the Kasner Einstein
    classification system, at the profile the overrides select."""
    rows = family.residuals(ts, overrides)
    assert sorted(rows) == [f"kasner-eq-{k}" for k in range(len(family.params["p"]) + 1)]
    return rows


def test_kasner_einstein_residual_examples():
    # degenerate second exponent: phi = c1 e^{3t}, lam = -6, lam_2 = -9
    (fam,) = kasner_einstein_families("II", (1.0, 0.0), (1, 2), -6.0, (0.0, -9.0))
    assert fam.params["rate"] == 3.0
    rows = _kasner_eq_rows(fam, {"c1": 1.2})
    assert all(np.max(np.abs(row)) < 1e-10 for row in rows.values())
    # trace-free exponents: zeta = 0, phi = c0 e^{sqrt(3/eta) t}, lam = 0
    eta = 1.5
    (fam,) = kasner_einstein_families("II", (1.0, -0.5), (1, 2), 0.0, (0.0, 0.0))
    assert fam.params["rate"] == math.sqrt(3.0 / eta)
    rows = _kasner_eq_rows(fam, {"c0": 0.8})
    assert all(np.max(np.abs(row)) < 1e-10 for row in rows.values())
    # three circles, zeta = 0, eta = 6: phi = c0 e^{sqrt(1/2) t}
    (fam,) = kasner_einstein_families("III", (1.0, 1.0, -2.0), (1, 1, 1), 0.0,
                                      (0.0, 0.0, 0.0))
    assert fam.params["rate"] == math.sqrt(0.5)
    rows = _kasner_eq_rows(fam, {"c0": 1.0})
    assert all(np.max(np.abs(row)) < 1e-10 for row in rows.values())


def test_kasner_einstein_positive_profile_required():
    (fam,) = kasner_einstein_families("II", (1.0, 0.0), (1, 2), -6.0, (0.0, -9.0))
    with pytest.raises(NonPositiveWarping):
        fam.check_positive({"c1": -0.5})


@pytest.mark.parametrize("p", [(1.5, 1.0), (1.2474, 0.0), (0.5, -0.5)])
def test_kasner_power_keeps_numpys_power(p):
    # phi ** (-2 p_i) at e = -3, -2, -2.4948, -0.0, -1 and 1, the last two
    # through numpy's own fast paths of **: the rows of numpy's power
    # (the reference) bit for bit on positive phi, and on mixed-sign phi the
    # same NaN and infinite cells, with powers at most an ulp apart (numpy's
    # power on a negative base is not |base| ** e to the bit)
    rng = np.random.default_rng(17)
    shape = (6, 41, 33)
    positive = rng.uniform(0.02, 3.0, shape)
    positive[0, 0, :3] = [np.inf, 1e-300, 5e-324]
    mixed = rng.uniform(-2.0, 2.0, shape)
    mixed[0, 0, :4] = [0.0, -0.0, np.nan, -5e-324]
    dphi, ddphi = rng.uniform(-2.0, 2.0, shape), rng.uniform(-2.0, 2.0, shape)
    args = (p, (1, 2), 4.4, (0.6, 1.3))
    for phi in (positive, mixed):
        with np.errstate(all="ignore"):
            got = families._kasner_system_values(*args, phi, dphi, ddphi)
            with mock.patch.object(families, "_real_power", lambda base, e: base ** e):
                ref = families._kasner_system_values(*args, phi, dphi, ddphi)
        for g, r in zip(got, ref):
            if phi is positive:
                assert g.tobytes() == r.tobytes()
            else:
                assert np.array_equal(np.isnan(g), np.isnan(r))
                assert np.array_equal(np.isinf(g), np.isinf(r))
    for e in {-2.0 * pi for pi in p}:
        with np.errstate(all="ignore"):
            got, ref = families._real_power(mixed, e), mixed ** e
        finite, inf = np.isfinite(ref), np.isinf(ref)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.array_equal(got[inf], ref[inf])
        assert np.all(np.abs(got[finite] - ref[finite]) <= np.spacing(np.abs(ref[finite])))


def test_kasner_einstein_residuals_reject_an_empty_grid():
    (fam,) = kasner_einstein_families("II", (1.0, -0.5), (1, 2), 0.0, (0.0, 0.0))
    with pytest.raises(WarpcurvError, match="no points"):
        fam.residuals(np.array([]))


def test_kasner_scalar_identity_rejects_an_empty_grid():
    kspec = KasnerSpec((1.0, 2.0), (1, 1), parse_expr("exp(t)"))
    with pytest.raises(WarpcurvError, match="no points"):
        kasner_scalar_identity(kspec, 0.0, (0.0, 0.0), np.array([]))


def test_kasner_einstein_families(rng):
    fams = kasner_einstein_families("II", (1.0, -0.5), (1, 2), 0.0, (0.0, 0.0))
    assert [f.family_id for f in fams] == ["kasner2-einstein-null-trace"]
    fams2 = kasner_einstein_families("II", (1.0, 0.0), (1, 2), -6.0, (0.0, -9.0))
    assert [f.family_id for f in fams2] == ["kasner2-einstein-exponential"]
    fams3 = kasner_einstein_families("III", (1.0, 1.0, -2.0), (1, 1, 1),
                                     0.0, (0.0, 0.0, 0.0))
    assert [f.family_id for f in fams3] == ["kasner3-einstein-null-trace"]
    for fam in fams + fams2 + fams3:
        for params in draws(fam, rng):
            assert fam.max_residual(TS, params) < 1e-10
    assert kasner_einstein_families("II", (1.0, 2.0), (1, 2), 5.0, (0.0, 1.0)) == []
    assert kasner_einstein_families("III", (1.0, 2.0, 3.0), (1, 1, 1),
                                    5.0, (0.0, 0.0, 0.0)) == []
    with pytest.raises(UnsupportedType):
        kasner_einstein_families("I", (1.0,), (3,), 0.0, (0.0,))
    with pytest.raises(UnsupportedType):
        kasner_einstein_families("II", (1.0, 2.0), (2, 2), 0.0, (0.0, 0.0))


def test_kasner3_scalar_families(rng):
    fams = kasner_scalar_families("III", (0.0, 0.0, 0.0), (1, 1, 1), 3.0,
                                  (0.0, 0.0, 0.0))
    assert [f.family_id for f in fams] == ["kasner3-scalar-static"]
    assert kasner_scalar_families("III", (0.0, 0.0, 0.0), (1, 1, 1), 4.0,
                                  (0.0, 0.0, 0.0)) == []

    fams = kasner_scalar_families("III", (1.0, 1.0, -2.0), (1, 1, 1), 0.0,
                                  (0.0, 0.0, 0.0))
    assert [f.family_id for f in fams] == ["kasner3-scalar-exponential"]
    assert fams[0].params["rate"] == pytest.approx(math.sqrt(0.5))  # sqrt((3-0)/6)

    # eta = 3 variant: rate sqrt((3 - 0)/3) = 1
    a = math.sqrt(1.5)
    fams = kasner_scalar_families("III", (a, -a, 0.0), (1, 1, 1), 0.0,
                                  (0.0, 0.0, 0.0))
    assert fams[0].params["rate"] == pytest.approx(1.0)

    z, e = kasner_invariants((1.0, 2.0, 3.0), (1, 1, 1))
    thr = kasner_scalar_threshold(z, e)
    table = [
        (thr - 1.0, "kasner3-scalar-distinct-roots"),
        (thr, "kasner3-scalar-double-root"),
        (thr + 1.0, "kasner3-scalar-complex-roots"),
    ]
    for scalar, fid in table:
        fams = kasner_scalar_families("III", (1.0, 2.0, 3.0), (1, 1, 1), scalar,
                                      (0.0, 0.0, 0.0))
        assert [f.family_id for f in fams] == [fid]
        for params in draws(fams[0], rng):
            assert fams[0].max_residual(TS, params) < 1e-10


def test_kasner3_families_invariant_under_exponent_permutation():
    # the three one-dimensional fibers are interchangeable
    z, e = kasner_invariants((1.0, 2.0, 3.0), (1, 1, 1))
    thr = kasner_scalar_threshold(z, e)
    reference = None
    for perm in [(1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (2.0, 3.0, 1.0)]:
        assert kasner_invariants(perm, (1, 1, 1)) == (z, e)
        fams = kasner_scalar_families("III", perm, (1, 1, 1), thr, (0, 0, 0))
        ids = [(f.family_id, f.params["mu"], f.params["shift"]) for f in fams]
        if reference is None:
            reference = ids
        assert ids == reference


def test_kasner3_scalar_threshold_sharp():
    z, e = kasner_invariants((1.0, 2.0, 3.0), (1, 1, 1))
    thr = kasner_scalar_threshold(z, e)
    assert kasner_scalar_discriminant(z, e, thr - 1e-6) > 0
    assert kasner_scalar_discriminant(z, e, thr + 1e-6) < 0


def test_kasner2_scalar_families(rng):
    # vanishing fiber scalar: same closed forms as the three-circle case
    fams = kasner_scalar_families("II", (1.0, 0.5), (1, 2), 2.0, (0.0, 0.0))
    assert fams and not fams[0].numeric_only
    for params in draws(fams[0], rng):
        assert fams[0].max_residual(TS, params) < 1e-10

    # vanishing second exponent: coefficient merge
    fams = kasner_scalar_families("II", (1.0, 0.0), (1, 2), 2.0, (0.0, 1.5))
    assert [f.family_id for f in fams] == ["kasner2-scalar-merged-distinct-roots"]
    for params in draws(fams[0], rng):
        assert fams[0].max_residual(TS, params) < 1e-10

    # exponent degeneration 4 p2 zeta = eta + zeta^2: p = (-1, 1)
    z, e = kasner_invariants((-1.0, 1.0), (1, 2))
    assert 4 * 1.0 * z == pytest.approx(e + z**2)
    fams = kasner_scalar_families("II", (-1.0, 1.0), (1, 2), 2.0, (0.0, 1.5))
    assert [f.family_id for f in fams] == ["kasner2-scalar-offset-distinct-roots"]
    for params in draws(fams[0], rng):
        assert fams[0].max_residual(TS, params) < 1e-10

    # otherwise integrator-backed
    fams = kasner_scalar_families("II", (1.0, 0.25), (1, 2), 2.0, (0.0, 1.5))
    assert fams[0].numeric_only
    ts, us = solve_numeric_profile(fams[0])
    assert np.all(np.isfinite(us))

    fams = kasner_scalar_families("II", (1.0, -0.5), (1, 2), 2.0, (0.0, 1.5))
    assert fams[0].numeric_only and fams[0].ode_order == 1
    ts, us = solve_numeric_profile(fams[0])
    assert np.all(us > 0)


def test_kasner_static_scalar_value(rng):
    # all exponents zero forces scalar = fiber scalar + 3 in type II
    fams = kasner_scalar_families("II", (0.0, 0.0), (1, 2), -2.0 + 3.0,
                                  (0.0, -2.0))
    assert [f.family_id for f in fams] == ["kasner2-scalar-static"]
    assert fams[0].max_residual(TS) < 1e-12
    assert kasner_scalar_families("II", (0.0, 0.0), (1, 2), 5.0, (0.0, -2.0)) == []


# -- integrator ---------------------------------------------------------------


def test_rk4_convergence():
    # u'' = -u with u(0) = 0, u'(0) = 1 has solution sin t
    ts, us = rk4_integrate(lambda t, u, v: -u, 0.0, 0.0, 1.0, 1.0, 1000)
    assert np.max(np.abs(us - np.sin(ts))) < 1e-12


# Recorded from the step loop that stored t and u into numpy arrays at every
# step: (ts[k], us[k]) at steps 0, 1, 500 and 1000, and sha256 digests of
# us.tobytes() and ts.tobytes().  The integrators must keep every bit.
def _forced_rhs(order):
    fam = kasner_scalar_families("II", (1.0, 0.25 if order == 2 else -0.5), (1, 2),
                                 2.0, (0.0, 1.5))[0]
    assert fam.ode_order == order
    return fam._ode_rhs(fam.merged())


_LINEAR_TS = "0e4827766f6303d6d64392343ff6cdeb164c10d96421fe889d4bb93f04239a69"
_UNIT_TS = "be069d7d0c6719743ada6aed42916e2798ddc937afaa56bd63d766dcca764331"


@pytest.mark.parametrize("integrate,steps,us_sha,ts_sha", [
    (lambda: rk4_integrate(lambda t, u, v: 0.3 * v - 2.0 * u + math.cos(t),
                           0.3, 1.0, -0.5, 1.7, 1000),
     [(0.3, 1.0), (0.3014, 0.9992988293882797), (1.0, 0.3922108903644037),
      (1.7, -0.486399766731151)],
     "d39d47868cd5c93acaa2358cdca36ce2e12b87672ecaaf34e79c4522a2f6e4ff", _LINEAR_TS),
    (lambda: rk4_integrate(_forced_rhs(2), 0.0, 1.0, 0.2, 1.0, 1000),  # kasner2-scalar-forced
     [(0.0, 1.0), (0.001, 1.0002006190824515), (0.5, 1.3083458625507327),
      (1.0, 2.3916980861369495)],
     "49c9f3b2e7fd2e42b9dd470303ff8656625f86da7c264a6d0527406620d6dc47", _UNIT_TS),
    (lambda: rk4_integrate_first_order(_forced_rhs(1), 0.0, 1.0, 1.0, 1000),  # -gradient
     [(0.0, 1.0), (0.001, 1.0012920785715498), (0.5, 2.0648683998222648),
      (1.0, 5.644194429210094)],
     "0c43d1a1b8dbb64dcc0745d26aafaba3b60035e4241d0f16d4b0ecd4e62b47c0", _UNIT_TS),
], ids=["linear", "kasner2-scalar-forced", "kasner2-scalar-forced-gradient"])
def test_rk4_keeps_its_recorded_bits(integrate, steps, us_sha, ts_sha):
    ts, us = integrate()
    assert [(ts[k], us[k]) for k in (0, 1, 500, 1000)] == steps
    assert hashlib.sha256(us.tobytes()).hexdigest() == us_sha
    assert hashlib.sha256(ts.tobytes()).hexdigest() == ts_sha


def test_ode_cross_check_families(rng):
    fams = []
    fams += grw_einstein_family(2, 0.0, 0.0)
    fams += grw_scalar_family(3, 2.0, 9.0)
    fams += grw_scalar_family(2, 4.0, 0.0)
    fams += kasner_einstein_families("II", (1.0, 0.0), (1, 2), -6.0, (0.0, -9.0))
    for fam in fams:
        rep = ode_cross_check(fam, fam.sample_params(rng))
        assert rep.passed, (fam.family_id, rep.max_abs_residual)


def test_ode_cross_check_constant_family():
    fam = grw_einstein_family(2, 2.0, 1.0)[0]
    rep = ode_cross_check(fam)
    assert rep.max_abs_residual < 1e-12


def test_ode_cross_check_step_guard():
    fam = grw_scalar_family(3, 6.0, 1.0)[0]
    with pytest.raises(StepTooCoarse):
        ode_cross_check(fam, interval=(0.0, 40.0), n_steps=8)


def test_positivity_guard():
    fam = grw_scalar_family(3, 2.0, 9.0)[0]
    # shift = 9 / (2 - 3) = -9 drags v negative for tiny coefficients
    with pytest.raises(NonPositiveWarping):
        fam.check_positive({"c1": 0.1, "c2": 0.1})


# -- values-only profile walks -------------------------------------------------


def _subtrees(expr):
    yield expr
    kids = getattr(expr, "terms", ()) or getattr(expr, "factors", ())
    for attr in ("arg", "base"):
        if hasattr(expr, attr):
            kids = (getattr(expr, attr),)
    for kid in kids:
        yield from _subtrees(kid)


def _row_zero(expr, ts, order):
    """Row 0 of eval_grid as bytes, or the message of its ExprError."""
    try:
        return eval_grid(expr, ts, order)[0].tobytes()
    except ExprError as exc:
        return f"ExprError: {exc}"


@st.composite
def _family_cases(draw):
    """A family kind and its generator's arguments, drawn near the constants
    at which the generators return closed-form families."""
    kind = draw(st.sampled_from(sorted(FAMILY_GENERATORS)))
    real = st.floats
    if kind == "grw-einstein":
        l = draw(st.integers(2, 6))
        lam_fiber = draw(st.one_of(st.just(0.0), real(0.05, 5.0)))
        lam = draw(st.sampled_from([0.0, float(l)]))
        return kind, {"l": l, "lam": lam, "lam_fiber": lam_fiber}
    if kind == "grw-scalar":
        return kind, {"l": draw(st.integers(1, 6)),
                      "scalar": draw(st.one_of(st.just(3.0), real(-4.0, 12.0))),
                      "s_fiber": draw(st.one_of(st.just(0.0), real(-3.0, 9.0)))}
    p1 = draw(real(0.3, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    if kind == "kasner-einstein":
        if draw(st.booleans()):
            a, b = p1, draw(real(-2.0, 2.0))
            return kind, {"kind": "III", "p": (a, b, -(a + b)), "dims": (1, 1, 1),
                          "lam": 0.0, "lam_fibers": (0.0, 0.0, 0.0)}
        if draw(st.booleans()):
            return kind, {"kind": "II", "p": (p1, -p1 / 2), "dims": (1, 2), "lam": 0.0,
                          "lam_fibers": (0.0, 0.0)}
        return kind, {"kind": "II", "p": (p1, 0.0), "dims": (1, 2), "lam": -6.0,
                      "lam_fibers": (0.0, -9.0)}
    scalar = draw(st.one_of(st.just(3.0), real(-2.0, 9.0)))
    if draw(st.booleans()):
        p = (p1, draw(real(-2.0, 2.0)), draw(real(-2.0, 2.0)))
        return kind, {"kind": "III", "p": p, "dims": (1, 1, 1), "scalar": scalar,
                      "s_fibers": (0.0, 0.0, 0.0)}
    p2 = draw(st.one_of(st.just(0.0), st.just(-p1 / 2), real(-2.0, 2.0)))
    s2 = draw(st.one_of(st.just(0.0), real(-2.0, 2.0)))
    return kind, {"kind": "II", "p": (p1, p2), "dims": (1, 2), "scalar": scalar,
                  "s_fibers": (0.0, s2)}


_PERFBENCH_KINDS = [  # one draw of each family scenario of the families-scan workload
    ("grw-einstein", {"l": 3, "lam": 0.0, "lam_fiber": 0.0}),
    ("grw-einstein", {"l": 4, "lam": 4.0, "lam_fiber": 1.7361}),
    ("grw-scalar", {"l": 3, "scalar": 2.4817, "s_fiber": 3.1094}),
    ("grw-scalar", {"l": 4, "scalar": 8.0318, "s_fiber": 0.0}),
    ("kasner-einstein", {"kind": "II", "p": (1.137, -0.5685), "dims": (1, 2), "lam": 0.0,
                         "lam_fibers": (0.0, 0.0)}),
    ("kasner-einstein", {"kind": "II", "p": (1.4127, 0.0), "dims": (1, 2), "lam": -6.0,
                         "lam_fibers": (0.0, -9.0)}),
    ("kasner-einstein", {"kind": "III", "p": (0.7342, -0.4405, -0.2937), "dims": (1, 1, 1),
                         "lam": 0.0, "lam_fibers": (0.0, 0.0, 0.0)}),
    ("kasner-scalar", {"kind": "III", "p": (0.5113, 1.2201, 1.9032), "dims": (1, 1, 1),
                       "scalar": 5.3377, "s_fibers": (0.0, 0.0, 0.0)}),
    ("kasner-scalar", {"kind": "II", "p": (0.8125, 1.6093), "dims": (1, 2),
                       "scalar": 4.4046, "s_fibers": (0.0, 0.0)}),
]


def _with_examples(test):
    for case in _PERFBENCH_KINDS:
        test = example(case, [0.5, 0.5], 1.0)(test)
    return example(_PERFBENCH_KINDS[5], [1.0, 0.5], 1000.0)(test)  # exp overflows


@settings(max_examples=150, deadline=None)
@given(_family_cases(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       st.sampled_from([1.0, 1000.0]))
@_with_examples
def test_values_only_walk_is_row_zero_of_the_grid(case, fractions, end):
    # check_positive (33 points) and ode_cross_check (the RK4 grid of 1001
    # points) walk profiles at order 0: the values, or the ExprError, must be
    # those of the order-2 walk, which holds because a profile tree has only
    # nodes whose derivative rules raise where their value rules do
    kind, kwargs = case
    try:
        fams = FAMILY_GENERATORS[kind](**kwargs)
    except WarpcurvError:
        return
    for fam in fams:
        if fam.numeric_only:
            continue
        params = dict(fam.params)
        for name, u in zip(fam.free_params, fractions):
            lo, hi = fam.param_ranges.get(name, (0.25, 1.75))
            params[name] = (1.0 if u < 0.5 else -1.0) if name == "sign" else lo + u * (hi - lo)
        expr = fam.profile(params)
        assert not [n for n in _subtrees(expr) if isinstance(n, (Pow, Sqrt, Recip))]
        for ts in (np.linspace(0.0, end, 33), np.arange(1001) * (end / 1000)):
            assert _row_zero(expr, ts, 0) == _row_zero(expr, ts, 2), fam.family_id


# -- nonexistence scans --------------------------------------------------------


def test_scan_grw_einstein():
    rep = scan_grw_einstein_oscillatory(l=2, lam=5.0, lam_fiber=1.0, n_c=41)
    assert rep.passed and rep.min_max_residual >= 0.01
    assert rep.grid_shape == (41, 41)


def test_scan_kasner2_einstein():
    rep = scan_kasner2_einstein_oscillatory(lam=5.0, lam2=1.0, n_c=41)
    assert rep.passed and rep.min_max_residual >= 0.01


def test_scan_kasner3_einstein():
    rep = scan_kasner3_einstein_linear(p=(1.0, 2.0, 3.0), lam=5.0, n_c=41)
    assert rep.passed and rep.min_max_residual >= 0.01


def test_scan_guards():
    with pytest.raises(WarpcurvError):
        scan_grw_einstein_oscillatory(l=2, lam=1.0)
    with pytest.raises(WarpcurvError):
        scan_kasner2_einstein_oscillatory(lam=2.0)


@pytest.mark.parametrize("scan,kwargs", [
    (scan_grw_einstein_oscillatory, {"n_c": 0}),
    (scan_kasner2_einstein_oscillatory, {"n_c": 0}),
    (scan_kasner3_einstein_linear, {"n_c": 0}),
    (scan_kasner3_einstein_linear, {"c_range": (-2.0, -1.0)}),  # no positive profile
])
def test_scan_without_admissible_cell_raises(scan, kwargs):
    # an empty lattice has no residual, so a scan over it must not pass
    with pytest.raises(WarpcurvError, match="no admissible cell"):
        scan(**kwargs)


@pytest.mark.parametrize("scan", SCANS)
@pytest.mark.parametrize("kwargs,match", [
    ({"t_points": 0}, "t_points must be at least 1"),
    ({"t_points": -2}, "t_points must be at least 1"),
    ({"n_c": -3}, "n_c must be at least 0"),
])
def test_scan_rejects_bad_lattice_counts(scan, kwargs, match):
    with pytest.raises(WarpcurvError, match=match):
        scan(**kwargs)


def _per_row_min_max(c1_axis, c2_axis, t_points, rows_for, admissible):
    """The lattice kernel as it walked one c1 at a time, with c2 the column
    c2_axis[:, None] and the 1e6 rule applied to every value: the reference
    the block walk must reproduce bit for bit.  A lattice without an
    admissible cell whose values are all finite raises, as the kernel does."""
    big = 1e6
    best = np.inf
    finite = False
    c2 = c2_axis[:, None]
    for c1 in c1_axis:
        keep = admissible(c1, c2)
        if not keep.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = rows_for(c1, c2)
        worst = np.zeros(c2.shape)
        fin = keep.copy()
        for r in rows:
            fin &= np.isfinite(r).all(axis=1, keepdims=True)
            r = np.where(np.isfinite(r), np.abs(r), big)
            worst = np.maximum(worst, np.max(r, axis=1, keepdims=True))
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


def _scan_outcome(scan, kwargs):
    try:
        with np.errstate(over="ignore"):
            rep = scan(**kwargs)
    except WarpcurvError as exc:
        return str(exc)
    return rep.min_max_residual, rep.passed


@st.composite
def _scan_cases(draw):
    """A scan, its keyword arguments and a block budget.  Budgets below the
    module's own make a c2 row exceed the budget (one c1 per block); a range
    of 1e155 overflows squares to inf, and a fractional Kasner exponent of
    a sign-changing profile gives NaN cells."""
    scan = draw(st.sampled_from(SCANS))
    kwargs = {"n_c": draw(st.integers(1, 61)), "t_points": draw(st.integers(1, 50))}
    scale = draw(st.sampled_from([1.0, 1e155]))
    if scan is scan_kasner3_einstein_linear:
        kwargs["p"] = tuple(draw(st.floats(0.1, 3.0)) for _ in range(3))
        kwargs["lam"] = draw(st.floats(-2.0, 8.0))
        kwargs["c_range"] = (draw(st.floats(-1.0, 0.5)), scale * draw(st.floats(0.6, 3.0)))
    else:
        kwargs["lam"] = draw(st.floats(3.1, 8.0))
        kwargs["c_range"] = (-scale * draw(st.floats(0.0, 3.0)), scale * draw(st.floats(0.0, 3.0)))
        if scan is scan_grw_einstein_oscillatory:
            kwargs["lam_fiber"] = draw(st.floats(-2.0, 2.0))
        else:
            kwargs["lam2"] = draw(st.floats(-2.0, 2.0))
            kwargs["p1"] = draw(st.floats(0.1, 2.0)) * draw(st.sampled_from([1.0, -1.0]))
    budget = draw(st.sampled_from([1, 97, 1000, families._SCAN_BLOCK_ELEMENTS]))
    return scan, kwargs, budget


@settings(max_examples=80, deadline=None)
@given(_scan_cases())
@example((scan_grw_einstein_oscillatory, {"n_c": 41, "t_points": 33},
          families._SCAN_BLOCK_ELEMENTS))  # 41 c1 values in blocks of 6
@example((scan_kasner2_einstein_oscillatory,
          {"lam": 4.4102, "lam2": 0.5391, "p1": 0.6237, "n_c": 29, "t_points": 17}, 1))
@example((scan_grw_einstein_oscillatory, {"c_range": (-1e155, 2e155), "n_c": 7}, 97))
@example((scan_grw_einstein_oscillatory,  # every cell mixes inf and finite values > 1e6
          {"c_range": (-5.5e153, 5.5e153), "n_c": 2, "t_points": 9}, 97))
def test_block_kernel_matches_the_per_row_walk(case):
    scan, kwargs, budget = case
    with mock.patch.object(families, "_SCAN_BLOCK_ELEMENTS", budget):
        got = _scan_outcome(scan, kwargs)
    with mock.patch.object(families, "_lattice_min_max", _per_row_min_max):
        assert got == _scan_outcome(scan, kwargs)


@pytest.mark.parametrize("scan,kwargs", [
    (scan_grw_einstein_oscillatory, {"c_range": (0.0, math.nan)}),
    (scan_grw_einstein_oscillatory, {"c_range": (-1e200, 1e200), "n_c": 2}),
    # the origin is the one finite cell, and it is not admissible
    (scan_grw_einstein_oscillatory, {"c_range": (-1e200, 1e200), "n_c": 3}),
    (scan_kasner2_einstein_oscillatory, {"c_range": (0.0, math.nan), "n_c": 5}),
    (scan_grw_einstein_oscillatory,  # every cell mixes inf and finite values > 1e6
     {"c_range": (-5.5e153, 5.5e153), "n_c": 2, "t_points": 9}),
])
def test_scan_without_a_finite_cell_raises(scan, kwargs):
    # a lattice whose admissible cells all overflow or are NaN evaluated no
    # residual, so the scan must not pass on the 1e6 stand-in; overflow is
    # part of that rule, not a RuntimeWarning
    with pytest.raises(NumericalInstability, match=r"lattice \(c1 from .* has a finite residual"):
        scan(**kwargs)


def test_scan_keeps_the_1e6_rule_beside_a_finite_cell():
    # one finite cell is enough: the others count as 1e6 as before
    rep = scan_grw_einstein_oscillatory(c_range=(-1e200, 1.0), n_c=2)
    assert rep.min_max_residual < 1e6 and rep.passed


def test_block_kernel_takes_one_c1_per_block_past_its_budget():
    # a c2 row of 250 cells at 33 t values exceeds the module's budget
    kwargs = {"l": 3.0, "lam": 5.8874, "lam_fiber": 1.9402, "n_c": 250, "t_points": 33}
    assert 250 * 33 > families._SCAN_BLOCK_ELEMENTS
    got = scan_grw_einstein_oscillatory(**kwargs).min_max_residual
    with mock.patch.object(families, "_lattice_min_max", _per_row_min_max):
        assert got == scan_grw_einstein_oscillatory(**kwargs).min_max_residual


# -- reference values ----------------------------------------------------------
# Recorded from the scans' per-cell loops and the per-branch root constructors;
# the shared lattice kernel and root builder must reproduce them exactly.


@pytest.mark.parametrize("scan,kwargs,expected", [
    (scan_grw_einstein_oscillatory, {}, 0.23247448713915883),
    (scan_grw_einstein_oscillatory,
     {"l": 2.0, "lam": 4.2731, "lam_fiber": 0.6518}, 0.22387377923905105),
    (scan_grw_einstein_oscillatory,
     {"l": 3.0, "lam": 5.8874, "lam_fiber": 1.9402}, 0.3245643605901791),
    (scan_grw_einstein_oscillatory,
     {"l": 2.0, "lam": 5.9606, "lam_fiber": 1.2275, "n_c": 17, "t_points": 9},
     0.46046408106690506),
    (scan_kasner2_einstein_oscillatory, {}, 4.07106781186547),
    (scan_kasner2_einstein_oscillatory,
     {"lam": 4.4102, "lam2": 0.5391, "p1": 0.6237}, 3.7875496992426267),
    (scan_kasner2_einstein_oscillatory,
     {"lam": 6.1833, "lam2": 1.4418, "p1": 1.0754}, 5.600369048401478),
    (scan_kasner2_einstein_oscillatory,
     {"lam": 7.8265, "lam2": 1.9047, "p1": 1.4861, "n_c": 17, "t_points": 9},
     16.636606191687218),
    (scan_kasner3_einstein_linear, {}, 4.238835676079114),
    (scan_kasner3_einstein_linear, {"lam": 4.1196}, 3.3888055154300725),
    (scan_kasner3_einstein_linear, {"lam": 6.7352}, 5.936270635853244),
    (scan_kasner3_einstein_linear,
     {"lam": 7.9581, "p": (0.5, 1.5, 2.5), "n_c": 17, "t_points": 9},
     7.143850636132315),
    # odd integer exponents -3 and -1 of the sign-changing kasner2 profile
    (scan_kasner2_einstein_oscillatory, {"p1": 1.5}, 4.721619674372684),
    (scan_kasner2_einstein_oscillatory, {"p1": 0.5}, 4.106359695089482),
])
def test_scan_reference_values(scan, kwargs, expected):
    assert scan(**kwargs).min_max_residual == expected


_V = {"c1": (0.5, 1.8), "c2": (0.1, 1.0)}
_W = {"c1": (0.4, 1.5), "c2": (0.05, 0.8)}
_PSI = {"c1": (0.5, 1.6), "c2": (0.05, 0.7)}


@pytest.mark.parametrize("generate,family_id,case,params,ranges,value", [
    (lambda: grw_scalar_family(3, 2.0, 9.0),
     "grw-scalar-l3-distinct-roots", "distinct-roots",
     {"c1": 1.0, "c2": 0.5, "scalar": 2.0, "s_fiber": 9.0, "l": 3, "shift": -9.0,
      "r_plus": 1.6964847243000456, "r_minus": -0.1964847243000456},
     {"c1": (10.85, 13.500000000000002), "c2": (0.1, 1.0)}, -6.661764004798789),
    (lambda: grw_scalar_family(3, 75.0 / 16.0, 2.0),
     "grw-scalar-l3-double-root", "double-root",
     {"c1": 1.0, "c2": 0.4, "scalar": 4.6875, "s_fiber": 2.0, "l": 3,
      "shift": 1.1851851851851851}, _V, 2.70034556996222),
    (lambda: grw_scalar_family(3, 6.0, 1.0),
     "grw-scalar-l3-complex-roots", "complex-roots",
     {"c1": 1.0, "c2": 0.4, "scalar": 6.0, "s_fiber": 1.0, "l": 3,
      "shift": 0.3333333333333333, "omega": 0.6614378277661477},
     {"c1": (0.8, 1.8), "c2": (0.05, 0.5)}, 1.7417472670127165),
    (lambda: grw_scalar_family(4, 6.2, 0.0),
     "grw-scalar-power-distinct-roots", "distinct-roots",
     {"c1": 1.0, "c2": 0.5, "r_plus": 1.5590169943749475,
      "r_minus": 0.44098300562505255, "scalar": 6.2, "s_fiber": 0.0, "l": 4,
      "exponent": 0.8}, _W, 2.369011548560407),
    (lambda: grw_scalar_family(4, 7.2, 0.0),
     "grw-scalar-power-double-root", "double-root",
     {"c1": 1.0, "c2": 0.4, "scalar": 7.2, "s_fiber": 0.0, "l": 4, "exponent": 0.8},
     _W, 1.6619993376334965),
    (lambda: grw_scalar_family(4, 8.2, 0.0),
     "grw-scalar-power-complex-roots", "complex-roots",
     {"c1": 1.0, "c2": 0.3, "omega": 0.5590169943749472, "scalar": 8.2,
      "s_fiber": 0.0, "l": 4, "exponent": 0.8}, _W, 1.5060709683310103),
    (lambda: kasner_scalar_families("III", (1.0, 2.0, 3.0), (1, 1, 1), 3.62,
                                    (0.0, 0.0, 0.0)),
     "kasner3-scalar-distinct-roots", "distinct-roots",
     {"c1": 1.0, "c2": 0.4, "r_plus": 1.3392556509887896,
      "r_minus": 0.16074434901121037, "scalar": 3.62, "mu": 0.24, "shift": 0.0},
     _PSI, 2.0658709203662378),
    (lambda: kasner_scalar_families("III", (1.0, 2.0, 3.0), (1, 1, 1), 4.62,
                                    (0.0, 0.0, 0.0)),
     "kasner3-scalar-double-root", "double-root",
     {"c1": 1.0, "c2": 0.3, "scalar": 4.62, "mu": 0.24, "shift": 0.0},
     _PSI, 1.466326818368716),
    (lambda: kasner_scalar_families("III", (1.0, 2.0, 3.0), (1, 1, 1), 5.62,
                                    (0.0, 0.0, 0.0)),
     "kasner3-scalar-complex-roots", "complex-roots",
     {"c1": 1.0, "c2": 0.25, "omega": 0.5892556509887896, "scalar": 5.62,
      "mu": 0.24, "shift": 0.0}, _PSI, 1.3599514572437006),
    (lambda: kasner_scalar_families("II", (1.0, 0.5), (1, 2), 3.6363636363636367,
                                    (0.0, 0.0)),
     "kasner2-scalar-distinct-roots", "distinct-roots",
     {"c1": 1.0, "c2": 0.4, "r_plus": 1.3363019699779286,
      "r_minus": 0.1636980300220714, "scalar": 3.6363636363636367,
      "mu": 0.7272727272727273, "shift": 0.0}, _PSI, 2.0645423077630998),
    (lambda: kasner_scalar_families("II", (1.0, 0.5), (1, 2), 4.636363636363637,
                                    (0.0, 0.0)),
     "kasner2-scalar-double-root", "double-root",
     {"c1": 1.0, "c2": 0.3, "scalar": 4.636363636363637, "mu": 0.7272727272727273,
      "shift": 0.0}, _PSI, 1.466326818368716),
    (lambda: kasner_scalar_families("II", (1.0, 0.5), (1, 2), 5.636363636363637,
                                    (0.0, 0.0)),
     "kasner2-scalar-complex-roots", "complex-roots",
     {"c1": 1.0, "c2": 0.25, "omega": 0.5863019699779288, "scalar": 5.636363636363637,
      "mu": 0.7272727272727273, "shift": 0.0}, _PSI, 1.3599105752205127),
    (lambda: kasner_scalar_families("II", (1.0, 0.0), (1, 2), 5.125, (0.0, 1.0)),
     "kasner2-scalar-merged-double-root", "double-root",
     {"c1": 1.0, "c2": 0.3, "scalar": 5.125, "mu": 1.0, "shift": 0.0},
     _PSI, 1.466326818368716),
    (lambda: kasner_scalar_families("II", (1.0, 0.0), (1, 2), 6.125, (0.0, 1.0)),
     "kasner2-scalar-merged-complex-roots", "complex-roots",
     {"c1": 1.0, "c2": 0.25, "omega": 0.7071067811865476, "scalar": 6.125,
      "mu": 1.0, "shift": 0.0}, _PSI, 1.3602570362968045),
    (lambda: kasner_scalar_families("II", (1.0, 0.0), (1, 2), 4.125, (0.0, 1.0)),
     "kasner2-scalar-merged-distinct-roots", "distinct-roots",
     {"c1": 1.0, "c2": 0.4, "r_plus": 1.4571067811865475,
      "r_minus": 0.04289321881345243, "scalar": 4.125, "mu": 1.0, "shift": 0.0},
     _PSI, 2.120912582120798),
    (lambda: kasner_scalar_families("II", (1.0, 1.0), (1, 2), 3.6875, (0.0, 1.0)),
     "kasner2-scalar-offset-distinct-roots", "distinct-roots",
     {"c1": 1.0, "c2": 0.4, "r_plus": 1.3273502691896257,
      "r_minus": 0.17264973081037416, "scalar": 3.6875, "mu": 0.5,
      "shift": 1.4545454545454546}, _PSI, 3.51507619939132),
    (lambda: kasner_scalar_families("II", (1.0, 1.0), (1, 2), 4.6875, (0.0, 1.0)),
     "kasner2-scalar-offset-double-root", "double-root",
     {"c1": 1.0, "c2": 0.3, "scalar": 4.6875, "mu": 0.5,
      "shift": 0.5925925925925926}, _PSI, 2.0589194109613085),
    (lambda: kasner_scalar_families("II", (1.0, 1.0), (1, 2), 5.6875, (0.0, 1.0)),
     "kasner2-scalar-offset-complex-roots", "complex-roots",
     {"c1": 1.0, "c2": 0.25, "omega": 0.5773502691896258, "scalar": 5.6875,
      "mu": 0.5, "shift": 0.3720930232558139}, _PSI, 1.7318697773418388),
])
def test_root_case_reference_families(generate, family_id, case, params, ranges,
                                      value):
    (fam,) = generate()
    assert (fam.family_id, fam.case) == (family_id, case)
    assert fam.params == params
    assert list(fam.params) == list(params)  # key order as well
    assert fam.param_ranges == ranges
    assert eval_value(fam.profile(), ("t",), [0.37]) == value


@pytest.mark.parametrize("kind,p,scalar,expected", [
    ("II", (1.0, -0.5), 3.0,
     [("kasner2-scalar-static", "constant",
       {"c0": 1.0, "p": (1.0, -0.5), "dims": (1, 2), "scalar": 3.0})]),
    ("II", (1.0, -0.5), 1.5,
     [("kasner2-scalar-exponential", "exponential",
       {"p": (1.0, -0.5), "dims": (1, 2), "scalar": 1.5, "zeta": 0.0, "eta": 1.5,
        "c0": 1.0, "sign": 1.0, "rate": 1.0})]),
    ("II", (1.0, -0.5), 4.0, []),
    ("III", (1.0, 1.0, -2.0), 3.0,
     [("kasner3-scalar-static", "constant",
       {"c0": 1.0, "p": (1.0, 1.0, -2.0), "dims": (1, 1, 1), "scalar": 3.0})]),
    ("III", (1.0, 1.0, -2.0), 0.0,
     [("kasner3-scalar-exponential", "exponential",
       {"p": (1.0, 1.0, -2.0), "dims": (1, 1, 1), "scalar": 0.0, "zeta": 0.0,
        "eta": 6.0, "c0": 1.0, "sign": 1.0, "rate": 0.7071067811865476})]),
    ("III", (1.0, 1.0, -2.0), 4.0, []),
])
def test_trace_free_reference_families(kind, p, scalar, expected):
    dims = (1, 2) if kind == "II" else (1, 1, 1)
    fams = kasner_scalar_families(kind, p, dims, scalar, (0.0,) * len(dims))
    assert [(f.family_id, f.case, f.params) for f in fams] == expected
