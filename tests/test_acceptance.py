"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every tolerance is pinned here; nothing is deferred to calibration.  The
criteria exercise the package end to end: component formulas against the
coordinate oracle across the spec zoo, the classified warping families and
their residual systems, integrator cross-checks, nonexistence scans, the
torsion-free Ricci identities, and byte-level CLI determinism.
"""

import time
from pathlib import Path

import numpy as np

from connection_reference import mixed_ricci_flat_check
from conftest import (
    grw_scalar_threshold,
    kasner_scalar_threshold,
    make_zoo,
    multiwarped_scalar_formula,
)
from warpcurv.cli import main
from warpcurv.connections import ConnectionKind, connection_curvature
from warpcurv.einstein import chebyshev_grid
from warpcurv.exprs import Const, parse_expr
from warpcurv.families import (
    grw_einstein_family,
    grw_scalar_family,
    kasner_einstein_families,
    kasner_invariants,
    kasner_scalar_families,
    ode_cross_check,
    scan_grw_einstein_oscillatory,
    scan_kasner2_einstein_oscillatory,
)
from warpcurv.geometry import (
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    p_dt,
)
from warpcurv.structured import (
    StructuredGeometryCache,
    structured_ricci_matrix,
    structured_scalar,
)
from warpcurv.verify import oracle_comparison

SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
SYM = ConnectionKind.SYMMETRIZED_AFFINE
SCENARIOS = Path(__file__).parent / "scenarios"


def verdict(number, label, ok, detail):
    line = f"[acceptance {number}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def all_closed_form_families():
    """Every closed-form family the classification generators emit."""
    fams = []
    fams += grw_einstein_family(2, 0.0, 0.0)
    fams += grw_einstein_family(2, 2.0, 1.0)
    fams += grw_scalar_family(3, 2.0, 9.0)        # distinct roots
    fams += grw_scalar_family(3, 75.0 / 16.0, 2.0)  # double root
    fams += grw_scalar_family(3, 6.0, 1.0)        # complex roots
    fams += grw_scalar_family(3, 3.0, 9.0)        # degenerate trace
    thr2 = grw_scalar_threshold(2)
    fams += grw_scalar_family(2, thr2 - 1.0, 0.0)
    fams += grw_scalar_family(2, thr2, 0.0)
    fams += grw_scalar_family(2, thr2 + 1.0, 0.0)
    fams += kasner_einstein_families("II", (1.0, -0.5), (1, 2), 0.0, (0.0, 0.0))
    fams += kasner_einstein_families("II", (1.0, 0.0), (1, 2), -6.0, (0.0, -9.0))
    fams += kasner_scalar_families("III", (0.0, 0.0, 0.0), (1, 1, 1), 3.0,
                                   (0.0, 0.0, 0.0))
    fams += kasner_scalar_families("III", (1.0, 1.0, -2.0), (1, 1, 1), 0.0,
                                   (0.0, 0.0, 0.0))
    z, e = kasner_invariants((1.0, 2.0, 3.0), (1, 1, 1))
    thr3 = kasner_scalar_threshold(z, e)
    for scalar in (thr3 - 1.0, thr3, thr3 + 1.0):
        fams += kasner_scalar_families("III", (1.0, 2.0, 3.0), (1, 1, 1), scalar,
                                       (0.0, 0.0, 0.0))
    fams += kasner_einstein_families("III", (1.0, 1.0, -2.0), (1, 1, 1), 0.0,
                                     (0.0, 0.0, 0.0))
    assert not any(f.numeric_only for f in fams)
    return fams


def test_acceptance_1_oracle_equivalence():
    """Component formulas agree with the coordinate oracle across the zoo."""
    start = time.perf_counter()
    zoo = make_zoo()
    assert len(zoo) >= 12
    worst = 0.0
    worst_where = ""
    for name, spec, P in zoo:
        points = spec.sample_points(5)
        for kind in ConnectionKind:
            for rep in oracle_comparison(spec, P, kind, points, tolerance=1e-10):
                if rep.max_deviation > worst:
                    worst = rep.max_deviation
                    worst_where = f"{name}/{kind.value}/{rep.clause}"
                assert rep.passed, (name, kind, rep.clause, rep.max_deviation)
    elapsed = time.perf_counter() - start
    verdict(1, "oracle equivalence over the spec zoo",
            worst < 1e-10 and elapsed < 30.0,
            f"max dev {worst:.2e} at {worst_where}, {elapsed:.1f}s")


def test_acceptance_2_einstein_families_end_to_end():
    """The two Einstein warping families run through the generic pipeline."""
    start = time.perf_counter()
    grid = chebyshev_grid(0.05, 0.95, 17)

    exp_spec = ProductManifoldSpec(IntervalBase(), [FlatTorus(2)],
                                   [parse_expr("exp(t)")])
    worst_flat = 0.0
    for t in grid:
        cur = connection_curvature(SSNM, exp_spec, p_dt(), exp_spec.make_point([t]))
        worst_flat = max(worst_flat, float(np.max(np.abs(cur.ricci))))

    # constant warping sqrt(lam_fiber / l) with the unit-constant fiber;
    # in the package trace convention that fiber is the hyperbolic plane
    const_spec = ProductManifoldSpec(IntervalBase(), [HyperbolicPlane()],
                                     [Const(2.0 ** -0.5)])
    worst_const = 0.0
    for t in grid:
        cur = connection_curvature(SSNM, const_spec, p_dt(),
                                   const_spec.make_point([t]))
        worst_const = max(worst_const,
                          float(np.max(np.abs(cur.ricci - 2.0 * cur.metric))))
    elapsed = time.perf_counter() - start
    verdict(2, "Einstein families end-to-end",
            worst_flat < 1e-12 and worst_const < 1e-12 and elapsed < 5.0,
            f"max|Ric| {worst_flat:.2e}, max|Ric-2g| {worst_const:.2e}, {elapsed:.1f}s")


def test_acceptance_3_closed_form_residuals(rng):
    """Every generator-emitted closed form satisfies its system to 1e-10."""
    ts = np.linspace(0.0, 1.0, 33)
    worst = 0.0
    worst_fam = ""
    count = 0
    for fam in all_closed_form_families():
        for _ in range(3):
            params = fam.sample_params(rng)
            r = fam.max_residual(ts, params)
            if r > worst:
                worst, worst_fam = r, fam.family_id
            count += 1
    verdict(3, "closed-form residuals",
            worst < 1e-10,
            f"{count} draws across families, worst {worst:.2e} ({worst_fam})")


def test_acceptance_4_integrator_cross_check(rng):
    """Each closed form tracks its own numerical integration to 1e-6."""
    worst = 0.0
    worst_fam = ""
    for fam in all_closed_form_families():
        params = fam.sample_params(rng)
        rep = ode_cross_check(fam, params, n_steps=1000)
        if rep.max_abs_residual > worst:
            worst, worst_fam = rep.max_abs_residual, fam.family_id
        assert rep.passed, (fam.family_id, rep.max_abs_residual)
    verdict(4, "integrator cross-check", worst < 1e-6,
            f"worst deviation {worst:.2e} ({worst_fam})")


def test_acceptance_5_nonexistence_scans():
    """Contradiction branches stay bounded away from solutions."""
    rep_a = scan_grw_einstein_oscillatory(l=2, lam=5.0, lam_fiber=1.0, n_c=41)
    rep_b = scan_kasner2_einstein_oscillatory(lam=5.0, lam2=1.0, n_c=41)
    verdict(5, "nonexistence scans",
            rep_a.passed and rep_b.passed,
            f"min residuals {rep_a.min_max_residual:.3f} / "
            f"{rep_b.min_max_residual:.3f} over 41x41 lattices")


def test_acceptance_6_torsion_free_ricci_identities():
    """Torsion-free connection: same Ricci for base fields; exact two-form
    correction for fiber fields."""
    zoo = make_zoo()
    base_cases = [z for z in zoo if z[2] is not None and z[2].location == "base"][:5]
    assert len(base_cases) == 5
    worst_base = 0.0
    for name, spec, P in base_cases:
        cache = StructuredGeometryCache(spec, P, spec.sample_points(1))
        a = structured_ricci_matrix(cache, SSNM)
        b = structured_ricci_matrix(cache, SYM)
        worst_base = max(worst_base, float(np.max(np.abs(a - b))))

    fiber_cases = [z for z in zoo if z[2] is not None and z[2].location != "base"]
    worst_fiber = 0.0
    for name, spec, P in fiber_cases:
        for p in spec.sample_points(2)[:, None]:
            oracle = connection_curvature(SYM, spec, P, p).ricci
            cache = StructuredGeometryCache(spec, P, p)
            corrected = structured_ricci_matrix(cache, SSNM).copy()
            blocks = ["base", *range(spec.m)]
            for U in blocks:
                for V in blocks:
                    corrected[:, spec.block_slice(U), spec.block_slice(V)] += cache.dpi(U, V)
            worst_fiber = max(worst_fiber, float(np.max(np.abs(corrected - oracle))))
    verdict(6, "torsion-free Ricci identities",
            worst_base < 1e-9 and worst_fiber < 1e-10,
            f"base-field dev {worst_base:.2e}, fiber-field dev {worst_fiber:.2e}")


def test_acceptance_7_mixed_ricci_flat_predicate():
    """Plain warpings are mixed-Ricci-flat; a non-product twist is not."""
    ok = True
    details = []
    for fibers, warp in [
        ([FlatTorus(2)], "exp(t)"),
        ([Sphere(1.0), FlatTorus(2)], "2 + 0.4*cos(t)"),
        ([HyperbolicPlane()], "1.5 + 0.3*sin(t)"),
    ]:
        warps = [parse_expr(warp)] * len(fibers)
        spec = ProductManifoldSpec(IntervalBase(), fibers, warps)
        flat, worst = mixed_ricci_flat_check(spec, p_dt(), SSNM, spec.sample_points(3))
        ok = ok and flat
        details.append(f"{worst:.1e}")

    twisted = ProductManifoldSpec(
        IntervalBase(), [FlatTorus(2)],
        [parse_expr("exp(t*(1 + 0.5*x^2))")], twisted=True)
    pts = twisted.make_point([0.3], [[0.8, 0.4]])
    flat, worst = mixed_ricci_flat_check(twisted, p_dt(), SSNM, pts)
    ok = ok and not flat
    verdict(7, "mixed-Ricci-flat predicate", ok,
            f"plain warpings {', '.join(details)}; "
            f"twist residual {worst:.2e}")


def test_acceptance_8_scalar_formula_consistency():
    """Unit warping: closed-form scalar equals fiber scalar + dimension,
    matching both trace expressions and the generic oracle."""
    worst = 0.0
    ok = True
    for fiber, expected in [
        (FlatTorus(2), 0.0 + 2),
        (Sphere(1.0), -2.0 + 2),
        (HyperbolicPlane(), 2.0 + 2),
    ]:
        spec = ProductManifoldSpec(IntervalBase(), [fiber], [Const(1.0)])
        grid = np.array([0.2, 0.5, 0.8])
        closed = multiwarped_scalar_formula(spec, p_dt(), grid)
        ok = ok and np.allclose(closed, expected, atol=1e-14)
        for t in grid:
            p = spec.make_point([t])
            (trace_form,) = structured_scalar(StructuredGeometryCache(spec, p_dt(), p), SSNM)
            (oracle,) = connection_curvature(SSNM, spec, p_dt(), p).scalar
            worst = max(worst, abs(trace_form - expected), abs(oracle - expected))
    verdict(8, "scalar formula consistency", ok and worst < 1e-12,
            f"max deviation from fiber scalar + dimension: {worst:.2e}")


def test_acceptance_9_cli_determinism(capsysbinary):
    """The golden scenario corpus emits byte-identical reports twice."""
    paths = sorted(SCENARIOS.glob("*.txt"))
    assert len(paths) >= 8
    identical = True
    for path in paths:
        main(["verify", str(path)])
        first = capsysbinary.readouterr().out
        main(["verify", str(path)])
        second = capsysbinary.readouterr().out
        identical = identical and first == second and len(first) > 0
    verdict(9, "CLI determinism", identical,
            f"{len(paths)} scenarios, two runs each, byte-identical")
