"""Component formulas against the coordinate oracle, clause by clause."""

import functools
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from clause_reference import curvature_block
from connection_reference import mixed_ricci_flat_check

from warpcurv import exprs, structured
from warpcurv.chart_core import (
    assemble_metric,
    curvature_from_coefficients,
    levi_civita_coefficients,
    metric_derivatives,
)
from warpcurv.connections import (
    ConnectionKind,
    connection_curvature,
    modified_coefficients,
    pi_and_dpi,
)
from warpcurv.errors import CaseMismatch, WarpcurvError
from warpcurv.exprs import Const, parse_expr
from warpcurv.geometry import (
    Circle,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    TorsionVectorFieldSpec,
    ambient_components,
    p_dt,
)
from warpcurv.structured import (
    StructuredGeometryCache,
    structured_covariant_derivative,
    structured_curvature,
    structured_ricci_matrix,
    structured_scalar,
)
from warpcurv.verify import oracle_comparison

LC = ConnectionKind.LEVI_CIVITA
SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
SYM = ConnectionKind.SYMMETRIZED_AFFINE


def curvature_at(cache, kind, *vecs):
    """R(X, Y)Z at the cache's points for (block, components) vectors X, Y,
    Z: their block clause contracted with the components."""
    blocks = [b for b, _ in vecs]
    out = curvature_block(cache, kind, *blocks)
    return np.einsum("plxyz,x,y,z->pl", out, *(np.asarray(v, dtype=float) for _, v in vecs))


def test_one_cache_build_is_one_jet_walk(spec_zoo):
    # the warpings, the fiber metric entries and P come from one eval_jet call
    for name, spec, P in spec_zoo:
        with mock.patch.object(structured, "eval_jet", wraps=exprs.eval_jet) as walk:
            StructuredGeometryCache(spec, P, spec.sample_points(1))
        assert walk.call_count == 1, name


def test_covariant_derivative_base_fiber_rule(grw_exp_spec):
    # nabla_U X = [X(b)/b + pi(X)] U: vanishes for the exponential warping
    # X = d_t (row 0), U = the fiber's first coordinate vector (row 1)
    cache = StructuredGeometryCache(grw_exp_spec, p_dt(), grw_exp_spec.make_point([0.4]))
    out = structured_covariant_derivative(cache, SSNM)[0, :, 1, 0]
    assert np.max(np.abs(out)) < 1e-12
    # and the symmetrized variant adds pi(X) once more on the other slot
    out_sym = structured_covariant_derivative(cache, SYM)[0, :, 0, 1]
    expect = np.zeros(3)
    expect[1] = 1.0 - 1.0  # X(b)/b + pi(X)
    assert np.allclose(out_sym[1:], expect[1:])


def test_cross_fiber_rule_with_fiber_torsion():
    spec = ProductManifoldSpec(
        IntervalBase(),
        [Circle(), FlatTorus(2)],
        [Const(1.0), Const(1.0)],
    )
    P = TorsionVectorFieldSpec(1, [Const(0.3), Const(0.5)])
    p = spec.make_point([0.2])
    cache = StructuredGeometryCache(spec, P, p)
    # nabla_U W = g(W, P) U across distinct fibers: U = the circle's
    # coordinate vector (row 1), W = the torus's first one (row 2)
    out = structured_covariant_derivative(cache, SSNM)[0, :, 1, 2]
    gWP = cache.pi(1)[0, 0]  # g(W, P)
    assert out[1] == pytest.approx(gWP)
    assert np.max(np.abs(out[[0, 2, 3]])) < 1e-14


def test_curvature_clause_zero_cases(grw_exp_spec):
    p = grw_exp_spec.make_point([0.3])
    X = Y = ("base", [1.0])
    V = (0, [1.0, 0.3])
    out = curvature_at(StructuredGeometryCache(grw_exp_spec, p_dt(), p), SSNM, X, Y, V)
    assert np.max(np.abs(out)) < 1e-14  # R(X, Y)V = 0 for P on the base


def test_curvature_fiber_base_base(grw_exp_spec):
    # R(V, X)X = -[b''/b + g(X, nabla_X P) - pi(X)^2] V = 0 for b = e^t
    p = grw_exp_spec.make_point([0.5])
    V = (0, [1.0, 0.0])
    X = ("base", [1.0])
    out = curvature_at(StructuredGeometryCache(grw_exp_spec, p_dt(), p), SSNM, V, X, X)
    assert np.max(np.abs(out)) < 1e-12


def test_curvature_base_pattern_with_fiber_torsion():
    # R(X, Y)V = pi(V)[X(b_r)/b_r Y - Y(b_r)/b_r X] checked against the oracle
    spec = ProductManifoldSpec(
        IntervalBase(),
        [Circle(), FlatTorus(2)],
        [parse_expr("1.5 + 0.5*cos(t)"), parse_expr("exp(0.5*t)")],
    )
    P = TorsionVectorFieldSpec(0, [Const(0.7)])
    p = spec.make_point([0.4])
    cur = connection_curvature(SSNM, spec, P, p)
    # X = Y = d_t (index 0), V = the circle's coordinate vector (index 1)
    sv = structured_curvature(StructuredGeometryCache(spec, P, p), SSNM)[0, :, 0, 0, 1]
    ov = cur.riemann[0, :, 0, 0, 1]
    assert np.max(np.abs(sv - ov)) < 1e-8


@pytest.mark.parametrize("kind", [LC, SSNM, SYM], ids=lambda k: k.value)
def test_riemann_index_read_equals_unit_contraction(kind, spec_zoo):
    # oracle_comparison reads R(d_i, d_j)d_k off the tensor by index; for unit
    # vectors the contraction is one exact product plus zeros, so both agree
    # bit for bit
    import itertools

    for name, spec, P in spec_zoo:
        (R,) = connection_curvature(kind, spec, P, spec.sample_points(1)).riemann
        e = np.eye(spec.n_bar)
        for i, j, k in itertools.product(range(spec.n_bar), repeat=3):
            ov = np.einsum("lijk,i,j,k->l", R, e[i], e[j], e[k])
            assert np.array_equal(R[:, i, j, k], ov), (name, i, j, k)


def test_case_dispatch_is_total(spec_zoo):
    import itertools

    for name, spec, P in spec_zoo[:4]:
        p = spec.sample_points(1)
        blocks = ["base"] + list(range(spec.m))
        for kind in (LC, SSNM, SYM):
            cache = StructuredGeometryCache(spec, P, p)
            for bx, by, bz in itertools.product(blocks, repeat=3):
                vecs = [(b, np.ones(spec.fiber_dims[b] if b != "base" else spec.n))
                        for b in (bx, by, bz)]
                assert curvature_at(cache, kind, *vecs).shape == (1, spec.n_bar), name
            assert structured_curvature(cache, kind).shape == \
                (1,) + (spec.n_bar,) * 4, name


@pytest.mark.parametrize("kind", ["bogus", "semi-symmetric", None])
def test_unknown_connection_kind_rejected_by_every_clause(grw_exp_spec, kind):
    # a kind that is no ConnectionKind, even its value string, must not fall
    # through to one connection's formula
    cache = StructuredGeometryCache(grw_exp_spec, p_dt(), grw_exp_spec.make_point([0.1]))
    clauses = [
        lambda: structured_covariant_derivative(cache, kind),
        lambda: structured_curvature(cache, kind),
        lambda: structured_ricci_matrix(cache, kind),
        lambda: structured_scalar(cache, kind),
    ]
    for clause in clauses:
        with pytest.raises(CaseMismatch, match="unknown connection kind"):
            clause()


def test_oracle_equivalence_sample(spec_zoo):
    # the full zoo runs in the acceptance suite; spot-check three here
    for name, spec, P in (spec_zoo[1], spec_zoo[5], spec_zoo[9]):
        points = spec.sample_points(2)
        for kind in (SSNM, SYM):
            reports = oracle_comparison(spec, P, kind, points)
            for rep in reports:
                assert rep.passed, f"{name} {kind} {rep.check} {rep.grid_max_residual:.2e}"


def test_mixed_ricci_symmetry_p_base(spec_zoo):
    # Ric(X, V) = Ric(V, X) when P is on the base
    for name, spec, P in spec_zoo:
        if P is not None and P.location != "base":
            continue
        cache = StructuredGeometryCache(spec, P, spec.sample_points(1))
        (ric,) = structured_ricci_matrix(cache, SSNM)
        base = spec.block_slice("base")
        for i in range(spec.m):
            sl = spec.block_slice(i)
            assert np.max(np.abs(ric[base, sl] - ric[sl, base].T)) < 1e-8, name


def test_mixed_ricci_antisymmetric_part_p_fiber():
    # the antisymmetric part of the mixed block is 2 (nbar-1) X(b_r)/b_r pi(V)
    spec = ProductManifoldSpec(
        IntervalBase(),
        [Circle(), FlatTorus(2)],
        [parse_expr("1.5 + 0.5*cos(t)"), parse_expr("exp(0.5*t)")],
    )
    P = TorsionVectorFieldSpec(0, [Const(0.7)])
    p = spec.make_point([0.35])
    cache = StructuredGeometryCache(spec, P, p)
    # X = d_t (index 0), V = the circle's coordinate vector (index 1)
    (ric,) = structured_ricci_matrix(cache, SSNM)
    forward, backward = ric[0, 1], ric[1, 0]
    expected = 2.0 * (spec.n_bar - 1) * float(cache.db_base[0][0, 0] / cache.b[0][0]) \
        * float(cache.pi(0)[0, 0])
    assert forward - backward == pytest.approx(expected, abs=1e-10)


def test_torsion_free_ricci_matches_semi_symmetric_for_base_p(spec_zoo):
    for name, spec, P in spec_zoo:
        if P is not None and P.location != "base":
            continue
        cache = StructuredGeometryCache(spec, P, spec.sample_points(1))
        a = structured_ricci_matrix(cache, SSNM)
        b = structured_ricci_matrix(cache, SYM)
        assert np.max(np.abs(a - b)) < 1e-9, name


def test_torsion_free_ricci_correction_p_fiber():
    # for P on a fiber the two Ricci tensors differ by the exact two-form dpi
    spec = ProductManifoldSpec(
        IntervalBase(),
        [HyperbolicPlane(), Circle()],
        [parse_expr("2 + 0.3*sin(t)"), parse_expr("exp(0.3*t)")],
    )
    P = TorsionVectorFieldSpec(0, [Const(1.0), Const(0.5)])
    for p in spec.sample_points(2)[:, None]:
        a = connection_curvature(SSNM, spec, P, p)
        b = connection_curvature(SYM, spec, P, p)
        diff = b.ricci - a.ricci
        cache = StructuredGeometryCache(spec, P, p)
        blocks = ["base", *range(spec.m)]
        for U in blocks:
            for V in blocks:
                want = cache.dpi(U, V)
                got = diff[:, spec.block_slice(U), spec.block_slice(V)]
                assert np.max(np.abs(got - want)) <= 1e-11


def test_scalar_formula_values():
    # static torus: scalar = fiber scalar + total fiber dimension
    spec = ProductManifoldSpec(IntervalBase(), [FlatTorus(2)],
                               [Const(1.0)])
    p = spec.make_point([0.3])
    cache = StructuredGeometryCache(spec, p_dt(), p)
    assert structured_scalar(cache, SSNM) == pytest.approx(2.0)
    cur = connection_curvature(SSNM, spec, p_dt(), p)
    assert cur.scalar == pytest.approx(2.0, abs=1e-9)


def test_scalar_no_field_reduces_to_levi_civita(spec_zoo):
    for name, spec, P in spec_zoo[:5]:
        p = spec.sample_points(1)
        lc = connection_curvature(LC, spec, None, p).scalar
        cache = StructuredGeometryCache(spec, None, p)
        assert structured_scalar(cache, SSNM) == pytest.approx(lc, abs=1e-12), name


def test_fiber_rescaling_leaves_outputs_unchanged():
    # replacing g_F by c^2 g_F while dividing b by c preserves the metric,
    # so every structured output must agree
    c = 2.0
    base = IntervalBase()
    spec_a = ProductManifoldSpec(base, [Sphere(1.0)],
                                 [parse_expr("2 + 0.5*sin(t)")])
    spec_b = ProductManifoldSpec(base, [Sphere(c)],
                                 [parse_expr(f"(2 + 0.5*sin(t))/{c}")])
    for t in (0.2, 0.8):
        pa = spec_a.make_point([t], [[1.1, 0.6]])
        pb = spec_b.make_point([t], [[1.1, 0.6]])
        ca = StructuredGeometryCache(spec_a, p_dt(), pa)
        cb = StructuredGeometryCache(spec_b, p_dt(), pb)
        assert structured_scalar(ca, SSNM) == pytest.approx(structured_scalar(cb, SSNM), abs=1e-8)
        ra = structured_ricci_matrix(ca, SSNM)
        rb = structured_ricci_matrix(cb, SSNM)
        assert np.max(np.abs(ra - rb)) < 1e-8


def test_mixed_ricci_flat_predicates():
    untwisted = ProductManifoldSpec(
        IntervalBase(),
        [FlatTorus(2), Sphere(1.0)],
        [parse_expr("exp(t)"), parse_expr("2 + 0.4*cos(t)")],
    )
    pts = untwisted.sample_points(3)
    flat, _ = mixed_ricci_flat_check(untwisted, p_dt(), SSNM, pts)
    assert flat and not untwisted.twisted

    flat0, _ = mixed_ricci_flat_check(untwisted, None, SSNM, pts)
    assert flat0

    separable = ProductManifoldSpec(
        IntervalBase(),
        [FlatTorus(2)],
        [parse_expr("exp(t)*(1 + 0.5*x^2)")],
        twisted=True,
    )
    pts = separable.make_point([0.3], [[0.8, 0.4]])
    flat1, _ = mixed_ricci_flat_check(separable, p_dt(), SSNM, pts)
    # a product-form twist is re-expressible as a warped product: mixed-flat
    assert flat1 and separable.twisted

    knotted = ProductManifoldSpec(
        IntervalBase(),
        [FlatTorus(2)],
        [parse_expr("exp(t*(1 + 0.5*x^2))")],
        twisted=True,
    )
    pts = knotted.make_point([0.3], [[0.8, 0.4]])
    flat2, _ = mixed_ricci_flat_check(knotted, p_dt(), SSNM, pts)
    assert not flat2 and knotted.twisted


def test_levi_civita_clauses_ignore_p_exactly(spec_zoo):
    # the P-bearing cache must give the Levi-Civita values of a P-free cache
    for name, spec, P in spec_zoo:
        if P is None:
            continue
        p = spec.sample_points(2)[1:]
        with_p = StructuredGeometryCache(spec, P, p)
        free = StructuredGeometryCache(spec, None, p)
        for whole in (structured_ricci_matrix, structured_curvature):
            assert np.array_equal(whole(with_p, LC), whole(free, LC)), (name, whole.__name__)
        assert np.array_equal(structured_scalar(with_p, LC), structured_scalar(free, LC)), name
        # the P data itself stays on the P-bearing cache
        assert with_p.P_loc == P.location and with_p.without_p().P_loc is None


def test_non_finite_deviation_fails_its_row(monkeypatch, spec_zoo):
    # a NaN at a later point must fail the row, not drop out of the maximum
    from warpcurv import verify

    spec, P = next((s, P) for name, s, P in spec_zoo if name == "grw-sphere")

    def nan_at_second_point(original, poison):
        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs).copy()
            poison(out[1:2])
            return out
        return wrapped

    def nan_everywhere(row):
        row[...] = np.nan

    def nan_in_f0_base_f0(riemann):
        riemann[0, 0, 1, 0, 2] = np.nan  # the d_t component of R(d_1, d_t)d_2

    def nan_in_base_f0(nabla):
        nabla[0, 2, 0, 2] = np.nan  # the d_2 component of nabla_{d_t}d_2

    for fn in ("structured_ricci_matrix", "structured_scalar"):
        monkeypatch.setattr(verify, fn, nan_at_second_point(getattr(verify, fn), nan_everywhere))
    monkeypatch.setattr(verify, "structured_curvature",
                        nan_at_second_point(verify.structured_curvature, nan_in_f0_base_f0))
    monkeypatch.setattr(verify, "structured_covariant_derivative",
                        nan_at_second_point(verify.structured_covariant_derivative,
                                            nan_in_base_f0))
    reports = {r.check: r for r in oracle_comparison(spec, P, SSNM,
                                                      spec.sample_points(2))}
    for clause in ("ricci-matrix", "scalar", "curv[f0,base,f0]", "cov[base,f0]"):
        assert math.isnan(reports[clause].grid_max_residual), clause
        assert not reports[clause].passed, clause
    assert reports["cov[base,base]"].passed
    # each NaN fails its own curvature or covariant derivative row only
    assert all(r.passed for key, r in reports.items()
               if key.startswith(("curv[", "cov["))
               and key not in ("curv[f0,base,f0]", "cov[base,f0]"))


def test_oracle_comparison_builds_one_cache_per_call(monkeypatch, spec_zoo):
    builds = []
    original = StructuredGeometryCache.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(StructuredGeometryCache, "__init__", counting_init)
    spec, P = next((s, P) for name, s, P in spec_zoo if name == "p-on-circle")
    for count in (1, 2, 5):
        for kind in (LC, SSNM, SYM):
            builds.clear()
            oracle_comparison(spec, P, kind, spec.sample_points(count))
            assert len(builds) == 1, (count, kind)


def test_oracle_comparison_makes_one_cache_jet_walk_per_call(monkeypatch, spec_zoo):
    # every point's cache comes from one order-2 walk over the stack of
    # points; the oracle's own walks are not counted
    from warpcurv import verify

    walks, inside = [], []
    stack_walk = exprs.eval_stack

    def counting(exprs_, names, pts, order=2):
        if order and not inside:
            walks.append(len(pts))
        return stack_walk(exprs_, names, pts, order)

    def oracle(*args):
        inside.append(1)
        try:
            return connection_curvature(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(exprs, "eval_stack", counting)
    monkeypatch.setattr(verify, "connection_curvature", oracle)
    for name, spec, P in spec_zoo:
        for kind in (LC, SSNM, SYM):
            walks.clear()
            oracle_comparison(spec, P, kind, spec.sample_points(3))
            assert walks == [3], (name, kind)


@pytest.mark.parametrize("name", ["structured_curvature", "structured_covariant_derivative"])
def test_oracle_comparison_makes_one_call_per_stack(monkeypatch, spec_zoo, name):
    from warpcurv import verify

    calls = []
    original = getattr(verify, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, name, counting)
    spec, P = next((s, P) for name, s, P in spec_zoo if name == "p-on-hyperbolic")
    points = spec.sample_points(3)
    for kind in (LC, SSNM, SYM):
        calls.clear()
        oracle_comparison(spec, P, kind, points)
        assert len(calls) == 1, kind


def _spheres(m):
    """An interval base and m unit spheres, each warped by its own b(t)."""
    return ProductManifoldSpec(IntervalBase(), [Sphere(1.0) for _ in range(m)],
                               [parse_expr(f"{2 + 0.1 * i} + 0.5*sin(t + {0.3 * i})")
                                for i in range(m)])


def test_clause_calls_do_not_grow_with_the_points(monkeypatch, spec_zoo):
    # over three points oracle_comparison runs the clause calls of one
    # point, which are the sweep plan's: one per class and group of fibers
    # of the planned curvature triples, nabla pairs and Ricci pairs, each
    # over the whole stack; three spheres, a group, and four make as many
    # calls
    counts, depth = {}, []

    def counting(name, original):
        def wrapped(*args):
            if not depth:
                counts[name] = counts.get(name, 0) + 1
            depth.append(name)
            try:
                return original(*args)
            finally:
                depth.pop()
        return wrapped

    for name in ("_curv_p_base", "_curv_p_fiber", "_covariant_block", "_ricci_block"):
        monkeypatch.setattr(structured, name, counting(name, getattr(structured, name)))
    for name, spec, P in spec_zoo:
        for kind in (LC, SSNM, SYM):
            runs = []
            for count in (1, 3):
                counts.clear()
                oracle_comparison(spec, P, kind, spec.sample_points(count))
                runs.append(dict(counts))
            plan = structured._plan(StructuredGeometryCache(spec, P, spec.sample_points(1)), kind)
            curvature = runs[0].get("_curv_p_base", 0) + runs[0].get("_curv_p_fiber", 0)
            assert runs[0] == runs[1], (name, kind)
            assert curvature == len(plan.clauses), (name, kind)
            assert runs[0]["_covariant_block"] == len(plan.nabla), (name, kind)
            assert runs[0]["_ricci_block"] == len(plan.ricci), (name, kind)

    for kind in (LC, SSNM, SYM):
        per_layout = []
        for spec in (_spheres(3), _spheres(4)):
            counts.clear()
            oracle_comparison(spec, None, kind, spec.sample_points(1))
            per_layout.append(dict(counts))
        assert per_layout[0] == per_layout[1], kind
        # R over (f, base, base), (f, f, base), (base, f, f), (f, f, f) and
        # (f_j, f_i, f_i); nabla over (base, f), (f, base) and (f, f); Ricci
        # over (base, base), (base, f), (f, base) and (f, f)
        assert per_layout[1] == {"_curv_p_base": 5, "_covariant_block": 3, "_ricci_block": 4}, kind


def test_three_oracle_sweep_rounds_fit_the_plan_caches(monkeypatch):
    # planning stays out of every scenario's cost: three rounds of the
    # benchmark's oracle-sweep make each layout's plans, value layouts and
    # groups once and evict none
    from warpcurv import cli

    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root))
    from perfbench.scenarios import generate_round

    caches = (structured._sweep_plan, structured._layout, structured._fiber_groups)
    for cache in caches:
        cache.cache_clear()
    for rnd in range(3):
        for sc in generate_round("oracle-sweep", 11, rnd, root):
            cli.run_scenario(cli.parse_scenario(sc.text))
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == info.currsize <= info.maxsize, (cache.__name__, info)


def test_an_empty_point_stack_is_a_typed_error():
    from warpcurv.cli import build_spec, build_torsion_field, parse_scenario

    text = (Path(__file__).parent / "scenarios" / "oracle-sphere.txt").read_text()
    cfg = parse_scenario(text)
    spec = build_spec(cfg)
    P = build_torsion_field(cfg, spec)
    empty = np.zeros((0, spec.n_bar))
    for kind in (LC, SSNM, SYM):
        with pytest.raises(WarpcurvError, match="no points"):
            oracle_comparison(spec, P, kind, empty)
    with pytest.raises(WarpcurvError, match="no points"):
        StructuredGeometryCache(spec, P, empty)


@pytest.mark.parametrize("shape", [(2, 3), (1, 3), (2,), (1, 1, 2)])
def test_a_stack_of_the_wrong_width_is_a_typed_error(shape):
    # at n_bar 2, a (2, 3) stack is not three 2-d points, and neither a
    # single point nor a stack of stacks is a stack of points
    spec = ProductManifoldSpec(IntervalBase(), [Circle()], [parse_expr("exp(t)")])
    points = np.full(shape, 0.5)
    expected = rf"^expected an \(N, 2\) point stack, got shape {re.escape(str(shape))}$"
    calls = [lambda: StructuredGeometryCache(spec, p_dt(), points),
             lambda: spec.check_point(points),
             lambda: exprs.eval_jet(spec.warpings, spec.coord_names, points)]
    for kind in (LC, SSNM, SYM):
        calls.append(lambda kind=kind: oracle_comparison(spec, p_dt(), kind, points))
        calls.append(lambda kind=kind: connection_curvature(kind, spec, p_dt(), points))
    for call in calls:
        with pytest.raises(WarpcurvError, match=expected):
            call()


def test_every_point_function_keeps_the_point_axis_of_a_one_row_stack(spec_zoo):
    # one point is a one-row stack, and every array a point function
    # returns for it has a leading point axis of length 1
    for name, spec, P in spec_zoo:
        p = spec.sample_points(1)
        g = assemble_metric(spec, p)
        G, dG = levi_civita_coefficients(spec, p)
        cache = StructuredGeometryCache(spec, P, p)
        fields = [cache.p, cache.zeros, cache.Pc, cache.dPc, *cache.b, *cache.b2]
        for group in (cache.db_base, cache.db_fiber, cache.H_bb, cache.H_bf, cache.H_ff,
                      cache.gF, cache.dgF, cache.GF, cache.RF, cache.RicF, cache.gFinv):
            fields.extend(group)
        returned = {
            "make_point": [spec.make_point(p[0, :spec.n])],
            "ambient_components": ambient_components(spec, P, p),
            "assemble_metric": [g],
            "metric_derivatives": metric_derivatives(spec, p),
            "levi_civita_coefficients": [G, dG],
            "pi_and_dpi": pi_and_dpi(spec, P, p, g, G),
            "eval_jet": exprs.eval_jet(spec.warpings, spec.coord_names, p),
            "StructuredGeometryCache": [f for f in fields if f is not None],
        }
        for kind in (LC, SSNM, SYM):
            field = functools.partial(modified_coefficients, kind, spec, P)
            for call, cur in (("connection_curvature", connection_curvature(kind, spec, P, p)),
                              ("curvature_from_coefficients",
                               curvature_from_coefficients(spec, field, p))):
                returned[f"{call} {kind}"] = [cur.riemann, cur.ricci, cur.scalar, cur.metric,
                                              cur.coefficients]
            returned[f"modified_coefficients {kind}"] = field(p)
            returned[f"structured {kind}"] = [
                op(cache, kind) for op in (structured_covariant_derivative, structured_curvature,
                                           structured_ricci_matrix, structured_scalar)]
        for call, arrays in returned.items():
            for a in arrays:
                assert isinstance(a, np.ndarray) and a.shape[:1] == (1,), (name, call)
