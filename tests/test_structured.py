"""Component formulas against the coordinate oracle, clause by clause."""

import math
from unittest import mock

import numpy as np
import pytest

from warpcurv import exprs, structured
from warpcurv.connections import ConnectionKind, connection_curvature
from warpcurv.errors import CaseMismatch
from warpcurv.exprs import Const, parse_expr
from warpcurv.geometry import (
    Circle,
    FiberSpec,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    TorsionVectorFieldSpec,
    p_dt,
)
from warpcurv.structured import (
    BlockVector,
    StructuredGeometryCache,
    base_vec,
    coordinate_stack,
    fiber_vec,
    mixed_ricci_flat_check,
    structured_covariant_derivative,
    structured_curvature,
    structured_ricci,
    structured_ricci_matrix,
    structured_scalar,
)
from warpcurv.verify import oracle_comparison

LC = ConnectionKind.LEVI_CIVITA
SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
SYM = ConnectionKind.SYMMETRIZED_AFFINE


def test_one_cache_build_is_one_jet_walk(spec_zoo):
    # the warpings, the fiber metric entries and P come from one eval_jet call
    for name, spec, P in spec_zoo:
        with mock.patch.object(structured, "eval_jet", wraps=exprs.eval_jet) as walk:
            StructuredGeometryCache(spec, P, spec.sample_points(1)[0])
        assert walk.call_count == 1, name


def test_covariant_derivative_base_fiber_rule(grw_exp_spec):
    # nabla_U X = [X(b)/b + pi(X)] U: vanishes for the exponential warping
    p = grw_exp_spec.make_point([0.4])
    U = fiber_vec(0, 1.0, 0.0)
    X = base_vec(1.0)
    out = structured_covariant_derivative(grw_exp_spec, p_dt(), SSNM, U, X, p)
    assert np.max(np.abs(out)) < 1e-12
    # and the symmetrized variant adds pi(X) once more on the other slot
    out_sym = structured_covariant_derivative(grw_exp_spec, p_dt(), SYM, X, U, p)
    expect = np.zeros(3)
    expect[1] = 1.0 - 1.0  # X(b)/b + pi(X)
    assert np.allclose(out_sym[1:], expect[1:])


def test_cross_fiber_rule_with_fiber_torsion():
    spec = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(Circle()), FiberSpec(FlatTorus(2))],
        [Const(1.0), Const(1.0)],
    )
    P = TorsionVectorFieldSpec(1, [Const(0.3), Const(0.5)])
    p = spec.make_point([0.2])
    cache = StructuredGeometryCache(spec, P, p)
    U = fiber_vec(0, 1.0)
    W = fiber_vec(1, 1.0, 0.0)
    # nabla_U W = g(W, P) U across distinct fibers
    out = structured_covariant_derivative(spec, P, SSNM, U, W, p, cache=cache)
    gWP = cache.g_inner_block(1, W.components, cache.Pc)
    assert out[1] == pytest.approx(gWP)
    assert np.max(np.abs(out[[0, 2, 3]])) < 1e-14


def test_curvature_clause_zero_cases(grw_exp_spec):
    p = grw_exp_spec.make_point([0.3])
    X, Y = base_vec(1.0), base_vec(1.0)
    V = fiber_vec(0, 1.0, 0.3)
    out = structured_curvature(grw_exp_spec, p_dt(), SSNM, X, Y, V, p)
    assert np.max(np.abs(out)) < 1e-14  # R(X, Y)V = 0 for P on the base


def test_curvature_fiber_base_base(grw_exp_spec):
    # R(V, X)X = -[b''/b + g(X, nabla_X P) - pi(X)^2] V = 0 for b = e^t
    p = grw_exp_spec.make_point([0.5])
    V = fiber_vec(0, 1.0, 0.0)
    X = base_vec(1.0)
    out = structured_curvature(grw_exp_spec, p_dt(), SSNM, V, X, X, p)
    assert np.max(np.abs(out)) < 1e-12


def test_curvature_base_pattern_with_fiber_torsion():
    # R(X, Y)V = pi(V)[X(b_r)/b_r Y - Y(b_r)/b_r X] checked against the oracle
    spec = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(Circle()), FiberSpec(FlatTorus(2))],
        [parse_expr("1.5 + 0.5*cos(t)"), parse_expr("exp(0.5*t)")],
    )
    P = TorsionVectorFieldSpec(0, [Const(0.7)])
    p = spec.make_point([0.4])
    cur = connection_curvature(SSNM, spec, P, p)
    V = fiber_vec(0, 1.0)
    X, Y = base_vec(1.0), base_vec(1.0)
    sv = structured_curvature(spec, P, SSNM, X, Y, V, p)
    ov = cur.riemann[:, 0, 0, 1]
    assert np.max(np.abs(sv - ov)) < 1e-8


@pytest.mark.parametrize("kind", [LC, SSNM, SYM], ids=lambda k: k.value)
def test_riemann_index_read_equals_unit_contraction(kind, spec_zoo):
    # oracle_comparison reads R(d_i, d_j)d_k off the tensor by index; for unit
    # vectors the contraction is one exact product plus zeros, so both agree
    # bit for bit
    import itertools

    for name, spec, P in spec_zoo:
        p = spec.sample_points(1)[0]
        R = connection_curvature(kind, spec, P, p).riemann
        e = np.eye(spec.n_bar)
        for i, j, k in itertools.product(range(spec.n_bar), repeat=3):
            ov = np.einsum("lijk,i,j,k->l", R, e[i], e[j], e[k])
            assert np.array_equal(R[:, i, j, k], ov), (name, i, j, k)


def test_case_dispatch_is_total(spec_zoo):
    import itertools

    for name, spec, P in spec_zoo[:4]:
        p = spec.sample_points(1)[0]
        blocks = ["base"] + list(range(spec.m))
        for kind in (LC, SSNM, SYM):
            cache = StructuredGeometryCache(spec, P, p)
            for bx, by, bz in itertools.product(blocks, repeat=3):
                vecs = {}
                for b in (bx, by, bz):
                    d = spec.fiber_dims[b] if b != "base" else spec.n
                    vecs[b] = BlockVector(b, np.ones(d))
                out = structured_curvature(spec, P, kind, vecs[bx], vecs[by],
                                           vecs[bz], p, cache=cache)
                assert out.shape == (spec.n_bar,), name


def test_case_mismatch_rejected(grw_exp_spec):
    p = grw_exp_spec.make_point([0.1])
    with pytest.raises(CaseMismatch):
        structured_covariant_derivative(
            grw_exp_spec, p_dt(), SSNM,
            BlockVector("base", np.ones(2)), base_vec(1.0), p)
    with pytest.raises(CaseMismatch):
        structured_covariant_derivative(
            grw_exp_spec, p_dt(), SSNM,
            BlockVector(3, np.ones(2)), base_vec(1.0), p)


@pytest.mark.parametrize("kind", ["bogus", "semi-symmetric", None])
def test_unknown_connection_kind_rejected_by_every_clause(grw_exp_spec, kind):
    # a kind that is no ConnectionKind, even its value string, must not fall
    # through to one connection's formula
    p = grw_exp_spec.make_point([0.1])
    X, V = base_vec(1.0), fiber_vec(0, 1.0, 0.0)
    clauses = [
        lambda: structured_covariant_derivative(grw_exp_spec, p_dt(), kind, V, X, p),
        lambda: structured_curvature(grw_exp_spec, p_dt(), kind, X, V, V, p),
        lambda: structured_ricci(grw_exp_spec, p_dt(), kind, X, X, p),
        lambda: structured_scalar(grw_exp_spec, p_dt(), kind, p),
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
                assert rep.passed, f"{name} {kind} {rep.clause} {rep.max_deviation:.2e}"


def test_mixed_ricci_symmetry_p_base(spec_zoo):
    # Ric(X, V) = Ric(V, X) when P is on the base
    for name, spec, P in spec_zoo:
        if P is not None and P.location != "base":
            continue
        p = spec.sample_points(1)[0]
        ric = structured_ricci_matrix(spec, P, SSNM, p)
        base = spec.block_slice("base")
        for i in range(spec.m):
            sl = spec.block_slice(i)
            assert np.max(np.abs(ric[base, sl] - ric[sl, base].T)) < 1e-8, name


def test_mixed_ricci_antisymmetric_part_p_fiber():
    # the antisymmetric part of the mixed block is 2 (nbar-1) X(b_r)/b_r pi(V)
    spec = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(Circle()), FiberSpec(FlatTorus(2))],
        [parse_expr("1.5 + 0.5*cos(t)"), parse_expr("exp(0.5*t)")],
    )
    P = TorsionVectorFieldSpec(0, [Const(0.7)])
    p = spec.make_point([0.35])
    cache = StructuredGeometryCache(spec, P, p)
    X = base_vec(1.0)
    V = fiber_vec(0, 1.0)
    forward = structured_ricci(spec, P, SSNM, X, V, p, cache=cache)
    backward = structured_ricci(spec, P, SSNM, V, X, p, cache=cache)
    expected = 2.0 * (spec.n_bar - 1) * (X.components @ cache.db_base[0] / cache.b[0]) \
        * cache.pi(V)
    assert forward - backward == pytest.approx(expected, abs=1e-10)


def test_torsion_free_ricci_matches_semi_symmetric_for_base_p(spec_zoo):
    for name, spec, P in spec_zoo:
        if P is not None and P.location != "base":
            continue
        p = spec.sample_points(1)[0]
        a = structured_ricci_matrix(spec, P, SSNM, p)
        b = structured_ricci_matrix(spec, P, SYM, p)
        assert np.max(np.abs(a - b)) < 1e-9, name


def test_torsion_free_ricci_correction_p_fiber():
    # for P on a fiber the two Ricci tensors differ by the exact two-form dpi
    spec = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(HyperbolicPlane()), FiberSpec(Circle())],
        [parse_expr("2 + 0.3*sin(t)"), parse_expr("exp(0.3*t)")],
    )
    P = TorsionVectorFieldSpec(0, [Const(1.0), Const(0.5)])
    for p in spec.sample_points(2):
        a = connection_curvature(SSNM, spec, P, p)
        b = connection_curvature(SYM, spec, P, p)
        diff = b.ricci - a.ricci
        cache = StructuredGeometryCache(spec, P, p)
        frames = [coordinate_stack(spec, b) for b in ["base"] + list(range(spec.m))]
        for U in frames:
            for V in frames:
                want = cache.dpi(U, V)
                got = diff[spec.block_slice(U.block), spec.block_slice(V.block)]
                assert np.max(np.abs(got - want)) <= 1e-11


def test_scalar_formula_values():
    # static torus: scalar = fiber scalar + total fiber dimension
    spec = ProductManifoldSpec(IntervalBase(), [FiberSpec(FlatTorus(2))],
                               [Const(1.0)])
    p = spec.make_point([0.3])
    assert structured_scalar(spec, p_dt(), SSNM, p) == pytest.approx(2.0)
    cur = connection_curvature(SSNM, spec, p_dt(), p)
    assert cur.scalar == pytest.approx(2.0, abs=1e-9)


def test_scalar_no_field_reduces_to_levi_civita(spec_zoo):
    for name, spec, P in spec_zoo[:5]:
        p = spec.sample_points(1)[0]
        lc = connection_curvature(LC, spec, None, p).scalar
        assert structured_scalar(spec, None, SSNM, p) == pytest.approx(lc, abs=1e-12), name


def test_fiber_rescaling_leaves_outputs_unchanged():
    # replacing g_F by c^2 g_F while dividing b by c preserves the metric,
    # so every structured output must agree
    c = 2.0
    base = IntervalBase()
    spec_a = ProductManifoldSpec(base, [FiberSpec(Sphere(1.0))],
                                 [parse_expr("2 + 0.5*sin(t)")])
    spec_b = ProductManifoldSpec(base, [FiberSpec(Sphere(c))],
                                 [parse_expr(f"(2 + 0.5*sin(t))/{c}")])
    for t in (0.2, 0.8):
        pa = spec_a.make_point([t], [[1.1, 0.6]])
        pb = spec_b.make_point([t], [[1.1, 0.6]])
        sa = structured_scalar(spec_a, p_dt(), SSNM, pa)
        sb = structured_scalar(spec_b, p_dt(), SSNM, pb)
        assert sa == pytest.approx(sb, abs=1e-8)
        ra = structured_ricci_matrix(spec_a, p_dt(), SSNM, pa)
        rb = structured_ricci_matrix(spec_b, p_dt(), SSNM, pb)
        assert np.max(np.abs(ra - rb)) < 1e-8


def test_mixed_ricci_flat_predicates():
    untwisted = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(FlatTorus(2)), FiberSpec(Sphere(1.0))],
        [parse_expr("exp(t)"), parse_expr("2 + 0.4*cos(t)")],
    )
    pts = untwisted.sample_points(3)
    rep = mixed_ricci_flat_check(untwisted, p_dt(), SSNM, pts)
    assert rep.is_mixed_flat and not rep.twisted

    rep0 = mixed_ricci_flat_check(untwisted, None, SSNM, pts)
    assert rep0.is_mixed_flat

    separable = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(FlatTorus(2))],
        [parse_expr("exp(t)*(1 + 0.5*x^2)")],
        twisted=True,
    )
    pts = [separable.make_point([0.3], [[0.8, 0.4]])]
    rep1 = mixed_ricci_flat_check(separable, p_dt(), SSNM, pts)
    # a product-form twist is re-expressible as a warped product: mixed-flat
    assert rep1.is_mixed_flat and rep1.twisted

    knotted = ProductManifoldSpec(
        IntervalBase(),
        [FiberSpec(FlatTorus(2))],
        [parse_expr("exp(t*(1 + 0.5*x^2))")],
        twisted=True,
    )
    pts = [knotted.make_point([0.3], [[0.8, 0.4]])]
    rep2 = mixed_ricci_flat_check(knotted, p_dt(), SSNM, pts)
    assert not rep2.is_mixed_flat and rep2.twisted


def _unit_vectors(spec, block):
    sl = spec.block_slice(block)
    return [BlockVector(block, e) for e in np.eye(sl.stop - sl.start)]


def test_levi_civita_clauses_ignore_p_exactly(spec_zoo):
    # the P-bearing cache must give the Levi-Civita values of a P-free cache
    for name, spec, P in spec_zoo:
        if P is None:
            continue
        p = spec.sample_points(2)[1]
        with_p = StructuredGeometryCache(spec, P, p)
        free = StructuredGeometryCache(spec, None, p)
        vecs = [v for b in ["base"] + list(range(spec.m)) for v in _unit_vectors(spec, b)]
        for X in vecs:
            for Y in vecs:
                assert (structured_ricci(spec, P, LC, X, Y, p, cache=with_p)
                        == structured_ricci(spec, None, LC, X, Y, p, cache=free)), name
                for Z in vecs:
                    a = structured_curvature(spec, P, LC, X, Y, Z, p, cache=with_p)
                    b = structured_curvature(spec, None, LC, X, Y, Z, p, cache=free)
                    assert np.array_equal(a, b), name
        assert (structured_scalar(spec, P, LC, p, cache=with_p)
                == structured_scalar(spec, None, LC, p, cache=free)), name
        # the P data itself stays on the P-bearing cache
        assert with_p.P_loc == P.location and with_p.without_p().P_loc is None


def test_non_finite_deviation_fails_its_row(monkeypatch, spec_zoo):
    # a NaN at a later point must fail the row, not drop out of the maximum
    from warpcurv import verify

    spec, P = next((s, P) for name, s, P in spec_zoo if name == "grw-sphere")
    calls = []

    def nan_after_first(original):
        def wrapped(*args, **kwargs):
            calls.append(original)
            out = original(*args, **kwargs)
            return out * np.nan if calls.count(original) > 1 else out
        return wrapped

    for fn in ("structured_ricci_matrix", "structured_scalar"):
        monkeypatch.setattr(verify, fn, nan_after_first(getattr(verify, fn)))
    reports = {r.clause: r for r in oracle_comparison(spec, P, SSNM,
                                                      spec.sample_points(2))}
    for clause in ("ricci-matrix", "scalar"):
        assert math.isnan(reports[clause].max_deviation), clause
        assert not reports[clause].passed, clause
    assert reports["cov[base,base]"].passed


def test_oracle_comparison_builds_one_cache_per_point(monkeypatch, spec_zoo):
    builds = []
    original = StructuredGeometryCache.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(StructuredGeometryCache, "__init__", counting_init)
    spec, P = next((s, P) for name, s, P in spec_zoo if name == "p-on-circle")
    points = spec.sample_points(2)
    for kind in (LC, SSNM, SYM):
        builds.clear()
        oracle_comparison(spec, P, kind, points)
        assert len(builds) == len(points), kind
