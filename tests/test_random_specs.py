"""Structured clauses against the coordinate oracle on randomly drawn specs.

A recipe fixes the base, one to three fibers, twisting, where P lives, the
connection kind and the coefficients of the warpings and of P.  Warpings
are (1.5 + 0.4 sin(a t + c)) exp(linear), positive everywhere; P has
affine-plus-quadratic components in its block's coordinates.

The same recipes, and every zoo spec with P, pin the structured caches: each
array equals, byte for byte, what the scalar reference jet gives for each
expression on its own block's coordinates.
"""

import itertools

import numpy as np
import pytest
from conftest import make_zoo
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jet_reference import eval_value, reference_jet

from warpcurv.connections import ConnectionKind, connection_curvature
from warpcurv.exprs import parse_expr
from warpcurv.geometry import (
    Circle,
    FlatBase,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    TorsionVectorFieldSpec,
)
from warpcurv import structured
from warpcurv.structured import (
    StructuredGeometryCache,
    structured_covariant_derivative,
    structured_curvature,
    structured_ricci_matrix,
    structured_scalar,
)
from warpcurv.verify import oracle_comparison

GEOMETRIES = {"circle": Circle, "T2": lambda: FlatTorus(2), "T3": lambda: FlatTorus(3),
              "sphere": Sphere, "hyperbolic": HyperbolicPlane}
BASES = {"interval": IntervalBase, "flat2": lambda: FlatBase((-1.0, 1.0)),
         "flat3": lambda: FlatBase((-1.0, 1.0, 1.0))}
N_COEFS = 36  # enough for three 3-d twisted warpings over a 3-d base and P on a 3-d block
# Every row's deviation, over the oracle's largest |Gamma|, |R|, |Ric| or
# |scalar| (at least 1): 800 seeded draws measured at most 2.4e-15.
BOUND = 1e-13

SSNM = ConnectionKind.SEMI_SYMMETRIC_NON_METRIC
COEFS = tuple(np.linspace(-0.9, 0.8, N_COEFS).round(3))
P_ON_3D_FIBER = ("interval", ("circle", "T3"), False, 1, SSNM, COEFS)
P_ON_LAST_OF_THREE = ("flat2", ("sphere", "hyperbolic", "T2"), True, 2,
                      ConnectionKind.SYMMETRIZED_AFFINE, COEFS[::-1])


def build_case(base, geometries, twisted, p_location, coefs):
    coef = iter(coefs)

    def c(scale=1.0):
        return f"{scale * next(coef):.3f}"

    base = BASES[base]()
    fibers = [GEOMETRIES[g]() for g in geometries]
    probe = ProductManifoldSpec(base, fibers, [1.0] * len(fibers))
    warpings = []
    for i in range(len(fibers)):
        linear = [f"{c(0.5)}*{v}" for v in base.coord_names]
        if twisted:
            linear += [f"{c(0.3)}*{v}" for v in probe.fiber_coord_names(i)]
        warpings.append(parse_expr(f"(1.5 + 0.4*sin({c()}*t + {c()})) * exp({' + '.join(linear)})"))
    spec = ProductManifoldSpec(base, fibers, warpings, twisted)
    if p_location is None:
        return spec, None
    block = base.coord_names if p_location == "base" else spec.fiber_coord_names(p_location)
    comps = [parse_expr(f"{c()} + {c()}*{block[a]} + {c()}*{block[-1 - a]}^2")
             for a in range(len(block))]
    return spec, TorsionVectorFieldSpec(p_location, comps)


@st.composite
def recipes(draw, min_fibers=1):
    geometries = tuple(draw(st.lists(st.sampled_from(sorted(GEOMETRIES)),
                                     min_size=min_fibers, max_size=3)))
    return (draw(st.sampled_from(sorted(BASES))), geometries, draw(st.booleans()),
            draw(st.sampled_from([None, "base", *range(len(geometries))])),
            draw(st.sampled_from(list(ConnectionKind))),
            tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=N_COEFS, max_size=N_COEFS))))


def oracle_scale(spec, P, kind, points):
    """The oracle's largest |Gamma|, |R|, |Ric| or |scalar| (at least 1)."""
    scale = 1.0
    cur = connection_curvature(kind, spec, P, points)
    for a in (cur.coefficients, cur.riemann, cur.ricci, cur.scalar):
        scale = max(scale, float(np.max(np.abs(a))))
    return scale


def scaled_deviations(spec, P, kind):
    """Each oracle_comparison row's deviation over the oracle's scale."""
    points = spec.sample_points(2)
    scale = oracle_scale(spec, P, kind, points)
    return {r.clause: r.max_deviation / scale
            for r in oracle_comparison(spec, P, kind, points)}


@settings(max_examples=40, deadline=None)
@given(recipe=recipes())
@example(recipe=P_ON_3D_FIBER)
@example(recipe=P_ON_LAST_OF_THREE)
def test_structured_matches_oracle_on_random_specs(recipe):
    base, geometries, twisted, p_location, kind, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    for clause, dev in scaled_deviations(spec, P, kind).items():
        assert dev <= BOUND, (clause, dev, recipe)


def _failed_rows(spec, P, kind):
    return {clause for clause, dev in scaled_deviations(spec, P, kind).items()
            if dev > BOUND}


def _nabla_p_rows(r):
    """The curvature rows whose clauses read nabla P, for P on fiber r > 0."""
    fr = f"f{r}"
    return {f"curv[{fr},{fr},{fr}]", f"curv[base,{fr},{fr}]", f"curv[{fr},base,{fr}]",
            f"curv[f0,{fr},{fr}]"}


def test_planted_nabla_p_error_fails_the_fiber_curvature_rows(monkeypatch):
    base, geometries, twisted, r, kind, coefs = P_ON_3D_FIBER
    spec, P = build_case(base, geometries, twisted, r, coefs)
    original = StructuredGeometryCache.nabla_P
    monkeypatch.setattr(StructuredGeometryCache, "nabla_P",
                        lambda self: (1 + 1e-6) * original(self))
    assert _nabla_p_rows(r) <= _failed_rows(spec, P, kind)


def test_planted_trace_error_fails_the_scalar_row(monkeypatch):
    # P's frame trace l_r P(b_r)/b_r + div_F P in the scalar clause; the
    # warpings are twisted, so P(b_r) != 0 and both parts carry weight
    base, geometries, twisted, r, kind, coefs = P_ON_LAST_OF_THREE
    spec, P = build_case(base, geometries, twisted, r, coefs)
    assert np.all(StructuredGeometryCache(spec, P, spec.sample_points(2)).P_b(r) != 0.0)
    for name in ("P_b", "div_F_P"):
        original = getattr(StructuredGeometryCache, name)
        monkeypatch.setattr(StructuredGeometryCache, name,
                            lambda self, *args, f=original: (1 + 1e-6) * f(self, *args))
    assert "scalar" in _failed_rows(spec, P, kind)


def test_an_error_only_the_third_coordinate_vector_reaches_fails_its_rows(monkeypatch):
    # nabla_{d_2} P on the T3 fiber, the block's third coordinate vector
    base, geometries, twisted, r, kind, coefs = P_ON_3D_FIBER
    spec, P = build_case(base, geometries, twisted, r, coefs)
    original = StructuredGeometryCache.nabla_P
    monkeypatch.setattr(StructuredGeometryCache, "nabla_P",
                        lambda self: original(self) * np.array([1.0, 1.0, 1 + 1e-6]))
    rows = _nabla_p_rows(r)
    assert rows <= _failed_rows(spec, P, kind)

    # over the first two coordinate vectors of each block the same rows
    # see nothing
    points = spec.sample_points(2)
    scale = oracle_scale(spec, P, kind, points)
    blocks = {"base": "base", **{f"f{i}": i for i in range(spec.m)}}
    riemann = connection_curvature(kind, spec, P, points).riemann
    cache = StructuredGeometryCache(spec, P, points)
    for row in rows:
        triple = [blocks[label] for label in row[len("curv["):-1].split(",")]
        index = [np.arange(len(points)), np.arange(spec.n_bar)]
        for b in triple:
            sl = spec.block_slice(b)
            index.append(sl.start + np.arange(min(2, sl.stop - sl.start)))
        sv = structured._curvature_block(cache, kind, *triple)[:, :, :2, :2, :2]
        assert np.max(np.abs(sv - riemann[np.ix_(*index)])) / scale <= BOUND, row


def assert_tensor_is_its_block_clauses(spec, P, points):
    """Under every connection kind, each block triple's slice of the whole
    tensor over a stack of points holds the bits of its block clause over
    the same points, the skipped distinct-fiber triples and the per-pair
    dpi term included."""
    blocks = ["base", *range(spec.m)]
    cache = StructuredGeometryCache(spec, P, points)
    for kind in ConnectionKind:
        R = structured_curvature(cache, kind)
        for bx, by, bz in itertools.product(blocks, repeat=3):
            want = structured._curvature_block(cache, kind, bx, by, bz)
            got = R[:, :, spec.block_slice(bx), spec.block_slice(by), spec.block_slice(bz)]
            assert _bytes(got) == _bytes(want), (kind, bx, by, bz)


@settings(max_examples=30, deadline=None)
@given(recipe=recipes())
@example(recipe=P_ON_3D_FIBER)
@example(recipe=P_ON_LAST_OF_THREE)
def test_whole_curvature_tensor_is_its_block_clauses_on_random_specs(recipe):
    base, geometries, twisted, p_location, _, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    points = np.array(spec.sample_points(2, t_range=(-0.4, 1.1)))
    for stack in (points, points[:1], points[1:]):
        assert_tensor_is_its_block_clauses(spec, P, stack)


@pytest.mark.parametrize("case", make_zoo(), ids=[name for name, _, _ in make_zoo()])
def test_whole_curvature_tensor_is_its_block_clauses_on_the_zoo(case):
    _, spec, P = case
    points = np.array(spec.sample_points(2))
    for stack in (points, points[:1], points[1:]):
        assert_tensor_is_its_block_clauses(spec, P, stack)


@pytest.mark.parametrize("p_location", [None, "base", 1])
def test_mirrored_patterns_are_the_ones_their_clauses_swap(monkeypatch, p_location):
    # _mirrored names exactly the patterns whose clause is the swapped
    # pattern's through _antisym, and the whole tensor runs no clause on them
    base, geometries, twisted, _, _, coefs = P_ON_LAST_OF_THREE
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    routed, clauses = [], []

    def recording(original, log):
        def wrapped(*args):
            log.append(tuple(args[-3:]))
            return original(*args)
        return wrapped

    monkeypatch.setattr(structured, "_antisym", recording(structured._antisym, routed))
    blocks = ["base", *range(spec.m)]
    cache = StructuredGeometryCache(spec, P, spec.sample_points(1))
    for kind in ConnectionKind:
        for triple in itertools.product(blocks, repeat=3):
            routed.clear()
            structured._curvature_block(cache, kind, *triple)
            assert routed == ([triple] if structured._mirrored(*triple) else []), (kind, triple)

    # the whole tensor runs the clauses of its layout's sweep plan, and those
    # are the non-mirrored triples not on three distinct fibers, less
    # exactly the zero classes stated here from the clause formulas
    for name in ("_curv_p_base", "_curv_p_fiber"):
        monkeypatch.setattr(structured, name, recording(getattr(structured, name), clauses))
    for kind in ConnectionKind:
        r = None if kind == ConnectionKind.LEVI_CIVITA else p_location
        plan = structured._plan(cache, kind)
        planned = {tuple(run[:3]) for run in plan.clauses}
        assert len(planned) == len(plan.clauses), kind
        stated = {t for t in itertools.product(blocks, repeat=3)
                  if not structured._mirrored(*t) and not structured._distinct_fibers(*t)
                  and not stated_zero_triple(*t, r)}
        assert planned == stated, kind
        routed.clear()
        clauses.clear()
        structured_curvature(cache, kind)
        assert routed == [] and set(clauses) == planned, kind


def stated_zero_triple(bx, by, bz, r):
    """The curvature triples the sweep plans skip, for P's block r on the
    dispatched view (None for the Levi-Civita kind or no P)."""
    fibers = [b for b in (bx, by, bz) if b != "base"]
    if len(fibers) == 3:  # two on one fiber, the third on another
        return bx == by != bz  # (f_i, f_i, f_j)
    if (bx, by) == ("base", "base"):
        return bz != r  # (base, base, base) unless r is the base, (base, base, f) unless f = r
    if bz == "base" and len(fibers) == 2 and bx != by:
        return r not in (bx, by)  # (f_i, f_j, base)
    if bx == "base" and len(fibers) == 2 and by != bz:
        return r != bz  # (base, f_i, f_j)
    return False


def mixed_vector(d):
    """e0 + 0.37 e1 on a block of dimension d >= 2, e0 on a line."""
    v = np.eye(d)[0]
    v[1:2] = 0.37
    return v


def assert_nabla_is_its_block_clauses(spec, P, points):
    """Under every connection kind, each block pair's slice of the whole
    covariant derivative over a stack of points holds the bits of its
    clause, and the slice contracted with the block's mixed vector on both
    slots agrees with the oracle's Gamma contracted the same way, to BOUND
    relative to the oracle's largest |Gamma| (at least 1)."""
    blocks = ["base", *range(spec.m)]
    cache = StructuredGeometryCache(spec, P, points)
    for kind in ConnectionKind:
        nabla = structured_covariant_derivative(cache, kind)
        gamma = connection_curvature(kind, spec, P, points).coefficients
        scale = max(1.0, float(np.max(np.abs(gamma))))
        for X, Y in itertools.product(blocks, repeat=2):
            sx, sy = spec.block_slice(X), spec.block_slice(Y)
            got = nabla[:, :, sx, sy]
            assert _bytes(got) == _bytes(structured._covariant_block(cache, kind, X, Y)), \
                (kind, X, Y)
            u, v = mixed_vector(sx.stop - sx.start), mixed_vector(sy.stop - sy.start)
            sv = np.einsum("pkxy,x,y->pk", got, u, v)
            ov = np.einsum("pkxy,x,y->pk", gamma[:, :, sx, sy], u, v)
            assert np.max(np.abs(sv - ov)) / scale <= BOUND, (kind, X, Y)


@settings(max_examples=30, deadline=None)
@given(recipe=recipes())
@example(recipe=P_ON_3D_FIBER)
@example(recipe=P_ON_LAST_OF_THREE)
def test_covariant_derivative_is_its_block_clauses_on_random_specs(recipe):
    base, geometries, twisted, p_location, _, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    points = np.array(spec.sample_points(2, t_range=(-0.4, 1.1)))
    for stack in (points, points[:1], points[1:]):
        assert_nabla_is_its_block_clauses(spec, P, stack)


@pytest.mark.parametrize("case", make_zoo(), ids=[name for name, _, _ in make_zoo()])
def test_covariant_derivative_is_its_block_clauses_on_the_zoo(case):
    _, spec, P = case
    points = np.array(spec.sample_points(2))
    for stack in (points, points[:1], points[1:]):
        assert_nabla_is_its_block_clauses(spec, P, stack)


def _operations(cache, kind):
    """The four structured operations on one cache, by name."""
    return {"nabla": structured_covariant_derivative(cache, kind),
            "curvature": structured_curvature(cache, kind),
            "ricci": structured_ricci_matrix(cache, kind),
            "scalar": structured_scalar(cache, kind)}


def assert_rows_are_one_point_calls(spec, P, points):
    """Under every kind, each row of the four operations on a stack of 1,
    2, 3 or 5 points holds the bits, signed zeros included, of the same
    operation on a cache made at the one-row stack of that row's point."""
    for kind in ConnectionKind:
        alone = [_operations(StructuredGeometryCache(spec, P, p), kind) for p in points[:, None]]
        for size in (1, 2, 3, 5):
            stacked = _operations(StructuredGeometryCache(spec, P, points[:size]), kind)
            for name, value in stacked.items():
                assert len(value) == size, (kind, name)
                for k in range(size):
                    assert _bytes(value[k]) == _bytes(alone[k][name][0]), (kind, name, size, k)


@settings(max_examples=25, deadline=None)
@given(recipe=recipes())
@example(recipe=P_ON_3D_FIBER)
@example(recipe=P_ON_LAST_OF_THREE)
def test_stacked_rows_keep_the_bits_of_one_point_calls_on_random_specs(recipe):
    base, geometries, twisted, p_location, _, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    assert_rows_are_one_point_calls(spec, P, np.array(spec.sample_points(5, t_range=(-0.4, 1.1))))


@pytest.mark.parametrize("case", make_zoo(), ids=[name for name, _, _ in make_zoo()])
def test_stacked_rows_keep_the_bits_of_one_point_calls_on_the_zoo(case):
    _, spec, P = case
    assert_rows_are_one_point_calls(spec, P, np.array(spec.sample_points(5)))


@settings(max_examples=30, deadline=None)
@given(recipe=recipes(min_fibers=3))
@example(recipe=P_ON_LAST_OF_THREE)
def test_three_distinct_fibers_give_exact_zeros(recipe):
    # the whole tensor skips R(U, V)W with U, V, W on three distinct fibers;
    # every clause, the dpi term of the symmetrized kind with P on a fiber
    # included, gives exact zeros there
    base, geometries, twisted, p_location, _, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    for p in spec.sample_points(2, t_range=(-0.4, 1.1))[:, None]:
        cache = StructuredGeometryCache(spec, P, p)
        for kind in ConnectionKind:
            for triple in itertools.permutations(range(spec.m), 3):
                assert structured._distinct_fibers(*triple)
                out = structured._curvature_block(cache, kind, *triple)
                assert not np.any(out), (kind, triple, recipe)


def assert_skipped_classes_are_zero(spec, P, p):
    """Under every kind, each block pattern that the sweep plan skips gives
    +0.0 in every entry, byte for byte: the curvature clause of each
    skipped triple, and its block with the dpi term where dpi is not live;
    dpi off its live pairs; nabla on each skipped pair; and the Ricci
    clause on each skipped pair."""
    blocks = ["base", *range(spec.m)]
    cache = StructuredGeometryCache(spec, P, p)
    zero = {}

    def assert_zero(out, what):
        assert _bytes(out) == _bytes(zero.setdefault(np.shape(out), np.zeros(np.shape(out)))), what

    for kind in ConnectionKind:
        plan = structured._plan(cache, kind)
        view, clause, sym = structured._dispatch(cache, kind, structured._curv_p_base,
                                                 structured._curv_p_fiber)
        planned = {tuple(run[:3]) for run in plan.clauses}
        live = {(X, Y) for X, Y in itertools.product(blocks, repeat=2)
                if structured._dpi_pair(X, Y, view.P_loc)}
        assert {(X, Y) for X, Y, _ in plan.dpi} == (live if sym else set())
        for t in itertools.product(blocks, repeat=3):
            if t in planned or structured._mirrored(*t):
                continue
            assert_zero(clause(view, *t), (kind, "clause", t))
            if not sym or t[:2] not in live:
                assert_zero(structured._curvature_block(cache, kind, *t), (kind, "block", t))
        for X, Y in itertools.product(blocks, repeat=2):
            if (X, Y) not in live:
                assert_zero(view.dpi(X, Y), (kind, "dpi", X, Y))
            if (X, Y) not in {(U, V) for U, V, _ in plan.nabla}:
                assert_zero(structured._covariant_block(cache, kind, X, Y), (kind, "nabla", X, Y))
            if (X, Y) not in {(U, V) for U, V, _ in plan.ricci}:
                assert_zero(structured._ricci_block(cache, kind, X, Y), (kind, "ricci", X, Y))


@settings(max_examples=30, deadline=None)
@given(recipe=recipes(min_fibers=3))
@example(recipe=P_ON_LAST_OF_THREE)
@example(recipe=("flat3", ("T2", "circle", "sphere"), True, "base",
                 ConnectionKind.SYMMETRIZED_AFFINE, COEFS))
@example(recipe=("interval", ("T3", "hyperbolic", "circle"), False, 0, SSNM, COEFS[::-1]))
def test_the_classes_a_sweep_plan_skips_give_exact_zeros_on_random_specs(recipe):
    base, geometries, twisted, p_location, _, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    for p in spec.sample_points(2, t_range=(-0.4, 1.1))[:, None]:
        assert_skipped_classes_are_zero(spec, P, p)


@pytest.mark.parametrize("case", make_zoo(), ids=[name for name, _, _ in make_zoo()])
def test_the_classes_a_sweep_plan_skips_give_exact_zeros_on_the_zoo(case):
    _, spec, P = case
    for p in spec.sample_points(2)[:, None]:
        assert_skipped_classes_are_zero(spec, P, p)


@settings(max_examples=30, deadline=None)
@given(recipe=recipes(), count=st.integers(1, 17))
@example(recipe=P_ON_3D_FIBER, count=17)
def test_a_stack_of_points_matches_one_row_stacks(recipe, count):
    # the oracle at N points at once is bit-identical to each point as a
    # one-row stack
    base, geometries, twisted, p_location, kind, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    points = np.array(spec.sample_points(count, t_range=(-0.4, 1.1)))
    stack = connection_curvature(kind, spec, P, points)
    for j in range(count):
        row = connection_curvature(kind, spec, P, points[j:j + 1])
        for field in ("riemann", "ricci", "scalar", "coefficients"):
            want = getattr(row, field)
            assert np.array_equal(getattr(stack, field)[j], want[0]), (field, j, recipe)


CACHE_FIELDS = ("b", "db_base", "db_fiber", "H_bb", "H_bf", "H_ff", "gF", "dgF", "RF", "RicF",
                "Pc", "dPc")


def _bytes(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def reference_cache(spec, P, p):
    """Each cache array from one reference Jet per expression: a warping
    over the whole chart, a fiber metric entry over its fiber's coordinates
    and a P component over its block's."""
    names, base = spec.coord_names, spec.block_slice("base")
    ref = {field: [] for field in CACHE_FIELDS}
    for i, w in enumerate(spec.warpings):
        sl = spec.block_slice(i)
        jet = reference_jet(w, names, p)
        ref["b"].append(jet.val)
        ref["db_base"].append(jet.grad[base])
        ref["db_fiber"].append(jet.grad[sl])
        ref["H_bb"].append(jet.hess[base, base])
        ref["H_bf"].append(jet.hess[base, sl])
        ref["H_ff"].append(jet.hess[sl, sl])
    for i, f in enumerate(spec.fibers):
        fnames, fc = spec.fiber_coord_names(i), p[spec.block_slice(i)]
        entries = f.metric_exprs(fnames)
        jets = [[reference_jet(e, fnames, fc) for e in row] for row in entries]
        g = np.array([[j.val for j in row] for row in jets])
        # the float walk of the metric gives the same bits
        assert _bytes(g) == _bytes([[eval_value(e, fnames, fc) for e in row] for row in entries])
        ref["gF"].append(g)
        ref["dgF"].append(np.array([[j.grad for j in row] for row in jets]).transpose(2, 0, 1))
        ref["RF"].append(f.curvature(g))
        ref["RicF"].append(f.ricci(g))
    if P is None:
        ref["Pc"] = ref["dPc"] = None
    else:
        sl = spec.block_slice(P.location)
        jets = [reference_jet(c, P.validate(spec), p[sl]) for c in P.components]
        ref["Pc"] = [j.val for j in jets]
        ref["dPc"] = np.array([j.grad for j in jets]).T  # dPc[a, c] = d_a P^c
    return ref


def cache_row(cache, k):
    """Each of the cache's CACHE_FIELDS at point k of its stack."""
    row = {}
    for field in CACHE_FIELDS:
        got = getattr(cache, field)
        if field in ("Pc", "dPc"):
            row[field] = None if got is None else got[k]
        else:
            row[field] = [a[k] for a in got]
    return row


def assert_same_cache_arrays(got, want):
    """Each of the CACHE_FIELDS of `got` holds the bits of want[field]."""
    for field in CACHE_FIELDS:
        if field in ("Pc", "dPc"):
            assert (got[field] is None) == (want[field] is None), field
            assert got[field] is None or _bytes(got[field]) == _bytes(want[field]), field
        else:
            assert [_bytes(a) for a in got[field]] == [_bytes(a) for a in want[field]], field


def assert_cache_matches_reference(spec, P, p):
    cache = StructuredGeometryCache(spec, P, p[None])
    assert len(cache.p) == 1
    assert_same_cache_arrays(cache_row(cache, 0), reference_cache(spec, P, p))


@settings(max_examples=40, deadline=None)
@given(recipe=recipes())
@example(recipe=P_ON_3D_FIBER)
@example(recipe=P_ON_LAST_OF_THREE)
def test_cache_arrays_match_the_reference_jets_on_random_specs(recipe):
    base, geometries, twisted, p_location, _, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    for p in spec.sample_points(2, t_range=(-0.4, 1.1)):
        assert_cache_matches_reference(spec, P, p)


ZOO_WITH_P = [case for case in make_zoo() if case[2] is not None]


@pytest.mark.parametrize("case", ZOO_WITH_P, ids=[name for name, _, _ in ZOO_WITH_P])
def test_cache_arrays_match_the_reference_jets_on_the_zoo(case):
    _, spec, P = case
    for p in spec.sample_points(3):
        assert_cache_matches_reference(spec, P, p)


def assert_batched_caches_match_one_point_caches(spec, P, points):
    """Every row of every array of a cache made over a stack of points,
    from one jet walk, holds the bits of the cache made at the one-row
    stack of its point."""
    cache = StructuredGeometryCache(spec, P, points)
    assert len(cache.p) == len(points)
    for k, p in enumerate(points):
        alone = StructuredGeometryCache(spec, P, p[None])
        assert _bytes(cache.p[k]) == _bytes(alone.p[0]) == _bytes(p)
        assert_same_cache_arrays(cache_row(cache, k), cache_row(alone, 0))


@settings(max_examples=40, deadline=None)
@given(recipe=recipes(), count=st.integers(1, 6))
@example(recipe=P_ON_3D_FIBER, count=5)
@example(recipe=P_ON_LAST_OF_THREE, count=3)
def test_batched_caches_match_one_point_caches_on_random_specs(recipe, count):
    base, geometries, twisted, p_location, _, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    assert_batched_caches_match_one_point_caches(
        spec, P, np.array(spec.sample_points(count, t_range=(-0.4, 1.1))))


@pytest.mark.parametrize("case", make_zoo(), ids=[name for name, _, _ in make_zoo()])
def test_batched_caches_match_one_point_caches_on_the_zoo(case):
    _, spec, P = case
    assert_batched_caches_match_one_point_caches(spec, P, np.array(spec.sample_points(3)))


def _raised(make):
    with pytest.raises(Exception) as err:
        make()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("warping,component,error", [
    # a warping that overflows fails the stack's chart check, as it fails a
    # one-point cache's; a P component that overflows fails the jet walk
    ("exp(t)*1e300*t^4*1e12", "1", "NonPositiveWarping"),
    ("exp(t)", "1e300*t^4*1e12", "ExprError"),
])
def test_a_batched_cache_raises_the_one_point_error_of_the_first_failing_point(
        warping, component, error):
    spec = ProductManifoldSpec(IntervalBase(), [FlatTorus(2)], [parse_expr(warping)])
    points = spec.make_point(np.array([[0.1], [0.5], [0.9]]))
    P = TorsionVectorFieldSpec("base", [parse_expr(component)])
    StructuredGeometryCache(spec, P, points[:1])  # 1e308 at t = 0.1 is finite
    want = _raised(lambda: StructuredGeometryCache(spec, P, points[1:2]))
    assert want[0].__name__ == error and "0.5" in want[1]
    assert _raised(lambda: StructuredGeometryCache(spec, P, points)) == want
    assert _raised(lambda: StructuredGeometryCache(spec, P, points[1:])) == want


def test_a_batched_cache_raises_the_chart_error_of_the_first_point_outside():
    spec = ProductManifoldSpec(IntervalBase(), [Sphere(1.0)], [parse_expr("2 + t")])
    points = spec.make_point(np.array([[0.2], [0.4], [0.6]]),
                             [np.array([[1.0, 0.3], [0.01, 0.3], [3.1, 0.3]])])
    want = _raised(lambda: StructuredGeometryCache(spec, None, points[1:2]))
    assert want[0].__name__ == "OutOfChart" and "0.01" in want[1]
    assert _raised(lambda: StructuredGeometryCache(spec, None, points)) == want
