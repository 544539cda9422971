"""Structured clauses against the coordinate oracle on randomly drawn specs.

A recipe fixes the base, one to three fibers, twisting, where P lives, the
connection kind and the coefficients of the warpings and of P.  Warpings
are (1.5 + 0.4 sin(a t + c)) exp(linear), positive everywhere; P has
affine-plus-quadratic components in its block's coordinates.

The same recipes, and every zoo spec with P, pin the structured caches: each
array equals, byte for byte, what the scalar reference jet gives for each
expression on its own block's coordinates.
"""

import numpy as np
import pytest
from conftest import make_zoo
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jet_reference import reference_jet

from warpcurv.connections import ConnectionKind, connection_curvature
from warpcurv.exprs import eval_value, parse_expr
from warpcurv.geometry import (
    Circle,
    FiberSpec,
    FlatBase,
    FlatTorus,
    HyperbolicPlane,
    IntervalBase,
    ProductManifoldSpec,
    Sphere,
    TorsionVectorFieldSpec,
)
from warpcurv.structured import BlockVector, StructuredGeometryCache, structured_curvature
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
    fibers = [FiberSpec(GEOMETRIES[g]()) for g in geometries]
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
def recipes(draw):
    geometries = tuple(draw(st.lists(st.sampled_from(sorted(GEOMETRIES)),
                                     min_size=1, max_size=3)))
    return (draw(st.sampled_from(sorted(BASES))), geometries, draw(st.booleans()),
            draw(st.sampled_from([None, "base", *range(len(geometries))])),
            draw(st.sampled_from(list(ConnectionKind))),
            tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=N_COEFS, max_size=N_COEFS))))


def oracle_scale(spec, P, kind, points):
    """The oracle's largest |Gamma|, |R|, |Ric| or |scalar| (at least 1)."""
    scale = 1.0
    for p in points:
        cur = connection_curvature(kind, spec, P, p)
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
    for p in points:
        riemann = connection_curvature(kind, spec, P, p).riemann
        for row in rows:
            stacks, index = [], [np.arange(spec.n_bar)]
            for label in row[len("curv["):-1].split(","):
                sl = spec.block_slice(blocks[label])
                d = min(2, sl.stop - sl.start)
                stacks.append(BlockVector(blocks[label], np.eye(sl.stop - sl.start)[:d]))
                index.append(sl.start + np.arange(d))
            sv = structured_curvature(spec, P, kind, *stacks, p)
            assert np.max(np.abs(sv - riemann[np.ix_(*index)])) / scale <= BOUND, row


@settings(max_examples=30, deadline=None)
@given(recipe=recipes(), count=st.integers(1, 17))
@example(recipe=P_ON_3D_FIBER, count=17)
def test_a_stack_of_points_matches_one_row_stacks(recipe, count):
    # the oracle at N points at once is bit-identical to each point as a
    # one-row stack, and to the point itself without a point axis
    base, geometries, twisted, p_location, kind, coefs = recipe
    spec, P = build_case(base, geometries, twisted, p_location, coefs)
    points = np.array(spec.sample_points(count, t_range=(-0.4, 1.1)))
    stack = connection_curvature(kind, spec, P, points)
    for j, p in enumerate(points):
        row = connection_curvature(kind, spec, P, points[j:j + 1])
        single = connection_curvature(kind, spec, P, p)
        for field in ("riemann", "ricci", "scalar", "coefficients"):
            want = getattr(row, field)
            assert np.array_equal(getattr(stack, field)[j], want[0]), (field, j, recipe)
            assert np.array_equal(getattr(single, field), want[0]), (field, j, recipe)


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
        fnames, fc, geo = spec.fiber_coord_names(i), p[spec.block_slice(i)], f.geometry
        entries = geo.metric_exprs(fnames)
        jets = [[reference_jet(e, fnames, fc) for e in row] for row in entries]
        g = np.array([[j.val for j in row] for row in jets])
        # the float walk of the metric gives the same bits
        assert _bytes(g) == _bytes([[eval_value(e, fnames, fc) for e in row] for row in entries])
        ref["gF"].append(g)
        ref["dgF"].append(np.array([[j.grad for j in row] for row in jets]).transpose(2, 0, 1))
        ref["RF"].append(geo.curvature(g))
        ref["RicF"].append(geo.ricci(g))
    if P is None:
        ref["Pc"] = ref["dPc"] = None
    else:
        sl = spec.block_slice(P.location)
        jets = [reference_jet(c, P.validate(spec), p[sl]) for c in P.components]
        ref["Pc"] = [j.val for j in jets]
        ref["dPc"] = np.array([j.grad for j in jets]).T  # dPc[a, c] = d_a P^c
    return ref


def assert_cache_matches_reference(spec, P, p):
    cache, ref = StructuredGeometryCache(spec, P, p), reference_cache(spec, P, p)
    for field in CACHE_FIELDS:
        got, want = getattr(cache, field), ref[field]
        if field in ("Pc", "dPc"):
            assert (got is None) == (want is None), field
            assert want is None or _bytes(got) == _bytes(want), field
        else:
            assert [_bytes(a) for a in got] == [_bytes(a) for a in want], field


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
