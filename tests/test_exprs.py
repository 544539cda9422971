"""Expression trees: evaluation, exact jets, parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jet_reference import eval_value, reference_jet

from warpcurv.errors import ExprError, ExprParseError
from warpcurv.exprs import (
    Const,
    Recip,
    Var,
    cos,
    eval_grid,
    eval_jet,
    eval_stack,
    exp,
    parse_expr,
    sin,
    sqrt,
)


def fd_grad(expr, names, values, h=1e-5):
    values = np.asarray(values, dtype=float)
    out = np.zeros(len(values))
    for i in range(len(values)):
        up = values.copy()
        up[i] += h
        dn = values.copy()
        dn[i] -= h
        out[i] = (eval_value(expr, names, up) - eval_value(expr, names, dn)) / (2 * h)
    return out


def fd_hess_diag(expr, names, values, i, h=1e-4):
    values = np.asarray(values, dtype=float)
    up = values.copy()
    up[i] += h
    dn = values.copy()
    dn[i] -= h
    f0 = eval_value(expr, names, values)
    return (eval_value(expr, names, up) - 2 * f0 + eval_value(expr, names, dn)) / h**2


def test_basic_evaluation():
    e = exp(Var("t")) * 2 + Var("t") ** 2
    assert eval_value(e, ("t",), [0.0]) == pytest.approx(2.0)
    assert eval_value(e, ("t",), [1.0]) == pytest.approx(2 * math.e + 1)


def test_jet_first_and_second_derivatives():
    e = exp(Var("t") * 0.5) * sin(Var("x")) + sqrt(Var("x") + 2)
    names = ("t", "x")
    pt = [0.3, 0.8]
    _, ((jet_grad,),), ((jet_hess,),) = eval_jet([e], names, [pt])
    grad = fd_grad(e, names, pt)
    assert np.allclose(jet_grad, grad, rtol=1e-6)
    for i in range(2):
        assert jet_hess[i, i] == pytest.approx(fd_hess_diag(e, names, pt, i), rel=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=-1.5, max_value=1.5),
    x=st.floats(min_value=0.2, max_value=2.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
)
def test_jet_matches_finite_differences(t, x, a):
    e = exp(Const(a) * Var("t")) * (Var("x") ** 1.5) + cos(Var("t")) * Recip(Var("x"))
    names = ("t", "x")
    _, ((jet_grad,),), _ = eval_jet([e], names, [[t, x]])
    grad = fd_grad(e, names, [t, x])
    scale = max(1.0, float(np.max(np.abs(grad))))
    assert np.max(np.abs(jet_grad - grad)) / scale < 1e-6


def test_domain_errors():
    with pytest.raises(ExprError):
        eval_value(sqrt(Var("t")), ("t",), [-1.0])
    with pytest.raises(ExprError):
        eval_value(Recip(Var("t")), ("t",), [0.0])
    with pytest.raises(ExprError):
        eval_value(Var("t") ** 0.5, ("t",), [-2.0])
    with pytest.raises(ExprError):
        eval_value(Var("t"), ("x",), [1.0])


@pytest.mark.parametrize("text,t", [
    ("exp(1000*t)", 1.0),
    ("t^400", 10.0),
    ("t^-2", 1e-200),
    ("t^-2", 0.0),
])
def test_out_of_range_values_are_domain_errors(text, t):
    # float overflow (and a negative power of zero) on either path is an
    # ExprError, not an OverflowError or ZeroDivisionError
    e = parse_expr(text)
    with pytest.raises(ExprError):
        eval_value(e, ("t",), [t])
    with pytest.raises(ExprError):
        eval_jet([e], ("t",), [[t]])


def test_a_non_finite_value_names_its_point_in_plain_floats():
    # exp(t) * exp(t) overflows in the product, not in a rule that checks;
    # the first row with a non-finite value is named, as Python floats
    with pytest.raises(ExprError) as err:
        eval_jet([parse_expr("exp(t)*exp(t)")], ("t",), [[1.0], [400.0]])
    assert str(err.value) == "expression not finite at {'t': 400.0}"


@pytest.mark.parametrize("points, shape", [([0.5], "(1,)"), ([[0.5]], "(1, 1)"),
                                           ([[0.5, 1.0, 3.0]], "(1, 3)")])
@pytest.mark.parametrize("walk", [eval_stack, eval_jet])
def test_a_point_stack_of_the_wrong_shape_is_an_expr_error(walk, points, shape):
    # a bare point, a stack too narrow for the names and one too wide (whose
    # third column would be dropped) are each the same typed error
    with pytest.raises(ExprError) as err:
        walk([parse_expr("t*u")], ("t", "u"), points)
    assert str(err.value) == f"expected an (N, 2) point stack, got shape {shape}"


def test_power_rule_at_a_zero_base():
    # r (r - 1) b^(r - 2) is 2 at b = 0 for r = 2, and 0 for r = 1 and 3
    for text, hess in [("t^2", 2.0), ("t^3", 0.0), ("t^1", 0.0), ("(1+t^2)^0.5", 1.0)]:
        _, _, ((jet_hess,),) = eval_jet([parse_expr(text)], ("t",), [[0.0]])
        assert jet_hess.tolist() == [[hess]], text
        assert eval_grid(parse_expr(text), [0.0])[2].tolist() == [hess], text


def per_point(expr, ts):
    """The reference Jet at each grid value, stacked like eval_grid's rows."""
    jets = [reference_jet(expr, ("t",), [t]) for t in ts]
    return np.array([[j.val, j.grad[0], j.hess[0, 0]] for j in jets]).T


@pytest.mark.parametrize("text,ts", [
    ("sqrt(t)", [1.0, 0.0]),
    ("1/t", [1.0, 0.0]),
    ("t^0.5", [1.0, 0.0]),
    ("t^-1", [1.0, 0.0]),
    ("exp(1000*t)", [0.0, 0.5, 1.0]),
    ("(t-0.5)^0.5", [0.0, 0.5, 1.0]),
    ("1/(t-0.5)", [0.0, 0.5, 1.0]),
    ("sqrt(t-1)", [0.0, 0.5, 1.0]),
    ("sqrt(t)", [5e-324]),  # the second derivative's denominator underflows
    ("sin(exp(700*t)*exp(700*t))", [1.0]),  # sin of inf
    ("t + x", [1.0]),
])
def test_domain_errors_on_both_paths(text, ts):
    e = parse_expr(text)
    with pytest.raises(ExprError):
        per_point(e, ts)
    with pytest.raises(ExprError) as err:
        eval_grid(e, ts)
    assert "at t=" in str(err.value)


def test_grid_error_names_the_first_offending_t():
    with pytest.raises(ExprError, match=r"reciprocal of 0\.0 at t=0\.5"):
        eval_grid(parse_expr("1/(t-0.5)"), [0.0, 0.25, 0.5, 0.75])
    with pytest.raises(ExprError, match=r"overflows at t=0\.75"):
        eval_grid(parse_expr("exp(1000*t)"), [0.0, 0.75, 1.0])
    # math.sin, math.cos and pow raise first; the checking wrapper that runs
    # after them gives the message.  sin and cos each map their own value
    # first, so both walks of one tree name the same function.
    square = "exp(700*t)*exp(700*t)"  # inf from t = 0.75 on
    for text, message in [(f"sin({square})", "sin of inf"), (f"sin(0-{square})", "sin of -inf")]:
        with pytest.raises(ExprError, match=rf"^{message} at t=0\.75$"):
            eval_grid(parse_expr(text), [0.0, 0.5, 0.75, 1.0])
    for order in (2, 0):
        with pytest.raises(ExprError, match=r"^cos of inf at t=0\.75$"):
            eval_grid(parse_expr(f"cos({square})"), [0.0, 0.5, 0.75, 1.0], order)
    with pytest.raises(ExprError, match=r"^10\.0 \*\* 400\.0 is out of range at t=10\.0$"):
        eval_grid(parse_expr("t^400"), [1.0, 2.0, 10.0, 20.0])
    # the value overflows first, or only the derivative's power does
    for ts, message in [([1.0, 1e-110, 1e-200], r"1e-200 \*\* -2\.0 is out of range at t=1e-200"),
                        ([1.0, 1e-110, 0.5], r"1e-110 \*\* -3\.0 is out of range at t=1e-110")]:
        with pytest.raises(ExprError, match=rf"^{message}$"):
            eval_grid(parse_expr("t^-2"), ts)


def test_grid_of_a_constant_and_an_empty_grid():
    assert eval_grid(parse_expr("2*3"), [0.0, 1.0]).tolist() == [[6.0, 6.0], [0.0, 0.0], [0.0, 0.0]]
    assert eval_grid(parse_expr("t"), []).shape == (3, 0)


_LEAVES = st.one_of(
    st.just(Var("t")),
    st.integers(-2, 3).map(lambda k: Var("t") - k),  # exactly 0 at a grid value
    st.integers(-3, 3).map(Const),
    st.floats(-3.0, 3.0, allow_nan=False).map(Const),
)
_BINARY = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b)
_EXPONENTS = (2, 0, 1, 3, 4, 0.5, 1.5, 2.5, -0.5, -1, -2)


def _nodes(children):
    return st.one_of(
        st.tuples(st.sampled_from(_BINARY), children, children).map(lambda p: p[0](p[1], p[2])),
        st.tuples(st.sampled_from((exp, sin, cos, sqrt)), children).map(lambda p: p[0](p[1])),
        st.tuples(children, st.sampled_from(_EXPONENTS)).map(lambda p: p[0] ** p[1]),
    )


@settings(max_examples=500, deadline=None)
@given(
    expr=st.recursive(_LEAVES, _nodes, max_leaves=10),
    extra=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8),
)
def test_grid_matches_per_point_jets(expr, extra):
    # the grid evaluator is bit-identical to one reference Jet per grid value, or both
    # raise ExprError; exact zeros and integers are where power rules branch
    ts = [0.0, -2.0, -1.0, 1.0, 2.0, 3.0] + extra
    try:
        expected = per_point(expr, ts)
    except ExprError:
        with pytest.raises(ExprError):
            eval_grid(expr, ts)
        return
    assert np.array_equal(eval_grid(expr, ts), expected, equal_nan=True)


@pytest.mark.parametrize("text,t,value", [
    ("exp(t)", 0.0, 1.0),
    ("2 + 0.5*sin(t)", 0.0, 2.0),
    ("t^2 + 1", 2.0, 5.0),
    ("t**2 + 1", 2.0, 5.0),
    ("pow(t, 3)", 2.0, 8.0),
    ("sqrt(t)/2", 4.0, 1.0),
    ("-t + 3", 1.0, 2.0),
    ("cos(0.0)*t", 2.5, 2.5),
    ("1e-2 * t", 10.0, 0.1),
    ("(1 + t) * (1 - t)", 0.5, 0.75),
])
def test_parser_values(text, t, value):
    assert eval_value(parse_expr(text), ("t",), [t]) == pytest.approx(value)


@pytest.mark.parametrize("bad", ["exp(", "", "2 +", "foo(t)", "t ^ x", "1..2", "(t"])
def test_parser_rejects(bad):
    with pytest.raises(ExprParseError):
        parse_expr(bad)


def test_parser_variables():
    e = parse_expr("exp(0.2*t)*(1 + 0.1*x^2)")
    assert e.variables() == {"t", "x"}
