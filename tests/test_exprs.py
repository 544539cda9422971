"""Expression trees: evaluation, exact jets, parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpcurv.errors import ExprError, ExprParseError
from warpcurv.exprs import (
    Const,
    cos,
    eval_jet,
    eval_value,
    exp,
    parse_expr,
    recip,
    sin,
    sqrt,
    var,
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
    e = exp(var("t")) * 2 + var("t") ** 2
    assert eval_value(e, ("t",), [0.0]) == pytest.approx(2.0)
    assert eval_value(e, ("t",), [1.0]) == pytest.approx(2 * math.e + 1)


def test_jet_first_and_second_derivatives():
    e = exp(var("t") * 0.5) * sin(var("x")) + sqrt(var("x") + 2)
    names = ("t", "x")
    pt = [0.3, 0.8]
    jet = eval_jet(e, names, pt, order=2)
    grad = fd_grad(e, names, pt)
    assert np.allclose(jet.grad, grad, rtol=1e-6)
    for i in range(2):
        assert jet.hess[i, i] == pytest.approx(fd_hess_diag(e, names, pt, i), rel=1e-4)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=-1.5, max_value=1.5),
    x=st.floats(min_value=0.2, max_value=2.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
)
def test_jet_matches_finite_differences(t, x, a):
    e = exp(Const(a) * var("t")) * (var("x") ** 1.5) + cos(var("t")) * recip(var("x"))
    names = ("t", "x")
    jet = eval_jet(e, names, [t, x], order=1)
    grad = fd_grad(e, names, [t, x])
    scale = max(1.0, float(np.max(np.abs(grad))))
    assert np.max(np.abs(jet.grad - grad)) / scale < 1e-6


def test_domain_errors():
    with pytest.raises(ExprError):
        eval_value(sqrt(var("t")), ("t",), [-1.0])
    with pytest.raises(ExprError):
        eval_value(recip(var("t")), ("t",), [0.0])
    with pytest.raises(ExprError):
        eval_value(var("t") ** 0.5, ("t",), [-2.0])
    with pytest.raises(ExprError):
        eval_value(var("t"), ("x",), [1.0])


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
    for order in (1, 2):
        with pytest.raises(ExprError):
            eval_jet(e, ("t",), [t], order=order)


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
