"""Expression trees: evaluation, exact jets, parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from jet_reference import Jet, eval_value, reference_jet

from warpcurv.errors import ExprError, ExprParseError
from warpcurv.exprs import (
    _MAX_NESTING,
    Const,
    Cos,
    Exp,
    GridJet,
    Recip,
    ScalarExpr,
    Sin,
    Sqrt,
    Var,
    eval_grid,
    eval_jet,
    eval_stack,
    parse_expr,
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
    e = Exp(Var("t")) * 2 + Var("t") ** 2
    assert eval_value(e, ("t",), [0.0]) == pytest.approx(2.0)
    assert eval_value(e, ("t",), [1.0]) == pytest.approx(2 * math.e + 1)


def test_jet_first_and_second_derivatives():
    e = Exp(Var("t") * 0.5) * Sin(Var("x")) + Sqrt(Var("x") + 2)
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
    e = Exp(Const(a) * Var("t")) * (Var("x") ** 1.5) + Cos(Var("t")) * Recip(Var("x"))
    names = ("t", "x")
    _, ((jet_grad,),), _ = eval_jet([e], names, [[t, x]])
    grad = fd_grad(e, names, [t, x])
    scale = max(1.0, float(np.max(np.abs(grad))))
    assert np.max(np.abs(jet_grad - grad)) / scale < 1e-6


def test_domain_errors():
    with pytest.raises(ExprError):
        eval_value(Sqrt(Var("t")), ("t",), [-1.0])
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
        st.tuples(st.sampled_from((Exp, Sin, Cos, Sqrt)), children).map(lambda p: p[0](p[1])),
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


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _same(a, b):
    # NaN-aware equality, under which -0.0 == 0.0
    return all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b))


def _parts(j):
    return (j.val, j.grad, j.hess) if isinstance(j, Jet) else (j.u, j.du, j.ddu)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), data=st.data(), c=_FINITE)
def test_a_constant_operand_gives_the_lifted_rule_up_to_the_sign_of_zero(n, data, c):
    # `j * c` and `j + c` scale or share j's derivatives instead of running the
    # jet-by-jet rule on a zero-derivative jet; on finite jets both give the
    # same numbers, except that a zero derivative entry may differ in sign
    val = data.draw(_FINITE)
    grad = data.draw(arrays(float, n, elements=_FINITE))
    hess = data.draw(arrays(float, (n, n), elements=_FINITE))
    j, lifted = Jet(val, grad, hess), Jet.constant(c, n)
    with np.errstate(over="ignore", invalid="ignore"):
        for fast, full in [(j * c, j * lifted), (c * j, j * lifted),
                           (j + c, j + lifted), (c + j, j + lifted)]:
            assert _same(_parts(fast), _parts(full))

    count = data.draw(st.integers(1, 4))
    names = tuple(f"x{i}" for i in range(n))
    at = (names, np.zeros((count, n)))
    g = GridJet(at, data.draw(arrays(float, (count, 1, 1), elements=_FINITE)),
                data.draw(arrays(float, (count, 1, n), elements=_FINITE)),
                data.draw(arrays(float, (count, n, n), elements=_FINITE)))
    lifted = GridJet(at, c, 0.0, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for fast, full in [(g * c, g * lifted), (c * g, g * lifted),
                           (g + c, g + lifted), (c + g, g + lifted)]:
            assert _same(_parts(fast), _parts(full))


# Trees with constant factors and addends, integer powers and exact zeros;
# sin and exp keep the third and fourth derivatives that a difference sees.
_DIFFERENCED = [
    "3*x^2 + 0.5*y - 2",
    "2.5*(x*y)^2 - 4*y^4 + x^3 + 1",
    "0*x + y^2 - 0.25*(x - y)^2",
    "3*(x^2 + 1)^-1 + 2*(1 + y^2)^-2",
    "2*exp(0.3*x)*y^2 + 7",
    "sin(2*x)*(y + 1)^3 - 0.5*cos(y)^2",
    "(x^2 + y^2 + 0)^2 * 0.125",
]


def _central(exprs, names, p, h):
    """Central differences of order-0 walks at p: gradients (k, n) with step h,
    Hessians (k, n, n) with step 10 h."""
    n, e, k = len(p), np.eye(len(p)), 10 * h
    steps = [np.zeros(n)] + [s * h * e[i] for i in range(n) for s in (1, -1)]
    steps += [(si * e[i] + sj * e[j]) * k for i in range(n) for j in range(n)
              for si in (1, -1) for sj in (1, -1)]
    f = eval_stack(exprs, names, p + np.array(steps), order=0)[0].T
    up, dn = f[:, 1:1 + 2 * n:2], f[:, 2:1 + 2 * n:2]
    grad = (up - dn) / (2 * h)
    corner = f[:, 1 + 2 * n:].reshape(len(exprs), n, n, 2, 2)
    hess = (corner[..., 0, 0] - corner[..., 0, 1] - corner[..., 1, 0] + corner[..., 1, 1]) / (4 * k * k)
    return grad, hess


@settings(max_examples=100, deadline=None)
@given(p=st.lists(st.one_of(st.just(0.0), st.floats(-1.5, 1.5)), min_size=2, max_size=2))
def test_jets_agree_with_central_differences(p):
    # independent of the reference Jet, whose rules mirror GridJet's: the
    # exact derivatives of eval_jet against central differences of the
    # values-only walk.  The bounds are relative to max(1, the largest
    # |entry| compared) of each tree: 1e-7 for gradients and 2e-6 for
    # Hessians, where rounding over the step squared dominates (worst seen
    # over 20 000 random points: 1.3e-9 and 3.3e-7).
    exprs = [parse_expr(text) for text in _DIFFERENCED]
    names = ("x", "y")
    _, (grad,), (hess,) = eval_jet(exprs, names, [p])
    fd_grad, fd_hess = _central(exprs, names, np.array(p), 1e-5)
    for exact, approx, bound in [(grad, fd_grad, 1e-7), (hess, fd_hess, 2e-6)]:
        axes = tuple(range(1, exact.ndim))
        scale = np.maximum(1.0, np.maximum(np.abs(exact), np.abs(approx)).max(axis=axes))
        err = np.abs(exact - approx).max(axis=axes) / scale
        assert (err < bound).all(), dict(zip(_DIFFERENCED, err))


_TOKENS = [*"0123456789", ".", "e", "E", "t", "x", "x1", "_b", "+", "-", "*", "/", "^",
           "(", ")", "**", ",", " ", "exp", "sin", "cos", "sqrt", "pow"]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join))
def test_parse_expr_gives_a_tree_or_a_parse_error(text):
    try:
        tree = parse_expr(text)
    except ExprParseError:
        return
    assert isinstance(tree, ScalarExpr)
    assert all(name.isidentifier() for name in tree.variables())


def test_a_tree_at_the_nesting_bound_walks_and_one_past_it_is_a_parse_error():
    # each "1 + 2/exp(" level is five node levels (Sum, Prod, Recip, Pow,
    # Exp), the most that one level of nesting can build, and seven parser
    # frames, the most that one level takes; a sign and a call fill the rest
    inner = "exp(-sin(t))"
    levels = _MAX_NESTING - 3
    text = "1 + 2/exp(" * levels + inner + ")^2" * levels
    tree = parse_expr(text)
    assert tree.variables() == {"t"}
    ts = np.array([[0.0], [0.5]])
    values, _, _ = eval_stack([tree], ("t",), ts, order=0)
    val, _, hess = eval_stack([tree], ("t",), ts)
    assert np.isfinite(val).all() and np.isfinite(hess).all()
    assert np.array_equal(values, val)
    for deeper in ["(" + text + ")", "-(" + text + ")", text.replace(inner, "-" + inner),
                   text.replace(inner, "exp(-sin(pow(t, 2)))")]:
        with pytest.raises(ExprParseError, match=f"nesting deeper than {_MAX_NESTING} levels"):
            parse_expr(deeper)


@pytest.mark.parametrize("text,message", [
    ("exp(t", "expected ')' at position 5: 'exp(t'"),
    ("2 * $t", "unexpected character at position 4: '2 * $t'"),
    ("q" * 56 + "(t)", "unknown function '" + "q" * 56 + "' at position 59: '"
     + "q" * 56 + "(t)'"),
    ("t" * 59 + "+", "unexpected character at position 60: '" + "t" * 59 + "+'"),
    ("sin(t, t)", "sin takes one argument at position 9: 'sin(t, t)'"),
    ("q" * 57 + "(t)", "unknown function '" + "q" * 57 + "' at position 60: '"
     + "q" * 57 + "(t)'"),
])
def test_parse_error_quotes_a_short_text_whole(text, message):
    # up to the excerpt length, 60 characters, the message quotes the whole
    # text as its repr, as it did before long texts were cut to an excerpt
    assert len(text) <= 60
    with pytest.raises(ExprParseError) as info:
        parse_expr(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,pos,excerpt", [
    ("(" * 3000 + "t" + ")" * 3000, 65, "(" * 60 + "' (characters 35 to 95 of 6001)"),
    ("t" * 70 + "+", 71, "t" * 59 + "+' (characters 11 to 71 of 71)"),
    ("$" + "t" * 100, 0, "$" + "t" * 59 + "' (characters 0 to 60 of 101)"),
])
def test_parse_error_quotes_an_excerpt_of_a_long_text(text, pos, excerpt):
    with pytest.raises(ExprParseError) as info:
        parse_expr(text)
    assert info.value.text == text and info.value.pos == pos
    assert str(info.value).endswith(f"at position {pos}: '" + excerpt)
    assert len(str(info.value)) < 200


def test_parse_error_quotes_an_excerpt_of_a_long_function_name():
    # the unknown name is cut to 20 characters: the excerpt of the text at
    # the position already shows where it ends
    text = "q" * 3000 + "(t)"
    with pytest.raises(ExprParseError) as info:
        parse_expr(text)
    assert str(info.value) == (
        "unknown function '" + "q" * 20 + "' (characters 0 to 20 of 3000) at position 3003: '"
        + "q" * 57 + "(t)' (characters 2943 to 3003 of 3003)")
    assert len(str(info.value)) < 200


def test_a_long_chain_of_one_operator_is_one_node():
    # a + b - c is Sum(a, b, -c), so 3000 terms walk without a RecursionError
    # and give the bits of the left-to-right sums
    val, grad, hess = eval_stack([parse_expr("+".join(["t"] * 3000))], ("t",), np.array([[0.1]]))
    assert (val[0, 0], grad[0, 0, 0], hess[0, 0, 0, 0]) == (sum([0.1] * 3000), 3000.0, 0.0)
    tree = parse_expr("2" + "*t/t" * 3000)
    assert tree.variables() == {"t"}
    assert eval_value(tree, ("t",), [0.5]) == 2.0
