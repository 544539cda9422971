"""Scalar expression trees with exact forward-mode differentiation.

Warping functions, fiber metric entries and torsion-field components are
all small closed-form expressions in the chart coordinates.  They are kept
as explicit trees (node kinds: constant, variable, sum, product, power with
a real exponent, exp, sin, cos, sqrt, reciprocal) and evaluated on
`GridJet` numbers, which carry the value together with the exact gradient
and Hessian with respect to a chosen coordinate list at every point of a
stack.  `eval_stack` hands a walk back as three arrays, values (N, k),
gradients (N, k, n) and Hessians (N, k, n, n), so the jet type stays inside
this module.  Points come only as a stack: one point is a one-row stack
(`eval_jet`), a t-grid a one-column one (`eval_grid`).  A node computes on
a `float` itself and hands every other number to its method, so plain
floats and any jet type with the same methods walk the same trees.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import ExprError, ExprParseError, excerpt


def _exp(u):
    try:
        return math.exp(u)
    except OverflowError:
        raise ExprError(f"exp({u!r}) overflows") from None


def _pow(b, r):
    try:
        return b ** r
    except (OverflowError, ZeroDivisionError):
        raise ExprError(f"{b!r} ** {r!r} is out of range") from None


def _sin(u):
    if math.isinf(u):
        raise ExprError(f"sin of {u!r}")
    return math.sin(u)


def _cos(u):
    if math.isinf(u):
        raise ExprError(f"cos of {u!r}")
    return math.cos(u)


class GridJet:
    """Value, gradient and Hessian of a node at every point of a stack.

    One row per point of an (N, n) stack of coordinate values (vector-mode
    Taylor propagation; Griewank & Walther, *Evaluating Derivatives*, 2nd
    ed., ch. 13), which eval_stack copies out as arrays.  A t-grid is the
    stack with n = 1, a single point the stack with N = 1; a jet made with
    order 0 carries values only.  Each rule applies the scalar second-order
    chain rule in a fixed operation order, so every row has the bits that a
    scalar jet with the same rules gives at that point.  Only the correctly
    rounded operations (+, -, *, /, sqrt) run in numpy; exp, sin, cos and
    powers run element by element on Python floats, because numpy's exp and
    power round differently from math's and **.  Each maps the raw math.exp,
    math.sin, math.cos or pow first, and the checking wrapper (_exp, _sin,
    _cos, _pow), which gives the same values, only if that raises, so that
    the ExprError names its point.

    A float operand stays a scalar: `jet * c` is (u c, c du, c ddu) and
    `jet + c` is (u + c, du, ddu), sharing du and ddu, where the rule for two
    jets would run on c lifted to a jet with zero derivatives.  Values are
    the same; a derivative entry differs from the lifted rule's only in the
    sign of a zero, or where the lifted rule multiplied an overflowed u by 0
    and gave nan.  For a square, pow(b, 1.0) == b and pow(b, 0.0) == 1.0
    exactly, so the derivative factors 2 b and 2 need no pow map.

    The parts are held in shapes that broadcast against each other without
    copies: u (N, 1, 1), du (N, 1, n) and ddu (N, n, n), with du and ddu
    None for values only.  `at` is the pair (names, points) that error
    messages read.
    """

    __slots__ = ("at", "u", "du", "ddu")

    def __init__(self, at, u, du, ddu):
        self.at, self.u, self.du, self.ddu = at, u, du, ddu

    def __add__(self, other):
        if not isinstance(other, GridJet):
            return GridJet(self.at, self.u + other, self.du, self.ddu)
        if self.du is None:
            return GridJet(self.at, self.u + other.u, None, None)
        return GridJet(self.at, self.u + other.u, self.du + other.du, self.ddu + other.ddu)

    __radd__ = __add__

    def __mul__(self, other):
        if self.du is None:
            return GridJet(self.at, self.u * getattr(other, "u", other), None, None)
        if not isinstance(other, GridJet):
            return GridJet(self.at, self.u * other, other * self.du, other * self.ddu)
        u, v = self.u, other.u
        # u dv + v du and u Hv + v Hu + c + c^T with c = du dv^T, per point
        c = self.du.transpose(0, 2, 1) * other.du
        return GridJet(self.at, u * v, u * other.du + v * self.du,
                       u * other.ddu + v * self.ddu + c + c.transpose(0, 2, 1))

    __rmul__ = __mul__

    def _chain(self, f, fp, fpp):
        if self.du is None:
            return GridJet(self.at, f, None, None)
        outer = self.du.transpose(0, 2, 1) * self.du
        return GridJet(self.at, f, fp * self.du, fp * self.ddu + fpp * outer)

    def _where(self, j):
        names, pts = self.at
        return ", ".join(f"{nm}={x!r}" for nm, x in zip(names, pts[j].tolist()))

    def _check(self, bad, message):
        """ExprError naming the first point flagged in `bad`."""
        if bad.any():
            j = int(np.argmax(bad))
            raise ExprError(f"{message} {float(self.u[j, 0, 0])!r} at {self._where(j)}")

    def _map(self, raw, checked):
        """raw of each value as a Python float, or checked of each if raw
        raises; an ExprError from checked names its point.  checked gives
        raw's value wherever raw returns one."""
        us = self.u.ravel().tolist()
        try:
            out = np.fromiter(map(raw, us), float, len(us))
        except (OverflowError, ValueError, ZeroDivisionError):
            out = np.empty(len(us))
            for j, u in enumerate(us):
                try:
                    out[j] = checked(u)
                except ExprError as exc:
                    raise ExprError(f"{exc} at {self._where(j)}") from None
        return out.reshape(self.u.shape)

    def pow_const(self, r):
        r = float(r)
        if r == 0.0:
            one = np.ones_like(self.u)
            if self.du is None:
                return GridJet(self.at, one, None, None)
            return GridJet(self.at, one, np.zeros_like(self.du), np.zeros_like(self.ddu))
        if not r.is_integer():
            self._check(self.u <= 0.0, "fractional power of non-positive base")
        if r < 0:
            self._check(self.u == 0.0, "negative power of")
        f = self._map(partial(pow, exp=r), lambda b: _pow(b, r))
        if self.du is None:
            return GridJet(self.at, f, None, None)
        if r == 2.0:
            return self._chain(f, 2.0 * self.u, 2.0)
        fp = r * self._map(partial(pow, exp=r - 1.0), lambda b: _pow(b, r - 1.0))
        # b^(r - 2) at b = 0 (r = 1 only: other r reject a zero base above)
        # raises in pow, and the checked form gives the 0 there
        fpp = r * (r - 1.0) * self._map(
            partial(pow, exp=r - 2.0),
            lambda b: _pow(b, r - 2.0) if b != 0.0 or r >= 2.0 else 0.0)
        return self._chain(f, fp, fpp)

    def exp(self):
        e = self._map(math.exp, _exp)
        return self._chain(e, e, e)

    def sin(self):
        s = self._map(math.sin, _sin)
        if self.du is None:
            return GridJet(self.at, s, None, None)
        c = self._map(math.cos, _cos)
        return self._chain(s, c, -s)

    def cos(self):
        c = self._map(math.cos, _cos)
        if self.du is None:
            return GridJet(self.at, c, None, None)
        s = self._map(math.sin, _sin)
        return self._chain(c, -s, -c)

    def sqrt(self):
        self._check(self.u <= 0.0, "sqrt of non-positive value")
        s = np.sqrt(self.u)
        su = s * self.u
        self._check(su == 0.0, "second derivative of sqrt overflows at")
        return self._chain(s, 0.5 / s, -0.25 / su)

    def reciprocal(self):
        self._check(self.u == 0.0, "reciprocal of")
        v = 1.0 / self.u
        return self._chain(v, -v * v, 2.0 * v * v * v)


# ---------------------------------------------------------------------------
# Expression tree


class ScalarExpr:
    """Base node; subclasses implement eval() and variables()."""

    def eval(self, env):
        raise NotImplementedError

    def variables(self):
        out = set()
        self._collect(out)
        return out

    def _collect(self, out):
        pass

    def _coerce(self, other):
        if isinstance(other, ScalarExpr):
            return other
        if isinstance(other, (int, float)):
            return Const(other)
        raise ExprError(f"cannot build expression from {other!r}")

    def __add__(self, other):
        return Sum(self, self._coerce(other))

    def __radd__(self, other):
        return Sum(self._coerce(other), self)

    def __sub__(self, other):
        return Sum(self, Prod(Const(-1.0), self._coerce(other)))

    def __rsub__(self, other):
        return Sum(self._coerce(other), Prod(Const(-1.0), self))

    def __neg__(self):
        return Prod(Const(-1.0), self)

    def __mul__(self, other):
        return Prod(self, self._coerce(other))

    def __rmul__(self, other):
        return Prod(self._coerce(other), self)

    def __truediv__(self, other):
        return Prod(self, Recip(self._coerce(other)))

    def __rtruediv__(self, other):
        return Prod(self._coerce(other), Recip(self))

    def __pow__(self, exponent):
        if isinstance(exponent, Const):
            exponent = exponent.value
        if not isinstance(exponent, (int, float)):
            raise ExprError("power nodes require a real constant exponent")
        return Pow(self, float(exponent))


class Const(ScalarExpr):
    def __init__(self, value):
        self.value = float(value)

    def eval(self, env):
        return self.value

    def __repr__(self):
        return f"Const({self.value})"


class Var(ScalarExpr):
    def __init__(self, name):
        self.name = name

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExprError(f"unbound variable {self.name!r}") from None

    def _collect(self, out):
        out.add(self.name)

    def __repr__(self):
        return f"Var({self.name!r})"


class Sum(ScalarExpr):
    def __init__(self, *terms):
        self.terms = terms

    def eval(self, env):
        acc = self.terms[0].eval(env)
        for t in self.terms[1:]:
            acc = acc + t.eval(env)
        return acc

    def _collect(self, out):
        for t in self.terms:
            t._collect(out)


class Prod(ScalarExpr):
    def __init__(self, *factors):
        self.factors = factors

    def eval(self, env):
        acc = self.factors[0].eval(env)
        for f in self.factors[1:]:
            acc = acc * f.eval(env)
        return acc

    def _collect(self, out):
        for f in self.factors:
            f._collect(out)


class Pow(ScalarExpr):
    def __init__(self, base, exponent):
        self.base = base
        self.exponent = float(exponent)

    def eval(self, env):
        # a stack walk evaluates a power that several trees share (the
        # metric's b^2 in every entry of its fiber block) once
        memo = env.memo if isinstance(env, _Stack) else {}
        if id(self) in memo:
            return memo[id(self)]
        b = self.base.eval(env)
        r = self.exponent
        if not isinstance(b, float):
            out = b.pow_const(r)
        elif b <= 0.0 and not r.is_integer():
            raise ExprError(f"fractional power of non-positive base {b!r}")
        else:
            out = _pow(b, r)
        memo[id(self)] = out
        return out

    def _collect(self, out):
        self.base._collect(out)


class _Unary(ScalarExpr):
    def __init__(self, arg):
        self.arg = arg

    def _collect(self, out):
        self.arg._collect(out)


class Exp(_Unary):
    def eval(self, env):
        u = self.arg.eval(env)
        return _exp(u) if isinstance(u, float) else u.exp()


class Sin(_Unary):
    def eval(self, env):
        u = self.arg.eval(env)
        return _sin(u) if isinstance(u, float) else u.sin()


class Cos(_Unary):
    def eval(self, env):
        u = self.arg.eval(env)
        return _cos(u) if isinstance(u, float) else u.cos()


class Sqrt(_Unary):
    def eval(self, env):
        u = self.arg.eval(env)
        if not isinstance(u, float):
            return u.sqrt()
        if u <= 0.0:
            raise ExprError(f"sqrt of non-positive value {u!r}")
        return math.sqrt(u)


class Recip(_Unary):
    def eval(self, env):
        u = self.arg.eval(env)
        if not isinstance(u, float):
            return u.reciprocal()
        if u == 0.0:
            raise ExprError("reciprocal of zero")
        return 1.0 / u


# ---------------------------------------------------------------------------
# Evaluation helpers


class _Stack(dict):
    """eval_stack's environment: a GridJet per coordinate name, and the
    walk's memo of the powers that several trees share."""

    def __init__(self, jets):
        super().__init__(jets)
        self.memo = {}


def jet_env(names, pts, order):
    """eval_stack's environment over an (N, len(names)) stack of points:
    each name's GridJet, with du = e_i and ddu = 0 (order 2) or values only
    (order 0).  Any other shape of points raises ExprError."""
    if pts.ndim != 2 or pts.shape[1] != len(names):
        raise ExprError(f"expected an (N, {len(names)}) point stack, got shape {pts.shape}")
    count, n = pts.shape
    du, ddu = np.zeros((n, count, 1, n)), np.zeros((count, n, n))
    for i in range(n):
        du[i, :, 0, i] = 1.0
    return _Stack({name: GridJet((names, pts), pts[:, i, None, None],
                                 du[i] if order else None, ddu if order else None)
                   for i, name in enumerate(names)})


def eval_stack(exprs, names, pts, order=2):
    """Values val (N, k), gradients grad (N, k, n) and Hessians hess
    (N, k, n, n) of k expressions over the rows of an (N, n) stack of
    points, n = len(names); at order 0 (val, None, None).  Any other shape
    of points raises ExprError.

    One walk per tree with GridJet numbers seeded on one slot per name
    (order 2), or carrying values only (order 0); a constant tree fills
    its value on every row and zero derivative rows.  Row j has the bits
    of the walk at pts[j] alone (for order 0 its value, as a walk on plain
    floats gives it); where that walk would raise ExprError this raises it
    too, naming the first point at which the failing rule fails.  Overflow
    and invalid operations give inf and nan, as on floats.
    """
    pts = np.asarray(pts, dtype=float)
    env = jet_env(names, pts, order)
    (count, n), k = pts.shape, len(exprs)
    val = np.zeros((count, k))
    grad, hess = (np.zeros((count, k, n)), np.zeros((count, k, n, n))) if order else (None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, e in enumerate(exprs):
            jet = e.eval(env)
            if not isinstance(jet, GridJet):
                val[:, i] = jet
                continue
            val[:, i] = jet.u[:, 0, 0]
            if order:
                grad[:, i], hess[:, i] = jet.du[:, 0], jet.ddu
    return val, grad, hess


def eval_jet(exprs, names, points):
    """eval_stack's (val, grad, hess) at order 2, one point being a one-row
    stack.  Any other shape of points raises ExprError, and so does a value
    that is not finite, naming the first point that has one."""
    pts = np.asarray(points, dtype=float)
    val, grad, hess = eval_stack(exprs, names, pts)
    if not np.isfinite(val).all():
        at = pts[int(np.argmax(~np.isfinite(val).all(axis=1)))].tolist()
        raise ExprError(f"expression not finite at {dict(zip(names, at))!r}")
    return val, grad, hess


def eval_grid(expr, ts, order=2):
    """Rows u, u', u'' of an expression in the single variable t over a grid.

    eval_stack's arrays for n = 1 as rows, shape (3, len(ts)): column j
    holds the value, first and second derivative at ts[j], with the bits of
    eval_jet([expr], ("t",), [[ts[j]]]), and an ExprError names the grid
    value.  With order 0 the walk carries values only and gives the row u
    alone, shape (1, len(ts)); an unbound variable or a value that is not
    finite raises the same ExprError as at order 2.
    """
    ts = np.asarray(ts, dtype=float)
    if not len(ts):
        return np.zeros((3 if order else 1, 0))
    unbound = sorted(expr.variables() - {"t"})
    if unbound:
        raise ExprError(f"unbound variable {unbound[0]!r} at t={float(ts[0])!r}")
    val, grad, hess = eval_stack([expr], ("t",), ts[:, None], order)
    out = np.concatenate((val.T, grad.reshape(1, -1), hess.reshape(1, -1))) if order else val.T
    bad = ~np.isfinite(out[0])
    if bad.any():
        raise ExprError(f"expression not finite at t={float(ts[np.argmax(bad)])!r}")
    return out


# ---------------------------------------------------------------------------
# Infix parser for scenario files:  exp(t) + 2*t^2 - sin(0.5*t)

_FUNCS = {"exp": Exp, "sin": Sin, "cos": Cos, "sqrt": Sqrt}

# Parentheses, function calls and unary signs may nest this deep.  The
# parser recurses at most seven Python frames per level, and a walk of the
# tree it builds one frame per node level, at most five per level of
# nesting since a chain of + - or * / is one node.  So every tree it gives
# parses in about 460 frames at most, and walks and lists its variables in
# about 320, inside Python's default recursion limit of 1000.
_MAX_NESTING = 64


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ExprParseError(message, self.text, self.pos)

    def nested(self, parse):
        """parse() one level deeper; past _MAX_NESTING levels an error."""
        if self.depth == _MAX_NESTING:
            self.error(f"nesting deeper than {_MAX_NESTING} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        e = self.expr()
        if self.peek():
            self.error("trailing input")
        return e

    def expr(self):
        # a + b - c is Sum(a, b, -c): the walk's left-to-right sums of the
        # nested Sum(Sum(a, b), -c), without a node level per operator
        terms = [self.term()]
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                terms.append(self.term())
            elif c == "-":
                self.pos += 1
                terms.append(-self.term())
            else:
                return terms[0] if len(terms) == 1 else Sum(*terms)

    def term(self):
        factors = [self.power()]
        while True:
            c = self.peek()
            if c == "*" and not self.text.startswith("**", self.pos):
                self.pos += 1
                factors.append(self.power())
            elif c == "/":
                self.pos += 1
                factors.append(Recip(self.power()))
            else:
                return factors[0] if len(factors) == 1 else Prod(*factors)

    def power(self):
        base = self.unary()
        c = self.peek()
        if c == "^" or self.text.startswith("**", self.pos):
            self.pos += 2 if self.text.startswith("**", self.pos) else 1
            exponent = self.unary()
            return base ** self._require_const(exponent)
        return base

    def _require_const(self, node):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Prod) and len(node.factors) == 2:
            a, b = node.factors
            if isinstance(a, Const) and isinstance(b, Const):
                return a.value * b.value
        self.error("exponent must be a numeric constant")

    def unary(self):
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.nested(self.unary)
        if c == "+":
            self.pos += 1
            return self.nested(self.unary)
        return self.atom()

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.nested(self.expr)
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if c.isdigit() or c == ".":
            return Const(self.number())
        if c.isalpha() or c == "_":
            name = self.ident()
            if self.peek() == "(":
                return self.call(name)
            return Var(name)
        self.error("unexpected character")

    def number(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        if self.pos < len(self.text) and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            self.error("malformed number")

    def ident(self):
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def call(self, name):
        self.pos += 1  # consume '('
        args = [self.nested(self.expr)]
        while self.peek() == ",":
            self.pos += 1
            args.append(self.nested(self.expr))
        if self.peek() != ")":
            self.error("expected ')'")
        self.pos += 1
        if name == "pow":
            if len(args) != 2:
                self.error("pow takes two arguments")
            return args[0] ** self._require_const(args[1])
        fn = _FUNCS.get(name)
        if fn is None:
            # a long name is cut shorter than the text: the text's excerpt
            # at the position already shows the name's end
            self.error(f"unknown function {excerpt(name, width=20)}")
        if len(args) != 1:
            # name is one of _FUNCS here, so it is short enough to print whole
            self.error(f"{name} takes one argument")
        return fn(args[0])


def parse_expr(text):
    """Parse an infix expression string into a ScalarExpr."""
    if not text or not text.strip():
        raise ExprParseError("empty expression", text, 0)
    return _Parser(text).parse()
