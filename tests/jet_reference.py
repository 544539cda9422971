"""A scalar second-order jet: the reference that the batched jets of
`warpcurv.exprs` are compared against bit for bit, and the walk of an
expression on plain floats (`eval_value`).

`Jet` carries one point's value, gradient and Hessian and applies the
forward-mode rules one point at a time, in the operation order that
`GridJet` repeats per row.  Expression nodes branch on `float` and call a
number's methods otherwise, so a `Jet` walks the package's trees as they
are.
"""

import math

import numpy as np

from warpcurv.errors import ExprError
from warpcurv.exprs import _cos, _exp, _pow, _sin


class Jet:
    """Truncated second-order number: value, gradient and Hessian."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val = float(val)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)

    @staticmethod
    def seed(values, index):
        n = len(values)
        g = np.zeros(n)
        g[index] = 1.0
        return Jet(values[index], g, np.zeros((n, n)))

    @staticmethod
    def constant(value, n):
        return Jet(value, np.zeros(n), np.zeros((n, n)))

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.grad.shape[0])

    def __add__(self, other):
        o = self._lift(other)
        return Jet(self.val + o.val, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._lift(other)
        cross = np.outer(self.grad, o.grad)
        h = self.val * o.hess + o.val * self.hess + cross + cross.T
        return Jet(self.val * o.val, self.val * o.grad + o.val * self.grad, h)

    __rmul__ = __mul__

    def _chain(self, f, fp, fpp):
        return Jet(f, fp * self.grad, fp * self.hess + fpp * np.outer(self.grad, self.grad))

    def pow_const(self, r):
        r = float(r)
        if r == 0.0:
            return Jet.constant(1.0, self.grad.shape[0])
        if self.val <= 0.0 and not r.is_integer():
            raise ExprError(f"fractional power of non-positive base {self.val!r}")
        if self.val == 0.0 and r < 0:
            raise ExprError("negative power of zero")
        f = _pow(self.val, r)
        fp = r * _pow(self.val, r - 1.0)
        # at a zero base b^(r-2) exists from r = 2 on; below that only r = 1
        # is left, whose second derivative is 0
        fpp = r * (r - 1.0) * _pow(self.val, r - 2.0) if self.val != 0.0 or r >= 2.0 else 0.0
        return self._chain(f, fp, fpp)

    def exp(self):
        e = _exp(self.val)
        return self._chain(e, e, e)

    def sin(self):
        s, c = _sin(self.val), _cos(self.val)
        return self._chain(s, c, -s)

    def cos(self):
        s, c = _sin(self.val), _cos(self.val)
        return self._chain(c, -s, -c)

    def sqrt(self):
        if self.val <= 0.0:
            raise ExprError(f"sqrt of non-positive value {self.val!r}")
        s = math.sqrt(self.val)
        sv = s * self.val
        if sv == 0.0:
            raise ExprError(f"second derivative of sqrt overflows at {self.val!r}")
        return self._chain(s, 0.5 / s, -0.25 / sv)

    def reciprocal(self):
        if self.val == 0.0:
            raise ExprError("reciprocal of zero")
        v = 1.0 / self.val
        return self._chain(v, -v * v, 2.0 * v * v * v)


def reference_jet(expr, names, values):
    """The Jet of one expression at one point; a constant gives zero
    derivatives, and a value that is not finite raises ExprError.
    Overflow gives inf and nan, as in the package's walks."""
    values = [float(v) for v in values]
    env = {nm: Jet.seed(values, i) for i, nm in enumerate(names)}
    with np.errstate(over="ignore", invalid="ignore"):
        out = expr.eval(env)
    if not isinstance(out, Jet):
        out = Jet.constant(out, len(names))
    if not math.isfinite(out.val):
        raise ExprError(f"expression not finite at {dict(zip(names, values))!r}")
    return out


def eval_value(expr, names, values):
    """The value of one expression at one point, walked on plain floats."""
    env = dict(zip(names, map(float, values)))
    return float(expr.eval(env))
