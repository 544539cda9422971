"""Host speed reference for the end-to-end timings.

On a shared 2-vCPU host the whole machine runs 15-30 % slower for minutes at
a time, which moves every timing of a run together.  The timed loop
interleaves this fixed kernel -- pure-Python object evaluation plus small
numpy linear algebra, the two kinds of work warpcurv does -- with the
scenarios, and divides each timing by the run's slowdown factor
`median(kernel time) / NOMINAL_S`.  The kernel is part of the benchmark, not
of warpcurv, so a change to warpcurv cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.010  # kernel time on the reference host


class _Node:
    __slots__ = ("op", "a", "b")

    def __init__(self, op, a=None, b=None):
        self.op, self.a, self.b = op, a, b

    def eval(self, env):
        if self.op == "var":
            return env[self.a]
        if self.op == "const":
            return self.a
        x, y = self.a.eval(env), self.b.eval(env)
        return x + y if self.op == "+" else x * y


def _tree(depth):
    if depth == 0:
        return _Node("var", "t")
    return _Node("+" if depth % 2 else "*", _tree(depth - 1), _Node("const", 0.5 + 0.01 * depth))


_TREE = _tree(12)
_MATRIX = np.eye(9) + 0.01


def kernel_seconds():
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    env = {"t": 0.0}
    for i in range(1500):
        env["t"] = 0.3 + 1e-4 * i
        _TREE.eval(env)
    for _ in range(600):
        np.einsum("ij,jk->ik", _MATRIX, _MATRIX)
        np.linalg.inv(_MATRIX)
    return time.perf_counter() - t0
