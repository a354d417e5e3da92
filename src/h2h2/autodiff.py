"""Forward-mode automatic differentiation by truncated Taylor propagation.

``Jet`` carries a value with its gradient, Hessian and third-derivative
tensor with respect to a fixed set of seed variables.  Every operation
propagates all four orders exactly (Griewank & Walther, *Evaluating
Derivatives*, ch. 13), so evaluating a chart on ``jet_variables(u)`` gives its
first, second and third derivatives in one pass, with no truncation error.

Plain floats pass through every function here unchanged, so chart code can be
written once and evaluated at scalar or jet arguments.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

Scalar = Union[int, float, "Jet"]

_NUMBER = (int, float, np.integer, np.floating)


def _sym3(t: np.ndarray) -> np.ndarray:
    """t[i,j,k] + t[i,k,j] + t[j,k,i]: for t = a_ij b_k, the sum over the three
    ways of splitting {i,j,k} into a pair and a single index."""
    return t + t.transpose(0, 2, 1) + t.transpose(2, 0, 1)


class Jet:
    """Third-order forward-mode scalar: value, gradient, Hessian, third derivatives."""

    __slots__ = ("val", "d", "dd", "ddd")

    def __init__(self, val: float, d, dd, ddd):
        self.val = float(val)
        self.d = np.asarray(d, dtype=float)
        self.dd = np.asarray(dd, dtype=float)
        self.ddd = np.asarray(ddd, dtype=float)

    def __repr__(self):
        return f"Jet({self.val!r}, {self.d!r}, {self.dd!r}, {self.ddd!r})"

    def __neg__(self):
        return Jet(-self.val, -self.d, -self.dd, -self.ddd)

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.d + other.d, self.dd + other.dd,
                       self.ddd + other.ddd)
        if isinstance(other, _NUMBER):
            return Jet(self.val + other, self.d, self.dd, self.ddd)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.d - other.d, self.dd - other.dd,
                       self.ddd - other.ddd)
        if isinstance(other, _NUMBER):
            return Jet(self.val - other, self.d, self.dd, self.ddd)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _NUMBER):
            return Jet(other - self.val, -self.d, -self.dd, -self.ddd)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self, other
            cross = np.multiply.outer(a.d, b.d)
            mixed = np.multiply.outer(a.dd, b.d) + np.multiply.outer(b.dd, a.d)
            return Jet(
                a.val * b.val,
                a.val * b.d + b.val * a.d,
                a.val * b.dd + b.val * a.dd + cross + cross.T,
                a.val * b.ddd + b.val * a.ddd + _sym3(mixed),
            )
        if isinstance(other, _NUMBER):
            return Jet(self.val * other, self.d * other, self.dd * other, self.ddd * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, _NUMBER):
            return Jet(self.val / other, self.d / other, self.dd / other, self.ddd / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _NUMBER):
            return self._reciprocal() * other
        return NotImplemented

    def _reciprocal(self):
        v = self.val
        return _lift(self, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v), -6.0 / (v * v * v * v))

    def __pow__(self, n):
        if not isinstance(n, _NUMBER):
            return NotImplemented
        v = self.val
        return _lift(self, v ** n, n * v ** (n - 1), n * (n - 1) * v ** (n - 2),
                     n * (n - 1) * (n - 2) * v ** (n - 3))


def _lift(x: Jet, f0: float, f1: float, f2: float, f3: float) -> Jet:
    """f(x) for f known by its derivatives f0..f3 at x.val (Faà di Bruno)."""
    dd = np.multiply.outer(x.d, x.d)
    return Jet(f0, f1 * x.d, f2 * dd + f1 * x.dd,
               f3 * np.multiply.outer(dd, x.d) + f2 * _sym3(np.multiply.outer(x.dd, x.d))
               + f1 * x.ddd)


def value(x: Scalar) -> float:
    """Plain float value of a scalar or jet."""
    if isinstance(x, Jet):
        return x.val
    return float(x)


def compose_jet(f0: float, f1: float, f2: float, f3: float, x: Scalar) -> Scalar:
    """Chain rule through a scalar argument for a function known by its jet.

    Given f(x0)=f0, f'(x0)=f1, f''(x0)=f2, f'''(x0)=f3 at x0=value(x), returns
    f(x) as a jet when x is one, else f0.  Used to push chart coordinates
    through quantities (such as integrated curves) whose derivatives are
    known from structure rather than from elementary arithmetic.
    """
    if isinstance(x, Jet):
        return _lift(x, f0, f1, f2, f3)
    return f0


def sqrt(x: Scalar) -> Scalar:
    v = value(x)
    s = math.sqrt(v)
    return compose_jet(s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v), x)


def exp(x: Scalar) -> Scalar:
    e = math.exp(value(x))
    return compose_jet(e, e, e, e, x)


def log(x: Scalar) -> Scalar:
    v = value(x)
    return compose_jet(math.log(v), 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v), x)


def sin(x: Scalar) -> Scalar:
    v = value(x)
    s, c = math.sin(v), math.cos(v)
    return compose_jet(s, c, -s, -c, x)


def cos(x: Scalar) -> Scalar:
    v = value(x)
    s, c = math.sin(v), math.cos(v)
    return compose_jet(c, -s, -c, s, x)


def sinh(x: Scalar) -> Scalar:
    v = value(x)
    s, c = math.sinh(v), math.cosh(v)
    return compose_jet(s, c, s, c, x)


def cosh(x: Scalar) -> Scalar:
    v = value(x)
    s, c = math.sinh(v), math.cosh(v)
    return compose_jet(c, s, c, s, x)


def tanh(x: Scalar) -> Scalar:
    t = math.tanh(value(x))
    sech2 = 1.0 - t * t
    return compose_jet(t, sech2, -2.0 * t * sech2, 2.0 * sech2 * (3.0 * t * t - 1.0), x)


def jet_variables(u: Sequence[float]) -> list[Jet]:
    """Seed one Jet per coordinate: gradients the standard basis, higher orders zero."""
    n = len(u)
    eye = np.eye(n)
    dd = np.zeros((n, n))
    ddd = np.zeros((n, n, n))
    return [Jet(u[i], eye[i], dd, ddd) for i in range(n)]
