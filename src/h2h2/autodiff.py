"""Forward-mode automatic differentiation by truncated Taylor propagation.

``Jet`` carries a value with its gradient, Hessian and third-derivative
tensor with respect to a fixed set of seed variables.  Every operation
propagates all four orders exactly (Griewank & Walther, *Evaluating
Derivatives*, ch. 13), so evaluating a chart on ``jet_variables(u)`` gives its
first, second and third derivatives in one pass, with no truncation error.

The order travels with the seeds.  ``jet_variables(u, order=2)`` seeds jets
whose ``ddd`` is None: the arithmetic then carries the value, gradient and
Hessian only, by the same expressions, so those three are bit for bit the
ones an order-3 pass gives.  An operation appends the third-order term only
when its jet operands all carry one; a result mixing the two orders is
truncated at order 2.  Curvatures, frames and the parallel flow need second
derivatives of the chart; only the structural equations and the frame
connection identities read the third.

A jet has a leading batch shape B: ``val`` is (*B,), ``d`` (*B,k), ``dd``
(*B,k,k) and ``ddd`` (*B,k,k,k), and the arithmetic broadcasts over B, so one
pass over ``jet_variables(U)`` with U of shape (n, 3) evaluates a chart at n
points (the chunked dual numbers of ForwardDiff.jl, Revels, Lubin &
Papamarkou, arXiv:1607.07892).  One point is a batch of one, U[None].  Every
row of a batch is bit for bit its batch of one: the arithmetic is
elementwise, and the elementary functions and powers are numpy's ufuncs,
which give an element the same bits whatever batch it sits in
(``tests/test_autodiff.py`` pins that on the installed numpy).

Plain floats, and arrays of them, pass through every function here without
derivatives, so code written for jets also evaluates at coordinate arrays
(``PlaneCurve.kappa_at`` reads a curvature function's values so); a jet's
value is bit for bit what the same code gives on the array of its values (a
quotient's value is a / b, its derivatives come from the reciprocal).  In
the arithmetic of a batch, a float array of the batch shape stands wherever
a float may, as one constant per row, and each row is bit for bit the jet
with that row's float (a power's exponent stays a number).
``Jet.__array_ufunc__`` is None, so ``array * jet`` and the other reflected
operations defer to the jet.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Scalar = Union[int, float, "Jet"]

_NUMBER = (int, float, np.integer, np.floating)
# a constant operand of the jet arithmetic: a number, or one per batch row
_CONSTANT = _NUMBER + (np.ndarray,)


def _sym3(t: np.ndarray) -> np.ndarray:
    """t[i,j,k] + t[i,k,j] + t[j,k,i] over the last three axes: for t = a_ij b_k,
    the sum over the three ways of splitting {i,j,k} into a pair and a single index."""
    return t + t.swapaxes(-1, -2) + t.swapaxes(-3, -1).swapaxes(-2, -1)


def _rows(c, k: int):
    """A float, or a (*B,) array lined up against k trailing derivative axes."""
    return c.reshape(c.shape + (1,) * k) if isinstance(c, np.ndarray) else c


def _third(fn, *ddd):
    """fn of the third-order tensors, or None unless every one is carried."""
    return None if any(t is None for t in ddd) else fn(*ddd)


class Jet:
    """A batch of forward-mode scalars: value, gradient, Hessian and,
    at order 3, third derivatives (``ddd`` is None at order 2)."""

    __slots__ = ("val", "d", "dd", "ddd")
    # numpy's operators defer to the jet's reflected ones
    __array_ufunc__ = None

    def __init__(self, val, d, dd, ddd=None):
        self.val = np.asarray(val, dtype=float)
        self.d = np.asarray(d, dtype=float)
        self.dd = np.asarray(dd, dtype=float)
        self.ddd = None if ddd is None else np.asarray(ddd, dtype=float)

    def __repr__(self):
        return f"Jet({self.val!r}, {self.d!r}, {self.dd!r}, {self.ddd!r})"

    def __neg__(self):
        return Jet(-self.val, -self.d, -self.dd, _third(np.negative, self.ddd))

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.d + other.d, self.dd + other.dd,
                       _third(np.add, self.ddd, other.ddd))
        if isinstance(other, _CONSTANT):
            return Jet(self.val + other, self.d, self.dd, self.ddd)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val - other.val, self.d - other.d, self.dd - other.dd,
                       _third(np.subtract, self.ddd, other.ddd))
        if isinstance(other, _CONSTANT):
            return Jet(self.val - other, self.d, self.dd, self.ddd)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _CONSTANT):
            return Jet(other - self.val, -self.d, -self.dd, _third(np.negative, self.ddd))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self, other
            cross = a.d[..., :, None] * b.d[..., None, :]
            return Jet(
                a.val * b.val,
                _rows(a.val, 1) * b.d + _rows(b.val, 1) * a.d,
                _rows(a.val, 2) * b.dd + _rows(b.val, 2) * a.dd + cross + cross.swapaxes(-1, -2),
                _third(lambda ta, tb: _rows(a.val, 3) * tb + _rows(b.val, 3) * ta
                       + _sym3(a.dd[..., None] * b.d[..., None, None, :]
                               + b.dd[..., None] * a.d[..., None, None, :]), a.ddd, b.ddd),
            )
        if isinstance(other, _CONSTANT):
            return Jet(self.val * other, self.d * _rows(other, 1), self.dd * _rows(other, 2),
                       _third(lambda t: t * _rows(other, 3), self.ddd))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            # the value is a / b, as the float passthrough gives it
            q = self * other._reciprocal()
            return Jet(self.val / other.val, q.d, q.dd, q.ddd)
        if isinstance(other, _CONSTANT):
            return Jet(self.val / other, self.d / _rows(other, 1), self.dd / _rows(other, 2),
                       _third(lambda t: t / _rows(other, 3), self.ddd))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _CONSTANT):
            q = self._reciprocal() * other
            return Jet(other / self.val, q.d, q.dd, q.ddd)
        return NotImplemented

    def _reciprocal(self):
        v = self.val
        return _lift(self, 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v),
                     None if self.ddd is None else -6.0 / (v * v * v * v))

    def __pow__(self, n):
        if not isinstance(n, _NUMBER):
            return NotImplemented
        v = self.val
        return _lift(self, np.power(v, n), n * np.power(v, n - 1),
                     n * (n - 1) * np.power(v, n - 2),
                     None if self.ddd is None else n * (n - 1) * (n - 2) * np.power(v, n - 3))


def _lift(x: Jet, f0, f1, f2, f3) -> Jet:
    """f(x) for f known by its derivatives f0..f3 at x.val (Faà di Bruno).
    f3 is read only when x carries third derivatives."""
    dd = x.d[..., :, None] * x.d[..., None, :]
    return Jet(f0, _rows(f1, 1) * x.d, _rows(f2, 2) * dd + _rows(f1, 2) * x.dd,
               _third(lambda t: _rows(f3, 3) * (dd[..., None] * x.d[..., None, None, :])
                      + _rows(f2, 3) * _sym3(x.dd[..., None] * x.d[..., None, None, :])
                      + _rows(f1, 3) * t, x.ddd))


def value(x: Scalar):
    """Value of a jet, (*B,); a float or an array argument passes through."""
    return x.val if isinstance(x, Jet) else x


def compose_jet(f0, f1, f2, f3, x: Scalar) -> Scalar:
    """Chain rule through a scalar argument for a function known by its jet.

    Given f(x0)=f0, f'(x0)=f1, f''(x0)=f2, f'''(x0)=f3 at x0=value(x), returns
    f(x) as a jet when x is one, else f0.  The f's are (*B,) arrays.  Used to
    push chart coordinates through quantities (such as integrated curves)
    whose derivatives are known from structure rather than from elementary
    arithmetic.
    """
    if isinstance(x, Jet):
        return _lift(x, f0, f1, f2, f3)
    return f0


def sqrt(x: Scalar) -> Scalar:
    v = value(x)
    s = np.sqrt(v)
    return compose_jet(s, 0.5 / s, -0.25 / (s * v), 0.375 / (s * v * v), x)


def sin(x: Scalar) -> Scalar:
    v = value(x)
    s, c = np.sin(v), np.cos(v)
    return compose_jet(s, c, -s, -c, x)


def cos(x: Scalar) -> Scalar:
    v = value(x)
    s, c = np.sin(v), np.cos(v)
    return compose_jet(c, -s, -c, s, x)


def sinh(x: Scalar) -> Scalar:
    v = value(x)
    s, c = np.sinh(v), np.cosh(v)
    return compose_jet(s, c, s, c, x)


def cosh(x: Scalar) -> Scalar:
    v = value(x)
    s, c = np.sinh(v), np.cosh(v)
    return compose_jet(c, s, c, s, x)


def tanh(x: Scalar) -> Scalar:
    t = np.tanh(value(x))
    sech2 = 1.0 - t * t
    return compose_jet(t, sech2, -2.0 * t * sech2, 2.0 * sech2 * (3.0 * t * t - 1.0), x)


def jet_variables(u, order: int = 3) -> list[Jet]:
    """Seed one Jet per coordinate: gradients the standard basis, higher orders zero.

    u of shape (*B, k) gives jets of batch shape B, one row per point; one
    point is the batch of one, u (1, k).  ``order`` is 3, or 2 for jets that
    carry no third derivatives.
    """
    if order not in (2, 3):
        raise ValueError(f"jet order must be 2 or 3, got {order!r}")
    u = np.asarray(u, dtype=float)
    batch, k = u.shape[:-1], u.shape[-1]
    eye = np.eye(k)
    dd = np.zeros(batch + (k, k))
    ddd = np.zeros(batch + (k, k, k)) if order == 3 else None
    return [Jet(u[..., i], np.broadcast_to(eye[i], batch + (k,)), dd, ddd) for i in range(k)]
