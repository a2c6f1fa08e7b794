"""Truncated multivariate Taylor arithmetic (forward mode, orders 0..3).

A :class:`Jet` holds the raw partial derivatives of a scalar function at a
point: value, gradient, Hessian, and third-order array.  Raw means the
actual partials, not divided by factorials, so connection coefficients and
their derivatives can be read off without bookkeeping.  Order 0 is allowed
internally for plain values; the public seeding contract is order 1..3.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractViolation, EvalDomain

MAX_ORDER = 3


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Symmetrized H[i,j]*g[k] over the three index placements."""
    return (
        h[:, :, None] * g[None, None, :]
        + h[:, None, :] * g[None, :, None]
        + h[None, :, :] * g[:, None, None]
    )


def _float_domain(method):
    """Report float overflow, division by zero and math domain errors
    (``math.exp``, ``v**p``, ``1/v**4``, ``math.sin(inf)``, ...) in an
    elementary function as EvalDomain; the caller attaches the point."""

    @functools.wraps(method)
    def wrapper(self):
        try:
            return method(self)
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvalDomain(f"floating-point error ({exc})") from None

    return wrapper


class Jet:
    __slots__ = ("dim", "order", "value", "grad", "hess", "third")

    def __init__(self, dim, order, value, grad=None, hess=None, third=None):
        self.dim = dim
        self.order = order
        self.value = float(value)
        self.grad = grad
        self.hess = hess
        self.third = third

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(value: float, dim: int, order: int) -> "Jet":
        g = np.zeros(dim) if order >= 1 else None
        h = np.zeros((dim, dim)) if order >= 2 else None
        t = np.zeros((dim, dim, dim)) if order >= 3 else None
        return Jet(dim, order, value, g, h, t)

    @staticmethod
    def seed(point, index: int, order: int) -> "Jet":
        """Jet of the coordinate function x_index at ``point`` (0-based)."""
        point = tuple(point)
        dim = len(point)
        if not 1 <= order <= MAX_ORDER:
            raise ContractViolation(f"jet order must be in 1..{MAX_ORDER}, got {order}")
        if not 0 <= index < dim:
            raise ContractViolation(f"variable index {index} out of range for dim {dim}")
        j = Jet.constant(point[index], dim, order)
        j.grad = j.grad.copy()
        j.grad[index] = 1.0
        return j

    # -- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim or other.order != self.order:
                raise ContractViolation("jet dim/order mismatch in arithmetic")
            return other
        return Jet.constant(float(other), self.dim, self.order)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(
            self.dim,
            self.order,
            self.value + o.value,
            None if self.order < 1 else self.grad + o.grad,
            None if self.order < 2 else self.hess + o.hess,
            None if self.order < 3 else self.third + o.third,
        )

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.dim,
            self.order,
            -self.value,
            None if self.order < 1 else -self.grad,
            None if self.order < 2 else -self.hess,
            None if self.order < 3 else -self.third,
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        o = self._coerce(other)
        a, b = self, o
        val = a.value * b.value
        g = h = t = None
        if self.order >= 1:
            g = a.value * b.grad + b.value * a.grad
        if self.order >= 2:
            h = (
                a.value * b.hess
                + b.value * a.hess
                + np.outer(a.grad, b.grad)
                + np.outer(b.grad, a.grad)
            )
        if self.order >= 3:
            t = (
                a.value * b.third
                + b.value * a.third
                + _sym3(a.hess, b.grad)
                + _sym3(b.hess, a.grad)
            )
        return Jet(self.dim, self.order, val, g, h, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o._reciprocal()

    def __rtruediv__(self, other):
        return Jet.constant(float(other), self.dim, self.order) * self._reciprocal()

    def _chain(self, c0, c1=0.0, c2=0.0, c3=0.0):
        """Compose with a scalar function given its derivatives at ``value``."""
        g = h = t = None
        if self.order >= 1:
            g = c1 * self.grad
        if self.order >= 2:
            h = c1 * self.hess + c2 * np.outer(self.grad, self.grad)
        if self.order >= 3:
            t = (
                c1 * self.third
                + c2 * _sym3(self.hess, self.grad)
                + c3 * self.grad[:, None, None] * self.grad[None, :, None] * self.grad[None, None, :]
            )
        return Jet(self.dim, self.order, c0, g, h, t)

    def _compose(self, *derivatives):
        """:meth:`_chain` with each derivative a function of ``value``,
        called only when the order reads it (another may overflow or
        divide by zero)."""
        return self._chain(*[d(self.value) for d in derivatives[:self.order + 1]])

    @_float_domain
    def _reciprocal(self):
        """1/v from only the powers v**p its order reads: they may overflow or
        underflow to 0."""
        if self.value == 0.0:
            raise EvalDomain("division by zero")
        return self._compose(lambda v: 1.0 / v, lambda v: -1.0 / v**2,
                             lambda v: 2.0 / v**3, lambda v: -6.0 / v**4)

    def ipow(self, p: int) -> "Jet":
        """Integer power by repeated multiplication (total for p >= 0)."""
        if p != int(p):
            raise ContractViolation("exponent must be an integer")
        p = int(p)
        if p < 0:
            return self._reciprocal().ipow(-p)
        result = Jet.constant(1.0, self.dim, self.order)
        base = self
        while p:
            if p & 1:
                result = result * base
            base = base * base if p > 1 else base
            p >>= 1
        return result

    def __pow__(self, p):
        return self.ipow(p)

    # -- elementary functions ------------------------------------------

    @_float_domain
    def exp(self):
        e = math.exp(self.value)
        return self._chain(e, e, e, e)

    @_float_domain
    def log(self):
        if self.value <= 0.0:
            raise EvalDomain("log of a non-positive value")
        return self._compose(math.log, lambda v: 1.0 / v, lambda v: -1.0 / v**2,
                             lambda v: 2.0 / v**3)

    @_float_domain
    def sqrt(self):
        if self.value <= 0.0:
            raise EvalDomain("sqrt of a non-positive value")
        return self._compose(math.sqrt, lambda v: 0.5 / math.sqrt(v),
                             lambda v: -0.25 / (math.sqrt(v) * v),
                             lambda v: 0.375 / (math.sqrt(v) * v * v))

    @_float_domain
    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(s, c, -s, -c)

    @_float_domain
    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._chain(c, -s, -c, s)

    @_float_domain
    def tanh(self):
        t = math.tanh(self.value)
        d = 1.0 - t * t
        return self._chain(t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0))

    # -- extraction ----------------------------------------------------

    def dvar(self, i: int) -> "Jet":
        """Jet of the partial derivative with respect to variable ``i``.

        Drops one order: the output order is ``self.order - 1``.
        """
        if self.order < 1:
            raise ContractViolation("cannot differentiate an order-0 jet")
        g = self.hess[i].copy() if self.order >= 2 else None
        h = self.third[i].copy() if self.order >= 3 else None
        return Jet(self.dim, self.order - 1, self.grad[i], g, h, None)

    def partial(self, *idx) -> float:
        """Raw partial derivative for up to three indices."""
        k = len(idx)
        if k > self.order:
            raise ContractViolation(f"order-{self.order} jet has no order-{k} coefficients")
        if k == 0:
            return self.value
        if k == 1:
            return float(self.grad[idx[0]])
        if k == 2:
            return float(self.hess[idx[0], idx[1]])
        if k == 3:
            return float(self.third[idx[0], idx[1], idx[2]])
        raise ContractViolation("at most three derivative indices are supported")

    def embed(self, dim: int, offset: int = 0) -> "Jet":
        """Re-express this jet on a larger chart whose coordinates contain
        ours as a contiguous block starting at ``offset``."""
        n = self.dim
        out = Jet.constant(self.value, dim, self.order)
        if self.order >= 1:
            out.grad[offset : offset + n] = self.grad
        if self.order >= 2:
            out.hess[offset : offset + n, offset : offset + n] = self.hess
        if self.order >= 3:
            out.third[offset : offset + n, offset : offset + n, offset : offset + n] = self.third
        return out

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, value={self.value!r})"
