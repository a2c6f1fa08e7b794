"""Minimal scalar expression language over chart coordinates.

Grammar (EBNF, also reproduced in the README):

    expr     = term { ("+" | "-") term } ;
    term     = factor { ("*" | "/") factor } ;
    factor   = "-" factor | power ;
    power    = atom [ "^" exponent ] ;
    exponent = [ "-" ] INTEGER ;
    atom     = NUMBER | VARIABLE | FUNCTION "(" expr ")" | "(" expr ")" ;

Variables are ``x1..xn`` (1-indexed); on tangent-bundle charts of dimension
2n the fibre coordinates ``u1..un`` are also accepted and map to slots
n+1..2n.  Functions: exp, log, sin, cos, sqrt, tanh.  ``+ - * /`` are
left-associative with the usual precedence; ``^`` takes an integer literal
exponent and binds tighter than unary minus.

An AST is compiled once into a closure that gives values and partials up
to order 3 at a whole stack of points (:func:`compile_batched`); this is
how every field evaluates.  :func:`eval_jet` evaluates it as a jet at one
point (orders 0..3) and is the reference the compiled rows agree with.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, EvalDomain, ExprSyntaxError
from .jets import Jet

FUNCTIONS = ("cos", "exp", "log", "sin", "sqrt", "tanh")

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


# -- AST --------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    index: int  # 0-based slot on the chart


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * /
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


@dataclass(frozen=True)
class _Token:
    kind: str  # number | ident | op | end
    text: str
    offset: int


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, dim, bundle):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim
        self.bundle = bundle

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text):
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Bin(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Bin(op, node, self.factor())
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self):
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "number" or any(c in tok.text for c in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", tok.offset)
        self.advance()
        return sign * int(tok.text)

    def atom(self):
        tok = self.advance()
        if tok.kind == "number":
            return Const(float(tok.text))
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "ident":
            if tok.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            return self.variable(tok)
        raise ExprSyntaxError(f"unexpected {tok.text or 'end of input'!r}", tok.offset)

    def variable(self, tok):
        m = re.fullmatch(r"([xu])([1-9]\d*)", tok.text)
        if m is None:
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.offset)
        kind, num = m.group(1), int(m.group(2))
        if kind == "u":
            if not self.bundle:
                raise ExprSyntaxError(
                    "fibre variables u1..un are only valid on bundle charts", tok.offset
                )
            half = self.dim // 2
            if num > half:
                raise ExprSyntaxError(
                    f"variable u{num} out of range for bundle dimension {self.dim}", tok.offset
                )
            return Var(tok.text, half + num - 1)
        n_base = self.dim // 2 if self.bundle else self.dim
        if num > n_base:
            raise ExprSyntaxError(
                f"variable x{num} out of range for dimension {n_base}", tok.offset
            )
        return Var(tok.text, num - 1)


def parse(text: str, dim: int, bundle: bool = False):
    """Parse ``text`` into an AST over an n-dimensional chart."""
    if bundle and dim % 2:
        raise ContractViolation("bundle charts have even dimension")
    return _Parser(_tokenize(text), dim, bundle).parse()


# -- printing ---------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "pow": 4, "atom": 5}


def _print(node, parent_prec):
    if isinstance(node, Const):
        text, prec = repr(node.value), _PREC["atom"]
        if node.value < 0:
            prec = _PREC["neg"]
    elif isinstance(node, Var):
        text, prec = node.name, _PREC["atom"]
    elif isinstance(node, Neg):
        text, prec = "-" + _print(node.arg, _PREC["neg"]), _PREC["neg"]
    elif isinstance(node, Pow):
        text = _print(node.base, _PREC["pow"] + 1) + "^" + str(node.exponent)
        prec = _PREC["pow"]
    elif isinstance(node, Call):
        text, prec = f"{node.func}({_print(node.arg, 0)})", _PREC["atom"]
    elif isinstance(node, Bin):
        prec = _PREC[node.op]
        left = _print(node.left, prec)
        # left-associative: right operand needs strictly higher precedence
        right = _print(node.right, prec + 1)
        text = f"{left}{node.op}{right}"
    else:
        raise ContractViolation(f"not an expression node: {node!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def to_text(node) -> str:
    """Render an AST to text that reparses to an equal AST."""
    return _print(node, 0)


# -- evaluation -------------------------------------------------------


def eval_jet(node, point, order: int) -> Jet:
    """Evaluate an AST as a jet at ``point`` (orders 0..3)."""
    point = tuple(float(x) for x in point)
    if not 0 <= order <= 3:
        raise ContractViolation(f"jet order must be in 0..3, got {order}")

    def ev(n):
        if isinstance(n, Const):
            return Jet.constant(n.value, len(point), order)
        if isinstance(n, Var):
            if n.index >= len(point):
                raise ContractViolation(
                    f"variable {n.name} needs dimension {n.index + 1}, point has {len(point)}"
                )
            if order == 0:
                return Jet.constant(point[n.index], len(point), 0)
            return Jet.seed(point, n.index, order)
        if isinstance(n, Neg):
            return -ev(n.arg)
        if isinstance(n, Pow):
            return ev(n.base).ipow(n.exponent)
        if isinstance(n, Call):
            return getattr(ev(n.arg), n.func)()
        if isinstance(n, Bin):
            a, b = ev(n.left), ev(n.right)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            return a / b
        raise ContractViolation(f"not an expression node: {n!r}")

    try:
        return ev(node)
    except EvalDomain as exc:
        if exc.point is None:
            raise EvalDomain(str(exc), point) from None
        raise


# -- batched evaluation -------------------------------------------------
#
# Compilation turns expressions into a straight-line program with one
# instruction per distinct subexpression.  An instruction maps points
# (N, d) to the parts (value, grad, hess, third): value is (N,), or a
# scalar for constant subexpressions, grad is (N, d), hess (N, d, d) and
# third (N, d, d, d), each None when identically zero or beyond the
# order.  Each instruction follows the Jet method it mirrors (division is
# multiplication by the reciprocal, subtraction adds the negation, integer
# powers square repeatedly, float powers and elementary functions go
# through Python floats and the math module, and products and chain rules
# add their terms in Jet's order), so a row agrees with eval_jet at that
# point to the last bit.  Errors follow Jet's too: its domain errors
# (division by zero, log or sqrt of a non-positive value, exp or power
# overflow, sin or cos of an infinity) are raised at the first point where
# they occur, and other non-finite values (an overflowing product, say)
# propagate as they do through Jet arithmetic.

MAX_BATCH_ORDER = 3


def compile_batched(nodes):
    """Compile ASTs into ``fn(points, order=1)``.

    ``points`` is an (N, d) array.  The result is the tuple of the first
    order + 1 parts of the jets of the E expressions at every point:
    ``values`` (N, E), then ``grads`` (N, d, E) from order 1, ``hess``
    (N, d, d, E) from order 2 and ``third`` (N, d, d, d, E) at order 3.
    A subexpression shared between or within the expressions is
    evaluated once per call.  A domain error raises :class:`EvalDomain`
    carrying the first point where it occurs.
    """
    program, slots = [], {}  # instructions (fn, argument slots, constants)
    dim_needed = 0

    def emit(fn, args=(), consts=(), key=None):
        key = (fn, args, consts if key is None else key)
        if key not in slots:
            slots[key] = len(program)
            program.append((fn, args, consts))
        return slots[key]

    def walk(n):
        nonlocal dim_needed
        if isinstance(n, Const):
            return emit(_b_const, consts=(np.float64(n.value),), key=float(n.value).hex())
        if isinstance(n, Var):
            dim_needed = max(dim_needed, n.index + 1)
            return emit(_b_var, consts=(n.index,))
        if isinstance(n, Neg):
            return emit(_b_neg, (walk(n.arg),))
        if isinstance(n, Pow):
            base, p = walk(n.base), n.exponent
            if p < 0:
                base, p = emit(_b_reciprocal, (base,)), -p
            return emit(_b_ipow, (base,), (p,))
        if isinstance(n, Call):
            return emit(_b_call, (walk(n.arg),), (n.func,))
        if isinstance(n, Bin):
            a, b = walk(n.left), walk(n.right)
            if n.op == "-":
                b = emit(_b_neg, (b,))
            elif n.op == "/":
                b = emit(_b_reciprocal, (b,))
            return emit(_b_add if n.op in "+-" else _b_mul, (a, b))
        raise ContractViolation(f"not an expression node: {n!r}")

    outputs = [walk(n) for n in nodes]

    def evaluate(points, order=1):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] < dim_needed:
            raise ContractViolation(
                f"expressions need points of dimension {dim_needed}, got shape {points.shape}")
        if not 0 <= order <= MAX_BATCH_ORDER:
            raise ContractViolation(
                f"batched order must be in 0..{MAX_BATCH_ORDER}, got {order}")
        regs = []
        with np.errstate(all="ignore"):
            for fn, args, consts in program:
                regs.append(fn(points, order, *[regs[a] for a in args], *consts))
        npts, dim = points.shape
        out = tuple(np.zeros((npts,) + (dim,) * k + (len(outputs),)) for k in range(order + 1))
        for e, slot in enumerate(outputs):
            for part, value in zip(out, regs[slot]):
                if value is not None:
                    part[..., e] = value
        return out

    return evaluate


def _rows(value) -> bool:
    """Whether an instruction value has one row per point (else a scalar)."""
    return isinstance(value, np.ndarray)


def _domain(bad, points, message):
    """Raise EvalDomain at the first point flagged in ``bad`` (per row, or
    one flag for a scalar)."""
    if len(points) and bad.any():
        raise EvalDomain(message, points[int(np.argmax(bad)) if _rows(bad) else 0])


def _scale(c, part):
    """c times a derivative part, c a scalar or one value per row."""
    if part is None:
        return None
    return (c.reshape(c.shape + (1,) * (part.ndim - 1)) if _rows(c) else c) * part


def _plus(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return p1 + p2


def _outer(g1, g2):
    if g1 is None or g2 is None:
        return None
    return g1[:, :, None] * g2[:, None, :]


def _sym3(h, g):
    """h[i, j] g[k] summed over the three placements of k, per row, as
    Jet's ``_sym3``."""
    if h is None or g is None:
        return None
    return (h[:, :, :, None] * g[:, None, None, :] + h[:, :, None, :] * g[:, None, :, None]
            + h[:, None, :, :] * g[:, :, None, None])


def _chain(order, a, c0, c1, c2, c3):
    """Compose with a scalar function of value c0 and derivatives c1..c3;
    a coefficient beyond the order is not read (pass None)."""
    _, grad, hess, third = a
    if order < 1:
        return c0, None, None, None
    if order < 2:
        return c0, _scale(c1, grad), None, None
    hess_out = _plus(_scale(c1, hess), _scale(c2, _outer(grad, grad)))
    if order < 3:
        return c0, _scale(c1, grad), hess_out, None
    cube = None if grad is None else (
        _scale(c3, grad)[:, :, None, None] * grad[:, None, :, None] * grad[:, None, None, :])
    third_out = _plus(_plus(_scale(c1, third), _scale(c2, _sym3(hess, grad))), cube)
    return c0, _scale(c1, grad), hess_out, third_out


def _b_const(points, order, value):
    return value, None, None, None


def _b_var(points, order, index):
    if order < 1:
        return points[:, index], None, None, None
    grad = np.zeros(points.shape)
    grad[:, index] = 1.0
    return points[:, index], grad, None, None


def _b_add(points, order, a, b):
    return tuple(_plus(x, y) for x, y in zip(a, b))


def _b_neg(points, order, a):
    return tuple(None if x is None else -x for x in a)


def _b_mul(points, order, a, b):
    (av, ag, ah, at), (bv, bg, bh, bt) = a, b
    grad = _plus(_scale(av, bg), _scale(bv, ag))
    if order < 2:
        return av * bv, grad, None, None
    hess = _plus(_plus(_plus(_scale(av, bh), _scale(bv, ah)), _outer(ag, bg)), _outer(bg, ag))
    if order < 3:
        return av * bv, grad, hess, None
    third = _plus(_plus(_plus(_scale(av, bt), _scale(bv, at)), _sym3(ah, bg)), _sym3(bh, ag))
    return av * bv, grad, hess, third


def _elementwise(fn, value, points):
    """fn of each value as a Python float (math functions and float powers
    round as Jet's do; numpy's vectorised ones can differ in the last
    bit); an overflow or a zero divisor is Jet's domain error, at its
    row's point."""
    rows = value.tolist() if _rows(value) else [float(value)]
    out = []
    for row, v in enumerate(rows):
        try:
            out.append(fn(v))
        except (OverflowError, ZeroDivisionError) as exc:
            point = points[row] if _rows(value) else (points[0] if len(points) else None)
            raise EvalDomain(f"floating-point error ({exc})", point) from None
    return np.array(out).reshape(value.shape) if _rows(value) else np.float64(out[0])


def _b_reciprocal(points, order, a):
    value = a[0]
    _domain(value == 0.0, points, "division by zero")
    c1 = _elementwise(lambda v: -1.0 / v**2, value, points) if order > 0 else None
    c2 = _elementwise(lambda v: 2.0 / v**3, value, points) if order > 1 else None
    c3 = _elementwise(lambda v: -6.0 / v**4, value, points) if order > 2 else None
    return _chain(order, a, 1.0 / value, c1, c2, c3)


def _b_ipow(points, order, a, p):
    result, base = None, a  # None stands for the constant 1
    while p:
        if p & 1:
            result = base if result is None else _b_mul(points, order, result, base)
        base = _b_mul(points, order, base, base) if p > 1 else base
        p >>= 1
    return (np.float64(1.0), None, None, None) if result is None else result


def _b_call(points, order, a, func):
    value = a[0]
    if func in ("log", "sqrt"):
        _domain(value <= 0.0, points, f"{func} of a non-positive value")
    if func == "exp":
        # math.exp raises where the result overflows
        _domain(np.isinf(np.exp(value)) & np.isfinite(value), points,
                "floating-point error (math range error)")
        e = _elementwise(math.exp, value, points)
        return _chain(order, a, e, e, e, e)
    if func == "log":
        c2 = _elementwise(lambda v: -1.0 / v**2, value, points) if order > 1 else None
        c3 = _elementwise(lambda v: 2.0 / v**3, value, points) if order > 2 else None
        return _chain(order, a, _elementwise(math.log, value, points), 1.0 / value, c2, c3)
    if func == "sqrt":
        s = _elementwise(math.sqrt, value, points)
        c2 = (_elementwise(lambda v: -0.25 / (math.sqrt(v) * v), value, points)
              if order > 1 else None)
        c3 = (_elementwise(lambda v: 0.375 / (math.sqrt(v) * v * v), value, points)
              if order > 2 else None)
        return _chain(order, a, s, 0.5 / s, c2, c3)
    if func in ("sin", "cos"):
        # math.sin and math.cos raise on an infinite argument
        _domain(np.isinf(value), points, "floating-point error (math domain error)")
        s, c = _elementwise(math.sin, value, points), _elementwise(math.cos, value, points)
        return _chain(order, a, s, c, -s, -c) if func == "sin" else _chain(order, a, c, -s, -c, s)
    t = _elementwise(math.tanh, value, points)
    d = 1.0 - t * t
    return _chain(order, a, t, d, -2.0 * t * d, d * (6.0 * t * t - 2.0))
