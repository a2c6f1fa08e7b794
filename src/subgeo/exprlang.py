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

import functools
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
# Compilation turns expressions into a program with one instruction per
# distinct subexpression.  The first call at an order turns the program
# into one straight-line Python function for that order (_Source): an
# instruction's parts (value, grad, hess, third) become locals over the
# points (N, d), the value (N,), or a scalar for constant subexpressions,
# grad (N, d), hess (N, d, d) and third (N, d, d, d).  Which parts are
# identically zero or beyond the order, and which values have one row per
# point, is known when the source is written, so the function tests
# neither and writes each output straight into its place.  Programs of
# one shape share their source, whatever their constants, and a source
# is compiled once per process (_code).  Each instruction follows the Jet
# method it mirrors (division is multiplication by the reciprocal,
# subtraction adds the negation, integer powers square repeatedly, float
# powers and elementary functions go through Python floats and the math
# module, and products and chain rules add their terms in Jet's order),
# so a row agrees with eval_jet at that point to the last bit.  Errors
# follow Jet's too: its domain errors (division by zero, log or sqrt of a
# non-positive value, exp or power overflow, sin or cos of an infinity)
# are raised at the first point where they occur, and other non-finite
# values (an overflowing product, say) propagate as they do through Jet
# arithmetic.  An RK4 stage runs one such function, the order-1 metric
# program; scripts/stage_cost.py times the stage.

MAX_BATCH_ORDER = 3


def compile_batched(nodes, shape=None):
    """Compile ASTs into ``fn(points, order)``.

    ``points`` is an (N, d) array.  The result is the tuple of the first
    order + 1 parts of the jets of the E expressions at every point:
    ``values`` (N, E), then ``grads`` (N, d, E) from order 1, ``hess``
    (N, d, d, E) from order 2 and ``third`` (N, d, d, d, E) at order 3,
    each E axis laid out as ``shape`` if given.  A subexpression shared
    between or within the expressions is evaluated once per call.  A domain
    error raises :class:`EvalDomain` at the first point where it occurs.
    ``fn.at(order)`` is fn at one order, unchecked and without errstate.
    """
    program, slots = [], {}  # instructions (op, argument slots, constants)
    dim_needed = 0

    def emit(op, args=(), consts=(), key=None):
        key = (op, args, consts if key is None else key)
        if key not in slots:
            slots[key] = len(program)
            program.append((op, args, consts))
        return slots[key]

    def walk(n):
        nonlocal dim_needed
        if isinstance(n, Const):
            return emit("const", consts=(np.float64(n.value),), key=float(n.value).hex())
        if isinstance(n, Var):
            dim_needed = max(dim_needed, n.index + 1)
            return emit("var", consts=(n.index,))
        if isinstance(n, Neg):
            return emit("neg", (walk(n.arg),))
        if isinstance(n, Pow):
            base, p = walk(n.base), n.exponent
            if p < 0:
                base, p = emit("reciprocal", (base,)), -p
            return emit("ipow", (base,), (p,))
        if isinstance(n, Call):
            return emit("call", (walk(n.arg),), (n.func,))
        if isinstance(n, Bin):
            a, b = walk(n.left), walk(n.right)
            if n.op == "-":
                b = emit("neg", (b,))
            elif n.op == "/":
                b = emit("reciprocal", (b,))
            return emit("add" if n.op in "+-" else "mul", (a, b))
        raise ContractViolation(f"not an expression node: {n!r}")

    outputs = [walk(n) for n in nodes]
    by_order = [None] * (MAX_BATCH_ORDER + 1)  # the function of each order, on first use

    def at(order):
        if by_order[order] is None:
            by_order[order] = _Source(order).function(program, outputs, shape)
        return by_order[order]

    def evaluate(points, order):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] < dim_needed:
            raise ContractViolation(
                f"expressions need points of dimension {dim_needed}, got shape {points.shape}")
        if not 0 <= order <= MAX_BATCH_ORDER:
            raise ContractViolation(
                f"batched order must be in 0..{MAX_BATCH_ORDER}, got {order}")
        with np.errstate(all="ignore"):
            return at(order)(points)

    evaluate.at = at
    return evaluate


@functools.lru_cache(maxsize=1024)
def _code(source: str):
    """The code object of a program's source (see :class:`_Source`)."""
    return compile(source, "<compile_batched>", "exec")


class _Source:
    """The source of a program at one order, written instruction by
    instruction.  A register is (parts, rows): the names of the locals
    holding value, grad, hess and third, None for a part that is zero or
    beyond the order, and whether the value has one row per point."""

    def __init__(self, order: int):
        self.order = order
        self.lines = []
        self.constants = {}  # name -> np.float64, bound when the code runs
        self.zeros = set()   # names of constants equal to +0.0
        self.known = {}      # expression -> the local holding it

    def function(self, program, outputs, shape):
        """The compiled ``fn(points)`` of ``program``, giving the parts
        up to the order of the expressions at the ``outputs`` slots."""
        regs = []
        for op, args, consts in program:
            regs.append(getattr(self, "op_" + op)(*[regs[a] for a in args], *consts))
        shape = (len(outputs),) if shape is None else tuple(shape)  # row-major over outputs
        for k in range(self.order + 1):
            self.lines.append(f"o{k} = np.zeros((len(points),{' dim,' * k} {str(shape)[1:-1]}))")
        for e, slot in enumerate(outputs):
            at = ", ".join(map(str, np.unravel_index(e, shape)))
            for k, part in enumerate(regs[slot][0][:self.order + 1]):
                if part is not None and part not in self.zeros:
                    self.lines.append(f"o{k}[..., {at}] = {part}")
        body = ["dim = points.shape[1]"] + self.lines
        body.append(f"return ({''.join(f'o{k}, ' for k in range(self.order + 1))})")
        source = "def program(points):\n" + "".join(f"    {line}\n" for line in body)
        namespace = dict(_NAMESPACE, **self.constants)
        exec(_code(source), namespace)
        return namespace["program"]

    def let(self, expr):
        """A local holding ``expr``, arithmetic on locals that are never
        written again, so an expression already written is reused."""
        if expr not in self.known:
            self.known[expr] = self.fresh(expr)
        return self.known[expr]

    def fresh(self, expr):
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def elementwise(self, fn, value):
        return self.let(f"_elementwise({fn}, {value}, points)")

    def domain(self, bad, message):
        self.lines.append(f"_domain({bad}, points, {message!r})")

    # derivative algebra on part names; c is a value name, rows its kind

    def scale(self, c, rows, part, k):
        """c times the part ``part`` of derivative rank k."""
        if part is None:
            return None
        return self.let(f"{c}[:{', None' * k}] * {part}" if rows else f"{c} * {part}")

    def plus(self, p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        return self.let(f"{p1} + {p2}")

    def outer(self, g1, g2):
        if g1 is None or g2 is None:
            return None
        return self.let(f"{g1}[:, :, None] * {g2}[:, None, :]")

    def sym3(self, h, g):
        """h[i, j] g[k] summed over the three placements of k, per row, as
        Jet's ``_sym3``."""
        if h is None or g is None:
            return None
        return self.let(f"{h}[:, :, :, None] * {g}[:, None, None, :]"
                        f" + {h}[:, :, None, :] * {g}[:, None, :, None]"
                        f" + {h}[:, None, :, :] * {g}[:, :, None, None]")

    def chain(self, a, c0, c1, c2, c3):
        """Compose with a scalar function of value c0 and derivatives
        c1..c3, of a's kind; a coefficient beyond the order is None."""
        (_, grad, hess, third), rows = a
        if self.order < 1:
            return (c0, None, None, None), rows
        grad_out = self.scale(c1, rows, grad, 1)
        if self.order < 2:
            return (c0, grad_out, None, None), rows
        hess_out = self.plus(self.scale(c1, rows, hess, 2),
                             self.scale(c2, rows, self.outer(grad, grad), 2))
        if self.order < 3:
            return (c0, grad_out, hess_out, None), rows
        cube = None if grad is None else self.let(
            f"{self.scale(c3, rows, grad, 1)}[:, :, None, None]"
            f" * {grad}[:, None, :, None] * {grad}[:, None, None, :]")
        third_out = self.plus(self.plus(self.scale(c1, rows, third, 3),
                                        self.scale(c2, rows, self.sym3(hess, grad), 3)), cube)
        return (c0, grad_out, hess_out, third_out), rows

    # one method per instruction

    def op_const(self, value):
        name = f"k{len(self.constants)}"
        self.constants[name] = value
        if value == 0.0 and math.copysign(1.0, value) > 0.0:
            self.zeros.add(name)
        return (name, None, None, None), False

    def op_var(self, index):
        value = self.let(f"points[:, {index}]")
        if self.order < 1:
            return (value, None, None, None), True
        grad = self.fresh("np.zeros(points.shape)")  # written below, so not shared
        self.lines.append(f"{grad}[:, {index}] = 1.0")
        return (value, grad, None, None), True

    def op_add(self, a, b):
        return tuple(self.plus(x, y) for x, y in zip(a[0], b[0])), a[1] or b[1]

    def op_neg(self, a):
        return tuple(None if x is None else self.let(f"-{x}") for x in a[0]), a[1]

    def op_mul(self, a, b):
        ((av, ag, ah, at), ar), ((bv, bg, bh, bt), br) = a, b
        value = self.let(f"{av} * {bv}")
        grad = self.plus(self.scale(av, ar, bg, 1), self.scale(bv, br, ag, 1))
        if self.order < 2:
            return (value, grad, None, None), ar or br
        hess = self.plus(self.plus(self.plus(self.scale(av, ar, bh, 2), self.scale(bv, br, ah, 2)),
                                   self.outer(ag, bg)), self.outer(bg, ag))
        if self.order < 3:
            return (value, grad, hess, None), ar or br
        third = self.plus(self.plus(self.plus(self.scale(av, ar, bt, 3), self.scale(bv, br, at, 3)),
                                    self.sym3(ah, bg)), self.sym3(bh, ag))
        return (value, grad, hess, third), ar or br

    def op_reciprocal(self, a):
        value = a[0][0]
        self.domain(f"{value} == 0.0", "division by zero")
        order = self.order
        c1 = self.elementwise("_inverse_square", value) if order > 0 else None
        c2 = self.elementwise("_twice_inverse_cube", value) if order > 1 else None
        c3 = self.elementwise("_inverse_fourth", value) if order > 2 else None
        return self.chain(a, self.let(f"1.0 / {value}"), c1, c2, c3)

    def op_ipow(self, a, p):
        result, base = None, a  # None stands for the constant 1
        while p:
            if p & 1:
                result = base if result is None else self.op_mul(result, base)
            base = self.op_mul(base, base) if p > 1 else base
            p >>= 1
        return self.op_const(np.float64(1.0)) if result is None else result

    def op_call(self, a, func):
        value, order = a[0][0], self.order
        if func in ("log", "sqrt"):
            self.domain(f"{value} <= 0.0", f"{func} of a non-positive value")
        if func == "exp":
            # math.exp raises where the result overflows
            self.domain(f"np.isinf(np.exp({value})) & np.isfinite({value})",
                        "floating-point error (math range error)")
            e = self.elementwise("math.exp", value)
            return self.chain(a, e, e, e, e)
        if func == "log":
            c2 = self.elementwise("_inverse_square", value) if order > 1 else None
            c3 = self.elementwise("_twice_inverse_cube", value) if order > 2 else None
            return self.chain(a, self.elementwise("math.log", value),
                              self.let(f"1.0 / {value}") if order > 0 else None, c2, c3)
        if func == "sqrt":
            s = self.elementwise("math.sqrt", value)
            c2 = self.elementwise("_sqrt_second", value) if order > 1 else None
            c3 = self.elementwise("_sqrt_third", value) if order > 2 else None
            return self.chain(a, s, self.let(f"0.5 / {s}") if order > 0 else None, c2, c3)
        if func in ("sin", "cos"):
            # math.sin and math.cos raise on an infinite argument
            self.domain(f"np.isinf({value})", "floating-point error (math domain error)")
            s, c = self.elementwise("math.sin", value), self.elementwise("math.cos", value)
            neg = lambda x, k: self.let(f"-{x}") if order > k else None
            if func == "sin":
                return self.chain(a, s, c, neg(s, 1), neg(c, 2))
            return self.chain(a, c, neg(s, 0), neg(c, 1), s)
        t = self.elementwise("math.tanh", value)
        d = self.let(f"1.0 - {t} * {t}") if order > 0 else None
        c2 = self.let(f"-2.0 * {t} * {d}") if order > 1 else None
        c3 = self.let(f"{d} * (6.0 * {t} * {t} - 2.0)") if order > 2 else None
        return self.chain(a, t, d, c2, c3)


def _rows(value) -> bool:
    """Whether an instruction value has one row per point (else a scalar)."""
    return isinstance(value, np.ndarray)


def _domain(bad, points, message):
    """Raise EvalDomain at the first point flagged in ``bad`` (per row, or
    one flag for a scalar)."""
    if len(points) and np.count_nonzero(bad):
        raise EvalDomain(message, points[int(np.argmax(bad)) if _rows(bad) else 0])


def _elementwise(fn, value, points):
    """fn of each value as a Python float (math functions and float powers
    round as Jet's do; numpy's vectorised ones can differ in the last
    bit); an overflow or a zero divisor is Jet's domain error, at the
    point of the first row that raises, which is looked for only then."""
    rows = value.tolist() if _rows(value) else [float(value)]
    try:
        out = list(map(fn, rows))
    except (OverflowError, ZeroDivisionError) as exc:
        for row, v in enumerate(rows):  # the first row that raises
            try:
                fn(v)
            except (OverflowError, ZeroDivisionError):
                break
        point = points[row] if _rows(value) else (points[0] if len(points) else None)
        raise EvalDomain(f"floating-point error ({exc})", point) from None
    return np.array(out).reshape(value.shape) if _rows(value) else np.float64(out[0])


# Chain coefficients computed per value by _elementwise: of 1/v (-1/v^2,
# 2/v^3, -6/v^4; log's second and third are the first two) and of sqrt.


def _inverse_square(v):
    return -1.0 / v**2


def _twice_inverse_cube(v):
    return 2.0 / v**3


def _inverse_fourth(v):
    return -6.0 / v**4


def _sqrt_second(v):
    return -0.25 / (math.sqrt(v) * v)


def _sqrt_third(v):
    return 0.375 / (math.sqrt(v) * v * v)


# The globals of every generated program, besides its constants.
_NAMESPACE = {"np": np, "math": math, "_domain": _domain, "_elementwise": _elementwise,
              "_inverse_square": _inverse_square, "_twice_inverse_cube": _twice_inverse_cube,
              "_inverse_fourth": _inverse_fourth, "_sqrt_second": _sqrt_second,
              "_sqrt_third": _sqrt_third}
