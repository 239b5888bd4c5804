"""Scalar kernel expressions: parsing, evaluation at a point, symbolic derivatives, printing.

Expressions are univariate in ``t``.  Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' integer)?
    atom   := number | 't' | ident '(' expr (',' expr)? ')' | '(' expr ')'

``+ - * /`` are left-associative, ``^`` takes a single integer exponent
(possibly negative).  Known functions: sin, cos, exp, log, abs, sqrt
(one argument) and min, max (two arguments).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from . import _tape

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "ExprSyntaxError",
    "EvalDomainError",
    "NonDifferentiableError",
    "parse",
    "eval_expr",
    "differentiate",
    "print_expr",
    "substitute",
]

UNARY_CALLS = ("sin", "cos", "exp", "log", "abs", "sqrt")
BINARY_CALLS = ("min", "max")
KNOWN_CALLS = UNARY_CALLS + BINARY_CALLS


class ExprSyntaxError(ValueError):
    """Raised on input outside the grammar; carries position and expectations."""

    def __init__(self, message: str, pos: int, expected: set[str]):
        self.pos = pos
        self.expected = set(expected)
        hint = ", ".join(sorted(self.expected))
        super().__init__(f"{message} at offset {pos} (expected: {hint})")


class EvalDomainError(ArithmeticError):
    """Raised when a kernel is not finite at a point (1/0, log(-1), ...); the message names it."""


class NonDifferentiableError(ValueError):
    """Raised when differentiating an expression with abs/min/max nodes."""


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Const(Expr):
    value: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite constant {self.value!r}")


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Div(Expr):
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr = None  # type: ignore[assignment]
    exponent: int = 1

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ValueError("Pow exponent must be an integer literal")


@dataclass(frozen=True)
class Call(Expr):
    name: str = ""
    args: tuple[Expr, ...] = ()

    def __post_init__(self):
        if self.name not in KNOWN_CALLS:
            raise ValueError(f"unknown function {self.name!r}")
        want = 2 if self.name in BINARY_CALLS else 1
        if len(self.args) != want:
            raise ValueError(f"{self.name} takes {want} argument(s)")


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_T_NUM, _T_IDENT, _T_OP, _T_END = "number", "ident", "op", "end"


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append((_T_NUM, src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append((_T_IDENT, src[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            tokens.append((_T_OP, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i, {"number", "t", "ident", "("})
    tokens.append((_T_END, "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != _T_OP or text != op:
            raise ExprSyntaxError(f"got {text or 'end of input'!r}", pos, {op})
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != _T_END:
            raise ExprSyntaxError(f"trailing input {text!r}", pos, {"+", "-", "*", "/", "^", "end"})
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == _T_OP and text in "+-":
                self.advance()
                rhs = self.term()
                e = (Add if text == "+" else Sub)(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == _T_OP and text in "*/":
                self.advance()
                rhs = self.factor()
                e = (Mul if text == "*" else Div)(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        if kind == _T_OP and text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == _T_OP and text == "^":
            self.advance()
            sign = 1
            kind, text, pos = self.peek()
            if kind == _T_OP and text == "-":
                sign = -1
                self.advance()
                kind, text, pos = self.peek()
            if kind != _T_NUM or any(ch in text for ch in ".eE"):
                raise ExprSyntaxError(f"got {text or 'end of input'!r}", pos, {"integer"})
            self.advance()
            return Pow(base, sign * int(text))
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == _T_NUM:
            self.advance()
            return Const(float(text))
        if kind == _T_IDENT:
            self.advance()
            if text == "t":
                return Var()
            if text in KNOWN_CALLS:
                self.expect_op("(")
                args = [self.expr()]
                k2, t2, p2 = self.peek()
                if k2 == _T_OP and t2 == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                want = 2 if text in BINARY_CALLS else 1
                if len(args) != want:
                    raise ExprSyntaxError(
                        f"{text} takes {want} argument(s)", pos, {f"{want} argument(s)"}
                    )
                return Call(text, tuple(args))
            raise ExprSyntaxError(
                f"unknown name {text!r}", pos, {"t"} | set(KNOWN_CALLS)
            )
        if kind == _T_OP and text == "(":
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(
            f"got {text or 'end of input'!r}", pos, {"number", "t", "ident", "("}
        )


def parse(src: str) -> Expr:
    """Parse ``src`` into an AST; raises :class:`ExprSyntaxError` otherwise."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0, {"number", "t", "ident", "("})
    return _Parser(src).parse()


# --------------------------------------------------------------------------
# Evaluation at a point
# --------------------------------------------------------------------------

def eval_expr(prog: _tape.Program, t: float) -> float:
    """The value of the compiled ``prog`` at a scalar ``t``; inf or NaN where it leaves the domain.

    ``_tape.run`` steps through the program over Python floats with
    ``_FLOAT_OPS``, so a point's value is the one a one-point
    ``_kernels_fallback.eval_many`` computes, bit for bit wherever neither
    takes sin, cos, exp or log (libm and numpy may differ in the last bit).
    It is the only scalar path: ``ScalarKernel.eval`` calls it and raises
    on a value that is not finite.
    """
    return _tape.run(prog, float(t), float, _FLOAT_OPS)


def _ipow(x, e: int, mul=operator.mul, div=operator.truediv):
    """``x`` to the integer power ``e`` by binary exponentiation; ``x`` a float or an array.

    The one ``^`` of both point op tables: ``_FLOAT_OPS`` calls it on a
    float and the numpy table on an array, so scalar and array values agree
    bit for bit.  Exponent 0 gives ``x**0``, which is 1 (ones for an array)
    even where x is not finite.  A negative power is ``div(1.0, x^-e)``; on
    a float, one that is 1/0 raises ZeroDivisionError by default, and
    ``_FLOAT_OPS`` passes a ``div`` that gives numpy's ±inf.  The numpy
    table passes a ``mul`` and a ``div`` that write into an operand it owns
    (see ``_kernels_fallback._Buffers``): ``_ipow`` needs no value it passes
    as ``mul``'s first operand afterwards, unless it is also the second (a
    square, whose base the running product may still hold).  The last
    product takes the base first, at its last use, so the numpy table
    writes the result into it and t^3 takes one buffer; both operands are
    powers of x, so their product is the same bits in either order, NaN
    and signed zeros included.
    """
    if e == 0:
        return x**0
    n = -e if e < 0 else e
    acc = None
    base = x
    while n:
        if n & 1:
            acc = base if acc is None else mul(base, acc) if n == 1 else mul(acc, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return div(1.0, acc) if e < 0 else acc


def _fdiv(x: float, y: float) -> float:
    try:
        return x / y
    except ZeroDivisionError:  # x / ±0 is ±inf, and NaN where x is 0 or NaN
        return x * math.copysign(math.inf, y)


def _fexp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# The float op table: numpy's IEEE results where Python raises.  Python's
# float +, -, * and abs already round and overflow as numpy's do.  _ipow(x, e)
# for e < 0 takes 1.0 / _ipow(x, -e) by _fdiv.  min and max propagate NaN,
# and a tie gives the second operand (its zero's sign), as np.minimum does.
_FLOAT_OPS = {
    _tape.OP_NEG: operator.neg,
    _tape.OP_ADD: operator.add,
    _tape.OP_SUB: operator.sub,
    _tape.OP_MUL: operator.mul,
    _tape.OP_DIV: _fdiv,
    _tape.OP_POW: lambda x, e: _ipow(x, e, div=_fdiv),
    _tape.OP_SIN: lambda x: math.sin(x) if math.isfinite(x) else math.nan,
    _tape.OP_COS: lambda x: math.cos(x) if math.isfinite(x) else math.nan,
    _tape.OP_EXP: _fexp,
    _tape.OP_LOG: lambda x: math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan,
    _tape.OP_ABS: abs,
    _tape.OP_SQRT: lambda x: math.sqrt(x) if x >= 0.0 else math.nan,
    _tape.OP_MIN2: lambda x, y: x if x < y or x != x else y,
    _tape.OP_MAX2: lambda x, y: x if x > y or x != x else y,
}


# --------------------------------------------------------------------------
# Symbolic differentiation (smooth fragment only).  The builders below fold
# two constants only where the result is finite: one that overflows is left
# to the evaluators, which name the point where it is met.
# --------------------------------------------------------------------------

def _add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value + b.value):
        return Const(a.value + b.value)
    if isinstance(a, Const) and a.value == 0.0:
        return b
    if isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value - b.value):
        return Const(a.value - b.value)
    if isinstance(b, Const) and b.value == 0.0:
        return a
    if isinstance(a, Const) and a.value == 0.0:
        return _neg(b)
    return Sub(a, b)


def _neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const) and math.isfinite(a.value * b.value):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    if isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and a.value == 0.0:
        return Const(0.0)
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return Div(a, b)


def _pow(a: Expr, e: int) -> Expr:
    if e == 0:
        return Const(1.0)
    if e == 1:
        return a
    return Pow(a, e)


def differentiate(e: Expr) -> Expr:
    """Symbolic d/dt; rejects abs/min/max with :class:`NonDifferentiableError`."""
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Add):
        return _add(differentiate(e.lhs), differentiate(e.rhs))
    if isinstance(e, Sub):
        return _sub(differentiate(e.lhs), differentiate(e.rhs))
    if isinstance(e, Mul):
        return _add(
            _mul(differentiate(e.lhs), e.rhs), _mul(e.lhs, differentiate(e.rhs))
        )
    if isinstance(e, Div):
        num = _sub(
            _mul(differentiate(e.lhs), e.rhs), _mul(e.lhs, differentiate(e.rhs))
        )
        return _div(num, _pow(e.rhs, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        inner = differentiate(e.base)
        return _mul(_mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        if e.name in ("abs", "min", "max"):
            raise NonDifferentiableError(f"{e.name} is not differentiable")
        u = e.args[0]
        du = differentiate(u)
        if e.name == "sin":
            return _mul(Call("cos", (u,)), du)
        if e.name == "cos":
            return _neg(_mul(Call("sin", (u,)), du))
        if e.name == "exp":
            return _mul(Call("exp", (u,)), du)
        if e.name == "log":
            return _div(du, u)
        if e.name == "sqrt":
            return _div(du, _mul(Const(2.0), Call("sqrt", (u,))))
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

_LVL_ADD, _LVL_MUL, _LVL_UNARY, _LVL_ATOM = 1, 2, 3, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Var, Call)):
        return _LVL_ATOM
    if isinstance(e, Const):
        # Negative constants print with a leading minus, i.e. at unary level.
        return _LVL_ATOM if e.value >= 0 else _LVL_UNARY
    if isinstance(e, Neg):
        return _LVL_UNARY
    if isinstance(e, Pow):
        return _LVL_UNARY + 1
    if isinstance(e, (Mul, Div)):
        return _LVL_MUL
    return _LVL_ADD


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _wrap(e: Expr, need: int) -> str:
    s = print_expr(e)
    return f"({s})" if _level(e) < need else s


def print_expr(e: Expr) -> str:
    """Canonical text form; ``parse(print_expr(e))`` is structurally ``e``.

    The one exception is negative constants (never produced by the parser):
    they print with a leading minus and re-parse as a negation node.
    """
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LVL_UNARY)
    if isinstance(e, Add):
        return f"{_wrap(e.lhs, _LVL_ADD)} + {_wrap(e.rhs, _LVL_MUL)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.lhs, _LVL_ADD)} - {_wrap(e.rhs, _LVL_MUL)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.lhs, _LVL_MUL)} * {_wrap(e.rhs, _LVL_UNARY)}"
    if isinstance(e, Div):
        return f"{_wrap(e.lhs, _LVL_MUL)} / {_wrap(e.rhs, _LVL_UNARY)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, _LVL_ATOM)}^{e.exponent}"
    if isinstance(e, Call):
        return f"{e.name}({', '.join(print_expr(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# Structural helpers
# --------------------------------------------------------------------------

def substitute(e: Expr, replacement: Expr) -> Expr:
    """Replace every Var node in ``e`` with ``replacement`` (composition)."""
    if isinstance(e, Var):
        return replacement
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, replacement))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(substitute(e.lhs, replacement), substitute(e.rhs, replacement))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, replacement), e.exponent)
    if isinstance(e, Call):
        return Call(e.name, tuple(substitute(a, replacement) for a in e.args))
    raise TypeError(f"not an expression node: {e!r}")
