"""Scalar kernel expressions: parsing, evaluation at a point, symbolic derivatives, printing.

Expressions are univariate in ``t``.  Grammar (whitespace insignificant)::

    expr   := factor (binop factor)*
    factor := '-' factor | power
    power  := atom ('^' '-'? digits)?
    atom   := number | 't' | name '(' expr (',' expr)? ')' | '(' expr ')'
    number := digits ('.' digits?)? (('e'|'E') ('+'|'-')? digits)?
    name   := (letter | '_') (letter | digit | '_')*

Digits are 0-9 and letters A-Z and a-z; any other character that is not
whitespace is refused at its offset.  ``_BINARY_OPS`` is the one table of
the binary operators, read by the parser, the printer, ``substitute`` and
``_tape.compile_expr``::

    symbol  level  node  opcode
    +       1      Add   OP_ADD
    -       1      Sub   OP_SUB
    *       2      Mul   OP_MUL
    /       2      Div   OP_DIV

All four are left-associative, and a higher level binds tighter.  ``^``
takes a single integer exponent (possibly negative).  Known functions:
sin, cos, exp, log, abs, sqrt (one argument) and min, max (two arguments).
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
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
_ARITY = {**dict.fromkeys(UNARY_CALLS, 1), **dict.fromkeys(BINARY_CALLS, 2)}


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
        want = _ARITY.get(self.name)
        if want is None:
            raise ValueError(f"unknown function {self.name!r}")
        if len(self.args) != want:
            raise ValueError(f"{self.name} takes {want} argument(s)")


# Binding levels, loosest first: the binary operators', then a unary minus,
# a power and an atom.
_LVL_ADD, _LVL_MUL, _LVL_UNARY, _LVL_ATOM = 1, 2, 3, 5

# The binary operators (see the module docstring), and the same rows by
# symbol and by node.
_BinaryOp = namedtuple("_BinaryOp", "symbol level node opcode")
_BINARY_OPS = (
    _BinaryOp("+", _LVL_ADD, Add, _tape.OP_ADD),
    _BinaryOp("-", _LVL_ADD, Sub, _tape.OP_SUB),
    _BinaryOp("*", _LVL_MUL, Mul, _tape.OP_MUL),
    _BinaryOp("/", _LVL_MUL, Div, _tape.OP_DIV),
)
_BINARY_OF_SYMBOL = {op.symbol: op for op in _BINARY_OPS}
_BINARY_OF_NODE = {op.node: op for op in _BINARY_OPS}


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# One token per match, its kind the name of the group that matched it.  The
# last group takes any other character but whitespace, which no group
# matches, so ``finditer`` skips exactly the characters ``str.isspace`` holds.
_TOKEN = re.compile(
    r"(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)
_OPERAND = frozenset({"number", "t", "ident", "("})


class _Parser:
    """Recursive descent over the tokens of ``src``, the binary operators by their levels.

    A token is (kind, text, offset), and the last is an end token at
    ``len(src)`` with empty text.  A character outside every token is
    refused before parsing begins.  Only an operator token has an
    operator's text, and only a name token the text ``t``, so the parser
    tells them by text alone.  ``binary`` is the one loop over
    ``_BINARY_OPS``, by Pratt's top-down operator precedence (POPL 1973):
    it joins operands while the next operator binds at least as tightly as
    ``level``, each right operand read one level tighter, so ``1 - 2 - 3``
    is ``(1 - 2) - 3``.
    """

    def __init__(self, src: str):
        self.tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(src)]
        for kind, text, pos in self.tokens:
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {text!r}", pos, _OPERAND)
        self.tokens.append(("end", "", len(src)))
        self.i = 0

    def next(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def accept(self, text: str) -> bool:
        """Whether the next token's text is ``text``; the token is consumed if so."""
        found = self.tokens[self.i][1] == text
        self.i += found
        return found

    def expect(self, text: str) -> None:
        if not self.accept(text):
            _, got, pos = self.tokens[self.i]
            raise ExprSyntaxError(f"got {got or 'end of input'!r}", pos, {text})

    def parse(self) -> Expr:
        e = self.binary()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", pos, {*_BINARY_OF_SYMBOL, "^", "end"})
        return e

    def binary(self, level: int = _LVL_ADD) -> Expr:
        e = self.factor()
        while (op := _BINARY_OF_SYMBOL.get(self.tokens[self.i][1])) is not None and op.level >= level:
            self.i += 1
            e = op.node(e, self.binary(op.level + 1))
        return e

    def factor(self) -> Expr:
        return Neg(self.factor()) if self.accept("-") else self.power()

    def power(self) -> Expr:
        base = self.atom()
        if not self.accept("^"):
            return base
        sign = -1 if self.accept("-") else 1
        _, text, pos = self.next()
        if not text.isdigit():  # only a number token without '.' or an exponent is all digits
            raise ExprSyntaxError(f"got {text or 'end of input'!r}", pos, {"integer"})
        return Pow(base, sign * int(text))

    def atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "number":
            return Const(float(text))
        if text == "t":
            return Var()
        if text in KNOWN_CALLS:
            self.expect("(")
            args = [self.binary()]
            if self.accept(","):
                args.append(self.binary())
            self.expect(")")
            try:
                return Call(text, tuple(args))
            except ValueError as err:  # the arity rule is Call's
                raise ExprSyntaxError(str(err), pos, {f"{_ARITY[text]} argument(s)"}) from None
        if kind == "ident":
            raise ExprSyntaxError(f"unknown name {text!r}", pos, {"t", *KNOWN_CALLS})
        if text == "(":
            e = self.binary()
            self.expect(")")
            return e
        raise ExprSyntaxError(f"got {text or 'end of input'!r}", pos, _OPERAND)


def parse(src: str) -> Expr:
    """Parse ``src`` into an AST; raises :class:`ExprSyntaxError` otherwise."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0, _OPERAND)
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

def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


# Each node's binding level in print.  A negative constant (never parsed)
# prints with a leading minus, at unary level.
_LEVELS = {Const: _LVL_ATOM, Var: _LVL_ATOM, Call: _LVL_ATOM, Neg: _LVL_UNARY, Pow: _LVL_UNARY + 1}
_LEVELS.update((op.node, op.level) for op in _BINARY_OPS)


def _wrap(e: Expr, need: int) -> str:
    s = print_expr(e)
    level = _LVL_UNARY if isinstance(e, Const) and e.value < 0 else _LEVELS[type(e)]
    return f"({s})" if level < need else s


def print_expr(e: Expr) -> str:
    """Canonical text form; ``parse(print_expr(e))`` is structurally ``e``.

    The one exception is negative constants (never produced by the parser):
    they print with a leading minus and re-parse as a negation node.
    """
    op = _BINARY_OF_NODE.get(type(e))
    if op is not None:  # the right operand binds one level tighter: left-associative
        return f"{_wrap(e.lhs, op.level)} {op.symbol} {_wrap(e.rhs, op.level + 1)}"
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LVL_UNARY)
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
    if type(e) in _BINARY_OF_NODE:
        return type(e)(substitute(e.lhs, replacement), substitute(e.rhs, replacement))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, replacement), e.exponent)
    if isinstance(e, Call):
        return Call(e.name, tuple(substitute(a, replacement) for a in e.args))
    raise TypeError(f"not an expression node: {e!r}")
