"""Scalar kernel expressions: parsing, evaluation at a point, symbolic derivatives, printing.

Expressions are univariate in ``t``.  Grammar (whitespace insignificant)::

    expr   := factor (binop factor)*
    factor := '-' factor | power
    power  := atom ('^' '-'? digits)?
    atom   := number | 't' | name '(' expr (',' expr)? ')' | '(' expr ')'
    number := digits ('.' digits?)? (('e'|'E') ('+'|'-')? digits)?
    name   := (letter | '_') (letter | digit | '_')*

Digits are 0-9 and letters A-Z and a-z; any other character that is not
whitespace is refused at its offset.  ``^`` takes a single integer
exponent (possibly negative).  A number too large for a float is refused
at its offset, and so is the token that opens a level of nesting past
``_MAX_NESTING``, brackets, calls and unary minuses counted together, and
the token that makes a node deeper than ``_MAX_DEPTH`` in the AST, where
each operator of a chain such as ``t+t+t`` is one level.

Two tables decide every node that is not a constant, ``t``, a negation or
a power; the parser, ``Call``, the printer, ``substitute``,
``differentiate`` and ``_tape.compile_expr`` read them.  ``_BINARY_OPS``
holds the binary operators, each derivative a rule of (a, b, a', b')::

    symbol  level  node  opcode  derivative of a op b
    +       1      Add   OP_ADD  a' + b'
    -       1      Sub   OP_SUB  a' - b'
    *       2      Mul   OP_MUL  a' * b + a * b'
    /       2      Div   OP_DIV  (a' * b - a * b') / b^2

All four are left-associative, and a higher level binds tighter.
``_CALLS`` holds the known functions, each derivative a rule of (u, u'),
or none where the function is not differentiable::

    name  arity  opcode   derivative of name(u)
    sin   1      OP_SIN   cos(u) * u'
    cos   1      OP_COS   -(sin(u) * u')
    exp   1      OP_EXP   exp(u) * u'
    log   1      OP_LOG   u' / u
    abs   1      OP_ABS   none
    sqrt  1      OP_SQRT  u' / (2 * sqrt(u))
    min   2      OP_MIN2  none
    max   2      OP_MAX2  none
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
        row = _CALLS.get(self.name)
        if row is None:
            raise ValueError(f"unknown function {self.name!r}")
        if len(self.args) != row.arity:
            raise ValueError(f"{self.name} takes {row.arity} argument(s)")


# Binding levels, loosest first: the binary operators', then a unary minus,
# a power and an atom.
_LVL_ADD, _LVL_MUL, _LVL_UNARY, _LVL_ATOM = 1, 2, 3, 5

# The binary operators and the known functions (see the module docstring),
# and the operators by symbol and by node.  A rule builds its derivative
# from operands whose derivatives are already taken, left to right.
_BinaryOp = namedtuple("_BinaryOp", "symbol level node opcode derivative")
_BINARY_OPS = (
    _BinaryOp("+", _LVL_ADD, Add, _tape.OP_ADD, lambda a, b, da, db: _add(da, db)),
    _BinaryOp("-", _LVL_ADD, Sub, _tape.OP_SUB, lambda a, b, da, db: _sub(da, db)),
    _BinaryOp("*", _LVL_MUL, Mul, _tape.OP_MUL, lambda a, b, da, db: _add(_mul(da, b), _mul(a, db))),
    _BinaryOp("/", _LVL_MUL, Div, _tape.OP_DIV, lambda a, b, da, db: _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, 2))),
)
_BINARY_OF_SYMBOL = {op.symbol: op for op in _BINARY_OPS}
_BINARY_OF_NODE = {op.node: op for op in _BINARY_OPS}

_CallRow = namedtuple("_CallRow", "arity opcode derivative")
_CALLS = {
    "sin": _CallRow(1, _tape.OP_SIN, lambda u, du: _mul(Call("cos", (u,)), du)),
    "cos": _CallRow(1, _tape.OP_COS, lambda u, du: _neg(_mul(Call("sin", (u,)), du))),
    "exp": _CallRow(1, _tape.OP_EXP, lambda u, du: _mul(Call("exp", (u,)), du)),
    "log": _CallRow(1, _tape.OP_LOG, lambda u, du: _div(du, u)),
    "abs": _CallRow(1, _tape.OP_ABS, None),
    "sqrt": _CallRow(1, _tape.OP_SQRT, lambda u, du: _div(du, _mul(Const(2.0), Call("sqrt", (u,))))),
    "min": _CallRow(2, _tape.OP_MIN2, None),
    "max": _CallRow(2, _tape.OP_MAX2, None),
}


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
# The most parentheses, calls and unary minuses an operand may sit inside,
# all counted together: deep enough for any kernel written by hand, and
# shallow enough that parsing, printing, compiling and differentiating twice
# stay well inside Python's default recursion limit.
_MAX_NESTING = 100
# The most nodes above a leaf of the AST (t or a constant): operators, powers,
# calls and negations, each operator of a flat chain one level deeper than
# the next.  Printing, compiling and substituting take about one frame a
# level, and a second derivative grows about six levels for each quotient:
# the worst shape found, a chain of 120 divisions, needs about 730 frames to
# compile its second derivative, as deep as the worst nesting (t^2/( at
# depth 101) needs 611 to parse.
_MAX_DEPTH = 120


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
    is ``(1 - 2) - 3``.  Only ``nested`` recurses into a bracket, a call's
    arguments or a unary minus's operand, and it refuses the token that
    opens level ``_MAX_NESTING + 1``.  Each method returns its node with its
    depth, and ``above`` refuses the token whose node would be deeper than
    ``_MAX_DEPTH``.
    """

    def __init__(self, src: str):
        self.tokens = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(src)]
        for kind, text, pos in self.tokens:
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {text!r}", pos, _OPERAND)
        self.tokens.append(("end", "", len(src)))
        self.i = 0
        self.depth = 0

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

    def nested(self, pos: int, read) -> tuple[Expr, int]:
        """``read()``, one level deeper, the level opened by the token at ``pos``."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING} levels", pos, {f"at most {_MAX_NESTING} levels"})
        e = read()
        self.depth -= 1
        return e

    def above(self, pos: int, depth: int) -> int:
        """The depth of a node made by the token at ``pos`` over operands at most ``depth`` deep."""
        if depth >= _MAX_DEPTH:
            raise ExprSyntaxError(f"expression deeper than {_MAX_DEPTH} levels", pos, {f"at most {_MAX_DEPTH} levels"})
        return depth + 1

    def parse(self) -> Expr:
        e, _ = self.binary()
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", pos, {*_BINARY_OF_SYMBOL, "^", "end"})
        return e

    def binary(self, level: int = _LVL_ADD) -> tuple[Expr, int]:
        lhs = self.factor()
        while (op := _BINARY_OF_SYMBOL.get(self.tokens[self.i][1])) is not None and op.level >= level:
            pos = self.next()[2]
            rhs = self.binary(op.level + 1)
            lhs = op.node(lhs[0], rhs[0]), self.above(pos, max(lhs[1], rhs[1]))
        return lhs

    def factor(self) -> tuple[Expr, int]:
        pos = self.tokens[self.i][2]
        if not self.accept("-"):
            return self.power()
        e, depth = self.nested(pos, self.factor)
        return Neg(e), self.above(pos, depth)

    def power(self) -> tuple[Expr, int]:
        base = self.atom()
        pos = self.tokens[self.i][2]
        if not self.accept("^"):
            return base
        sign = -1 if self.accept("-") else 1
        _, text, at = self.next()
        if not text.isdigit():  # only a number token without '.' or an exponent is all digits
            raise ExprSyntaxError(f"got {text or 'end of input'!r}", at, {"integer"})
        return Pow(base[0], sign * int(text)), self.above(pos, base[1])

    def atom(self) -> tuple[Expr, int]:
        kind, text, pos = self.next()
        if kind == "number":
            if not math.isfinite(value := float(text)):
                raise ExprSyntaxError(f"number {text!r} overflows a float", pos, {"finite number"})
            return Const(value), 0
        if text == "t":
            return Var(), 0
        if text in _CALLS:
            self.expect("(")
            parts = [self.nested(pos, self.binary)]
            if self.accept(","):
                parts.append(self.nested(pos, self.binary))
            self.expect(")")
            args, depths = zip(*parts)
            try:
                call = Call(text, args)
            except ValueError as err:  # the arity rule is Call's
                raise ExprSyntaxError(str(err), pos, {f"{_CALLS[text].arity} argument(s)"}) from None
            return call, self.above(pos, max(depths))
        if kind == "ident":
            raise ExprSyntaxError(f"unknown name {text!r}", pos, {"t", *_CALLS})
        if text == "(":
            e = self.nested(pos, self.binary)
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
    """Symbolic d/dt by the rules of ``_BINARY_OPS`` and ``_CALLS``, operands left to right.

    A call without a rule (abs, min, max) raises
    :class:`NonDifferentiableError` before its argument is differentiated.
    """
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    op = _BINARY_OF_NODE.get(type(e))
    if op is not None:
        return op.derivative(e.lhs, e.rhs, differentiate(e.lhs), differentiate(e.rhs))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Const(0.0)
        inner = differentiate(e.base)
        return _mul(_mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        rule = _CALLS[e.name].derivative
        if rule is None:
            raise NonDifferentiableError(f"{e.name} is not differentiable")
        return rule(e.args[0], differentiate(e.args[0]))
    raise TypeError(f"not an expression node: {e!r}")


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(e: Expr, need: int = 0) -> str:
    """The text of ``e``, in brackets where ``e`` binds looser than level ``need``.

    One frame per node deep, so that a derivative of the deepest nesting
    the parser takes still prints.  A negative constant (never parsed)
    prints with a leading minus, at unary level.
    """
    op = _BINARY_OF_NODE.get(type(e))
    if op is not None:  # the right operand binds one level tighter: left-associative
        s, level = f"{_print(e.lhs, op.level)} {op.symbol} {_print(e.rhs, op.level + 1)}", op.level
    elif isinstance(e, Const):
        s, level = _fmt_const(e.value), _LVL_UNARY if e.value < 0 else _LVL_ATOM
    elif isinstance(e, Var):
        s, level = "t", _LVL_ATOM
    elif isinstance(e, Neg):
        s, level = "-" + _print(e.arg, _LVL_UNARY), _LVL_UNARY
    elif isinstance(e, Pow):
        s, level = f"{_print(e.base, _LVL_ATOM)}^{e.exponent}", _LVL_UNARY + 1
    elif isinstance(e, Call):
        s, level = f"{e.name}({', '.join(map(_print, e.args))})", _LVL_ATOM
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if level < need else s


def print_expr(e: Expr) -> str:
    """Canonical text form; ``parse(print_expr(e))`` is structurally ``e``.

    The one exception is negative constants (never produced by the parser):
    they print with a leading minus and re-parse as a negation node.
    """
    return _print(e)


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
