"""Compilation of expression ASTs into flat stack programs, and the one loop that runs them.

A program is a tuple of (name, argument) steps in postfix order.  A step's
name is its operator's own spelling: ``"t"``, ``"const"``, ``"neg"``,
``"^"``, a binary operator's symbol from ``expr._BINARY_OPS`` or a function
name from ``expr._CALLS``.  The argument is the constant, an
``np.float64``, for ``"const"``, the integer exponent for ``"^"``, and None
for every other step.  ``run`` alone steps through programs: it holds the
stack discipline, each step's arity and which steps read their argument.
Each evaluator is its own op table from name to function: the float one
(``expr._FLOAT_OPS``, behind ``expr.eval_expr``) at one point, the numpy
one (``_kernels_fallback._run``) over arrays of points, and the interval
one (``_interval.enclose``) over pairs of arrays of bounds.  A constant
stays an ``np.float64`` so that the array evaluators get numpy scalars
from it: ``enclose`` holds it as one object for both bounds, and a
comparison of it gives a numpy bool, which ``~`` negates (on a Python
bool, ``~True`` is -2).  The float table gets it as a Python float.

``expr`` imports this module to run programs, so this module reaches the
AST classes only inside ``compile_expr``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Names of the steps that pop two values; "t" and "const" pop none, the rest one.
_BINARY = frozenset({"+", "-", "*", "/", "min", "max"})


@dataclass(frozen=True)
class Program:
    steps: tuple  # (name, argument) pairs, in postfix order


def compile_expr(e) -> Program:
    """The program of the ``expr.Expr`` AST ``e``."""
    from . import expr as ex

    binary_ops = ex._BINARY_OF_NODE
    steps: list[tuple] = []

    def emit(node: ex.Expr) -> None:
        if isinstance(node, ex.Const):
            steps.append(("const", np.float64(node.value)))
        elif isinstance(node, ex.Var):
            steps.append(("t", None))
        elif isinstance(node, ex.Neg):
            emit(node.arg)
            steps.append(("neg", None))
        elif type(node) in binary_ops:
            emit(node.lhs)
            emit(node.rhs)
            steps.append((binary_ops[type(node)].symbol, None))
        elif isinstance(node, ex.Pow):
            emit(node.base)
            steps.append(("^", node.exponent))
        elif isinstance(node, ex.Call):
            for arg in node.args:
                emit(arg)
            steps.append((node.name, None))
        else:
            raise TypeError(f"not an expression node: {node!r}")

    emit(e)
    return Program(tuple(steps))


def run(prog: Program, var, const, ops: dict):
    """The value of ``prog`` with ``var`` for t, ``const(c)`` for each constant c.

    ``ops`` maps every other step's name to its function: of the operand,
    of both operands (left first), or, for ``"^"``, of the operand and the
    integer exponent.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    for op, arg in prog.steps:
        if op == "t":
            push(var)
        elif op == "const":
            push(const(arg))
        elif op == "^":
            push(ops[op](pop(), arg))
        elif op in _BINARY:
            y = pop()
            push(ops[op](pop(), y))
        else:
            push(ops[op](pop()))
    return pop()
