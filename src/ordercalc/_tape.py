"""Compilation of expression ASTs into flat stack programs, and the one loop that runs them.

A program is a tuple of (opcode, argument) steps in postfix order.  The
argument is the constant, an ``np.float64``, for ``OP_CONST``, the integer
exponent for ``OP_POW``, and None for every other opcode.  ``run`` alone
steps through programs: it holds the stack discipline, each opcode's arity
and which steps read their argument.  Each evaluator is its own op table
from opcode to function: the float one (``expr._FLOAT_OPS``, behind
``expr.eval_expr``) at one point, the numpy one (``_kernels_fallback._run``)
over arrays of points, and the interval one (``_interval.enclose``) over
pairs of arrays of bounds.  A constant stays an ``np.float64`` so that the
array evaluators get numpy scalars from it: ``enclose`` holds it as one
object for both bounds, and a comparison of it gives a numpy bool, which
``~`` negates (on a Python bool, ``~True`` is -2).  The float table gets it
as a Python float.

``expr`` imports this module to run programs, so this module reaches the
AST classes only inside ``compile_expr``, which reads each node's opcode
from ``expr``'s two tables: ``_BINARY_OPS`` for a binary operator and
``_CALLS`` for a call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Opcodes of the stack program.
OP_CONST = 0
OP_VAR = 1
OP_NEG = 2
OP_ADD = 3
OP_SUB = 4
OP_MUL = 5
OP_DIV = 6
OP_POW = 7
OP_SIN = 8
OP_COS = 9
OP_EXP = 10
OP_LOG = 11
OP_ABS = 12
OP_SQRT = 13
OP_MIN2 = 14
OP_MAX2 = 15

# Opcodes that pop two values; OP_CONST and OP_VAR pop none, the rest one.
_BINARY = frozenset({OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_MIN2, OP_MAX2})


@dataclass(frozen=True)
class Program:
    steps: tuple  # (opcode, argument) pairs, in postfix order


def compile_expr(e) -> Program:
    """The program of the ``expr.Expr`` AST ``e``."""
    from . import expr as ex

    binary_ops = ex._BINARY_OF_NODE
    steps: list[tuple] = []

    def emit(node: ex.Expr) -> None:
        if isinstance(node, ex.Const):
            steps.append((OP_CONST, np.float64(node.value)))
        elif isinstance(node, ex.Var):
            steps.append((OP_VAR, None))
        elif isinstance(node, ex.Neg):
            emit(node.arg)
            steps.append((OP_NEG, None))
        elif type(node) in binary_ops:
            emit(node.lhs)
            emit(node.rhs)
            steps.append((binary_ops[type(node)].opcode, None))
        elif isinstance(node, ex.Pow):
            emit(node.base)
            steps.append((OP_POW, node.exponent))
        elif isinstance(node, ex.Call):
            for arg in node.args:
                emit(arg)
            steps.append((ex._CALLS[node.name].opcode, None))
        else:
            raise TypeError(f"not an expression node: {node!r}")

    emit(e)
    return Program(tuple(steps))


def run(prog: Program, var, const, ops: dict):
    """The value of ``prog`` with ``var`` for t, ``const(c)`` for each constant c.

    ``ops`` maps every other opcode to its function: of the operand, of
    both operands (left first), or, for ``OP_POW``, of the operand and the
    integer exponent.
    """
    stack: list = []
    push, pop = stack.append, stack.pop
    for op, arg in prog.steps:
        if op == OP_VAR:
            push(var)
        elif op == OP_CONST:
            push(const(arg))
        elif op == OP_POW:
            push(ops[op](pop(), arg))
        elif op in _BINARY:
            y = pop()
            push(ops[op](pop(), y))
        else:
            push(ops[op](pop()))
    return pop()
