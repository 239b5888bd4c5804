"""Compilation of expression ASTs into flat stack programs.

The numpy evaluator (``_kernels_fallback``) runs a program over arrays of
points, and the interval evaluator (``_interval``) over arrays of bounds;
both read this one format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex

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

_CALL_OPS = {
    "sin": OP_SIN,
    "cos": OP_COS,
    "exp": OP_EXP,
    "log": OP_LOG,
    "abs": OP_ABS,
    "sqrt": OP_SQRT,
    "min": OP_MIN2,
    "max": OP_MAX2,
}

MAX_STACK = 64

# Given rows (explicit partitions, 1-D breakpoint arrays and every prefix
# sum) accumulate left to right within chunks of this many cells (from zero)
# and left to right over the chunk subtotals: prefixes are that running sum,
# and it makes a repeated point add exactly nothing.  A row's chunks start
# at multiples of CHUNK_CELLS whether it is summed alone or with other rows,
# so its sums do not depend on the block.  Uniform levels do not use it:
# they sum each block pairwise (see _kernels_fallback).
CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class Program:
    ops: np.ndarray  # int32
    iargs: np.ndarray  # int32: const index / pow exponent / 0
    consts: np.ndarray  # float64
    stack_need: int


def compile_expr(e: ex.Expr) -> Program:
    ops: list[int] = []
    iargs: list[int] = []
    consts: list[float] = []

    def emit(node: ex.Expr) -> int:
        if isinstance(node, ex.Const):
            ops.append(OP_CONST)
            iargs.append(len(consts))
            consts.append(node.value)
            return 1
        if isinstance(node, ex.Var):
            ops.append(OP_VAR)
            iargs.append(0)
            return 1
        if isinstance(node, ex.Neg):
            d = emit(node.arg)
            ops.append(OP_NEG)
            iargs.append(0)
            return d
        if isinstance(node, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
            d1 = emit(node.lhs)
            d2 = emit(node.rhs)
            ops.append(
                {ex.Add: OP_ADD, ex.Sub: OP_SUB, ex.Mul: OP_MUL, ex.Div: OP_DIV}[
                    type(node)
                ]
            )
            iargs.append(0)
            return max(d1, 1 + d2)
        if isinstance(node, ex.Pow):
            d = emit(node.base)
            ops.append(OP_POW)
            iargs.append(node.exponent)
            return d
        if isinstance(node, ex.Call):
            d1 = emit(node.args[0])
            if len(node.args) == 2:
                d2 = emit(node.args[1])
                ops.append(_CALL_OPS[node.name])
                iargs.append(0)
                return max(d1, 1 + d2)
            ops.append(_CALL_OPS[node.name])
            iargs.append(0)
            return d1
        raise TypeError(f"not an expression node: {node!r}")

    depth = emit(e)
    if depth > MAX_STACK:
        raise ValueError(f"expression too deep for the evaluator (needs {depth} slots)")
    return Program(
        ops=np.asarray(ops, dtype=np.int32),
        iargs=np.asarray(iargs, dtype=np.int32),
        consts=np.asarray(consts, dtype=np.float64),
        stack_need=depth,
    )
