"""Compiled programs: (opcode, argument) steps, run by the numpy and the interval evaluators."""

import math

import numpy as np
import pytest

from ordercalc import _interval, _kernels_fallback, _tape
from ordercalc import expr as ex
from ordercalc._interval import enclose
from ordercalc._kernels_fallback import _run
from ordercalc._tape import OP_CONST, OP_POW, OP_VAR, compile_expr
from ordercalc.functions import ScalarKernel


def test_steps_carry_numpy_constants_and_integer_exponents():
    steps = compile_expr(ex.parse("2.5 * t^-3 + sin(t)")).steps
    args = {op: arg for op, arg in steps if op in (OP_CONST, OP_POW)}
    assert type(args[OP_CONST]) is np.float64 and args[OP_CONST] == 2.5
    assert type(args[OP_POW]) is int and args[OP_POW] == -3
    assert all(arg is None for op, arg in steps if op not in (OP_CONST, OP_POW))


@pytest.mark.parametrize("table", [_kernels_fallback._OPS, _interval._OPS])
def test_each_op_table_covers_every_opcode_but_const_and_var(table):
    # run() reads constants and t itself; every other opcode is looked up.
    opcodes = {v for k, v in vars(_tape).items() if k.startswith("OP_")}
    assert set(table) == opcodes - {OP_CONST, OP_VAR}


def test_expression_deeper_than_64_stack_slots_evaluates():
    # Right-nested sums keep every left operand on the stack: 81 slots.
    src = "t"
    for k in range(80):
        src = f"{k % 7 + 1} * t + ({src})"
    kernel = ScalarKernel.from_string(src)
    ts = np.linspace(-2.0, 2.0, 33)
    got = kernel.eval_many(ts)
    assert got.tolist() == [ex.eval_expr(kernel.expr, t) for t in ts.tolist()]


@pytest.mark.parametrize("e", range(-3, 5))
def test_scalar_and_array_powers_agree_bitwise(e):
    rng = np.random.default_rng(e + 3)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 200), 10.0 ** rng.uniform(-90, 90, 50)])
    xs = np.append(xs, [np.nan, np.inf, -np.inf] + ([0.0, -0.0] if e >= 0 else []))
    got = _run(compile_expr(ex.Pow(ex.Var(), e)), xs)
    want = np.array([ex._ipow(x, e) for x in xs.tolist()])
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, xs)  # t^1 is t itself: still a new array
    if e == 0:  # ones even where the base is not finite
        assert got.tolist() == [1.0] * len(xs)


def test_enclosure_of_a_constant_expression_is_finite():
    lo, hi = enclose(compile_expr(ex.parse("log(3.5)")), np.zeros(3), np.ones(3))
    assert np.all(lo <= math.log(3.5)) and np.all(math.log(3.5) <= hi)
    assert np.all(hi - lo <= 1e-14)
