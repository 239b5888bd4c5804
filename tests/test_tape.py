"""Compiled programs: (name, argument) steps, run by the float, the numpy and the interval evaluators."""

import math
import random

import numpy as np
import pytest

from helpers import random_expr, reference_eval
from ordercalc import _interval, _kernels_fallback, _tape
from ordercalc import expr as ex
from ordercalc._interval import enclose
from ordercalc._kernels_fallback import _run
from ordercalc._tape import compile_expr
from ordercalc.functions import ScalarKernel


def test_steps_carry_numpy_constants_and_integer_exponents():
    steps = compile_expr(ex.parse("2.5 * t^-3 + sin(t)")).steps
    args = {op: arg for op, arg in steps if op in ("const", "^")}
    assert type(args["const"]) is np.float64 and args["const"] == 2.5
    assert type(args["^"]) is int and args["^"] == -3
    assert all(arg is None for op, arg in steps if op not in ("const", "^"))


# Every step name but "t" and "const", which run() reads itself: the binary
# operators' symbols, the functions' names, and the negation and the power.
_LOOKED_UP = {op.symbol for op in ex._BINARY_OPS} | set(ex._CALLS) | {"neg", "^"}

# Sources and their programs, step by step in postfix order; together they
# emit every step name.
PINNED_STEPS = {
    "2.5 * t^-3 + sin(t)": [
        ("const", 2.5), ("t", None), ("^", -3), ("*", None), ("t", None), ("sin", None), ("+", None),
    ],
    "-t - 1": [("t", None), ("neg", None), ("const", 1.0), ("-", None)],
    "-2*t": [("const", 2.0), ("neg", None), ("t", None), ("*", None)],
    "-(t + 1) * sqrt(t)": [
        ("t", None), ("const", 1.0), ("+", None), ("neg", None), ("t", None), ("sqrt", None), ("*", None),
    ],
    "min(t, 2) / max(t^2, exp(t))": [
        ("t", None), ("const", 2.0), ("min", None), ("t", None), ("^", 2), ("t", None), ("exp", None), ("max", None),
        ("/", None),
    ],
    "log(abs(cos(t)))": [("t", None), ("cos", None), ("abs", None), ("log", None)],
}


@pytest.mark.parametrize("src", PINNED_STEPS)
def test_programs_pin_their_steps_in_postfix_order(src):
    steps = compile_expr(ex.parse(src)).steps
    assert list(steps) == PINNED_STEPS[src]


def test_pinned_programs_emit_every_step_name():
    assert {op for steps in PINNED_STEPS.values() for op, _ in steps} == _LOOKED_UP | {"t", "const"}


@pytest.mark.parametrize(
    "table", [_kernels_fallback._OPS, _interval._OPS, ex._FLOAT_OPS, _kernels_fallback._IN_PLACE]
)
def test_each_op_table_covers_every_opcode_but_const_and_var(table):
    # run() reads constants and t itself; every other step name is looked up.
    assert set(table) == _LOOKED_UP


def test_binary_steps_are_the_two_operand_names():
    two = {op.symbol for op in ex._BINARY_OPS} | {name for name, row in ex._CALLS.items() if row.arity == 2}
    assert _tape._BINARY == two


def test_expression_deeper_than_64_stack_slots_evaluates():
    # Right-nested sums keep every left operand on the stack: 81 slots.
    src = "t"
    for k in range(80):
        src = f"{k % 7 + 1} * t + ({src})"
    kernel = ScalarKernel.from_string(src)
    ts = np.linspace(-2.0, 2.0, 33)
    got = kernel.eval_many(ts)
    assert got.tolist() == [reference_eval(kernel.expr, t) for t in ts.tolist()]


@pytest.mark.parametrize("e", range(-3, 5))
def test_scalar_and_array_powers_agree_bitwise(e):
    rng = np.random.default_rng(e + 3)
    xs = np.concatenate([rng.uniform(-3.0, 3.0, 200), 10.0 ** rng.uniform(-90, 90, 50)])
    xs = np.append(xs, [np.nan, np.inf, -np.inf, 0.0, -0.0])
    got = _run(compile_expr(ex.Pow(ex.Var(), e)), xs)
    want = np.array([ex._FLOAT_OPS["^"](x, e) for x in xs.tolist()])
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, xs)  # t^1 is t itself: still a new array
    if e == 0:  # ones even where the base is not finite
        assert got.tolist() == [1.0] * len(xs)


def _value_or_none(f, t):
    try:
        return f(t)
    except ex.EvalDomainError:
        return None


def test_scalar_and_one_point_evaluation_agree_on_random_kernels():
    # One domain verdict everywhere, and the same bits, signed zeros
    # included, wherever no libm routine (sin, cos, exp, log) is taken.
    rng = random.Random(0)
    ts = np.linspace(-5.0, 5.0, 501).tolist() + [0.0, -0.0, 1e300, -1e300, 1e-300]
    bitwise_kernels = 0
    for _ in range(800):
        kernel = ScalarKernel.from_expr(random_expr(rng, depth=5))
        got = [_value_or_none(kernel.eval, t) for t in ts]
        want = [_value_or_none(lambda t: kernel.eval_many(np.array([t]))[0], t) for t in ts]
        assert [v is None for v in got] == [v is None for v in want], kernel.label
        if not any(f"{name}(" in kernel.label for name in ("sin", "cos", "exp", "log")):
            bitwise_kernels += 1
            got_bits, want_bits = (np.array([np.nan if v is None else v for v in vs]).tobytes() for vs in (got, want))
            assert got_bits == want_bits, kernel.label
    assert bitwise_kernels == 552


FLOAT_CASES = [
    ("/", (1.0, 0.0), math.inf),
    ("/", (1.0, -0.0), -math.inf),
    ("/", (-2.0, 0.0), -math.inf),
    ("/", (0.0, 0.0), math.nan),
    ("/", (math.nan, 0.0), math.nan),
    ("^", (0.0, -1), math.inf),
    ("^", (-0.0, -3), -math.inf),
    ("^", (1e-150, -3), math.inf),
    ("log", (0.0,), -math.inf),
    ("log", (-0.0,), -math.inf),
    ("log", (-1.0,), math.nan),
    ("sqrt", (-1.0,), math.nan),
    ("sqrt", (-0.0,), -0.0),
    ("exp", (1e9,), math.inf),
    ("sin", (math.inf,), math.nan),
    ("cos", (-math.inf,), math.nan),
    ("min", (0.0, -0.0), -0.0),  # a tie gives the second operand
    ("min", (-0.0, 0.0), 0.0),
    ("max", (0.0, -0.0), -0.0),
    ("max", (-0.0, 0.0), 0.0),
    ("min", (math.nan, 1.0), math.nan),
    ("min", (1.0, math.nan), math.nan),
    ("max", (math.nan, 1.0), math.nan),
    ("max", (1.0, math.nan), math.nan),
]
# Each case keeps the id it had while steps were integer opcodes: the
# number its operator had then, the case's index and the wanted value.
_CASE_NUMBER = {"/": 6, "^": 7, "sin": 8, "cos": 9, "exp": 10, "log": 11, "sqrt": 13, "min": 14, "max": 15}


@pytest.mark.parametrize(
    "name, args, want",
    FLOAT_CASES,
    ids=[f"{_CASE_NUMBER[name]}-args{i}-{want}" for i, (name, _, want) in enumerate(FLOAT_CASES)],
)
def test_float_op_table_gives_numpy_results_where_python_raises(name, args, want):
    got = ex._FLOAT_OPS[name](*args)
    with np.errstate(all="ignore"):
        numpy = _kernels_fallback._OPS[name](*(np.array([a]) if type(a) is float else a for a in args))
    assert type(got) is float
    for value in (want, numpy[0]):
        assert math.isnan(got) if math.isnan(value) else np.float64(got).tobytes() == np.float64(value).tobytes()


def test_enclosure_of_a_constant_expression_is_finite():
    lo, hi = enclose(compile_expr(ex.parse("log(3.5)")), np.zeros(3), np.ones(3))
    assert np.all(lo <= math.log(3.5)) and np.all(math.log(3.5) <= hi)
    assert np.all(hi - lo <= 1e-14)
