import math
import random

import numpy as np
import pytest

from ordercalc import expr as ex
from ordercalc.functions import ScalarKernel
from helpers import central_difference, random_expr, reference_eval


def test_parse_power_plus_const():
    e = ex.parse("t^2 + 1")
    assert e == ex.Add(ex.Pow(ex.Var(), 2), ex.Const(1.0))


def test_parse_call_times_var():
    e = ex.parse("sin(t)*t")
    assert e == ex.Mul(ex.Call("sin", (ex.Var(),)), ex.Var())


def test_parse_reciprocal():
    e = ex.parse("1/(t-2)")
    assert e == ex.Div(ex.Const(1.0), ex.Sub(ex.Var(), ex.Const(2.0)))


def test_parse_precedence_and_associativity():
    assert ex.parse("1 - 2 - 3") == ex.Sub(
        ex.Sub(ex.Const(1.0), ex.Const(2.0)), ex.Const(3.0)
    )
    assert ex.parse("2*t + 1") == ex.Add(ex.Mul(ex.Const(2.0), ex.Var()), ex.Const(1.0))
    assert ex.parse("-t^2") == ex.Neg(ex.Pow(ex.Var(), 2))
    assert ex.parse("t^-2") == ex.Pow(ex.Var(), -2)


def test_parse_number_forms():
    assert ex.parse("1.5e-3") == ex.Const(1.5e-3)
    assert ex.parse("2.") == ex.Const(2.0)
    assert ex.parse("10E2") == ex.Const(1000.0)


@pytest.mark.parametrize(
    "src",
    ["", "t +", "(t", "sin()", "min(t)", "sin(t,t)", "t^t", "t^1.5", "u + 1", "1..2", "t @ 2"],
)
def test_parse_rejects_with_position(src):
    with pytest.raises(ex.ExprSyntaxError) as info:
        ex.parse(src)
    assert info.value.pos >= 0
    assert info.value.expected


def test_syntax_error_reports_offset():
    with pytest.raises(ex.ExprSyntaxError) as info:
        ex.parse("t + %")
    assert info.value.pos == 4


def test_eval_examples():
    def at(src, t):
        return ScalarKernel.from_string(src).eval(t)

    assert at("t^2 + 1", 2.0) == 5.0
    assert at("abs(t)", -3.0) == 3.0
    assert at("exp(0)", 123.0) == 1.0
    assert at("min(t, 1-t)", 0.25) == 0.25
    assert at("max(t, 1-t)", 0.25) == 0.75


def test_eval_domain_errors_name_t():
    for src, t in (("1/(t-2)", 2.0), ("log(t)", -1.0), ("sqrt(t)", -1.0), ("exp(t)", 1e9)):
        with pytest.raises(ex.EvalDomainError, match=f"t={t!r}"):
            ScalarKernel.from_string(src).eval(t)


def test_differentiate_examples():
    d = ex.differentiate(ex.parse("t^2"))
    assert d == ex.Mul(ex.Const(2.0), ex.Var())
    assert ex.differentiate(ex.parse("sin(t)")) == ex.Call("cos", (ex.Var(),))
    d = ex.differentiate(ex.parse("t*exp(t)"))
    for t in (0.0, 0.5, -1.3):
        assert d and abs(reference_eval(d, t) - (math.exp(t) + t * math.exp(t))) < 1e-12


def test_differentiate_folds_only_finite_constants():
    assert ex.differentiate(ex.parse("t*1e308*10")) == ex.Mul(ex.Const(1e308), ex.Const(10.0))
    assert ex.differentiate(ex.parse("t*2*3")) == ex.Const(6.0)


def test_differentiate_rejects_nonsmooth():
    for src in ("abs(t)", "min(t, 1)", "max(t, 0)"):
        with pytest.raises(ex.NonDifferentiableError):
            ex.differentiate(ex.parse(src))


def test_print_round_trip_examples():
    for src in ("t^2 + 1", "min(t, 1-t)", "1/(t-2)", "-t^2", "sin(t)*t"):
        e = ex.parse(src)
        assert ex.parse(ex.print_expr(e)) == e


def test_print_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(500):
        e = random_expr(rng, depth=5)
        assert ex.parse(ex.print_expr(e)) == e


def test_derivative_matches_finite_differences():
    rng = random.Random(42)
    accepted = 0
    attempts = 0
    h = 1e-6
    while accepted < 100 and attempts < 5000:
        attempts += 1
        e = random_expr(rng, depth=4, smooth_only=True)
        t = rng.uniform(-2.0, 2.0)
        if abs(t) < 0.05:
            continue
        try:
            d = ex.differentiate(e)
            vals = [reference_eval(e, t + k * h) for k in (-2, -1, 0, 1, 2)]
            sym = reference_eval(d, t)
        except (ex.EvalDomainError, ex.NonDifferentiableError):
            continue
        if any(abs(v) > 1e4 for v in vals) or abs(sym) > 1e4:
            continue
        fd = (vals[3] - vals[1]) / (2.0 * h)
        assert abs(fd - sym) <= 1e-6 * (1.0 + abs(sym)), (ex.print_expr(e), t, fd, sym)
        accepted += 1
    assert accepted == 100


def test_substitute_composes():
    outer = ex.parse("t^2 + 1")
    inner = ex.parse("sin(t)")
    composed = ex.substitute(outer, inner)
    for t in (0.0, 0.7, 2.0):
        assert composed and abs(
            reference_eval(composed, t) - (math.sin(t) ** 2 + 1.0)
        ) < 1e-12


def test_underflowing_negative_power_is_a_domain_error_in_both_evaluators():
    kernel = ScalarKernel.from_string("t^-3")
    with pytest.raises(ex.EvalDomainError, match="t=1e-150"):
        kernel.eval(1e-150)
    with pytest.raises(ex.EvalDomainError, match="t=1e-150"):
        kernel.eval_many(np.array([1e-150]))
