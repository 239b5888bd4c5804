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


# Each input's AST repr, or its ExprSyntaxError's (message, offset, sorted
# expected set), recorded from the character-loop tokenizer and the
# per-level parser methods that the token pattern and the operator table
# replaced, so the rewrite is held to their outcomes.
_OPERAND = ["(", "ident", "number", "t"]
_NEXT = ["*", "+", "-", "/", "^", "end"]
_NAMES = ["abs", "cos", "exp", "log", "max", "min", "sin", "sqrt", "t"]
_PINNED = [
    ('', ('empty expression', 0, _OPERAND)),
    ('   ', ('empty expression', 0, _OPERAND)),
    ('t +', ("got 'end of input'", 3, _OPERAND)),
    ('(t', ("got 'end of input'", 2, [')'])),
    ('sin()', ("got ')'", 4, _OPERAND)),
    ('min(t)', ('min takes 2 argument(s)', 0, ['2 argument(s)'])),
    ('sin(t,t)', ('sin takes 1 argument(s)', 0, ['1 argument(s)'])),
    ('t^t', ("got 't'", 2, ['integer'])),
    ('t^1.5', ("got '1.5'", 2, ['integer'])),
    ('u + 1', ("unknown name 'u'", 0, _NAMES)),
    ('1..2', ("unexpected character '.'", 2, _OPERAND)),
    ('t @ 2', ("unexpected character '@'", 2, _OPERAND)),
    ('t + %', ("unexpected character '%'", 4, _OPERAND)),
    ('t + + @', ("unexpected character '@'", 6, _OPERAND)),
    ('1.', 'Const(value=1.0)'),
    ('1e5', 'Const(value=100000.0)'),
    ('1e', ("trailing input 'e'", 1, _NEXT)),
    ('1e+', ("trailing input 'e'", 1, _NEXT)),
    ('10E2', 'Const(value=1000.0)'),
    ('1.5e-3', 'Const(value=0.0015)'),
    ('007', 'Const(value=7.0)'),
    ('1E+3', 'Const(value=1000.0)'),
    ('1.e2', 'Const(value=100.0)'),
    ('.5', ("unexpected character '.'", 0, _OPERAND)),
    ('1e5.', ("unexpected character '.'", 3, _OPERAND)),
    ('3t', ("trailing input 't'", 1, _NEXT)),
    ('1 2', ("trailing input '2'", 2, _NEXT)),
    ('1e-', ("trailing input 'e'", 1, _NEXT)),
    ('t^-2', 'Pow(base=Var(), exponent=-2)'),
    ('t^2^3', ("trailing input '^'", 3, _NEXT)),
    ('t^-t', ("got 't'", 3, ['integer'])),
    ('t^', ("got 'end of input'", 2, ['integer'])),
    ('t^1e2', ("got '1e2'", 2, ['integer'])),
    ('t^ 3', 'Pow(base=Var(), exponent=3)'),
    ('t^--2', ("got '-'", 3, ['integer'])),
    ('-t^2', 'Neg(arg=Pow(base=Var(), exponent=2))'),
    ('2^-1', 'Pow(base=Const(value=2.0), exponent=-1)'),
    ('(t+1)^3', 'Pow(base=Add(lhs=Var(), rhs=Const(value=1.0)), exponent=3)'),
    ('t^0', 'Pow(base=Var(), exponent=0)'),
    ('t^-', ("got 'end of input'", 3, ['integer'])),
    ('sin(cos(t))', "Call(name='sin', args=(Call(name='cos', args=(Var(),)),))"),
    ('max(min(t, 1), 0)', "Call(name='max', args=(Call(name='min', args=(Var(), Const(value=1.0))), Const(value=0.0)))"),
    ('min(t, 1-t)', "Call(name='min', args=(Var(), Sub(lhs=Const(value=1.0), rhs=Var())))"),
    ('max(t)', ('max takes 2 argument(s)', 0, ['2 argument(s)'])),
    ('min(t,1,2)', ("got ','", 7, [')'])),
    ('sin(t', ("got 'end of input'", 5, [')'])),
    ('sin t', ("got 't'", 4, ['('])),
    ('exp()', ("got ')'", 4, _OPERAND)),
    ('sqrt(abs(t))', "Call(name='sqrt', args=(Call(name='abs', args=(Var(),)),))"),
    ('log(t)*exp(-t)', "Mul(lhs=Call(name='log', args=(Var(),)), rhs=Call(name='exp', args=(Neg(arg=Var()),)))"),
    ('foo(t)', ("unknown name 'foo'", 0, _NAMES)),
    ('_x', ("unknown name '_x'", 0, _NAMES)),
    ('t2', ("unknown name 't2'", 0, _NAMES)),
    ('T', ("unknown name 'T'", 0, _NAMES)),
    ('sin', ("got 'end of input'", 3, ['('])),
    ('1 - 2 - 3', 'Sub(lhs=Sub(lhs=Const(value=1.0), rhs=Const(value=2.0)), rhs=Const(value=3.0))'),
    ('8/4/2', 'Div(lhs=Div(lhs=Const(value=8.0), rhs=Const(value=4.0)), rhs=Const(value=2.0))'),
    ('2*t+1', 'Add(lhs=Mul(lhs=Const(value=2.0), rhs=Var()), rhs=Const(value=1.0))'),
    ('1 - 2*3 + 4/t', 'Add(lhs=Sub(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Const(value=3.0))), rhs=Div(lhs=Const(value=4.0), rhs=Var()))'),
    ('--t', 'Neg(arg=Neg(arg=Var()))'),
    ('-(t)', 'Neg(arg=Var())'),
    ('t*-1', 'Mul(lhs=Var(), rhs=Neg(arg=Const(value=1.0)))'),
    ('+t', ("got '+'", 0, _OPERAND)),
    ('t+*1', ("got '*'", 2, _OPERAND)),
    ('()', ("got ')'", 1, _OPERAND)),
    (')', ("got ')'", 0, _OPERAND)),
    ('t)', ("trailing input ')'", 1, _NEXT)),
    ('t,', ("trailing input ','", 1, _NEXT)),
    (',', ("got ','", 0, _OPERAND)),
    ('t\t+\t1', 'Add(lhs=Var(), rhs=Const(value=1.0))'),
    ('  t  ', 'Var()'),
    ('\n', ('empty expression', 0, _OPERAND)),
    ('(((t)))', 'Var()'),
    ('t - -t', 'Sub(lhs=Var(), rhs=Neg(arg=Var()))'),
    ('t / t * t', 'Mul(lhs=Div(lhs=Var(), rhs=Var()), rhs=Var())'),
    ('1 + 2 - 3 * 4 / 5', 'Sub(lhs=Add(lhs=Const(value=1.0), rhs=Const(value=2.0)), rhs=Div(lhs=Mul(lhs=Const(value=3.0), rhs=Const(value=4.0)), rhs=Const(value=5.0)))'),
    ('sin(t) + 1', "Add(lhs=Call(name='sin', args=(Var(),)), rhs=Const(value=1.0))"),
]


@pytest.mark.parametrize("src, want", _PINNED)
def test_parse_outcome_is_pinned(src, want):
    try:
        got = repr(ex.parse(src))
    except ex.ExprSyntaxError as err:
        message, pos, expected = want
        assert str(err) == f"{message} at offset {pos} (expected: {', '.join(expected)})"
        got = (message, err.pos, sorted(err.expected))
    assert got == want


@pytest.mark.parametrize(
    "src, pos", [("t^\u00b2", 2), ("\u00b2", 0), ("1\u0663", 1), ("t\u0663", 1), ("\u00e9", 0), ("sin(t) +\u00a0\u00e9", 9)]
)
def test_numbers_and_names_are_ascii(src, pos):
    # A superscript digit, an Arabic-Indic digit or a non-ASCII letter is
    # refused where it stands, not read as part of a number or a name.
    with pytest.raises(ex.ExprSyntaxError) as info:
        ex.parse(src)
    assert info.value.pos == pos
    assert str(info.value).startswith(f"unexpected character {src[pos]!r}")


@pytest.mark.parametrize(
    "src, pos, literal", [("1e999", 0, "1e999"), ("t + 1e400", 4, "1e400"), ("1.8e308", 0, "1.8e308"), ("sin(2e308)", 4, "2e308")]
)
def test_an_overflowing_literal_is_refused_at_its_offset(src, pos, literal):
    with pytest.raises(ex.ExprSyntaxError) as info:
        ex.parse(src)
    assert info.value.pos == pos
    assert str(info.value).startswith(f"number {literal!r} overflows a float")


def test_the_largest_and_an_underflowing_literal_still_parse():
    assert ex.parse("1.7e308") == ex.Const(1.7e308)
    assert ex.parse("1e-400") == ex.Const(0.0)


def _nested(prefix: str, copies: int) -> str:
    """``prefix`` repeated ``copies`` times before ``t``, each opened bracket closed."""
    src = prefix * copies + "t"
    return src + ")" * (src.count("(") - src.count(")"))


# Prefixes of one level of nesting each (a bracket, a call, a unary minus,
# and the shapes whose derivatives nest deepest), each with the offset in
# it of the token that opens its level.
_OPENERS = [("(", 0), ("t+(", 2), ("sin(", 0), ("min(t, ", 0), ("-", 0), ("1/(", 2), ("t^2/(", 4), ("sqrt(t)/(", 0)]


# "-(" and "exp(-" open two levels each.
@pytest.mark.parametrize(
    "prefix, copies",
    [(p, ex._MAX_NESTING) for p, _ in _OPENERS] + [("-(", ex._MAX_NESTING // 2), ("exp(-", ex._MAX_NESTING // 2)],
)
def test_nesting_at_the_limit_parses_prints_compiles_and_differentiates(prefix, copies):
    e = ex.parse(_nested(prefix, copies))
    assert ex.parse(ex.print_expr(e)) == e
    ex._tape.compile_expr(e)
    ex.substitute(e, ex.parse("t^2 + 1"))
    if prefix.startswith("min"):
        with pytest.raises(ex.NonDifferentiableError):
            ex.differentiate(e)
        return
    ex.differentiate(ex.differentiate(e))


def test_printing_takes_one_frame_per_node_deep():
    # The second derivative of a quotient nested to the limit is about six
    # nodes deep per level, so a derivative kernel's label prints only if
    # each node costs one frame.
    e = ex.Var()
    for _ in range(600):
        e = ex.Neg(e)
    assert ex.print_expr(e) == "-" * 600 + "t"


@pytest.mark.parametrize("prefix, opens_at", _OPENERS)
def test_one_level_past_the_limit_is_refused_at_the_token_that_opens_it(prefix, opens_at):
    with pytest.raises(ex.ExprSyntaxError) as info:
        ex.parse(_nested(prefix, ex._MAX_NESTING + 1))
    assert info.value.pos == len(prefix) * ex._MAX_NESTING + opens_at
    assert str(info.value).startswith(f"nesting deeper than {ex._MAX_NESTING} levels")


@pytest.mark.parametrize("prefix, copies", [("(", 400), ("-", 1200), ("sin(", 300), ("t+(", 250)])
def test_nesting_that_overflowed_the_stack_is_refused(prefix, copies):
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse(_nested(prefix, copies))


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_a_chain_at_the_depth_limit_parses_prints_compiles_and_differentiates(op):
    e = ex.parse(op.join(["t"] * (ex._MAX_DEPTH + 1)))
    assert ex.parse(ex.print_expr(e)) == e
    ex._tape.compile_expr(e)
    ex.substitute(e, ex.parse("t^2 + 1"))
    d2 = ex.differentiate(ex.differentiate(e))
    ex.print_expr(d2)


@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_one_operator_past_the_depth_limit_is_refused_at_that_operator(op):
    src = op.join(["t"] * (ex._MAX_DEPTH + 2))
    with pytest.raises(ex.ExprSyntaxError) as info:
        ex.parse(src)
    assert info.value.pos == 2 * ex._MAX_DEPTH + 1 == src.rindex(op)
    assert str(info.value).startswith(f"expression deeper than {ex._MAX_DEPTH} levels")


# A chain over 60 minuses and a power, and over 90 nested calls: the first
# node past the limit is the 60th addition and the 31st product.
@pytest.mark.parametrize(
    "head, link, links",
    [("-" * 60 + "t^2", "+t", 60), ("sin(" * 90 + "t" + ")" * 90, "*t", 31)],
    ids=["minuses-and-a-power", "calls"],
)
def test_every_node_kind_counts_toward_the_depth_limit(head, link, links):
    ex.parse(head + link * (links - 1))
    with pytest.raises(ex.ExprSyntaxError) as info:
        ex.parse(head + link * links)
    assert info.value.pos == len(head) + 2 * (links - 1)
    assert str(info.value).startswith(f"expression deeper than {ex._MAX_DEPTH} levels")


def test_chains_that_overflowed_the_stack_are_refused():
    # At 1200 terms printing, compiling, substituting and differentiating
    # each raised RecursionError.
    for op in "+-*/":
        with pytest.raises(ex.ExprSyntaxError):
            ex.parse(op.join(["t"] * 1200))


def test_unicode_whitespace_is_skipped():
    assert ex.parse("sin(t)\u00a0+\u20031\x1c") == ex.parse("sin(t) + 1")


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


# Each source's first and second derivative reprs, or the error class and
# message of its first derivative, recorded from the per-name and
# per-node branches of ``differentiate`` that the call and operator tables
# replaced: every call and binary rule, Neg, Pow at exponents 0, 1, 2 and
# -3, the finite-only constant folding, and which non-differentiable call
# is named first.
_DERIVATIVES = [
    ('5', ('Const(value=0.0)', 'Const(value=0.0)')),
    ('-5', ('Const(value=-0.0)', 'Const(value=0.0)')),
    ('t', ('Const(value=1.0)', 'Const(value=0.0)')),
    ('-t', ('Const(value=-1.0)', 'Const(value=0.0)')),
    ('--t', ('Const(value=1.0)', 'Const(value=0.0)')),
    ('-sin(t)', ("Neg(arg=Call(name='cos', args=(Var(),)))", "Call(name='sin', args=(Var(),))")),
    ('sin(t)', ("Call(name='cos', args=(Var(),))", "Neg(arg=Call(name='sin', args=(Var(),)))")),
    ('cos(t)', ("Neg(arg=Call(name='sin', args=(Var(),)))", "Neg(arg=Call(name='cos', args=(Var(),)))")),
    ('exp(t)', ("Call(name='exp', args=(Var(),))", "Call(name='exp', args=(Var(),))")),
    ('log(t)', ('Div(lhs=Const(value=1.0), rhs=Var())', 'Div(lhs=Const(value=-1.0), rhs=Pow(base=Var(), exponent=2))')),
    ('sqrt(t)', ("Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),))))", "Div(lhs=Neg(arg=Mul(lhs=Const(value=2.0), rhs=Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),)))))), rhs=Pow(base=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),))), exponent=2))")),
    ('sin(t^2)', ("Mul(lhs=Call(name='cos', args=(Pow(base=Var(), exponent=2),)), rhs=Mul(lhs=Const(value=2.0), rhs=Var()))", "Add(lhs=Mul(lhs=Neg(arg=Mul(lhs=Call(name='sin', args=(Pow(base=Var(), exponent=2),)), rhs=Mul(lhs=Const(value=2.0), rhs=Var()))), rhs=Mul(lhs=Const(value=2.0), rhs=Var())), rhs=Mul(lhs=Call(name='cos', args=(Pow(base=Var(), exponent=2),)), rhs=Const(value=2.0)))")),
    ('cos(2*t)', ("Neg(arg=Mul(lhs=Call(name='sin', args=(Mul(lhs=Const(value=2.0), rhs=Var()),)), rhs=Const(value=2.0)))", "Neg(arg=Mul(lhs=Mul(lhs=Call(name='cos', args=(Mul(lhs=Const(value=2.0), rhs=Var()),)), rhs=Const(value=2.0)), rhs=Const(value=2.0)))")),
    ('exp(-t)', ("Mul(lhs=Call(name='exp', args=(Neg(arg=Var()),)), rhs=Const(value=-1.0))", "Mul(lhs=Mul(lhs=Call(name='exp', args=(Neg(arg=Var()),)), rhs=Const(value=-1.0)), rhs=Const(value=-1.0))")),
    ('log(t^2 + 1)', ('Div(lhs=Mul(lhs=Const(value=2.0), rhs=Var()), rhs=Add(lhs=Pow(base=Var(), exponent=2), rhs=Const(value=1.0)))', 'Div(lhs=Sub(lhs=Mul(lhs=Const(value=2.0), rhs=Add(lhs=Pow(base=Var(), exponent=2), rhs=Const(value=1.0))), rhs=Mul(lhs=Mul(lhs=Const(value=2.0), rhs=Var()), rhs=Mul(lhs=Const(value=2.0), rhs=Var()))), rhs=Pow(base=Add(lhs=Pow(base=Var(), exponent=2), rhs=Const(value=1.0)), exponent=2))')),
    ('sqrt(1 + t)', ("Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Add(lhs=Const(value=1.0), rhs=Var()),))))", "Div(lhs=Neg(arg=Mul(lhs=Const(value=2.0), rhs=Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Add(lhs=Const(value=1.0), rhs=Var()),)))))), rhs=Pow(base=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Add(lhs=Const(value=1.0), rhs=Var()),))), exponent=2))")),
    ('exp(sin(t))', ("Mul(lhs=Call(name='exp', args=(Call(name='sin', args=(Var(),)),)), rhs=Call(name='cos', args=(Var(),)))", "Add(lhs=Mul(lhs=Mul(lhs=Call(name='exp', args=(Call(name='sin', args=(Var(),)),)), rhs=Call(name='cos', args=(Var(),))), rhs=Call(name='cos', args=(Var(),))), rhs=Mul(lhs=Call(name='exp', args=(Call(name='sin', args=(Var(),)),)), rhs=Neg(arg=Call(name='sin', args=(Var(),)))))")),
    ('t + 1', ('Const(value=1.0)', 'Const(value=0.0)')),
    ('3 - t', ('Const(value=-1.0)', 'Const(value=0.0)')),
    ('t - t^2', ('Sub(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Var()))', 'Const(value=-2.0)')),
    ('t * t', ('Add(lhs=Var(), rhs=Var())', 'Const(value=2.0)')),
    ('2 * t', ('Const(value=2.0)', 'Const(value=0.0)')),
    ('sin(t) * exp(t)', ("Add(lhs=Mul(lhs=Call(name='cos', args=(Var(),)), rhs=Call(name='exp', args=(Var(),))), rhs=Mul(lhs=Call(name='sin', args=(Var(),)), rhs=Call(name='exp', args=(Var(),))))", "Add(lhs=Add(lhs=Mul(lhs=Neg(arg=Call(name='sin', args=(Var(),))), rhs=Call(name='exp', args=(Var(),))), rhs=Mul(lhs=Call(name='cos', args=(Var(),)), rhs=Call(name='exp', args=(Var(),)))), rhs=Add(lhs=Mul(lhs=Call(name='cos', args=(Var(),)), rhs=Call(name='exp', args=(Var(),))), rhs=Mul(lhs=Call(name='sin', args=(Var(),)), rhs=Call(name='exp', args=(Var(),)))))")),
    ('t / (t + 1)', ('Div(lhs=Sub(lhs=Add(lhs=Var(), rhs=Const(value=1.0)), rhs=Var()), rhs=Pow(base=Add(lhs=Var(), rhs=Const(value=1.0)), exponent=2))', 'Div(lhs=Neg(arg=Mul(lhs=Sub(lhs=Add(lhs=Var(), rhs=Const(value=1.0)), rhs=Var()), rhs=Mul(lhs=Const(value=2.0), rhs=Add(lhs=Var(), rhs=Const(value=1.0))))), rhs=Pow(base=Pow(base=Add(lhs=Var(), rhs=Const(value=1.0)), exponent=2), exponent=2))')),
    ('1 / t', ('Div(lhs=Const(value=-1.0), rhs=Pow(base=Var(), exponent=2))', 'Div(lhs=Neg(arg=Mul(lhs=Const(value=-1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Var()))), rhs=Pow(base=Pow(base=Var(), exponent=2), exponent=2))')),
    ('t^2 / 3', ('Div(lhs=Mul(lhs=Mul(lhs=Const(value=2.0), rhs=Var()), rhs=Const(value=3.0)), rhs=Pow(base=Const(value=3.0), exponent=2))', 'Div(lhs=Mul(lhs=Const(value=6.0), rhs=Pow(base=Const(value=3.0), exponent=2)), rhs=Pow(base=Pow(base=Const(value=3.0), exponent=2), exponent=2))')),
    ('sqrt(t) / t', ("Div(lhs=Sub(lhs=Mul(lhs=Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),)))), rhs=Var()), rhs=Call(name='sqrt', args=(Var(),))), rhs=Pow(base=Var(), exponent=2))", "Div(lhs=Sub(lhs=Mul(lhs=Sub(lhs=Add(lhs=Mul(lhs=Div(lhs=Neg(arg=Mul(lhs=Const(value=2.0), rhs=Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),)))))), rhs=Pow(base=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),))), exponent=2)), rhs=Var()), rhs=Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),))))), rhs=Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),))))), rhs=Pow(base=Var(), exponent=2)), rhs=Mul(lhs=Sub(lhs=Mul(lhs=Div(lhs=Const(value=1.0), rhs=Mul(lhs=Const(value=2.0), rhs=Call(name='sqrt', args=(Var(),)))), rhs=Var()), rhs=Call(name='sqrt', args=(Var(),))), rhs=Mul(lhs=Const(value=2.0), rhs=Var()))), rhs=Pow(base=Pow(base=Var(), exponent=2), exponent=2))")),
    ('t^0', ('Const(value=0.0)', 'Const(value=0.0)')),
    ('t^1', ('Const(value=1.0)', 'Const(value=0.0)')),
    ('t^2', ('Mul(lhs=Const(value=2.0), rhs=Var())', 'Const(value=2.0)')),
    ('t^-3', ('Mul(lhs=Const(value=-3.0), rhs=Pow(base=Var(), exponent=-4))', 'Mul(lhs=Const(value=-3.0), rhs=Mul(lhs=Const(value=-4.0), rhs=Pow(base=Var(), exponent=-5)))')),
    ('(t + 1)^2', ('Mul(lhs=Const(value=2.0), rhs=Add(lhs=Var(), rhs=Const(value=1.0)))', 'Const(value=2.0)')),
    ('sin(t)^0', ('Const(value=0.0)', 'Const(value=0.0)')),
    ('t^3 * log(t)', ("Add(lhs=Mul(lhs=Mul(lhs=Const(value=3.0), rhs=Pow(base=Var(), exponent=2)), rhs=Call(name='log', args=(Var(),))), rhs=Mul(lhs=Pow(base=Var(), exponent=3), rhs=Div(lhs=Const(value=1.0), rhs=Var())))", "Add(lhs=Add(lhs=Mul(lhs=Mul(lhs=Const(value=3.0), rhs=Mul(lhs=Const(value=2.0), rhs=Var())), rhs=Call(name='log', args=(Var(),))), rhs=Mul(lhs=Mul(lhs=Const(value=3.0), rhs=Pow(base=Var(), exponent=2)), rhs=Div(lhs=Const(value=1.0), rhs=Var()))), rhs=Add(lhs=Mul(lhs=Mul(lhs=Const(value=3.0), rhs=Pow(base=Var(), exponent=2)), rhs=Div(lhs=Const(value=1.0), rhs=Var())), rhs=Mul(lhs=Pow(base=Var(), exponent=3), rhs=Div(lhs=Const(value=-1.0), rhs=Pow(base=Var(), exponent=2)))))")),
    ('t*1e308*10', ('Mul(lhs=Const(value=1e+308), rhs=Const(value=10.0))', 'Const(value=0.0)')),
    ('t*2*3', ('Const(value=6.0)', 'Const(value=0.0)')),
    ('2*3*t', ('Mul(lhs=Const(value=2.0), rhs=Const(value=3.0))', 'Const(value=0.0)')),
    ('1e308*t + 1e308*t', ('Add(lhs=Const(value=1e+308), rhs=Const(value=1e+308))', 'Const(value=0.0)')),
    ('t*1e308 - t*-1e308', ('Sub(lhs=Const(value=1e+308), rhs=Neg(arg=Const(value=1e+308)))', 'Const(value=0.0)')),
    ('abs(t)', ('NonDifferentiableError', 'abs is not differentiable')),
    ('min(t, 1)', ('NonDifferentiableError', 'min is not differentiable')),
    ('max(t, 0)', ('NonDifferentiableError', 'max is not differentiable')),
    ('abs(t) * min(t, 1)', ('NonDifferentiableError', 'abs is not differentiable')),
    ('sin(max(t, 1))', ('NonDifferentiableError', 'max is not differentiable')),
    ('min(t, 1) + abs(t)', ('NonDifferentiableError', 'min is not differentiable')),
]


@pytest.mark.parametrize("src, want", _DERIVATIVES)
def test_derivative_is_pinned(src, want):
    try:
        first = ex.differentiate(ex.parse(src))
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        got = (type(err).__name__, str(err))
    else:
        got = (repr(first), repr(ex.differentiate(first)))
    assert got == want


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
