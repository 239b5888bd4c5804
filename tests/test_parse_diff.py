"""``tools/parse_diff.py``: the repository against itself, and the comparison on a synthetic difference."""

import importlib.util
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("parse_diff", REPO / "tools" / "parse_diff.py")
parse_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parse_diff)


def test_each_load_is_a_package_of_its_own():
    one, two = parse_diff.load_expr(REPO), parse_diff.load_expr(REPO)
    assert one is not two and one.__name__ != two.__name__
    assert one.ExprSyntaxError is not two.ExprSyntaxError
    assert one._tape.__name__.startswith(one.__name__.rsplit(".", 1)[0])
    assert Path(one.__file__) == REPO / "src" / "ordercalc" / "expr.py"


def test_the_repository_matches_itself(capsys):
    assert parse_diff.main([str(REPO), str(REPO), "--strings", "2000", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "2000 of 2000 strings have equal outcomes\n"


def test_strings_are_seeded_and_cover_both_outcomes():
    strings = parse_diff.random_strings(2000, 1)
    assert strings == parse_diff.random_strings(2000, 1) != parse_diff.random_strings(2000, 2)
    assert "" in strings and all(s.isascii() for s in strings)
    expr = parse_diff.load_expr(REPO)
    kinds = {parse_diff.outcome(expr, s)[0] for s in strings}
    assert {"ast", "ExprSyntaxError"} <= kinds


def test_a_difference_is_listed_and_fails_the_run(monkeypatch, capsys):
    expr = parse_diff.load_expr(REPO)

    def parse(src):  # reads every sum as a difference
        return expr.parse(src.replace("+", "-"))

    changed = types.SimpleNamespace(parse=parse, ExprSyntaxError=expr.ExprSyntaxError)
    found = parse_diff.differences(expr, changed, ["t", "t + 1", "t @"])
    assert found == [("t + 1", parse_diff.outcome(expr, "t + 1"), parse_diff.outcome(expr, "t - 1"))]

    sides = {"p": expr, "c": changed}
    monkeypatch.setattr(parse_diff, "load_expr", lambda tree: sides[str(tree)])
    assert parse_diff.main(["p", "c", "--strings", "500", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    equal = int(out[0].split()[0])
    assert 0 < equal < 500 and out[0].endswith(" of 500 strings have equal outcomes")
    assert len(out) == 1 + 3 * min(parse_diff.SHOWN, 500 - equal)
    assert out[2].startswith("    parent: ") and out[3].startswith("    change: ")


def test_the_repository_matches_itself_on_expressions(capsys):
    assert parse_diff.main([str(REPO), str(REPO), "--exprs", "500", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "500 of 500 expressions have equal outcomes\n"


def test_expressions_are_seeded_and_cover_the_grammar():
    sources = parse_diff.random_sources(2000, 1)
    assert sources == parse_diff.random_sources(2000, 1) != parse_diff.random_sources(2000, 2)
    expr = parse_diff.load_expr(REPO)
    kinds, calls, exponents, outcomes = set(), set(), set(), set()
    for src in sources:
        stack = [expr.parse(src)]
        while stack:
            e = stack.pop()
            kinds.add(type(e).__name__)
            if isinstance(e, expr.Call):
                calls.add((e.name, len(e.args)))
            if isinstance(e, expr.Pow):
                exponents.add(e.exponent)
            stack.extend(x for x in vars(e).values() if isinstance(x, expr.Expr))
            stack.extend(getattr(e, "args", ()))
        outcomes.add(parse_diff.expr_outcome(expr, src)[-1][0])
    assert kinds == {"Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call"}
    assert calls == set(parse_diff.CALLS.items())
    assert exponents == set(range(-3, 5))
    assert {"ok", "NonDifferentiableError"} <= outcomes


def test_a_derivative_difference_is_listed_and_fails_the_run(monkeypatch, capsys):
    expr = parse_diff.load_expr(REPO)

    def differentiate(e):  # negates the derivative of an expression that is an exp call
        d = expr.differentiate(e)
        return expr.Neg(d) if isinstance(e, expr.Call) and e.name == "exp" else d

    changed = types.SimpleNamespace(**vars(expr))
    changed.differentiate = differentiate
    found = parse_diff.differences(expr, changed, ["t^2", "exp(t)", "abs(t)"], parse_diff.expr_outcome)
    assert [src for src, _, _ in found] == ["exp(t)"]
    src, a, b = found[0]
    assert a[:4] == b[:4] and a[4] != b[4]  # parse, substitution, print and program agree

    sides = {"p": expr, "c": changed}
    monkeypatch.setattr(parse_diff, "load_expr", lambda tree: sides[str(tree)])
    assert parse_diff.main(["p", "c", "--exprs", "500", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    equal = int(out[0].split()[0])
    assert 0 < equal < 500 and out[0].endswith(" of 500 expressions have equal outcomes")
    assert len(out) == 1 + 3 * min(parse_diff.SHOWN, 500 - equal)


def test_a_run_asks_for_some_inputs():
    with pytest.raises(SystemExit) as info:
        parse_diff.main([str(REPO), str(REPO), "--seed", "1"])
    assert info.value.code == 2
