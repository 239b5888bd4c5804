"""Compare two checkouts' expression front ends on the same seeded random inputs.

Each checkout's ``expr`` and ``_tape`` modules are loaded from its
``src/ordercalc`` under a package name of their own, without the rest of
the package and without writing bytecode.  Two kinds of input are drawn
with the seed, and both sides get the same ones:

- ``--strings N``: strings of 0 to 9 tokens drawn from an ASCII alphabet
  of numbers, names, operators, whitespace and characters outside the
  grammar.  Each outcome is the parse: the AST's ``repr``, or the
  exception's class name and message with, for ``ExprSyntaxError``, its
  offset and sorted expected set.  Few of them parse, and almost none
  holds a call.
- ``--exprs N``: expressions of the grammar, 1 to 5 nodes deep, that hold
  every node kind, every function at its arity and exponents -3 to 4.
  Each outcome is the parse and, where it parses, ``substitute(e, t^2 +
  1)``, and the printed form and program of the expression and of its
  first and second derivatives, with each derivative's AST; any
  exception is an outcome too.

For each kind asked for, the tool prints how many outcomes are equal and
up to 10 inputs whose outcomes differ, with both outcomes.  It exits 1 on
any difference, else 0.  It reads the checkouts and writes nothing.  Run
from anywhere:

    python tools/parse_diff.py PARENT CHANGE --strings 300000 --exprs 20000 --seed 1
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import random
import sys
import types
from pathlib import Path

ALPHABET = (
    "t", "u", "e", "E", "_x", "t2", "sin", "cos", "exp", "log", "abs", "sqrt", "min", "max",
    "0", "1", "2", "10", "2.5", "1.", ".", "1e", "1e+", "1e5", "10E2", "1.5e-3", "1..2",
    "+", "-", "*", "/", "^", "(", ")", ",", "@", "%", " ", "\t",
)
CALLS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "abs": 1, "sqrt": 1, "min": 2, "max": 2}
LEAVES = ("t", "t", "0", "1", "2", "3", "0.5", "2.5", "10", "1e-3", "1e308")
SHOWN = 10

_loaded = itertools.count()


def load_expr(tree: Path) -> types.ModuleType:
    """``tree``'s ``expr`` module, with its ``_tape``, under a package name no other load has."""
    name = f"_parse_diff_{next(_loaded)}"
    package = types.ModuleType(name)
    package.__path__ = [str(Path(tree).resolve() / "src" / "ordercalc")]
    sys.modules[name] = package
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(f"{name}.expr")
    finally:
        sys.dont_write_bytecode = writes


def random_strings(count: int, seed: int) -> list[str]:
    """``count`` strings, each 0 to 9 tokens of ``ALPHABET`` drawn with ``seed``."""
    rng = random.Random(seed)
    return ["".join(rng.choices(ALPHABET, k=rng.randint(0, 9))) for _ in range(count)]


def random_source(rng: random.Random, depth: int) -> str:
    """An expression of the grammar at most ``depth`` nodes deep, drawn with ``rng``."""
    if depth <= 1 or rng.random() < 0.2:
        return rng.choice(LEAVES)

    def operand() -> str:  # bracketed half the time, so precedence decides the rest
        src = random_source(rng, depth - 1)
        return f"({src})" if rng.random() < 0.5 else src

    roll = rng.randrange(4)
    if roll == 0:
        return "-" + operand()
    if roll == 1:
        return f"{operand()} {rng.choice('+-*/')} {operand()}"
    if roll == 2:
        return f"({random_source(rng, depth - 1)})^{rng.randint(-3, 4)}"
    name = rng.choice(sorted(CALLS))
    return f"{name}({', '.join(random_source(rng, depth - 1) for _ in range(CALLS[name]))})"


def random_sources(count: int, seed: int) -> list[str]:
    """``count`` expressions of the grammar, each 1 to 5 nodes deep, drawn with ``seed``."""
    rng = random.Random(seed)
    return [random_source(rng, rng.randint(1, 5)) for _ in range(count)]


def _attempt(f, *args) -> tuple:
    try:
        return ("ok", f(*args))
    except Exception as err:  # noqa: BLE001 - any exception is an outcome
        return (type(err).__name__, str(err))


def outcome(expr: types.ModuleType, src: str) -> tuple:
    """What ``expr.parse(src)`` gives: the AST's repr, or the exception's fields."""
    try:
        return ("ast", repr(expr.parse(src)))
    except expr.ExprSyntaxError as err:
        return ("ExprSyntaxError", str(err), err.pos, sorted(err.expected))
    except Exception as err:  # noqa: BLE001 - any other escape is an outcome too
        return (type(err).__name__, str(err))


def expr_outcome(expr: types.ModuleType, src: str) -> tuple:
    """The outcomes of ``src``: its parse and, where it parses, the rest.

    The rest is ``substitute(e, t^2 + 1)``, then the printed form and the
    program of ``e``, of its first derivative and of its second, each
    derivative's AST before them.  A derivative that raises ends the list.
    """
    got = [outcome(expr, src)]
    if got[0][0] != "ast":
        return tuple(got)
    e = expr.parse(src)
    got.append(_attempt(lambda: repr(expr.substitute(e, expr.parse("t^2 + 1")))))
    for order in range(3):  # e, then e' and e''
        if order:
            try:
                e = expr.differentiate(e)
            except Exception as err:  # noqa: BLE001 - any exception is an outcome
                got.append((type(err).__name__, str(err)))
                break
            got.append(("ast", repr(e)))
        got.append(_attempt(expr.print_expr, e))
        got.append(_attempt(lambda: repr(expr._tape.compile_expr(e).steps)))
    return tuple(got)


def differences(parent, change, sources: list[str], judge=outcome) -> list[tuple[str, tuple, tuple]]:
    """Each source whose outcomes by ``judge`` under the two ``expr`` modules differ, with both outcomes."""
    found = []
    for src in sources:
        a, b = judge(parent, src), judge(change, src)
        if a != b:
            found.append((src, a, b))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--strings", type=int, default=0)
    parser.add_argument("--exprs", type=int, default=0)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if not (args.strings or args.exprs):
        parser.error("give --strings, --exprs or both")

    parent, change = load_expr(args.parent), load_expr(args.change)
    failed = False
    for count, noun, draw, judge in (
        (args.strings, "strings", random_strings, outcome),
        (args.exprs, "expressions", random_sources, expr_outcome),
    ):
        if not count:
            continue
        sources = draw(count, args.seed)
        found = differences(parent, change, sources, judge)
        print(f"{len(sources) - len(found)} of {len(sources)} {noun} have equal outcomes")
        for src, a, b in found[:SHOWN]:
            print(f"  {src!r}\n    parent: {a!r}\n    change: {b!r}")
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
