"""Compare two checkouts' expression parsers on the same seeded random strings.

Each checkout's ``expr`` and ``_tape`` modules are loaded from its
``src/ordercalc`` under a package name of their own, without the rest of
the package and without writing bytecode.  Every string is parsed on both
sides, and each outcome is the AST's ``repr``, or the exception's class
name and message with, for ``ExprSyntaxError``, its offset and sorted
expected set.  The strings join 0 to 9 tokens drawn from an ASCII alphabet
of numbers, names, operators, whitespace and characters outside the
grammar.  The tool prints how many outcomes are equal and up to 10 strings
whose outcomes differ, with both outcomes, and exits 1 on any difference,
else 0.  It reads the checkouts and writes nothing.  Run from anywhere:

    python tools/parse_diff.py PARENT CHANGE --strings 300000 --seed 1
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


def outcome(expr: types.ModuleType, src: str) -> tuple:
    """What ``expr.parse(src)`` gives: the AST's repr, or the exception's fields."""
    try:
        return ("ast", repr(expr.parse(src)))
    except expr.ExprSyntaxError as err:
        return ("ExprSyntaxError", str(err), err.pos, sorted(err.expected))
    except Exception as err:  # noqa: BLE001 - any other escape is an outcome too
        return (type(err).__name__, str(err))


def differences(parent, change, strings: list[str]) -> list[tuple[str, tuple, tuple]]:
    """Each string whose outcomes under the two ``expr`` modules differ, with both outcomes."""
    found = []
    for src in strings:
        a, b = outcome(parent, src), outcome(change, src)
        if a != b:
            found.append((src, a, b))
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--strings", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    strings = random_strings(args.strings, args.seed)
    found = differences(load_expr(args.parent), load_expr(args.change), strings)
    print(f"{len(strings) - len(found)} of {len(strings)} strings have equal outcomes")
    for src, a, b in found[:SHOWN]:
        print(f"  {src!r}\n    parent: {a!r}\n    change: {b!r}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
