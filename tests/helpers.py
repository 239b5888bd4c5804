"""Shared test oracles: a tree-walking evaluator, adaptive Simpson quadrature, a random AST generator and a level's stretch sums.

The evaluator and the quadrature oracle are deliberately independent of the
package's own machinery: ``reference_eval`` walks the AST with plain Python
floats instead of running a compiled program, and the quadrature is
recursive Simpson with Richardson acceleration.
"""

from __future__ import annotations

import math
import os
import random
from pathlib import Path

import numpy as np

import ordercalc
from ordercalc import expr as ex

# The directory holding the ``ordercalc`` package these tests imported.
PACKAGE_ROOT = str(Path(ordercalc.__file__).resolve().parent.parent)


def with_package_path(env) -> dict:
    """Copy of ``env`` whose PYTHONPATH starts with ``PACKAGE_ROOT``.

    A child interpreter started with it imports the package under test,
    whether or not some ``ordercalc`` is installed.
    """
    env = dict(env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return env


def stretch_subtotals(v, xs, lows, ups, ts, g: int, block: int) -> np.ndarray:
    """A uniform level's (L, U) subtotal per stretch of g cells, written plainly, as (2, stretches).

    ``v`` holds the kernel's values at the level's points ``xs``, ``lows``
    and ``ups`` each cell's products min·dx and max·dx, and ``ts`` the
    points of the critical entries.  A row of more than block/2 cells is
    summed alone, a block of ``block`` cells at a time.  There a block that
    holds no entry sums each stretch as step * (its inner values + the
    least or greatest of its end values), its inner values by one
    reduction, unless one of those sums is not finite.  Every other
    stretch, on a shorter row or in a block that holds an entry, sums its
    products by one reduction.
    """
    n = len(xs) - 1
    step = (xs[-1] - xs[0]) / n
    held = np.clip(np.searchsorted(xs, ts, side="right") - 1, 0, n - 1)
    out = []
    for b0 in range(0, n, block):
        b1 = min(b0 + block, n)
        starts = range(b0, b1, g)
        sums = []
        for c0 in starts:
            c1 = min(c0 + g, b1)
            inner = np.add.reduce(v[c0 + 1 : c1])
            sums.append([step * (inner + end) for end in (min(v[c0], v[c1]), max(v[c0], v[c1]))])
        if 2 * n <= block or ((held >= b0) & (held < b1)).any() or not np.isfinite(sums).all():
            sums = [[np.add.reduce(p[c0 : min(c0 + g, b1)]) for p in (lows, ups)] for c0 in starts]
        out += sums
    return np.array(out).T.reshape(2, -1)


_UNARY = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log, "abs": abs, "sqrt": math.sqrt}


def reference_eval(e: ex.Expr, t: float) -> float:
    """The value of the AST ``e`` at ``t``, walking the tree with ``math``.

    Stricter than the package: any step that leaves the real domain
    (division by zero, log of a non-positive value, sqrt of a negative one,
    an overflowing exp, a negative power that underflows to 1/0) raises
    EvalDomainError, even where a later step would make the value finite.
    """
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return float(t)
    if isinstance(e, ex.Neg):
        return -reference_eval(e.arg, t)
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        a, b = reference_eval(e.lhs, t), reference_eval(e.rhs, t)
        if isinstance(e, ex.Add):
            return a + b
        if isinstance(e, ex.Sub):
            return a - b
        if isinstance(e, ex.Mul):
            return a * b
        if b == 0.0:
            raise ex.EvalDomainError("division by zero")
        return a / b
    if isinstance(e, ex.Pow):
        base = reference_eval(e.base, t)
        try:
            return ex._ipow(base, e.exponent)
        except ZeroDivisionError:
            raise ex.EvalDomainError("a negative power that is 1/0") from None
    if isinstance(e, ex.Call):
        args = [reference_eval(a, t) for a in e.args]
        if e.name in ("min", "max"):
            return min(args) if e.name == "min" else max(args)
        try:
            return _UNARY[e.name](args[0])
        except (ValueError, OverflowError) as err:
            raise ex.EvalDomainError(f"{e.name}({args[0]!r}): {err}") from None
    raise TypeError(f"not an expression node: {e!r}")


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Classic adaptive Simpson quadrature; signed in the endpoint order."""
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol)

    def simpson(x0, f0, x2, f2, x1, f1):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, f0, x2, f2, x1, f1, whole, eps, depth):
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, f0, x1, f1, lm, flm)
        right = simpson(x1, f1, x2, f2, rm, frm)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(x0, f0, x1, f1, lm, flm, left, 0.5 * eps, depth - 1) + recurse(
            x1, f1, x2, f2, rm, frm, right, 0.5 * eps, depth - 1
        )

    mid = 0.5 * (a + b)
    fa, fb, fm = f(a), f(b), f(mid)
    whole = simpson(a, fa, b, fb, mid, fm)
    return recurse(a, fa, b, fb, mid, fm, whole, tol, 48)


def central_difference(f, t: float, h: float = 1e-6) -> float:
    return (f(t + h) - f(t - h)) / (2.0 * h)


# --------------------------------------------------------------------------
# Random expression ASTs
# --------------------------------------------------------------------------

_SMOOTH_CALLS = ("sin", "cos", "exp", "log", "sqrt")
_ALL_CALLS = _SMOOTH_CALLS + ("abs",)


def random_expr(rng: random.Random, depth: int = 4, smooth_only: bool = False) -> ex.Expr:
    """A random AST mirroring what the parser can produce (no negative Const)."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ex.Var()
        return ex.Const(round(rng.uniform(0.0, 9.75) * 4) / 4)
    roll = rng.random()
    if roll < 0.18:
        return ex.Neg(random_expr(rng, depth - 1, smooth_only))
    if roll < 0.60:
        op = rng.choice((ex.Add, ex.Sub, ex.Mul, ex.Div))
        return op(
            random_expr(rng, depth - 1, smooth_only),
            random_expr(rng, depth - 1, smooth_only),
        )
    if roll < 0.78:
        return ex.Pow(random_expr(rng, depth - 1, smooth_only), rng.randint(0, 4))
    if not smooth_only and rng.random() < 0.25:
        name = rng.choice(("min", "max"))
        return ex.Call(
            name,
            (
                random_expr(rng, depth - 1, smooth_only),
                random_expr(rng, depth - 1, smooth_only),
            ),
        )
    name = rng.choice(_SMOOTH_CALLS if smooth_only else _ALL_CALLS)
    return ex.Call(name, (random_expr(rng, depth - 1, smooth_only),))
