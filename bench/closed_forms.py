"""Closed forms of the benchmark's kernels, and the refinement-depth model.

Each kernel of the acceptance oracle has a known antiderivative, so every
integral the benchmark asks for has a reference value that owes nothing to
the package.  The same closed forms give each atom's total variation, from
which the depth at which a Darboux bracket closes is predicted without
running the integrator: on a uniform grid of n cells over a cell-wise
monotone kernel, upper minus lower sum is width * TV / n.
"""

from __future__ import annotations

import math

# kernel source -> (f, F, interior critical points of f)
KERNELS = {
    "t": (lambda t: t, lambda t: 0.5 * t * t, ()),
    "t^2": (lambda t: t * t, lambda t: t**3 / 3.0, (0.0,)),
    "t^3": (lambda t: t**3, lambda t: 0.25 * t**4, (0.0,)),
    "sin(t)": (math.sin, lambda t: -math.cos(t), tuple(0.5 * math.pi + k * math.pi for k in range(-4, 4))),
    "exp(t)": (math.exp, math.exp, ()),
    "3*t^2 - 2*t": (lambda t: 3 * t * t - 2 * t, lambda t: t**3 - t * t, (1.0 / 3.0,)),
    "t^3 - t": (lambda t: t**3 - t, lambda t: 0.25 * t**4 - 0.5 * t * t, (-(3**-0.5), 3**-0.5)),
}

# The acceptance oracle's kernel pool; sin and exp take the sampled path.
ORACLE_KERNELS = ("t", "t^2", "t^3", "sin(t)", "exp(t)", "3*t^2 - 2*t")
SAMPLED = frozenset({"sin(t)", "exp(t)"})


def integral(src: str, a: float, b: float) -> float:
    """The exact integral of kernel ``src`` over [a, b]."""
    F = KERNELS[src][1]
    return F(b) - F(a)


def total_variation(src: str, a: float, b: float) -> float:
    f, _, crit = KERNELS[src]
    pts = [a, *(c for c in crit if a < c < b), b]
    return sum(abs(f(q) - f(p)) for p, q in zip(pts, pts[1:]))


def log2_gap_ratio(src: str, a: float, b: float, tol: float) -> float:
    """log2 of (gap at depth 0) / (the bracket target), under the model."""
    spread = (b - a) * total_variation(src, a, b)
    target = tol * (1.0 + abs(integral(src, a, b)))
    if spread <= 0.0:
        return -math.inf
    return math.log2(spread / target)


def model_depth(src: str, a: float, b: float, tol: float) -> int:
    """First dyadic depth at which the modelled bracket closes."""
    return max(0, math.ceil(log2_gap_ratio(src, a, b, tol)))


def near_boundary(src: str, a: float, b: float, tol: float, margin: float) -> bool:
    """True when the model sits within ``margin`` (in log2) of a depth change."""
    r = log2_gap_ratio(src, a, b, tol)
    return math.isfinite(r) and r > 0 and abs(r - round(r)) < margin
