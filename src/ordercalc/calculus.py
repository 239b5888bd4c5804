"""Numeric differentiation, antiderivatives, and identity verification.

The checks here make the classical integral-calculus identities (mean
value for integrals, both fundamental theorems, substitution, integration
by parts) executable: each verifier samples the identity and reports the
largest residual against a declared tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels_fallback import GivenRows
from .expr import EvalDomainError
from .functions import KernelEvalError, LatticeFunction, ScalarKernel
from .integrate import (
    ToleranceSchedule,
    _each,
    _make_bands,
    _refine,
    integrate,
    signed_integrate,
)
from .lattice import Element, OrderInterval
from .partitions import uniform_grid

__all__ = [
    "VerificationReport",
    "numeric_derivative",
    "antiderivative",
    "mvt_integral_solve",
    "verify_ftc1",
    "verify_ftc2",
    "verify_substitution",
    "verify_by_parts",
]

# Central-difference step factors relative to the interval width, largest
# first; the stablest successive pair wins.
_H_FACTORS = (1e-3, 1e-4, 1e-5)

_MVT_MAX_BISECT = 60
_MVT_SCAN_START = 65
_MVT_SCAN_CAP = 4097

_DEFAULT_SCHED = ToleranceSchedule()


@dataclass(frozen=True)
class VerificationReport:
    """Residual summary for one verified identity."""

    name: str
    max_residual: Element
    tolerance: float
    passed: bool
    samples: int
    details: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual.to_json(),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "samples": self.samples,
            "details": self.details,
        }


def _require_coordinatewise(f: LatticeFunction, what: str) -> None:
    if not f.is_coordinatewise:
        raise ValueError(f"{what} requires a coordinatewise function")


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def numeric_derivative(
    f: LatticeFunction,
    x: Element,
    interval: OrderInterval,
    h_factors=_H_FACTORS,
    check_symbolic: bool = True,
) -> Element:
    """Per-atom central differences at the stablest step of a shrinking schedule.

    ``x`` must be interior.  When a kernel has a differentiable expression,
    the result is cross-checked against the symbolic derivative and a gross
    mismatch raises.
    """
    _require_coordinatewise(f, "numeric_derivative")
    if x.dim != interval.dim:
        raise ValueError("dimension mismatch")
    if not (interval.lo.strictly_below(x) and x.strictly_below(interval.hi)):
        raise ValueError("x must be interior to the interval")
    factors = tuple(h_factors)
    if len(factors) < 2 or any(h <= 0 for h in factors):
        raise ValueError("need at least two positive step factors")
    hi_factor = max(factors)

    width = interval.hi.data - interval.lo.data
    margin = np.minimum(x.data - interval.lo.data, interval.hi.data - x.data)
    scale = np.minimum(width, 0.99 * margin / hi_factor)

    estimates = []
    for factor in factors:
        d = np.empty(f.dim)
        for i, kernel in enumerate(f.kernels):
            h = factor * scale[i]
            d[i] = (kernel.eval(x[i] + h) - kernel.eval(x[i] - h)) / (2.0 * h)
        estimates.append(d)
    est = np.stack(estimates)  # (levels, dim)
    changes = np.abs(np.diff(est, axis=0))
    pick = np.argmin(changes, axis=0)
    out = est[pick + 1, np.arange(f.dim)]

    if check_symbolic:
        for i, kernel in enumerate(f.kernels):
            dk = kernel.derivative()
            if dk is None:
                continue
            sym = dk.eval(x[i])
            if abs(out[i] - sym) > 1e-3 * (1.0 + abs(sym)):
                raise ArithmeticError(
                    f"numeric derivative disagrees with the symbolic one in atom {i}: "
                    f"{out[i]!r} vs {sym!r}"
                )
    return Element(out)


# --------------------------------------------------------------------------
# Antiderivative with memoized cumulative grids
# --------------------------------------------------------------------------

@dataclass
class _CumulativeGrid:
    """Row ``row`` of ``band``: its cumulative Darboux prefixes over its closing dyadic grid.

    ``xs`` is the grid of the depth at which the atom's full-interval
    bracket closed, with the running lower and upper sums over its cells
    and the sampled widenings.  Queries are read-only.  A query at x adds
    the partial cell [x_j, x] to the cell prefix, so differences of nearby
    queries share prefixes and their grid errors cancel.  A zero-width atom
    holds no grid and reads 0.
    """

    band: object
    row: int
    xs: np.ndarray | None = None
    pref_l: np.ndarray | None = None
    pref_u: np.ndarray | None = None
    widen_l: float = 0.0
    widen_u: float = 0.0

    def bracket(self, x: float) -> tuple[float, float]:
        lo, hi = self.band.lo[self.row], self.band.hi[self.row]
        if not (lo <= x <= hi):
            raise ValueError(f"antiderivative queried outside its interval: {x!r}")
        if hi <= lo:
            return 0.0, 0.0
        xs = self.xs
        j = int(np.searchsorted(xs, x, side="right")) - 1
        j = min(max(j, 0), len(xs) - 2)
        base_l = self.pref_l[j - 1] if j > 0 else 0.0
        base_u = self.pref_u[j - 1] if j > 0 else 0.0
        if x > xs[j]:
            m, big = self.band.cell_extrema(self.row, xs[j], x)
            dx = x - xs[j]
            base_l += m * dx
            base_u += big * dx
        return base_l - self.widen_l, base_u + self.widen_u

    def value(self, x: float) -> float:
        lo, hi = self.bracket(x)
        return 0.5 * (lo + hi)


def _band_grids(band, sched: ToleranceSchedule) -> list[_CumulativeGrid]:
    """The cumulative grids of a band's atoms, in row order.

    Each row of nonzero width is refined by ``_refine`` on the lattice
    min(8, max_depth), +2, and so on, summing its prefixes over the uniform
    grid of each depth.  It keeps the grid of the pass that shut it, or of
    the first depth at or past max_depth.
    """
    grids = [_CumulativeGrid(band, r) for r in range(len(band.atoms))]  # kept if zero-width

    def measure(rows, depth):
        xs = uniform_grid(band.lo[rows], band.hi[rows], 1 << depth)
        pl, pu, wl, wu = band.prefixes(rows, GivenRows(xs))
        return pl[:, -1], pu[:, -1], wl, wu, xs, pl, pu

    rows = np.flatnonzero(band.hi > band.lo)
    passes = _refine(band, rows, sched, measure, first=min(8, sched.max_depth), step=2)
    for depth, rows, (_, _, _, shut), found in passes:
        stop = shut | (depth >= sched.max_depth)
        # A stopped row is copied out unless every row summed here stops, so
        # that it does not keep the rows still open alive.
        keep = np.asarray if stop.all() else np.copy
        for i in np.flatnonzero(stop):
            r, w = int(rows[i]), (float(found[2][i]), float(found[3][i]))
            grids[r] = _CumulativeGrid(band, r, *(keep(a[i]) for a in found[4:]), *w)
        del found  # before the next, four or more times larger, pass
    return grids


def antiderivative(
    f: LatticeFunction,
    interval: OrderInterval,
    sched: ToleranceSchedule | None = None,
) -> LatticeFunction:
    """F with F(x) giving the integral of f over [lo, x], as a function.

    Backed by per-atom cumulative grids, built band by band (the atoms that
    share a kernel, as in ``integrate``) at the schedule's resolution, by
    the refinement loop of ``integrate`` (see ``_band_grids``); evaluation
    anywhere in the interval is then cheap and read-only (safe to share
    across threads).  A kernel that fails raises KernelEvalError by the
    error rule of ``integrate._refine``.
    """
    _require_coordinatewise(f, "antiderivative")
    sched = sched or _DEFAULT_SCHED
    bands = _make_bands(f, interval.lo.data, interval.hi.data)
    grids: list = [None] * f.dim
    for band, band_grids in zip(bands, _each(lambda band: _band_grids(band, sched), bands)):
        for atom, grid in zip(band.atoms, band_grids):
            grids[atom] = grid
    kernels = [
        ScalarKernel.from_callable(g.value, label=f"antiderivative[{i}]")
        for i, g in enumerate(grids)
    ]
    return LatticeFunction(kind="coordinatewise", kernels=kernels)


# --------------------------------------------------------------------------
# Mean value theorem for integrals
# --------------------------------------------------------------------------

def mvt_integral_solve(
    f: LatticeFunction,
    x: Element,
    y: Element,
    tol: float = 1e-10,
    sched: ToleranceSchedule | None = None,
) -> Element:
    """Solve (y - x) f(c) = integral from x to y, atom by atom.

    Bisection on a bracketing grid; continuity of the kernels guarantees a
    bracket exists (a scan failure signals a discontinuous kernel and
    raises with the atom index).  Atoms with x_i = y_i return x_i.
    """
    _require_coordinatewise(f, "mvt_integral_solve")
    if x.dim != y.dim or x.dim != f.dim:
        raise ValueError("dimension mismatch")
    sched = sched or _DEFAULT_SCHED
    result = signed_integrate(f, x, y, sched=sched)
    c = np.empty(f.dim)
    for i, kernel in enumerate(f.kernels):
        xi, yi = x[i], y[i]
        if xi == yi:
            c[i] = xi
            continue
        lo, hi = (xi, yi) if xi < yi else (yi, xi)
        target = result.value[i]
        slope = yi - xi

        def g(t: float) -> float:
            return slope * kernel.eval(t) - target

        def g_many(ts: np.ndarray) -> np.ndarray:
            return slope * kernel.eval_many(ts) - target

        c[i] = _bisect_root(g, g_many, lo, hi, tol, atom=i)
    return Element(c)


def _bisect_root(g, g_many, lo: float, hi: float, tol: float, atom: int) -> float:
    """A root of ``g`` in [lo, hi]: scan with ``g_many``, then bisect with ``g``."""
    points = _MVT_SCAN_START
    while True:
        ts = np.linspace(lo, hi, points)
        try:
            vals = g_many(ts)
        except (ValueError, EvalDomainError) as err:
            raise KernelEvalError(atom, err) from err
        if np.all(vals == 0.0):
            return 0.5 * (lo + hi)
        hit = np.flatnonzero(vals == 0.0)
        if len(hit):
            return float(ts[hit[0]])
        sign_change = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        if len(sign_change):
            j = int(sign_change[0])
            a, b, va = float(ts[j]), float(ts[j + 1]), float(vals[j])
            break
        if points >= _MVT_SCAN_CAP:
            raise ArithmeticError(
                f"no bracket for the mean-value point in atom {atom}; "
                "kernel looks discontinuous"
            )
        points = 4 * (points - 1) + 1

    mid = 0.5 * (a + b)
    for _ in range(_MVT_MAX_BISECT):
        mid = 0.5 * (a + b)
        vm = g(mid)
        if abs(vm) <= tol or a == mid or b == mid:
            break
        if va * vm < 0.0:
            b = mid
        else:
            a, va = mid, vm
    if abs(g(mid)) > tol:
        # A sign change whose residual will not close is a jump, not a root.
        raise ArithmeticError(
            f"mean-value residual stuck at {abs(g(mid))!r} in atom {atom}; "
            "kernel looks discontinuous"
        )
    return mid


# --------------------------------------------------------------------------
# Fundamental theorems and integration techniques
# --------------------------------------------------------------------------

def _sample_interior(interval: OrderInterval, rng: np.random.Generator) -> Element:
    u = rng.uniform(0.05, 0.95, interval.dim)
    return Element(interval.lo.data + u * (interval.hi.data - interval.lo.data))


def _max_elem(a: Element | None, b: Element) -> Element:
    return b if a is None else a.sup(b)


def verify_ftc1(
    f: LatticeFunction,
    interval: OrderInterval,
    interior_samples: int = 10,
    tol: float = 1e-4,
    seed: int = 0,
    sched: ToleranceSchedule | None = None,
) -> VerificationReport:
    """|d/dx of the antiderivative - f| at sampled interior points."""
    _require_coordinatewise(f, "verify_ftc1")
    if not interval.lo.strictly_below(interval.hi):
        raise ValueError("needs a nondegenerate interval (lo strictly below hi)")
    anti = antiderivative(f, interval, sched=sched)
    rng = np.random.default_rng(seed)
    worst = None
    details = []
    for _ in range(interior_samples):
        x = _sample_interior(interval, rng)
        deriv = numeric_derivative(anti, x, interval)
        residual = abs(deriv - f.eval(x))
        worst = _max_elem(worst, residual)
        details.append({"x": x.to_json(), "residual": residual.to_json()})
    passed = bool(np.all(worst.data <= tol))
    return VerificationReport(
        name="ftc1",
        max_residual=worst,
        tolerance=tol,
        passed=passed,
        samples=interior_samples,
        details=details,
    )


def _check_symbolic_derivative(F: LatticeFunction, f: LatticeFunction, interval, what):
    """Probe that F's symbolic derivative matches f at a few points."""
    dF = F.derivative()
    if dF is None:
        raise ValueError(f"{what} needs a symbolically differentiable antiderivative")
    for u in (0.11, 0.5, 0.93):
        x = Element(interval.lo.data + u * (interval.hi.data - interval.lo.data))
        got = dF.eval(x)
        want = f.eval(x)
        if not np.all(np.abs(got.data - want.data) <= 1e-9 * (1.0 + np.abs(want.data))):
            raise ValueError(f"{what}: the declared derivative does not match")


def verify_ftc2(
    F: LatticeFunction,
    f: LatticeFunction,
    interval: OrderInterval,
    samples: int = 50,
    tol: float = 1e-5,
    seed: int = 0,
    sched: ToleranceSchedule | None = None,
    pairs=None,
) -> VerificationReport:
    """|signed integral of f from x to y - (F(y) - F(x))| over sampled pairs.

    Pairs are drawn independently, so dimensions >= 2 exercise incomparable
    endpoints as well as comparable ones.  Explicit ``pairs`` replace the
    sampling.
    """
    _require_coordinatewise(F, "verify_ftc2")
    _require_coordinatewise(f, "verify_ftc2")
    _check_symbolic_derivative(F, f, interval, "verify_ftc2")
    sched = sched or ToleranceSchedule(tol=tol / 4.0, max_depth=26)
    if pairs is None:
        rng = np.random.default_rng(seed)
        pairs = [(interval.sample(rng), interval.sample(rng)) for _ in range(samples)]
    worst = None
    details = []
    for x, y in pairs:
        lhs = signed_integrate(f, x, y, sched=sched).value
        rhs = F.eval(y) - F.eval(x)
        residual = abs(lhs - rhs)
        worst = _max_elem(worst, residual)
        details.append(
            {"x": x.to_json(), "y": y.to_json(), "residual": residual.to_json()}
        )
    passed = bool(np.all(worst.data <= tol))
    return VerificationReport(
        name="ftc2",
        max_residual=worst,
        tolerance=tol,
        passed=passed,
        samples=len(pairs),
        details=details,
    )


def verify_substitution(
    f: LatticeFunction,
    g: LatticeFunction,
    G: LatticeFunction,
    interval: OrderInterval,
    sched: ToleranceSchedule | None = None,
    tol: float = 1e-5,
) -> VerificationReport:
    """Integral of f(G(x)) g(x) over [lo, hi] vs the integral of f over [G(lo), G(hi)]."""
    for func, name in ((f, "f"), (g, "g"), (G, "G")):
        _require_coordinatewise(func, f"verify_substitution ({name})")
    _check_symbolic_derivative(G, g, interval, "verify_substitution")
    sched = sched or ToleranceSchedule(tol=tol / 4.0, max_depth=26)
    composite = f.compose(G).product(g)
    lhs = integrate(composite, interval, sched=sched).value
    rhs = signed_integrate(f, G.eval(interval.lo), G.eval(interval.hi), sched=sched).value
    residual = abs(lhs - rhs)
    passed = bool(np.all(residual.data <= tol))
    return VerificationReport(
        name="substitution",
        max_residual=residual,
        tolerance=tol,
        passed=passed,
        samples=1,
        details=[{"lhs": lhs.to_json(), "rhs": rhs.to_json()}],
    )


def verify_by_parts(
    f: LatticeFunction,
    g: LatticeFunction,
    df: LatticeFunction,
    dg: LatticeFunction,
    interval: OrderInterval,
    sched: ToleranceSchedule | None = None,
    tol: float = 1e-5,
) -> VerificationReport:
    """Integral of f dg vs f(b)g(b) - f(a)g(a) - integral of df g."""
    for func, name in ((f, "f"), (g, "g"), (df, "df"), (dg, "dg")):
        _require_coordinatewise(func, f"verify_by_parts ({name})")
    _check_symbolic_derivative(f, df, interval, "verify_by_parts")
    _check_symbolic_derivative(g, dg, interval, "verify_by_parts")
    sched = sched or ToleranceSchedule(tol=tol / 4.0, max_depth=26)
    left = integrate(f.product(dg), interval, sched=sched).value
    boundary = f.eval(interval.hi) * g.eval(interval.hi) - f.eval(interval.lo) * g.eval(
        interval.lo
    )
    right = boundary - integrate(df.product(g), interval, sched=sched).value
    residual = abs(left - right)
    passed = bool(np.all(residual.data <= tol))
    return VerificationReport(
        name="by_parts",
        max_residual=residual,
        tolerance=tol,
        passed=passed,
        samples=1,
        details=[{"lhs": left.to_json(), "rhs": right.to_json()}],
    )
