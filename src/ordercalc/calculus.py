"""Numeric differentiation, antiderivatives, and identity verification.

The checks here make the classical integral-calculus identities (mean
value for integrals, both fundamental theorems, substitution, integration
by parts) executable: each verifier samples the identity and reports the
largest residual against a declared tolerance.  An antiderivative is
built from ``integrate``'s own refinement: each atom keeps the running
sums at the stretch ends of the level that closes it, so F(hi) - F(lo)
is ``integrate``'s bracket, and a read adds the cells of at most one
stretch, the last of them partial, to a kept running sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._interval import _narrow
from ._kernels_fallback import STRETCH_CELLS, GivenRows, UniformRows
from .expr import EvalDomainError
from .functions import KernelEvalError, LatticeFunction, ScalarKernel, _each
from .integrate import (
    ToleranceSchedule,
    _make_bands,
    _refine,
    _representatives,
    integrate,
    signed_integrate,
)
from .lattice import Element, OrderInterval

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

def numeric_derivative(f: LatticeFunction, x: Element, interval: OrderInterval) -> Element:
    """Per-atom central differences at the stablest step of a shrinking schedule.

    ``x`` must be interior.  The six difference points of every atom are
    one ``f.eval_many``.  When a kernel has a differentiable expression,
    the result is cross-checked against the symbolic derivative at x, and a
    gross mismatch raises ArithmeticError.  A kernel that fails, at a
    difference point or in its derivative, raises KernelEvalError naming
    the lowest atom at fault; mismatches are checked only when none fails.
    """
    _require_coordinatewise(f, "numeric_derivative")
    if x.dim != interval.dim:
        raise ValueError("dimension mismatch")
    if not (interval.lo.strictly_below(x) and x.strictly_below(interval.hi)):
        raise ValueError("x must be interior to the interval")

    width = interval.hi.data - interval.lo.data
    margin = np.minimum(x.data - interval.lo.data, interval.hi.data - x.data)
    scale = np.minimum(width, 0.99 * margin / _H_FACTORS[0])

    syms, error = [], None
    for i, kernel in enumerate(f.kernels):
        dk = kernel.derivative()
        try:
            syms.append(None if dk is None else dk.eval(x[i]))
        except EvalDomainError as err:
            error = KernelEvalError(i, err)
            break
    h = np.multiply.outer(scale, _H_FACTORS)  # each atom's steps, largest first
    points = x.data[:, None] + np.stack([h, -h], axis=2).reshape(f.dim, -1)  # x ± h, step by step
    # one item holding every atom: raises the lower of its error and ``error``
    [vals] = _each(f.eval_many, [points], error, lambda _: 0)
    est = (vals[:, 0::2] - vals[:, 1::2]) / (2.0 * h)
    out = est[np.arange(f.dim), np.argmin(np.abs(np.diff(est, axis=1)), axis=1) + 1]
    for i, sym in enumerate(syms):
        if sym is not None and abs(out[i] - sym) > 1e-3 * (1.0 + abs(sym)):
            raise ArithmeticError(
                f"numeric derivative disagrees with the symbolic one in atom {i}: "
                f"{out[i]!r} vs {sym!r}"
            )
    return Element(out)


# --------------------------------------------------------------------------
# Antiderivative from the running sums of integrate's closing level
# --------------------------------------------------------------------------

@dataclass
class _CumulativeGrid:
    """Row ``row`` of ``band`` at the level where its bracket closed, kept by stretch.

    ``level`` is that level, one row of n uniform cells, and its
    ``running`` holds the running lower and upper sums at the end of each
    of its stretches of ``STRETCH_CELLS`` cells (``ends`` are the level's
    points there), the last being the row's total; ``widen_l`` and
    ``widen_u`` are the level's sampled widenings.  A read at x inside
    stretch k adds to the running sum at the end of stretch k - 1 one
    left-to-right sum, by ``band.sums``, over the level's own points of
    stretch k up to x, with x itself as the end of its partial cell.  A
    read exactly at a stretch end, hi included, is the running sum kept
    there, so the bracket at hi is ``integrate``'s, bit for bit.  Reads in
    one stretch share its leading running sum and its cells' products, so
    the grid errors of nearby reads cancel in their differences.  Queries
    are read-only.
    """

    band: object
    row: int
    level: UniformRows
    ends: np.ndarray
    widen_l: float
    widen_u: float

    def bracket(self, x: float) -> tuple[float, float]:
        lo, hi = self.band.lo[self.row], self.band.hi[self.row]
        if not (lo <= x <= hi):
            raise ValueError(f"antiderivative queried outside its interval: {x!r}")
        k = int(self.ends.searchsorted(x, "right")) - 1
        low, up = self.level.running[:, 0, k - 1] if k else (0.0, 0.0)
        if self.ends[k] < x:  # inside stretch k: its cells up to x, the last one cut at x
            c0 = k * STRETCH_CELLS
            xs = self.level.block(0, 1, c0, min(c0 + STRETCH_CELLS, self.level.n))
            j = int(xs[0].searchsorted(x, "right"))
            xs[0, j] = x  # block() made xs, so it is ours to cut
            try:
                got = self.band.sums(np.array([self.row]), GivenRows(xs[:, : j + 1]), (xs[0, 0], x))
            except KernelEvalError as err:  # the caller names the atom read
                raise err.cause from None
            low, up = low + got[0, 0], up + got[1, 0]
        return low - self.widen_l, up + self.widen_u

    def value(self, x: float) -> float:
        lo, hi = self.bracket(x)
        return 0.5 * (lo + hi)


def _band_grids(band, sched: ToleranceSchedule) -> list[_CumulativeGrid]:
    """The cumulative grids of a band's atoms, in row order.

    The band is refined by ``_refine`` on ``integrate``'s own levels,
    probe levels included (each at most 2^-5 of the cost of a row's due
    level), each pass's level holding its rows' running sums at their
    stretch ends.  A row keeps those of the level at which it stopped:
    where its bracket closed, or ``max_depth``.  So each atom stops at
    ``integrate``'s depth, with its sums, and fails where ``integrate``
    fails.
    """
    grids: list = [None] * len(band.atoms)
    for depth, rows, (_, _, _, shut), level, sums in _refine(band, np.arange(len(band.atoms)), sched):
        for i in np.flatnonzero(shut | (depth >= sched.max_depth)):
            r = int(rows[i])
            one = UniformRows(band.lo[r : r + 1], band.hi[r : r + 1], level.n)
            one.running[:, 0] = level.running[:, i]
            grids[r] = _CumulativeGrid(band, r, one, one.ends()[0], float(sums[2][i]), float(sums[3][i]))
        del level, sums  # before the next, larger, pass
    return grids


def antiderivative(
    f: LatticeFunction,
    interval: OrderInterval,
    sched: ToleranceSchedule | None = None,
) -> LatticeFunction:
    """F with F(x) giving the integral of f over [lo, x], as a function.

    Backed by per-atom cumulative grids, built band by band (the atoms that
    share a kernel, as in ``integrate``) by the refinement loop and the
    level sums of ``integrate`` (see ``_band_grids``): each atom keeps the
    running sums at the stretch ends of the level where ``integrate``
    closes it, so F(hi) - F(lo) is ``integrate``'s bracket bit for bit.
    A read sums at most one stretch of that level (see ``_CumulativeGrid``),
    and is read-only (safe to share across threads).  Atoms with one kernel
    object over the same interval bits share one grid, built once for the
    lowest of them (see ``integrate._representatives``).  A kernel that
    fails raises KernelEvalError by the error rule of ``integrate._refine``,
    as ``integrate`` would.
    """
    _require_coordinatewise(f, "antiderivative")
    sched = sched or _DEFAULT_SCHED
    lo, hi = interval.lo.data, interval.hi.data
    rep = _representatives(f, lo, hi)
    bands, error = _make_bands(f, lo, hi, rep)
    grids: list = [None] * f.dim
    for band, band_grids in zip(bands, _each(lambda band: _band_grids(band, sched), bands, error)):
        for atom, grid in zip(band.atoms, band_grids):
            grids[atom] = grid
    kernels = [
        ScalarKernel.from_callable(grids[r].value, label=f"antiderivative[{i}]")
        for i, r in enumerate(rep.tolist())
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

    ``_mvt_root`` scans for a sign change and narrows it with
    ``_interval._narrow``; continuity of the kernels guarantees a bracket
    exists (a scan failure signals a discontinuous kernel and raises with
    the atom index).  Atoms with
    x_i = y_i return x_i.  Atoms alike in kernel object and in the bits of
    x_i and y_i are solved once, for the lowest of them (see
    ``integrate._representatives``), which fails where that atom would.
    """
    _require_coordinatewise(f, "mvt_integral_solve")
    if x.dim != y.dim or x.dim != f.dim:
        raise ValueError("dimension mismatch")
    sched = sched or _DEFAULT_SCHED
    result = signed_integrate(f, x, y, sched=sched)
    rep = _representatives(f, x.data, y.data)
    c = np.empty(f.dim)
    for i, kernel in enumerate(f.kernels):
        if rep[i] != i:  # solved as its representative
            continue
        xi, yi = x[i], y[i]
        if xi == yi:
            c[i] = xi
            continue
        lo, hi = (xi, yi) if xi < yi else (yi, xi)
        target = float(result.value[i])
        slope = yi - xi

        def g(t: float) -> float:
            return slope * kernel.eval(t) - target

        def g_many(ts: np.ndarray) -> np.ndarray:
            return slope * kernel.eval_many(ts) - target

        try:
            c[i] = _mvt_root(g, g_many, lo, hi, tol, target, atom=i)
        except EvalDomainError as err:
            raise KernelEvalError(i, err) from err
    return Element(c[rep])


def _mvt_root(g, g_many, lo: float, hi: float, tol: float, target: float, atom: int) -> float:
    """The mean-value point: a root of ``g`` = slope·f - ``target`` in [lo, hi].

    A scan with ``g_many`` grows its grid from ``_MVT_SCAN_START`` to
    ``_MVT_SCAN_CAP`` points until two neighbours change sign.
    ``_interval._narrow``, the refiner of the critical points, then shrinks
    that bracket with ``g`` to four ulps of its larger end, and its midpoint
    is the root if |g| there is at most tol·max(1, |target|) plus four ulps
    of |g| + |target|, which bounds |slope·f| there: g rounds at the ulps of
    its terms, so an absolute ``tol`` alone would refuse the root of a large
    integral.  ``g`` and ``g_many`` evaluate f alike (``ScalarKernel.eval``
    and ``eval_many``), so the scan and the narrowing agree on f's domain.
    ``atom`` names the atom in the errors raised here; the caller names it
    when ``g`` or ``g_many`` raise EvalDomainError.
    """
    points = _MVT_SCAN_START
    while True:
        ts = np.linspace(lo, hi, points)
        vals = g_many(ts)
        if np.all(vals == 0.0):
            return 0.5 * (lo + hi)
        hit = np.flatnonzero(vals == 0.0)
        if len(hit):
            return float(ts[hit[0]])
        sign_change = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        if len(sign_change):
            j = int(sign_change[0])
            break
        if points >= _MVT_SCAN_CAP:
            raise ArithmeticError(
                f"no bracket for the mean-value point in atom {atom}; "
                "kernel looks discontinuous"
            )
        points = 4 * (points - 1) + 1

    a, b = float(ts[j]), float(ts[j + 1])
    a, b = _narrow(g, a, b, float(vals[j]), float(vals[j + 1]), 4.0 * math.ulp(max(abs(a), abs(b))))
    mid = 0.5 * (a + b)
    residual = abs(g(mid))
    if residual > tol * max(1.0, abs(target)) + 4.0 * math.ulp(residual + abs(target)):
        # A sign change whose residual will not close is a jump, not a root.
        raise ArithmeticError(
            f"mean-value residual stuck at {residual!r} in atom {atom}; "
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
    if interior_samples < 1:
        raise ValueError("verify_ftc1 needs interior_samples >= 1")
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
    sampling; there must be at least one pair.  The integrals of all pairs
    are one ``signed_integrate`` over len(pairs) × dim atoms, f's kernels
    repeated per pair, which gives each pair's values bit for bit, as each
    atom is its kernel integrated alone.  A failing kernel raises
    KernelEvalError naming its atom of f, as if the pairs ran one by one.
    """
    _require_coordinatewise(F, "verify_ftc2")
    _require_coordinatewise(f, "verify_ftc2")
    _check_symbolic_derivative(F, f, interval, "verify_ftc2")
    sched = sched or ToleranceSchedule(tol=tol / 4.0, max_depth=26)
    if pairs is None:
        rng = np.random.default_rng(seed)
        pairs = [(interval.sample(rng), interval.sample(rng)) for _ in range(samples)]
    if not pairs:
        raise ValueError("verify_ftc2 needs at least one pair")
    dim = f.dim
    if any(x.dim != dim or y.dim != dim for x, y in pairs):
        raise ValueError("dimension mismatch")
    batch = LatticeFunction(kind="coordinatewise", kernels=f.kernels * len(pairs))
    xs, ys = (Element(np.concatenate([p[k].data for p in pairs])) for k in (0, 1))
    try:
        lhs_all = signed_integrate(batch, xs, ys, sched=sched).value.data
    except KernelEvalError as err:
        for x, y in pairs[: err.atom // dim]:  # the pairs before it evaluate F first
            F.eval(y), F.eval(x)
        raise KernelEvalError(err.atom % dim, err.cause) from err.cause
    worst = None
    details = []
    for n, (x, y) in enumerate(pairs):
        lhs = Element(lhs_all[n * dim : (n + 1) * dim])
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
