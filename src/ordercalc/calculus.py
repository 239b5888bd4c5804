"""Numeric differentiation, antiderivatives, and identity verification.

The checks here make the classical integral-calculus identities (mean
value for integrals, both fundamental theorems, substitution, integration
by parts) executable: each verifier samples the identity and reports the
largest residual against a declared tolerance.  An antiderivative is
built from ``integrate``'s own refinement: each atom keeps the running
sums at the stretch ends of the level that closes it, so F(hi) - F(lo)
is ``integrate``'s bracket, and a read adds the cells of at most one
stretch, the last of them partial, to a kept running sum.  Reads come in
batches: all the points of one call of F's ``eval_many`` are summed for
each atom at once, a lone point being a batch of one, and FTC1 reads the
difference points of all its samples in one such call.  Every read has
one row shape, the points of its stretch clipped at x: cells of zero
width past x add ±0.0 to a running sum that is never -0.0, so they leave
its bits as they are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._interval import _narrow
from ._kernels_fallback import CHUNK_CELLS, STRETCH_CELLS, GivenRows, UniformRows
from .expr import EvalDomainError
from .functions import KernelEvalError, LatticeFunction, ScalarKernel, _each
from .integrate import (
    ToleranceSchedule,
    _Band,
    _make_bands,
    _midpoints,
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

# Antiderivative reads inside a stretch are summed this many at a time,
# half a chunk's cells in all, and a stretch's float indices 0, 1, ...,
# STRETCH_CELLS.  A batch's arrays, about 0.75 MiB at 64 full reads, are
# freed when it ends; reads of all the atoms that share a grid come in one
# call (FTC1 reads 60 per atom), so a larger batch would raise peak memory.
_READ_ROWS = CHUNK_CELLS // STRETCH_CELLS // 2
_COLS = np.arange(STRETCH_CELLS + 1.0)


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


def _require_tol(tol: float) -> None:
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be >= 0, got {tol!r}")


# --------------------------------------------------------------------------
# Differentiation
# --------------------------------------------------------------------------

def numeric_derivative(f: LatticeFunction, x: Element, interval: OrderInterval) -> Element:
    """Per-atom central differences at the stablest step of a shrinking schedule.

    ``x`` must be interior.  The six difference points of every atom are
    one ``f.eval_many`` (``_derivatives`` reads those of many x in one).
    When a kernel has a differentiable expression, the result is
    cross-checked against the symbolic derivative at x, and a gross
    mismatch raises ArithmeticError.  A kernel that fails, at a
    difference point or in its derivative, raises KernelEvalError naming
    the lowest atom at fault; mismatches are checked only when none fails.
    """
    return Element(_derivatives(f, [x], interval)[0])


def _derivatives(f: LatticeFunction, xs: list[Element], interval: OrderInterval) -> np.ndarray:
    """``numeric_derivative`` at each x of ``xs``, row by row, with one ``f.eval_many`` for all of them.

    Atom i's row of that call holds the six difference points of every x
    in turn, so each kernel reads all of its points at once; a derivative
    is computed from its own points alone, so it has the bits of
    ``numeric_derivative`` at its x.  With one x this is
    ``numeric_derivative``, errors included; with several, an error is
    the batch's, and a caller that must name the first failing x re-runs
    them one by one.
    """
    _require_coordinatewise(f, "numeric_derivative")
    lo, hi = interval.lo, interval.hi
    if any(x.dim != interval.dim for x in xs):
        raise ValueError("dimension mismatch")
    if not all(lo.strictly_below(x) and x.strictly_below(hi) for x in xs):
        raise ValueError("x must be interior to the interval")
    at = np.array([x.data for x in xs]).T  # (atoms, samples)
    margin = np.minimum(at - lo.data[:, None], hi.data[:, None] - at)
    scale = np.minimum((hi.data - lo.data)[:, None], 0.99 * margin / _H_FACTORS[0])

    syms, error = [], None  # each x's symbolic derivatives, and the first that fails
    for x in xs:
        for i, dk in enumerate(kernel.derivative() for kernel in f.kernels):
            try:
                syms.append(None if dk is None else dk.eval(x[i]))
            except EvalDomainError as err:
                error = error or KernelEvalError(i, err)
    h = scale[..., None] * np.asarray(_H_FACTORS)  # each atom's steps at each x, largest first
    points = at[..., None] + np.stack([h, -h], axis=3).reshape(*h.shape[:2], -1)  # x ± h, step by step
    # one item holding every atom: raises the lower of its error and ``error``
    vals = _each(f.eval_many, [points.reshape(f.dim, -1)], error, lambda _: 0)[0].reshape(points.shape)
    est = (vals[..., 0::2] - vals[..., 1::2]) / (2.0 * h)
    out = np.take_along_axis(est, np.argmin(np.abs(np.diff(est, axis=2)), axis=2)[..., None] + 1, axis=2)[..., 0].T
    for (n, i), sym in zip(np.ndindex(*out.shape), syms):
        if sym is not None and abs(out[n, i] - sym) > 1e-3 * (1.0 + abs(sym)):
            message = f"numeric derivative disagrees with the symbolic one in atom {i}: {out[n, i]!r} vs {sym!r}"
            raise ArithmeticError(message)
    return out


# --------------------------------------------------------------------------
# Antiderivative from the running sums of integrate's closing level
# --------------------------------------------------------------------------

@dataclass
class _CumulativeGrid:
    """One atom at the level where its bracket closed, kept by stretch.

    ``band`` is the atom's own one-atom band, and ``level`` that level,
    one row of n uniform cells, whose ``running`` holds the running lower
    and upper sums at the end of each of its stretches of
    ``STRETCH_CELLS`` cells (``ends`` are the level's points there), the
    last being the row's total; ``widen_l`` and ``widen_u`` are the
    level's sampled widenings.  A read at x inside stretch k adds to the
    running sum at the end of stretch k - 1 one left-to-right sum over the
    level's own points of stretch k up to x, with x itself as the end of
    its partial cell, folding the band's entries with a <= t < x, a being
    the stretch's first point: each goes to the cell the whole level puts
    it in.  A read exactly at a stretch end, hi included, is the running
    sum kept there, so the bracket at hi is ``integrate``'s, bit for bit.
    Reads in one stretch share its leading running sum and its cells'
    products, so the grid errors of nearby reads cancel in their
    differences.  Every read goes through ``brackets``, which sums a batch
    of reads by one call of the band's sums over a ``GivenRows`` of one
    row a read, each of the stretch's c + 1 points clipped at x: past x
    the row repeats x, and those cells of zero width add ±0.0 to a running
    sum that is never -0.0, so each row gives the bits of its read alone
    (see ``_partial_sums``).  A value is the midpoint of its bracket as
    ``integrate._midpoints`` takes it, so F(hi) near the float max stays
    finite.  Alike atoms share one grid, and F's ``eval_many`` reads it
    once for all their points.  Queries are read-only.

    ``first`` and ``bare`` let a batch none of whose stretches holds an
    entry below its x (most reads of most atoms) sum with the band
    without entries, after one search, instead of cutting the entries
    row by row: without them a two-atom ``F.eval`` of the benchmark's
    antiderivative took 66 µs instead of 61 µs (best of 12 alternated
    rounds, 2 shared vCPUs, numpy 2.4.6).
    """

    band: _Band
    level: UniformRows
    ends: np.ndarray
    widen_l: float
    widen_u: float

    def __post_init__(self):
        # F's sums at each stretch end, from 0 at lo; the widenings as
        # subtrahends; the band's first entry at or past each stretch end;
        # and the band without entries, which most reads sum with
        band = self.band
        self.sums = np.concatenate((np.zeros((2, 1)), self.level.running[:, 0]), axis=1)
        self.widen = np.array([[self.widen_l], [-self.widen_u]])
        self.first = None if band.entries is None else band.entries[1].searchsorted(self.ends)
        self.bare = _Band(band.kernel, band.atoms, band.lo, band.hi, band.sampled)

    def brackets(self, xs: np.ndarray) -> np.ndarray:
        """F's lower and upper brackets, a (2, len(xs)) array, at each point of the 1-D array ``xs``.

        Each read adds its stretch's cells up to it (``_partial_sums``) to
        the sums kept at the end of the stretch before, ``_READ_ROWS``
        reads at a time, a lone read being a batch of one; a read at a
        stretch end adds +0.0.  A read gives the bits it gives alone.  No
        points give a (2, 0) array.
        """
        lo, hi = self.band.lo[0], self.band.hi[0]
        for x in xs.tolist():
            if not lo <= x <= hi:  # NaN too
                raise ValueError(f"antiderivative queried outside its interval: {x!r}")
        if not len(xs):
            return np.empty((2, 0))
        k = self.ends.searchsorted(xs, "right") - 1  # each read's stretch
        got = [self._partial_sums(xs[r0 : r0 + _READ_ROWS], k[r0 : r0 + _READ_ROWS]) for r0 in range(0, len(xs), _READ_ROWS)]
        return self.sums[:, k] + np.concatenate(got, axis=1) - self.widen

    def _partial_sums(self, xs: np.ndarray, k: np.ndarray) -> np.ndarray:
        """L and U over each read's stretch k, from its first point a up to its x, left to right.

        One call of the band's sums over a ``GivenRows`` of one row a read,
        taking the band's entries with a <= t < x.  The level has 2^depth
        cells, so every stretch has c = min(n, STRETCH_CELLS) cells, and
        inside it point i is min(i·step + lo, hi), its first being a.  Row
        r holds those points clipped at x: the points of stretch k[r] below
        x, then x in every column after them, and x in the last column too,
        since on the last stretch the level's last point may read below
        hi, and so below x.  Each entry lands in the cell the whole level
        puts it in.  The trailing cells [x, x] have width 0, so their
        products are ±0.0, and a row's running sum, which starts from +0.0
        (and a kept sum, from ``_running``), is never -0.0: adding ±0.0
        leaves it exactly as it is.  So a row sums to the bits of the row
        cut at x, and a read at a stretch end, x = a, to +0.0.  No row
        evaluates f past its x.  Endpoint and critical sums already take
        f(x) as the end value of the last cell that counts, so those cells
        evaluate f nowhere new; a sampled sum samples x itself there.
        """
        band, c = self.band, min(self.level.n, STRETCH_CELLS)
        a = self.ends[k]
        pts = (k * STRETCH_CELLS)[:, None] + _COLS[: c + 1]
        pts *= self.level.step[0, 0]
        pts += band.lo[0]
        np.minimum(pts, xs[:, None], out=pts)  # x <= hi: the level's clip to hi is in this one
        pts[:, 0] = a
        pts[:, c] = xs
        reads = self.bare
        if self.first is not None and np.count_nonzero(band.entries[1].searchsorted(xs) - self.first[k]):
            _, ts, vals = band.entries
            e_rows, at = np.nonzero((a[:, None] <= ts) & (ts < xs[:, None]))  # a <= t < x, row by row
            reads = _Band(band.kernel, band.atoms, band.lo, band.hi, band.sampled, (e_rows, ts[at], vals[at]))
        try:  # every row reads the band's one atom
            return reads._run(np.zeros(len(xs), dtype=np.int64), GivenRows(pts))[:2]
        except KernelEvalError as err:  # the caller names the atom read
            raise err.cause from None

    def values(self, xs: np.ndarray) -> np.ndarray:
        """F at each point of the 1-D array ``xs``: the midpoints of its brackets, as ``integrate`` takes them."""
        return _midpoints(*self.brackets(xs))

    def value(self, x: float) -> float:
        return _midpoints(*self.brackets(np.array([x])))[0]


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
            atom = band.restrict(rows[i : i + 1])
            one = UniformRows(atom.lo, atom.hi, level.n)
            one.running[:, 0] = level.running[:, i]
            grids[rows[i]] = _CumulativeGrid(atom, one, one.ends()[0], float(sums[2][i]), float(sums[3][i]))
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
    closes it, so F(hi) - F(lo) is ``integrate``'s bracket bit for bit,
    and its own one-atom band (``_Band.restrict``).  A read sums at most
    one stretch of that level, with the band's entries cut to the part of
    the stretch it sums, and is read-only (safe to share across threads).
    F's ``eval_many`` reads all the points of an atom in one batch, one
    call of that band's sums for up to ``_READ_ROWS`` of them, and ``eval``
    reads a batch of one (see ``_CumulativeGrid``); each read has the bits
    of the read alone, and a batch that fails is read again point by
    point, to name the first point at fault.
    Atoms with one kernel object over the same interval bits share one
    grid, built once for the lowest of them (see
    ``integrate._representatives``).  A kernel that fails raises
    KernelEvalError by the error rule of ``integrate._refine``, as
    ``integrate`` would.
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
    kernels = [ScalarKernel.from_callable(grids[r].value, label=f"antiderivative[{i}]") for i, r in enumerate(rep)]
    readers = {r: grids[r].values for r in set(rep.tolist())}  # one per grid: eval_many reads a grid once
    for kernel, r in zip(kernels, rep.tolist()):
        kernel._many = readers[r]
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
    return _mvt_solve(f, x, y, tol, sched)[0]


def _mvt_solve(
    f: LatticeFunction, x: Element, y: Element, tol: float, sched: ToleranceSchedule | None = None
) -> tuple[Element, Element]:
    """``mvt_integral_solve``'s c, and the integral from x to y it solved against."""
    _require_coordinatewise(f, "mvt_integral_solve")
    if x.dim != y.dim or x.dim != f.dim:
        raise ValueError("dimension mismatch")
    _require_tol(tol)
    result = signed_integrate(f, x, y, sched=sched or _DEFAULT_SCHED)
    rep = _representatives(f, x.data, y.data)
    c = np.empty(f.dim)
    atoms = zip(f.kernels, rep.tolist(), x.data.tolist(), y.data.tolist(), result.value.data.tolist())
    for i, (kernel, r, xi, yi, target) in enumerate(atoms):
        if r != i:  # solved as its representative
            continue
        if xi == yi:
            c[i] = xi
            continue
        lo, hi = (xi, yi) if xi < yi else (yi, xi)
        slope = yi - xi

        def g(t: float) -> float:
            return slope * kernel.eval(t) - target

        def g_many(ts: np.ndarray) -> np.ndarray:
            return slope * kernel.eval_many(ts) - target

        try:
            c[i] = _mvt_root(g, g_many, lo, hi, tol, target, atom=i)
        except EvalDomainError as err:
            raise KernelEvalError(i, err) from err
    return Element._wrap(c[rep]), result.value  # each c lies in its atom's [lo, hi]


def _mvt_root(g, g_many, lo: float, hi: float, tol: float, target: float, atom: int) -> float:
    """The mean-value point: a root of ``g`` = slope·f - ``target`` in [lo, hi].

    A scan with ``g_many`` grows its grid from ``_MVT_SCAN_START`` to
    ``_MVT_SCAN_CAP`` points until two neighbours change sign.
    ``_interval._narrow``, the refiner of the critical points, then shrinks
    that bracket with ``g`` to four ulps of its larger end, and its midpoint
    is the root if |g| there passes ``_mvt_closes``.  ``g`` and ``g_many``
    evaluate f alike (``ScalarKernel.eval`` and ``eval_many``), so the scan
    and the narrowing agree on f's domain.  ``atom`` names the atom in the
    errors raised here; the caller names it when ``g`` or ``g_many`` raise
    EvalDomainError.
    """
    points = _MVT_SCAN_START
    while True:
        ts = np.linspace(lo, hi, points)
        vals = g_many(ts)
        zero = vals == 0.0
        if np.count_nonzero(zero):
            return 0.5 * (lo + hi) if zero.all() else float(ts[zero.argmax()])
        sign_change = vals[:-1] * vals[1:] < 0.0
        if np.count_nonzero(sign_change):
            j = int(sign_change.argmax())
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
    if not _mvt_closes(residual, target, tol):
        # A sign change whose residual will not close is a jump, not a root.
        raise ArithmeticError(
            f"mean-value residual stuck at {residual!r} in atom {atom}; "
            "kernel looks discontinuous"
        )
    return mid


def _mvt_closes(residual: float, target: float, tol: float) -> bool:
    """Whether |g| = ``residual`` = |slope·f(c) - ``target``| makes c a mean-value point.

    It must be at most tol·max(1, |target|) plus four ulps of |g| +
    |target|, which bounds |slope·f(c)|: g rounds at the ulps of its terms,
    so an absolute ``tol`` alone would refuse the root of a large integral.
    The solver accepts a root by this rule, and ``verify mvt`` checks it
    against the integral the solver returns.
    """
    return residual <= tol * max(1.0, abs(target)) + 4.0 * math.ulp(residual + abs(target))


# --------------------------------------------------------------------------
# Fundamental theorems and integration techniques
# --------------------------------------------------------------------------

def _sample_interior(interval: OrderInterval, rng: np.random.Generator) -> Element:
    u = rng.uniform(0.05, 0.95, interval.dim)
    return Element(interval.lo.data + u * (interval.hi.data - interval.lo.data))


def _report(name: str, residuals: list[Element], tol: float, details: list) -> VerificationReport:
    """The report of a verifier with one residual per sample, its largest atom by atom its ``max_residual``.

    It passes when every residual is at most ``tol``.
    """
    worst = functools.reduce(Element.sup, residuals)
    passed = bool(np.all(worst.data <= tol))
    return VerificationReport(name, worst, tol, passed, len(residuals), details)


def verify_ftc1(
    f: LatticeFunction,
    interval: OrderInterval,
    interior_samples: int = 10,
    tol: float = 1e-4,
    seed: int = 0,
    sched: ToleranceSchedule | None = None,
) -> VerificationReport:
    """|d/dx of the antiderivative - f| at sampled interior points.

    The samples are drawn first, then the antiderivative is read at the
    difference points of all of them in one ``eval_many`` (see
    ``numeric_derivative``).  The report has the bits of differentiating
    the samples one by one; where the batch fails, the samples are read
    one by one, with f at each, and the first to fail raises.
    """
    _require_coordinatewise(f, "verify_ftc1")
    if not interval.lo.strictly_below(interval.hi):
        raise ValueError("needs a nondegenerate interval (lo strictly below hi)")
    if interior_samples < 1:
        raise ValueError("verify_ftc1 needs interior_samples >= 1")
    _require_tol(tol)
    anti = antiderivative(f, interval, sched=sched)
    rng = np.random.default_rng(seed)
    xs = [_sample_interior(interval, rng) for _ in range(interior_samples)]
    try:
        derivs = _derivatives(anti, xs, interval)
    except (ValueError, ArithmeticError):
        for x in xs:  # fails where the sample-by-sample loop fails
            numeric_derivative(anti, x, interval), f.eval(x)
        raise
    residuals = [abs(Element(deriv) - f.eval(x)) for x, deriv in zip(xs, derivs)]
    return _report("ftc1", residuals, tol, [{"x": x.to_json(), "residual": r.to_json()} for x, r in zip(xs, residuals)])


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
    _require_tol(tol)
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
    lhs = [Element(lhs_all[n * dim : (n + 1) * dim]) for n in range(len(pairs))]
    residuals = [abs(left - (F.eval(y) - F.eval(x))) for left, (x, y) in zip(lhs, pairs)]
    details = [{"x": x.to_json(), "y": y.to_json(), "residual": r.to_json()} for (x, y), r in zip(pairs, residuals)]
    return _report("ftc2", residuals, tol, details)


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
    _require_tol(tol)
    _check_symbolic_derivative(G, g, interval, "verify_substitution")
    sched = sched or ToleranceSchedule(tol=tol / 4.0, max_depth=26)
    composite = f.compose(G).product(g)
    lhs = integrate(composite, interval, sched=sched).value
    rhs = signed_integrate(f, G.eval(interval.lo), G.eval(interval.hi), sched=sched).value
    return _report("substitution", [abs(lhs - rhs)], tol, [{"lhs": lhs.to_json(), "rhs": rhs.to_json()}])


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
    _require_tol(tol)
    _check_symbolic_derivative(f, df, interval, "verify_by_parts")
    _check_symbolic_derivative(g, dg, interval, "verify_by_parts")
    sched = sched or ToleranceSchedule(tol=tol / 4.0, max_depth=26)
    left = integrate(f.product(dg), interval, sched=sched).value
    boundary = f.eval(interval.hi) * g.eval(interval.hi) - f.eval(interval.lo) * g.eval(
        interval.lo
    )
    right = boundary - integrate(df.product(g), interval, sched=sched).value
    return _report("by_parts", [abs(left - right)], tol, [{"lhs": left.to_json(), "rhs": right.to_json()}])
