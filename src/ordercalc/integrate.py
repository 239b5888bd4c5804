"""Darboux and Riemann sums, and the integral as a limit over refinements.

The integral iterates uniform dyadic partitions (a cofinal chain for the
refinement preorder) and stops when the per-atom bracket is small relative
to the value.  The unit of work is a band: the atoms whose kernel is one
``ScalarKernel`` object (a broadcast kernel, or a repeated source string)
and whose extrema strategy is the same.  The integral commutes with band
projection, so each band is isolated in one pass and refined as one block
of rows, a row per atom; every atom still stops at its own closing depth,
bit for bit as if integrated alone.  Atoms alike in kernel object and in
the bits of their interval would therefore get the same bits, so
``integrate`` and the antiderivatives give a row only to the lowest of
them and copy its result to the rest (see ``_representatives``).  One
loop, ``_refine``, refines the rows of a band on the depths 0, 1, 2, ...,
for ``integrate`` and for the antiderivatives of ``calculus`` alike, both
summing the same uniform levels: it owns the close test, the skip of
levels that provably cannot close (the bound is stated at ``_next_due``),
the probe level an exact row sums on its way from depth 0 to its due depth,
and the error rule.  Kernels with exact extrema produce true Darboux
brackets: monotone-hinted kernels, and every differentiable expression
kernel, whose cell extrema are the cell endpoints folded with certified
critical-point entries (see ``ScalarKernel.critical_entries``).  Between
its entries such a kernel is monotone, so every row of a level sums each
stretch of cells that holds no entry from its point values, as Riemann
sums tagged at the stretch's ends, and only the stretches that hold one
cell by cell (see ``_kernels_fallback._sum_cells``).
Sampled kernels (callables, expressions holding abs, min or max, and atoms
whose critical points cannot be isolated) widen the bracket by a measured
two-resolution difference, and the result records that provenance.  A
kernel unbounded near a point of its interval raises ``KernelEvalError``
naming the point and the lowest atom at fault, as if the atoms ran one by
one.  One rule gives that, at every stage: a failure, in isolation
(``_make_bands``) or in a level (``_refine``), is kept, only the atoms
below it go on, no band wholly above it is summed, and the lowest error
of all bands is raised (``_each``).
So an atom that fails only once summed is named before a higher atom
whose isolation failed.  Non-integrable demo maps report
``converged=False`` with a stalling gap instead of raising.  Bands run one
after another: a level's chunks (at most 2^15 cells) are too small for
threads to pay for themselves.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels_fallback as _kernels
from .functions import KernelEvalError, LatticeFunction, ScalarKernel, _each, _kernel_groups
from .lattice import Element, OrderInterval, band_lt
from .partitions import Partition, TaggedPartition, uniform_grid

__all__ = [
    "ToleranceSchedule",
    "DarbouxSums",
    "IntegralResult",
    "darboux_sums",
    "riemann_sum",
    "integrate",
    "signed_integrate",
    "split_integrate",
]

# Base per-cell subsample count for sampled extrema (the sums run the base
# and its double and report the difference as a widening).
_SAMPLE_BASE = 4

# The non-integrable demo path stops refining its probe partitions here.
_DEMO_MAX_DEPTH = 6

_GENERAL_DIM_CAP = 3

# Relative slack of the skip bound (see ``_next_due``), on gap_d + S.  It
# covers the rounding of both levels' sums with a wide margin.  A level of
# n cells sums stretches of g = STRETCH_CELLS cells pairwise and adds the
# n/g stretch subtotals left to right, so its error is at most about
# γ_(log2 g + n/g) of Σ|m·Δx|: at 2^24 cells and g = 2^8 that is
# γ_65544 ≈ 2^-37.
_SKIP_SLACK = 2.0**-30

# An exact row leaves depth 0 for a probe level this many levels below its
# due depth (see ``_refine``).  It costs 2^-5 of the due level, and its
# bracket is tight enough for the skip bound to land on the closing level:
# on the oracle workload at seed 1, offsets 3, 4, 5 and 6 left 8.3%, 4.3%,
# 2.2% and 1.1% of the cells summed off closing levels.
_PROBE_OFFSET = 5


# The deepest level: a uniform level of 2^53 cells still has every cell
# index k, and so every point lo + k*step, exact in float64.
MAX_DEPTH = 53


@dataclass(frozen=True)
class ToleranceSchedule:
    """Finite refinement budget: relative gap target and depth cap, at most ``MAX_DEPTH``."""

    tol: float = 1e-6
    max_depth: int = 24

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if isinstance(self.max_depth, bool) or not isinstance(self.max_depth, numbers.Integral):
            raise TypeError(f"max_depth must be an integer, not {self.max_depth!r}")
        if not 1 <= self.max_depth <= MAX_DEPTH:
            raise ValueError(f"max_depth must be from 1 to {MAX_DEPTH}, not {self.max_depth}")
        object.__setattr__(self, "max_depth", int(self.max_depth))  # numpy integers serialise


@dataclass(frozen=True)
class DarbouxSums:
    lower: Element
    upper: Element

    def __post_init__(self):
        if not self.lower.leq(self.upper):
            raise ValueError("needs lower <= upper")


@dataclass(frozen=True)
class IntegralResult:
    value: Element
    lower: Element
    upper: Element
    gap: Element
    depth: int
    converged: bool
    tolerance: ToleranceSchedule
    extrema_method: str = "exact"

    def to_dict(self) -> dict:
        return {
            "value": self.value.to_json(),
            "lower": self.lower.to_json(),
            "upper": self.upper.to_json(),
            "gap": self.gap.to_json(),
            "depth": self.depth,
            "converged": self.converged,
            "tol": self.tolerance.tol,
            "max_depth": self.tolerance.max_depth,
            "extrema_method": self.extrema_method,
        }


class _Band:
    """The atoms whose kernel is one ScalarKernel object, summed by one strategy.

    The atoms of a band are refined together, as one block of rows with a
    row per atom, for the sums of ``integrate`` and the antiderivatives
    alike, through one strategy dispatch.  A band that is not sampled
    folds the certified (row, t, value) entries of its atoms' critical
    points into the cells that hold them; a sampled band (callables,
    abs/min/max expressions, and atoms whose isolation gave up) widens each
    bracket by the measured two-resolution difference.  ``restrict`` makes
    the band of some of its rows: the atoms below a failure, or one atom,
    whose band an antiderivative keeps for its reads.
    """

    def __init__(self, kernel: ScalarKernel, atoms, lo, hi, sampled: bool, entries=None):
        self.kernel = kernel
        self.atoms = atoms
        self.lo = lo
        self.hi = hi
        self.sampled = sampled
        self.entries = entries  # (rows, ts, vals), sorted by row, then by t

    def sums(self, rows: np.ndarray, grid) -> np.ndarray:
        """Rows L, U, widen_L and widen_U for the band's ``rows`` over ``grid``, with all their entries."""
        out = np.zeros((4, len(rows)))  # the widenings stay 0 unless sampled
        found = self._run(rows, grid)
        out[: len(found)] = found
        return out

    def _run(self, rows: np.ndarray, grid):
        """The kernel entry point of the band's strategy, over ``grid``."""
        K = _kernels
        s = _SAMPLE_BASE
        prog = self.kernel.program
        evalf = self.kernel.eval_many
        try:
            if self.sampled and prog is None:
                return K.darboux_sampled_fn(evalf, grid, s)
            if self.sampled:
                return K.darboux_sampled(prog, grid, s)
            if prog is None:
                return K.darboux_endpoint_fn(evalf, grid)
            if (entries := self._entries(rows)) is None:
                return K.darboux_endpoint(prog, grid)
            e_rows, ts, vals = entries
            return K.darboux_critical(prog, grid, ts, vals, e_rows)
        except K.RowError as err:
            raise KernelEvalError(int(self.atoms[rows[err.row]]), err.cause) from err.cause

    def level(self, rows: np.ndarray, n: int):
        """The level of ``rows`` over n uniform cells each, holding their running sums, and its sums.

        A level whose running sums do not fit in memory raises
        KernelEvalError for the lowest atom due, naming the depth.
        """
        try:
            level = _kernels.UniformRows(self.lo[rows], self.hi[rows], n)
        except MemoryError as err:
            cause = MemoryError(f"the level at depth {n.bit_length() - 1} ({n} cells an atom) does not fit in memory")
            raise KernelEvalError(int(self.atoms[rows].min()), cause) from err
        return level, self.sums(rows, level)

    def _entries(self, rows: np.ndarray):
        """The entries of ``rows``, renumbered to their positions; None if none."""
        if self.entries is None:
            return None
        e_rows, ts, vals = self.entries
        if len(rows) < len(self.atoms):  # rows are sorted: the entries of rows[0] to rows[-1], then theirs
            span = slice(*e_rows.searchsorted((rows[0], rows[-1] + 1)))
            e_rows, ts, vals = e_rows[span], ts[span], vals[span]
            at = np.minimum(np.searchsorted(rows, e_rows), len(rows) - 1)
            keep = rows[at] == e_rows
            e_rows, ts, vals = at[keep], ts[keep], vals[keep]
        return (e_rows, ts, vals) if len(ts) else None

    def restrict(self, rows: np.ndarray) -> "_Band":
        """The band of this band's ``rows``, sorted and at least one, with their entries."""
        atoms, lo, hi = self.atoms[rows], self.lo[rows], self.hi[rows]
        return _Band(self.kernel, atoms, lo, hi, self.sampled, self._entries(rows))


def _representatives(f: LatticeFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each atom's representative: the lowest atom with its kernel object and interval bits.

    Atoms are alike when their kernel is one ScalarKernel object and their
    lo and hi have the same float64 bit patterns, so -0.0 and 0.0 stay
    apart.  An atom's integral, bracket and antiderivative grid are its
    kernel refined alone over its interval, so alike atoms get the same
    bits, and only the representative need be refined.  ``_make_bands``
    checks the lengths.
    """
    first: dict = {}
    keys = zip(map(id, f.kernels), lo.view(np.int64).tolist(), hi.view(np.int64).tolist())
    return np.array([first.setdefault(key, i) for i, key in enumerate(keys)])


def _make_bands(f: LatticeFunction, lo: np.ndarray, hi: np.ndarray, rep=None):
    """The bands of a coordinatewise function over the intervals [lo[i], hi[i]], and an error.

    Every atom gets a row, unless ``rep`` (from ``_representatives``) is
    given: then only the atoms that represent themselves do, one per
    distinct (kernel object, interval bits), and the caller copies each
    result to the other atoms of its class.  That changes no bit (see
    ``_representatives``), and the error rule is kept: a representative is
    the lowest atom of its class, so it fails where that atom would, at the
    same t.  ``darboux_sums`` does not merge: its atoms can share endpoints
    and still have different breakpoints.

    Returns (bands, error).  ``error`` is the KernelEvalError of the lowest
    atom whose isolation found its kernel unbounded, or None.  Isolation
    goes on for the atoms below it only, and the bands hold only those, as
    ``_refine`` does within a band: the caller sums them and raises the
    lower of their error and this one (``_each(fn, bands, error)``).  An
    interval wider than the float range, whose width hi - lo overflows, has
    no cells to sum: the lowest such atom raises ValueError first.
    """
    if f.dim != len(lo):
        raise ValueError("dimension mismatch")
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(~np.isfinite(hi - lo))
    if len(wide):
        i = int(wide[0])
        raise ValueError(f"atom {i}: the interval [{float(lo[i])!r}, {float(hi[i])!r}] is wider than the float range")
    atoms = range(f.dim) if rep is None else np.flatnonzero(rep == np.arange(f.dim)).tolist()
    bands, error, limit = [], None, f.dim
    for kernel, group in _kernel_groups(f.kernels, atoms):
        group = np.array(group)
        while len(group := group[group < limit]):
            try:
                bands += _kernel_bands(kernel, group, lo, hi)
                break
            except KernelEvalError as err:
                error, limit = err, err.atom
    if error is not None:  # atoms are sorted in a band
        bands = [band.restrict(np.flatnonzero(band.atoms < limit)) for band in bands if band.atoms[0] < limit]
    return bands, error


def _kernel_bands(kernel: ScalarKernel, atoms: list[int], lo, hi) -> list[_Band]:
    """The bands of one kernel's atoms.

    The atoms are isolated in one pass; those whose isolation gives up
    form a sampled band of their own, and the rest stay exact.
    """
    atoms = np.array(atoms)
    lo, hi = lo[atoms], hi[atoms]
    if kernel.strategy != "critical":
        return [_Band(kernel, atoms, lo, hi, kernel.strategy == "sampled")]
    try:
        rows, ts, vals, failed = kernel.critical_entries(lo, hi)
    except _kernels.RowError as err:
        raise KernelEvalError(int(atoms[err.row]), err.cause) from err.cause
    bands = []
    exact = ~failed
    if exact.any():
        entries = (np.cumsum(exact)[rows] - 1, ts, vals) if len(ts) else None
        bands.append(_Band(kernel, atoms[exact], lo[exact], hi[exact], False, entries))
    if failed.any():
        bands.append(_Band(kernel, atoms[failed], lo[failed], hi[failed], True))
    return bands


def _next_due(depth: int, lower, upper, scale, tol: float) -> np.ndarray:
    """The first depth e > ``depth`` at which each open row of an exact band could close.

    This is the skip bound.  ``lower`` and ``upper`` are a row's sums at
    ``depth`` and ``scale`` is S = max(|L_0|, |U_0|), which bounds Σ|m·Δx|
    at every depth, as level 0 is (hi - lo)·[inf f, sup f] from certified
    extrema.  On uniform dyadic levels a cell's oscillation is at most the
    sum of its halves' (they share the midpoint), so the gap at most halves
    per level, gap_e >= gap_d·2^(d-e), and the brackets nest, so
    |mid_e| <= M_d = max(|L_d|, |U_d|).  A row cannot close at e while
    gap_d·2^(d-e) exceeds tol·(1 + M_d) plus a slack of
    2^-30·(1 + tol)·(gap_d + S) for the rounding of both levels' sums;
    this returns the first e where it does not.  No depth before it could
    close the row, and a level's sums do not depend on earlier levels, so a
    row moved there still closes at its first closing depth, with the same
    bits as in a sweep of every level.  It does not hold for sampled rows,
    whose two-resolution widening is not monotone.  ``_refine`` clamps e
    to ``max_depth``.

    From depth 0 the bound is loose: M_0 is the one-cell bracket, which can
    overstate |mid| many times over, and e can then land a level or two before
    the closing depth.  So ``_refine`` sums a row first at the probe level
    e - ``_PROBE_OFFSET``, and takes e again from there.  Where the gap
    halves per level, as it does on monotone pieces, the probe's gap is
    about 2^5·tol·(1 + M_0), so M there overstates |mid| by little.
    """
    gap = upper - lower
    slack = _SKIP_SLACK * (1.0 + tol) * (gap + scale)  # tol·slack for the rounding of |mid_e|
    reach = tol * (1.0 + np.maximum(np.abs(lower), np.abs(upper))) + slack
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.ceil(np.log2(gap / reach))
    k = np.minimum(np.fmax(k, 1.0), 2048.0).astype(np.int64)  # fmax takes 1 for NaN
    k -= (k > 1) & (np.ldexp(gap, 1 - k) <= reach)  # where log2 rounded past a power of 2
    return depth + k


def _refine(band: _Band, rows: np.ndarray, sched: ToleranceSchedule):
    """Refine ``rows`` of ``band`` until each closes; yield each pass.

    Each pass sums the rows due at its depth by ``band.level`` over the
    2^depth uniform cells of that level, and yields (depth, rows, (mid,
    lower, upper, shut), level, sums): ``level`` is the ``UniformRows``
    summed, holding the rows' running sums at its stretch ends, ``sums``
    their L, U, widen_L and widen_U, and a row is shut when its widened
    bracket has gap <= tol*(1+|mid|).  Every row is summed at depth 0.
    After that an open row of a sampled band steps by 1, and one of an
    exact band moves to ``_next_due``, clamped to ``max_depth``, with S
    taken from the depth-0 pass.  From depth 0 only, an exact row whose due
    depth e is at most ``max_depth`` and above ``_PROBE_OFFSET`` is summed
    first at the probe level e - ``_PROBE_OFFSET``, below its first closing
    depth, and moves to ``_next_due`` from there.  The probe adds at most
    one level per row, costing at most 2^-5 of its due level (and so of
    the level it closes at), and at most one pass per distinct due depth of
    a band.  A row stops when it shuts or reaches ``max_depth``; each row's
    depths therefore do not depend on the other rows.

    Error rule: when a level raises ``KernelEvalError`` for atom a, the
    error is kept and only the rows of atoms below a are refined further,
    from the depth that failed.  At the end the last kept error, that of
    the lowest atom at fault, is raised, as if the atoms ran one by one; an
    error may thus take as long as refining the atoms below it.  Callers
    must hold neither ``level`` nor ``sums`` across the next pass.
    """
    due = np.zeros(len(rows), dtype=np.int64)
    scale = np.zeros(len(rows))  # S, from the first pass on
    error = None
    while len(rows):
        depth = int(due.min())
        now = due == depth
        try:
            level, sums = band.level(rows[now], 1 << depth)
        except KernelEvalError as err:
            error, below = err, band.atoms[rows] < err.atom
            rows, due, scale = rows[below], due[below], scale[below]
            continue
        mid = 0.5 * (sums[0] + sums[1])
        lower, upper = sums[0] - sums[2], sums[1] + sums[3]
        shut = upper - lower <= sched.tol * (1.0 + np.abs(mid))
        yield depth, rows[now], (mid, lower, upper, shut), level, sums
        del level, sums  # before the next, larger, pass
        go = ~shut & (depth < sched.max_depth)
        if depth == 0:  # the first pass, where every row is due
            scale = np.maximum(np.abs(lower), np.abs(upper))
        if go.any():
            e = depth + 1 if band.sampled else _next_due(depth, lower, upper, scale[now], sched.tol)
            if depth == 0 and not band.sampled:  # probe below a due depth within max_depth
                e = np.where((e <= sched.max_depth) & (e > _PROBE_OFFSET), e - _PROBE_OFFSET, e)
            due[now] = np.minimum(e, sched.max_depth)
        keep = ~now
        keep[now] = go
        rows, due, scale = rows[keep], due[keep], scale[keep]
    if error is not None:
        raise error


# --------------------------------------------------------------------------
# Darboux and Riemann sums over explicit partitions
# --------------------------------------------------------------------------

def darboux_sums(f: LatticeFunction, p: Partition) -> DarbouxSums:
    """Lower/upper sums over an explicit partition.

    Coordinatewise functions use per-kernel extrema, summed band by band; a
    kernel that fails names the lowest atom at fault.  General maps take
    the corner-evaluation route, valid for maps that are affine on every
    cell and dim <= 3 (the swap demo's contract).
    """
    if f.is_coordinatewise:
        mat = p.matrix()
        points = np.ascontiguousarray(mat.T)  # one row of breakpoints per atom
        lo = np.empty(f.dim)
        up = np.empty(f.dim)

        def run(band):
            grid = _kernels.GivenRows(points[band.atoms])
            lo[band.atoms], up[band.atoms] = band.sums(np.arange(len(band.atoms)), grid)[:2]

        _each(run, *_make_bands(f, mat[0], mat[-1]))
        return DarbouxSums(lower=Element(lo), upper=Element(up))
    return _corner_darboux(f, p)


def _corner_darboux(f: LatticeFunction, p: Partition) -> DarbouxSums:
    if f.dim > _GENERAL_DIM_CAP:
        raise ValueError(
            f"general maps support corner extrema only up to dim {_GENERAL_DIM_CAP}"
        )
    dim = f.dim
    lo_sum = np.zeros(dim)
    up_sum = np.zeros(dim)
    for a, b in zip(p.points, p.points[1:]):
        m = np.full(dim, np.inf)
        big = np.full(dim, -np.inf)
        for corner_bits in itertools.product((0, 1), repeat=dim):
            corner = Element(
                np.where(np.asarray(corner_bits, dtype=bool), b.data, a.data)
            )
            v = f.eval(corner).data
            np.minimum(m, v, out=m)
            np.maximum(big, v, out=big)
        dx = b.data - a.data
        lo_sum = lo_sum + m * dx
        up_sum = up_sum + big * dx
    return DarbouxSums(lower=Element(lo_sum), upper=Element(up_sum))


def riemann_sum(f: LatticeFunction, tagged: TaggedPartition) -> Element:
    """Sum of f(tag) * cell width, left to right over cells."""
    p = tagged.partition
    if f.dim != p.dim:
        raise ValueError("dimension mismatch")
    if f.is_coordinatewise:
        tags = np.stack([c.data for c in tagged.tags], axis=1)  # a row of tags per atom
        products = f.eval_many(tags) * np.diff(p.matrix(), axis=0).T
        return Element(np.add.accumulate(products, axis=1)[:, -1])
    total = np.zeros(f.dim)
    for (a, b), c in zip(zip(p.points, p.points[1:]), tagged.tags):
        total = total + f.eval(c).data * (b.data - a.data)
    return Element(total)


# --------------------------------------------------------------------------
# The integral
# --------------------------------------------------------------------------

def integrate(
    f: LatticeFunction,
    interval: OrderInterval,
    sched: ToleranceSchedule | None = None,
    workers: int = 1,
) -> IntegralResult:
    """Refine uniform dyadic partitions until every atom's bracket closes.

    Atoms are minimal bands and the integral commutes with band projection,
    so each band is refined by ``_refine`` on the depths 0, 1, 2, ..., and
    each atom stops at its own first closing depth, where
    gap_i <= tol*(1+|value_i|), and keeps that level's bracket; the value is
    the bracket midpoint.  Levels that the skip bound of ``_next_due`` rules
    out are not summed, except for one cheap probe level per exact atom
    (at most 2^-5 of the cost of its due level) on the way from depth 0
    (see ``_refine``).  That changes no bit: each atom's result is that of its
    kernel integrated alone.  ``depth`` is the deepest level summed
    (the deepest atom's closing depth, or ``max_depth``), and ``converged``
    is true only if every atom closed.  A failing kernel raises
    ``KernelEvalError`` by the error rule of ``_refine``.  Bands are summed
    one after another: ``workers`` must be at least 1, and the results do
    not depend on it.  General maps are accepted only on the bounded demo
    path, which always reports non-convergence.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    sched = sched or ToleranceSchedule()
    if not f.is_coordinatewise:
        return _integrate_probes(f, interval, sched)
    lo, hi = interval.lo.data, interval.hi.data
    rep = _representatives(f, lo, hi)
    bands, error = _make_bands(f, lo, hi, rep)
    value, lower, upper = np.empty(f.dim), np.empty(f.dim), np.empty(f.dim)
    closed = np.zeros(f.dim, dtype=bool)

    def run(band) -> int:
        """Refine ``band``, keeping each atom's last bracket; the deepest level summed."""
        for depth, rows, (mid, lo, up, shut), _, _ in _refine(band, np.arange(len(band.atoms)), sched):
            atoms = band.atoms[rows]
            value[atoms], lower[atoms], upper[atoms], closed[atoms] = mid, lo, up, shut
        return depth

    depth = max(_each(run, bands, error))
    value, lower, upper, closed = value[rep], lower[rep], upper[rep], closed[rep]
    method = "sampled" if any(band.sampled for band in bands) else "exact"
    return IntegralResult(
        value=Element(value),
        lower=Element(lower),
        upper=Element(upper),
        gap=Element(upper - lower),
        depth=depth,
        converged=bool(closed.all()),
        tolerance=sched,
        extrema_method=method,
    )


def _staircase(interval: OrderInterval, axes: tuple[int, ...], n: int) -> Partition:
    dim = interval.dim
    grids = [uniform_grid(interval.lo[i], interval.hi[i], n) for i in range(dim)]
    current = interval.lo.data.copy()
    pts = [interval.lo]
    for axis in axes:
        for k in range(1, n + 1):
            current[axis] = grids[axis][k]
            pts.append(Element(current.copy()))
    pts[-1] = interval.hi
    return Partition(tuple(pts), interval)


def _integrate_probes(
    f: LatticeFunction, interval: OrderInterval, sched: ToleranceSchedule
) -> IntegralResult:
    """Demo path for general maps: probe uniform and staircase partitions.

    The lower/upper estimates are the order envelope of the best lower and
    upper sums seen across probes; for a non-integrable map the envelope
    gap stays bounded away from zero.  Always reports non-convergence.
    """
    from .partitions import uniform as uniform_partition

    if f.dim > _GENERAL_DIM_CAP:
        raise ValueError(
            "integrate accepts general maps only on the bounded demo path "
            f"(dim <= {_GENERAL_DIM_CAP})"
        )
    depth = min(sched.max_depth, _DEMO_MAX_DEPTH)
    dim = f.dim
    best_lo = np.full(dim, -np.inf)
    best_up = np.full(dim, np.inf)
    for k in range(depth + 1):
        n = 1 << k
        probes = [uniform_partition(interval, n)]
        for axes in itertools.permutations(range(dim)):
            probes.append(_staircase(interval, axes, n))
        for probe in probes:
            sums = _corner_darboux(f, probe)
            np.maximum(best_lo, sums.lower.data, out=best_lo)
            np.minimum(best_up, sums.upper.data, out=best_up)
    value = 0.5 * (best_lo + best_up)
    lower = np.minimum(best_lo, best_up)
    upper = np.maximum(best_lo, best_up)
    return IntegralResult(
        value=Element(value),
        lower=Element(lower),
        upper=Element(upper),
        gap=Element(upper - lower),
        depth=depth,
        converged=False,
        tolerance=sched,
        extrema_method="corner",
    )


def signed_integrate(
    f: LatticeFunction,
    a: Element,
    b: Element,
    sched: ToleranceSchedule | None = None,
    workers: int = 1,
) -> IntegralResult:
    """Integral from a to b with possibly incomparable endpoints.

    Integrates over [a^b, avb] and combines by the trichotomy bands: keep
    where a < b, negate where b < a, zero where they agree.  Antisymmetric
    in (a, b) exactly.  Evaluation is sequential; ``workers`` is checked as
    by ``integrate`` and does not change the result.
    """
    box = OrderInterval(a.inf(b), a.sup(b))
    base = integrate(f, box, sched=sched, workers=workers)
    keep = band_lt(a, b).mask()
    flip = band_lt(b, a).mask()

    def mix(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
        return np.where(keep, pos, np.where(flip, -neg, 0.0))

    value = mix(base.value.data, base.value.data)
    lower = mix(base.lower.data, base.upper.data)
    upper = mix(base.upper.data, base.lower.data)
    return IntegralResult(
        value=Element(value),
        lower=Element(lower),
        upper=Element(upper),
        gap=Element(upper - lower),
        depth=base.depth,
        converged=base.converged,
        tolerance=base.tolerance,
        extrema_method=base.extrema_method,
    )


def split_integrate(
    f: LatticeFunction,
    interval: OrderInterval,
    c: Element,
    sched: ToleranceSchedule | None = None,
) -> tuple[IntegralResult, IntegralResult]:
    """Integrals over [lo, c] and [c, hi]; their values sum to the whole."""
    if not interval.contains(c):
        raise ValueError("split point is outside the interval")
    first = integrate(f, OrderInterval(interval.lo, c), sched=sched)
    second = integrate(f, OrderInterval(c, interval.hi), sched=sched)
    return first, second
