"""Darboux and Riemann sums, and the integral as a limit over refinements.

The integral iterates uniform dyadic partitions (a cofinal chain for the
refinement preorder) and stops when the per-atom bracket is small relative
to the value.  Kernels with exact extrema produce true Darboux brackets:
monotone-hinted kernels, and every differentiable expression kernel, whose
cell extrema are the cell endpoints folded with certified critical-point
entries (see ``ScalarKernel.critical_points``).  Sampled kernels (callables,
expressions holding abs, min or max, and kernels whose critical points
cannot be isolated) widen the bracket by a measured two-resolution
difference, and the result records that provenance.  A kernel unbounded
near a point of its interval raises ``KernelEvalError`` naming the atom and
the point.  Non-integrable demo maps report ``converged=False`` with a
stalling gap instead of raising.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels_fallback as _generic
from ._interval import IsolationError
from .backend import kernels as _backend
from .expr import EvalDomainError
from .functions import KernelEvalError, LatticeFunction, ScalarKernel
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

# Base per-cell subsample count for sampled extrema (the backend runs the
# base and its double and reports the difference as a widening).
_SAMPLE_BASE = 4
_SAMPLE_CAP = 256

# The non-integrable demo path stops refining its probe partitions here.
_DEMO_MAX_DEPTH = 6

_GENERAL_DIM_CAP = 3


@dataclass(frozen=True)
class ToleranceSchedule:
    """Finite refinement budget: relative gap target and depth cap."""

    tol: float = 1e-6
    max_depth: int = 24

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


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


class _AtomTask:
    """One atom's summation pipeline over a scalar interval.

    A 'critical' atom holds (t, value) entries from the certified isolation
    of its kernel's critical points; the sums fold them into the cells that
    hold them.  When isolation gives up, the atom is summed as 'sampled'.
    """

    def __init__(self, atom: int, kernel: ScalarKernel, lo: float, hi: float):
        self.atom = atom
        self.kernel = kernel
        self.lo = lo
        self.hi = hi
        self.strategy = kernel.strategy
        self.prog = kernel.program
        self.crit_ts = np.empty(0)
        self.crit_vals = np.empty(0)
        if self.strategy == "critical":
            try:
                self.crit_ts, self.crit_vals = kernel.critical_points(lo, hi, enclose=True)
            except IsolationError:
                self.strategy = "sampled"
            except EvalDomainError as err:
                self._wrap(err)

    @property
    def sampled(self) -> bool:
        return self.strategy == "sampled"

    def _wrap(self, err: Exception):
        raise KernelEvalError(self.atom, err) from err

    def level_sums(self, xs: np.ndarray) -> tuple[float, float, float, float]:
        """(L, U, widen_L, widen_U) over the cells of a breakpoint array."""
        try:
            if self.prog is None:
                evalf = self.kernel.eval_many
                if self.strategy == "sampled":
                    return _generic.darboux_sampled_fn(evalf, xs, _SAMPLE_BASE)
                lo, up = _generic.darboux_endpoint_fn(evalf, xs)
                return lo, up, 0.0, 0.0
            if self.strategy == "sampled":
                return _backend.darboux_sampled(self.prog, xs, _SAMPLE_BASE)
            if len(self.crit_ts):
                lo, up = _backend.darboux_critical(self.prog, xs, self.crit_ts, self.crit_vals)
            else:
                lo, up = _backend.darboux_endpoint(self.prog, xs)
            return lo, up, 0.0, 0.0
        except (ValueError, EvalDomainError) as err:
            self._wrap(err)

    def prefix_sums(self, xs: np.ndarray):
        """Cumulative (lower, upper, widen_L, widen_U) per cell."""
        try:
            if self.prog is None:
                evalf = self.kernel.eval_many
                if self.strategy == "sampled":
                    return _generic.prefix_sampled_fn(evalf, xs, _SAMPLE_BASE)
                pl, pu = _generic.prefix_endpoint_fn(evalf, xs)
                return pl, pu, 0.0, 0.0
            if self.strategy == "sampled":
                return _backend.prefix_sampled(self.prog, xs, _SAMPLE_BASE)
            if len(self.crit_ts):
                pl, pu = _backend.prefix_critical(self.prog, xs, self.crit_ts, self.crit_vals)
            else:
                pl, pu = _backend.prefix_endpoint(self.prog, xs)
            return pl, pu, 0.0, 0.0
        except (ValueError, EvalDomainError) as err:
            self._wrap(err)

    def cell_extrema(self, a: float, b: float) -> tuple[float, float]:
        """Extrema over one (sub)cell, by this atom's strategy."""
        try:
            if b <= a:
                v = self.kernel.eval(a)
                return v, v
            va, vb = self.kernel.eval(a), self.kernel.eval(b)
            m, big = min(va, vb), max(va, vb)
            if len(self.crit_ts):
                inside = self.crit_vals[(self.crit_ts >= a) & (self.crit_ts <= b)]
                if len(inside):
                    m, big = min(m, float(inside.min())), max(big, float(inside.max()))
            elif self.strategy == "sampled":
                vals = self.kernel.eval_many(np.linspace(a, b, 2 * _SAMPLE_BASE + 1))
                m, big = min(m, vals.min()), max(big, vals.max())
            return m, big
        except (ValueError, EvalDomainError) as err:
            self._wrap(err)


def _make_tasks(f: LatticeFunction, interval: OrderInterval) -> list[_AtomTask]:
    if f.dim != interval.dim:
        raise ValueError("dimension mismatch")
    return [
        _AtomTask(i, k, interval.lo[i], interval.hi[i]) for i, k in enumerate(f.kernels)
    ]


# --------------------------------------------------------------------------
# Darboux and Riemann sums over explicit partitions
# --------------------------------------------------------------------------

def darboux_sums(f: LatticeFunction, p: Partition, tol: float = 0.0) -> DarbouxSums:
    """Lower/upper sums over an explicit partition.

    Coordinatewise functions use per-kernel extrema (sampled ones refine
    subsampling until the two-resolution difference is at most ``tol``).
    General maps take the corner-evaluation route, valid for maps that are
    affine on every cell and dim <= 3 (the swap demo's contract).
    """
    if f.is_coordinatewise:
        mat = p.matrix()
        lo = np.empty(f.dim)
        up = np.empty(f.dim)
        for i, kernel in enumerate(f.kernels):
            task = _AtomTask(i, kernel, mat[0, i], mat[-1, i])
            xs = np.ascontiguousarray(mat[:, i])
            if task.sampled and tol > 0.0:
                s = _SAMPLE_BASE
                while True:
                    l2, u2, wl, wu = (
                        _backend.darboux_sampled(task.prog, xs, s)
                        if task.prog is not None
                        else _generic.darboux_sampled_fn(kernel.eval_many, xs, s)
                    )
                    if max(wl, wu) <= tol or s >= _SAMPLE_CAP:
                        break
                    s *= 2
                lo[i], up[i] = l2, u2
            else:
                lo[i], up[i], _, _ = task.level_sums(xs)
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
        mat = p.matrix()
        tags = np.stack([c.data for c in tagged.tags])
        out = np.empty(f.dim)
        for i, kernel in enumerate(f.kernels):
            try:
                vals = kernel.eval_many(tags[:, i])
            except EvalDomainError as err:
                raise KernelEvalError(i, err) from err
            dx = np.diff(mat[:, i])
            out[i] = np.add.accumulate(vals * dx)[-1]
        return Element(out)
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
    so each atom stops at its own first closing depth, where
    gap_i <= tol*(1+|value_i|), and keeps that level's bracket; the value is
    the bracket midpoint.  Each atom's result is therefore bit for bit that
    of its kernel integrated alone, ``depth`` is the deepest atom's closing
    depth, and ``converged`` is true only if every atom closed.  Coordinatewise
    atoms may be computed in parallel; results are identical to sequential
    execution.  General maps are accepted only on the bounded demo path,
    which always reports non-convergence.
    """
    sched = sched or ToleranceSchedule()
    if not f.is_coordinatewise:
        return _integrate_probes(f, interval, sched)
    tasks = _make_tasks(f, interval)
    dim = len(tasks)

    value = np.empty(dim)
    lower = np.empty(dim)
    upper = np.empty(dim)
    active = np.arange(dim)
    depth = 0
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for depth in range(sched.max_depth + 1):
            n = 1 << depth
            live = [tasks[i] for i in active]
            grids = [uniform_grid(t.lo, t.hi, n) for t in live]
            if pool is not None:
                rows = list(pool.map(lambda tx: tx[0].level_sums(tx[1]), zip(live, grids)))
            else:
                rows = [t.level_sums(g) for t, g in zip(live, grids)]
            lo, up, widen_lo, widen_up = np.array(rows, dtype=float).reshape(-1, 4).T
            value[active] = 0.5 * (lo + up)
            lower[active] = lo - widen_lo
            upper[active] = up + widen_up
            gap = upper[active] - lower[active]
            closed = gap <= sched.tol * (1.0 + np.abs(value[active]))
            active = active[~closed]
            if not len(active):
                break
    finally:
        if pool is not None:
            pool.shutdown()

    method = "sampled" if any(t.sampled for t in tasks) else "exact"
    return IntegralResult(
        value=Element(value),
        lower=Element(lower),
        upper=Element(upper),
        gap=Element(upper - lower),
        depth=depth,
        converged=not len(active),
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
    in (a, b) exactly.
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
