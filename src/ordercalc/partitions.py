"""Partitions of order intervals and the refinement preorder.

A partition is a chain lo = x_0 <= ... <= x_n = hi (repeats allowed; cells
of zero width contribute nothing to any sum).  In the atomic carrier the
refinement preorder reduces to per-atom point-set inclusion, and the
common refinement of two partitions is the total orderisation of their
union.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Element, OrderInterval, totord

__all__ = [
    "Partition",
    "TaggedPartition",
    "uniform",
    "refines",
    "common_refinement",
    "tag",
]


@dataclass(frozen=True)
class Partition:
    points: tuple[Element, ...]
    interval: OrderInterval

    def __post_init__(self):
        pts = tuple(self.points)
        if len(pts) < 2:
            raise ValueError("a partition needs at least two points")
        object.__setattr__(self, "points", pts)
        if pts[0] != self.interval.lo:
            raise ValueError("partition must start at the interval's lo")
        if pts[-1] != self.interval.hi:
            raise ValueError("partition must end at the interval's hi")
        for a, b in zip(pts, pts[1:]):
            if not a.leq(b):
                raise ValueError("partition points must form a <=-chain")

    @property
    def dim(self) -> int:
        return self.interval.dim

    @property
    def n_cells(self) -> int:
        return len(self.points) - 1

    def matrix(self) -> np.ndarray:
        """(n_points, dim) array of the chain."""
        return np.stack([p.data for p in self.points])

    def dedup(self) -> "Partition":
        """Collapse repeated consecutive points (display form; sums agree)."""
        kept = [self.points[0]]
        for p in self.points[1:]:
            if p != kept[-1]:
                kept.append(p)
        if len(kept) == 1:
            kept.append(self.points[-1])
        return Partition(tuple(kept), self.interval)

    def to_json(self) -> list[list[float]]:
        return [p.to_json() for p in self.points]


@dataclass(frozen=True)
class TaggedPartition:
    partition: Partition
    tags: tuple[Element, ...]

    def __post_init__(self):
        tags = tuple(self.tags)
        object.__setattr__(self, "tags", tags)
        pts = self.partition.points
        if len(tags) != len(pts) - 1:
            raise ValueError("need exactly one tag per cell")
        for k, c in enumerate(tags):
            if not (pts[k].leq(c) and c.leq(pts[k + 1])):
                raise ValueError(f"tag {k} outside its cell")


def uniform_grid(lo, hi, n: int) -> np.ndarray:
    """Breakpoints lo + k*(hi-lo)/n for k = 0..n, endpoints exact.

    ``lo`` and ``hi`` may be arrays of the same shape, giving one row of
    points per entry.  The integrator's refinement levels
    (``_kernels_fallback.UniformRows``) form their points a chunk at a time
    with ``grid_points``, as this function does, so uniform partitions and
    refinement levels share identical points.  Their sums may still differ
    in the last bits: ``integrate`` sums each stretch of a level by one
    pairwise reduction, on long rows from its point values times the row's
    step where the kernel is monotone there, while ``darboux_sums(f,
    uniform(...))`` sums each cell's products with its own width, left to
    right.
    """
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    ks = np.arange(n + 1, dtype=np.float64)
    return grid_points(ks, lo, hi, (hi - lo) / n, True, True)


def grid_points(ks: np.ndarray, lo, hi, step, first: bool, last: bool, out=None) -> np.ndarray:
    """The points lo + k*step for the float indices ``ks``, clipped to hi.

    ``lo``, ``hi`` and ``step`` hold one value per row, on a trailing axis
    of length 1.  The point at the first index is lo if ``first``, and the
    one at the last is hi if ``last``.  Indices are integers, exact in
    float64, so a point depends only on its index and its row's values.
    ``out``, when given, receives the points (``ks`` may be ``out`` itself,
    holding them).  Indices increase and step >= 0, so the points increase
    along each row: where a point lies below hi, so do all before it.  So
    one column decides the clip: the last, or with ``last`` (whose last
    point becomes hi anyway) the one before it.  Where that column lies
    below hi, so does every point kept, and skipping the clip gives the
    same bits.
    """
    xs = np.multiply(ks, step, out=out)
    xs += lo
    if np.count_nonzero((xs[..., -2:-1] if last else xs[..., -1:]) >= hi):
        np.minimum(xs, hi, out=xs)
    if first:
        xs[..., :1] = lo
    if last:
        xs[..., -1:] = hi
    return xs


def uniform(interval: OrderInterval, n: int) -> Partition:
    """The n-cell partition with points lo + (k/n)(hi - lo)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cols = [
        uniform_grid(interval.lo[i], interval.hi[i], n) for i in range(interval.dim)
    ]
    mat = np.stack(cols, axis=1)
    pts = [Element(mat[k]) for k in range(n + 1)]
    pts[0] = interval.lo
    pts[-1] = interval.hi
    return Partition(tuple(pts), interval)


def refines(p: Partition, q: Partition) -> bool:
    """Decide the refinement preorder: per atom, q's points cover p's.

    Atoms are the minimal bands here, so per-atom point-set inclusion is
    equivalent to the existence of a band decomposition on whose parts the
    projected points of p are contained in those of q.
    """
    if p.interval != q.interval:
        raise ValueError("partitions live on different intervals")
    pm, qm = p.matrix(), q.matrix()
    for i in range(p.dim):
        if not set(pm[:, i]) <= set(qm[:, i]):
            return False
    return True


def common_refinement(p: Partition, q: Partition) -> Partition:
    """The total orderisation of the union; an upper bound for both inputs."""
    if p.interval != q.interval:
        raise ValueError("partitions live on different intervals")
    union: list[Element] = []
    seen: set[Element] = set()
    for pt in (*p.points, *q.points):
        if pt not in seen:
            seen.add(pt)
            union.append(pt)
    chain = totord(union)
    return Partition(tuple(chain), p.interval)


def tag(p: Partition, rule: str = "midpoint", seed: int | None = None) -> TaggedPartition:
    """Attach tags per cell: midpoint, left, right, or seeded random."""
    pts = p.points
    if rule == "midpoint":
        tags = [0.5 * (a + b) for a, b in zip(pts, pts[1:])]
    elif rule == "left":
        tags = list(pts[:-1])
    elif rule == "right":
        tags = list(pts[1:])
    elif rule == "random":
        rng = np.random.default_rng(seed)
        tags = []
        for a, b in zip(pts, pts[1:]):
            u = rng.uniform(0.0, 1.0, p.dim)
            tags.append(Element(a.data + u * (b.data - a.data)))
    else:
        raise ValueError(f"unknown tag rule {rule!r}")
    return TaggedPartition(p, tuple(tags))
