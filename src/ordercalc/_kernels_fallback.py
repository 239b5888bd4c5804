"""Numpy evaluation of stack programs and their Darboux sums over rows of cells.

Every sum runs through ``_sum_cells``, which takes rows of breakpoints (one
row per atom of a band, all with the same number of cells) and evaluates
them in blocks of at most ``BLOCK_CELLS`` cells: several whole rows while
rows are that short, otherwise one part of one row at a time.  Rows are
summed in one of two orders, chosen by the kind of grid:

- ``UniformRows`` (every refinement level of ``integrate``): a row is cut
  into stretches of ``STRETCH_CELLS`` cells (a row shorter than that is one
  stretch).  Each stretch's products are summed by one pairwise reduction,
  and the stretch subtotals are added left to right, so the running sum at
  the end of each stretch is a prefix of the level's own total.  The
  reductions vectorise, where a running sum over cells cannot, and the
  rounding-error bound grows with log2(STRETCH_CELLS) plus the number of
  stretches instead of with the number of cells.  A grid built with
  ``running=True`` keeps those stretch running sums: they are what an
  antiderivative reads.
- ``GivenRows`` and 1-D breakpoint arrays (explicit partitions, the reads of
  an antiderivative within a stretch, and the ``prefix_*`` calls): each row
  accumulates left to right within a chunk of ``CHUNK_CELLS`` cells, from
  zero, carrying the running sum from block to block, and then over the
  chunk subtotals.  Prefixes are that running sum, and the sequential order
  makes a cell of zero width (a repeated point) add exactly nothing.

In either order a row's blocks are the same whether it is summed alone or
in a band (whole short rows, or the same parts of a long row), so its
sums are bit for bit the same both ways.  The entry points (``darboux_*``
for sums, ``prefix_*`` for per-cell running sums, and the ``_fn`` twins
of both for callables) sum a whole band, or one row given as a 1-D
breakpoint array.  No library path calls the ``prefix_*`` entry points any
more; they are kept for the benchmark, which times and traces them.
``_run`` steps through a program's (opcode, argument) pairs, and evaluates
``^`` with ``expr._ipow``, the scalar evaluator's own routine, so scalar
and array values agree bit for bit.  ``BLOCK_CELLS``,
``STRETCH_CELLS`` and ``CHUNK_CELLS`` are defined here, beside the one loop
that reads them.  Stretches and chunks fix the summation order, which this
module owns, and the tape format has no part in it; blocks fix only how
many cells are evaluated at once, as no stretch or chunk straddles two.
"""

from __future__ import annotations

import numpy as np

from ._tape import (
    OP_ABS,
    OP_ADD,
    OP_CONST,
    OP_COS,
    OP_DIV,
    OP_EXP,
    OP_LOG,
    OP_MAX2,
    OP_MIN2,
    OP_MUL,
    OP_NEG,
    OP_POW,
    OP_SIN,
    OP_SQRT,
    OP_SUB,
    OP_VAR,
    Program,
)
from .expr import EvalDomainError, _ipow
from .partitions import grid_points

NAME = "numpy"

# Cells evaluated at once.  An array of this many float64 (64 KiB) stays
# below glibc's 128 KiB mmap threshold, so a block's temporaries come from
# the heap: at 2^15 cells they were fresh mappings, and the oracle workload
# took 36-97k page faults a pass instead of 3.  It divides CHUNK_CELLS, so
# chunks of a long row start on block boundaries.
BLOCK_CELLS = 1 << 13

# Uniform levels sum each stretch of this many cells pairwise and add the
# stretch subtotals left to right.  It divides BLOCK_CELLS, so no stretch
# straddles two blocks.  An antiderivative keeps one running L and U per
# stretch of its closing level, and a read sums at most this many cells,
# so the length trades the time of a read against kept memory.  Measured
# on the calculus workload's antiderivative (2 vCPUs, numpy 2.4.6), reads
# cost the same at 64 and 256 cells and about 1.3-1.5 times as much at
# 4096, while the kept sums shrink fourfold from 64 to 256.
STRETCH_CELLS = 1 << 8

# Given rows (explicit partitions, 1-D breakpoint arrays, the reads of an
# antiderivative and every prefix sum) accumulate left to right within
# chunks of this many cells (from zero) and left to right over the chunk
# subtotals: prefixes are that running sum, and it makes a repeated point
# add exactly nothing.  A row's chunks start at multiples of CHUNK_CELLS
# whether it is summed alone or with other rows, so its sums do not depend
# on the block.  Uniform levels do not use it: they sum by stretches.
CHUNK_CELLS = 1 << 18


class RowError(ValueError):
    """Evaluation failed in row ``row`` of a block; ``cause`` says where."""

    def __init__(self, row: int, cause: Exception):
        super().__init__(str(cause))
        self.row = row
        self.cause = cause


def _run(prog: Program, ts: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return _steps(prog, ts)


def _steps(prog: Program, ts: np.ndarray) -> np.ndarray:
    """The program's values at ``ts``, under the caller's ``np.errstate``."""
    stack: list[np.ndarray] = []
    for op, arg in prog.steps:
        if op == OP_CONST:
            stack.append(np.full(ts.shape, arg))
        elif op == OP_VAR:
            stack.append(ts)
        elif op == OP_NEG:
            stack.append(-stack.pop())
        elif op == OP_ADD:
            b = stack.pop()
            stack.append(stack.pop() + b)
        elif op == OP_SUB:
            b = stack.pop()
            stack.append(stack.pop() - b)
        elif op == OP_MUL:
            b = stack.pop()
            stack.append(stack.pop() * b)
        elif op == OP_DIV:
            b = stack.pop()
            stack.append(stack.pop() / b)
        elif op == OP_POW:
            stack.append(_ipow(stack.pop(), arg))
        elif op == OP_SIN:
            stack.append(np.sin(stack.pop()))
        elif op == OP_COS:
            stack.append(np.cos(stack.pop()))
        elif op == OP_EXP:
            stack.append(np.exp(stack.pop()))
        elif op == OP_LOG:
            stack.append(np.log(stack.pop()))
        elif op == OP_ABS:
            stack.append(np.abs(stack.pop()))
        elif op == OP_SQRT:
            stack.append(np.sqrt(stack.pop()))
        elif op == OP_MIN2:
            b = stack.pop()
            stack.append(np.minimum(stack.pop(), b))
        elif op == OP_MAX2:
            b = stack.pop()
            stack.append(np.maximum(stack.pop(), b))
        else:
            raise ValueError(f"bad opcode {op}")
    out = stack.pop()
    if out is ts:
        out = ts.copy()
    return out


def eval_many(prog: Program, ts: np.ndarray) -> np.ndarray:
    """Evaluate the program at every point; non-finite results raise."""
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    out = _run(prog, ts)
    _check_finite(out, ts)
    return out


def _check_finite(vals: np.ndarray, ts: np.ndarray, row0: int = 0) -> None:
    """Raise RowError at the first non-finite value; rows run along axis 0."""
    if not np.isfinite(vals).all():
        bad = ~np.isfinite(vals)
        i = int(np.argmax(bad))
        row = row0 + (i // bad[0].size if bad.ndim > 1 else 0)
        t = float(ts.ravel()[i])
        raise RowError(row, EvalDomainError(f"kernel evaluation left the real domain at t={t!r}"))


def _values(prog: Program | None, ts: np.ndarray, evalf, row0: int) -> np.ndarray:
    """Kernel values at a block of points whose first row is row ``row0``, unchecked."""
    if evalf is None:
        out = _steps(prog, ts)
    else:
        out = np.empty(ts.shape)
        for r, row in enumerate(ts):
            try:
                out[r] = np.asarray(evalf(row.ravel()), dtype=np.float64).reshape(row.shape)
            except EvalDomainError as err:
                raise RowError(row0 + r, err) from err
    return out


class _Rows:
    """Rows of ``n`` cells each, one row per atom of a band.

    Sized as one grid of ``rows * n`` cells: ``len(grid) - 1`` is its number
    of cells, as for a 1-D breakpoint array, so the cells an entry point
    below sums read the same for either kind of grid.
    """

    rows: int
    n: int

    def __len__(self) -> int:
        return self.rows * self.n + 1


class GivenRows(_Rows):
    """Rows of given breakpoints: row r of ``xs`` holds the n + 1 points of row r."""

    def __init__(self, xs: np.ndarray):
        self.xs = xs
        self.rows, self.n = xs.shape[0], xs.shape[1] - 1

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        return self.xs[r0:r1, c0 : c1 + 1]


class UniformRows(_Rows):
    """Row r holds the points of ``uniform_grid(lo[r], hi[r], n)``, built a block at a time.

    A block's points are formed by ``grid_points``, as in ``uniform_grid``,
    from one index row 0, 1, ..., BLOCK_CELLS kept for the grid: c0 + k is
    an integer, exact in float64, so the points are bit for bit the same.
    With ``running``, each sum over the grid writes ``running``, a (2, rows,
    stretches) array of each row's running L and U at the end of each
    stretch; the last is the row's total.  A sampled sum writes it twice,
    and its finer pass, the one it reports, writes last.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, n: int, running: bool = False):
        self.lo = lo
        self.hi = hi
        self.rows, self.n = len(lo), n
        self._lo, self._hi = lo[:, None], hi[:, None]
        self._step = (self._hi - self._lo) / max(n, 1)  # with no cells, never used
        self._index = np.arange(min(n, BLOCK_CELLS) + 1, dtype=np.float64)
        self.running = np.zeros((2, self.rows, -(-n // STRETCH_CELLS))) if running else None

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        ks = self._index[: c1 - c0 + 1]
        if c0:
            ks = ks + c0
        r = slice(r0, r1)
        return grid_points(ks, self._lo[r], self._hi[r], self._step[r], c0 == 0, c1 == self.n)

    def ends(self) -> np.ndarray:
        """Each row's points at its stretch ends: cells 0, STRETCH_CELLS, ..., and n."""
        ks = np.append(np.arange(0, self.n, STRETCH_CELLS, dtype=np.float64), self.n)
        return grid_points(ks, self._lo, self._hi, self._step, True, True)


def _entry_cells(xs: np.ndarray, ts: np.ndarray, starts: list, first: bool, last: bool):
    """The cell of each point t in a block of rows, counted from the block's first cell.

    Row r of the block holds points ``starts[r]:starts[r + 1]``.  A point's
    cell in its whole row is clip(searchsorted(row, t, "right") - 1, 0,
    n - 1); the block holds a stretch of each row, so points left of it
    read -1 and points right of it read its width, except beyond the row's
    own ends (in the ``first`` and ``last`` block), where the clip applies.
    """
    cells = np.empty(len(ts), dtype=np.int64)
    for r, (a, b) in enumerate(zip(starts, starts[1:])):
        if a < b:
            cells[a:b] = xs[r].searchsorted(ts[a:b], "right")
    cells -= 1
    if first:
        np.maximum(cells, 0, out=cells)
    if last:
        np.minimum(cells, xs.shape[1] - 2, out=cells)
    return cells


def _sampled_minmax(prog: Program | None, xs: np.ndarray, s: int, evalf, row0: int):
    """The sample points, their values and the (2, rows, cells) sampled minima and maxima."""
    a = xs[:, :-1]
    b = xs[:, 1:]
    step = (b - a) / s
    pts = a[..., None] + np.arange(s + 1) * step[..., None]
    fv = _values(prog, pts, evalf, row0)
    return pts, fv, np.array([fv.min(axis=-1), fv.max(axis=-1)])


@np.errstate(all="ignore")  # non-finite values and overflows are named instead
def _sum_cells(prog: Program | None, grid, entries=None, s: int = 0, prefix=None, evalf=None):
    """Shared summation for all Darboux strategies, over every row of ``grid``.

    ``s == 0`` takes each cell's extrema at its endpoints, folded with the
    ``entries`` (row, t, value), sorted by row, that fall in it; ``s > 0``
    samples ``s`` subintervals per cell.  Cells are evaluated in blocks of
    at most ``BLOCK_CELLS``, several short rows or part of one long row at a
    time.  The products of a ``UniformRows`` block are summed by one
    pairwise reduction per stretch of ``STRETCH_CELLS`` cells, and once all
    of a row's stretch subtotals are in, they are added left to right, in
    ``grid.running`` when the grid keeps them.  Every other grid
    accumulates left to right within chunks of ``CHUNK_CELLS`` cells, a
    chunk's running sums carrying over from one block to the next; prefixes
    need that order, and it makes a repeated point add exactly nothing.  A
    non-finite kernel value or an overflowing product makes a block's sums
    (or, for rows of one block, their running sums) non-finite, so the
    block is examined only then, and its lowest such row raises RowError
    (see ``_non_finite``) instead of numpy warning of the overflow.  A row
    of several blocks whose running sum overflows only across stretches is
    named once its last block is summed, at the first cell of the block in
    which it overflowed.
    Returns the row totals as a (2, rows) array (L, U); a (2, rows, n)
    ``prefix`` array, when given, receives each row's running sums, the
    last of which is its total.  ``evalf`` substitutes a callable for the
    program (callable kernels).  A grid of zero cells sums to 0.
    """
    rows, n = grid.rows, grid.n
    pairwise = isinstance(grid, UniformRows) and prefix is None
    i0 = i1 = 0
    if entries is not None and len(entries[1]):
        e_rows, e_ts, e_vals = entries
        e_starts = np.searchsorted(e_rows, np.arange(rows + 1)).tolist()  # of each row's entries
    else:  # no entries, or an empty list of them
        entries = None
    totals = np.zeros((2, rows))  # lower and upper
    per_block = max(1, BLOCK_CELLS // max(n, 1))
    width = max(1, min(n, BLOCK_CELLS))  # with no cells, no blocks

    for r0 in range(0, rows, per_block):
        r1 = min(r0 + per_block, rows)
        if pairwise:  # the rows' stretch subtotals, then their running sums
            run = grid.running
            run = np.empty((2, r1 - r0, -(-n // STRETCH_CELLS))) if run is None else run[:, r0:r1]
        if entries is not None:  # the block's entries
            i0, i1 = e_starts[r0], e_starts[r1]
            b_rows, b_ts, b_vals = e_rows[i0:i1], e_ts[i0:i1], e_vals[i0:i1]
            if r0:
                b_rows = b_rows - r0
            starts = [i - i0 for i in e_starts[r0 : r1 + 1]]
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            xs = grid.block(r0, r1, c0, c1)
            if s == 0:  # cell minima and maxima, as one (2, rows, cells) array
                pts, v = xs, _values(prog, xs, evalf, r0)
                mb = np.empty((2, r1 - r0, c1 - c0))
                np.minimum(v[:, :-1], v[:, 1:], out=mb[0])
                np.maximum(v[:, :-1], v[:, 1:], out=mb[1])
                if i1 > i0:
                    cells = _entry_cells(xs, b_ts, starts, c0 == 0, c1 == n)
                    sel = slice(None) if n == width else (cells >= 0) & (cells < c1 - c0)
                    at = (b_rows[sel], cells[sel])
                    np.minimum.at(mb[0], at, b_vals[sel])
                    np.maximum.at(mb[1], at, b_vals[sel])
            else:
                pts, v, mb = _sampled_minmax(prog, xs, s, evalf, r0)
            np.multiply(mb, xs[:, 1:] - xs[:, :-1], out=mb)
            if pairwise:
                k0, k1 = c0 // STRETCH_CELLS, -(-c1 // STRETCH_CELLS)  # the block's stretches
                whole = (c1 - c0) // STRETCH_CELLS
                if whole:
                    cells = mb[..., : whole * STRETCH_CELLS].reshape(2, r1 - r0, whole, -1)
                    np.add.reduce(cells, axis=3, out=run[..., k0 : k0 + whole])
                if k0 + whole < k1:  # a short last stretch, or a row shorter than one
                    np.add.reduce(mb[..., whole * STRETCH_CELLS :], axis=2, out=run[..., k1 - 1])
                seen = run[..., k0:k1]
                if n <= width:  # the rows' only block: make ``seen`` their running sums
                    np.add.accumulate(run, axis=2, out=run)
            else:
                if c0 % CHUNK_CELLS:  # the chunk's sums so far lead this block's
                    mb[:, :, 0] += acc[:, :, -1]
                acc = np.add.accumulate(mb, axis=2, out=mb)
                seen = acc[:, :, -1]
                if prefix is not None:
                    prefix[:, r0:r1, c0:c1] = totals[:, r0:r1, None] + acc
                if c1 % CHUNK_CELLS == 0 or c1 == n:  # the chunk ends here
                    sums, seen = seen, totals[:, r0:r1]
                    seen += sums
            if not np.isfinite(seen).all():  # a finite total has finite terms
                _non_finite(seen, v, pts, mb, xs, pairwise, r0)
        if pairwise and n > width:  # one row in blocks: add its stretch subtotals left to right
            bad = ~np.isfinite(np.add.accumulate(run, axis=2, out=run)[:, 0]).all(axis=0)
            if bad[-1]:  # it overflowed across stretches: name the block where it did
                c0 = int(np.argmax(bad)) * STRETCH_CELLS // width * width
                raise _overflow(r0, *grid.block(r0, r0 + 1, c0, c0 + 1)[0])
        if pairwise and n:
            totals[:, r0:r1] = run[..., -1]

    return totals


def _non_finite(seen, v, pts, mb, xs, pairwise: bool, r0: int):
    """Raise RowError for the lowest row of a block whose sums are not finite.

    ``seen`` holds the block's rows' sums: their stretch subtotals or
    running sums (``pairwise``), or their totals so far or their chunk's
    running sums.  Names the row's first non-finite value (``v`` at
    ``pts``), or else the first cell at which the running sum of its
    products m·Δx (``mb``, or already their running sums unless
    ``pairwise``) overflowed; if none did, a partial sum overflowed, at the
    block's first cell.
    """
    r = int(np.argmax(~np.isfinite(seen).reshape(2, len(v), -1).all(axis=(0, 2))))
    _check_finite(v[r : r + 1], pts[r : r + 1], r0 + r)
    running = np.add.accumulate(mb[:, r], axis=1) if pairwise else mb[:, r]
    k = int(np.argmax(~np.isfinite(running).all(axis=0)))
    raise _overflow(r0 + r, xs[r, k], xs[r, k + 1])


def _overflow(row: int, a, b) -> RowError:
    message = "the products m·Δx overflowed: their sum is not finite at the cell"
    return RowError(row, OverflowError(f"{message} [{float(a)!r}, {float(b)!r}]"))


def _sampled(prog: Program | None, grid, s: int, evalf=None, prefix=None):
    """The sums at 2s subintervals per cell, and |difference| from those at s.

    ``prefix``, when given, receives the running sums of the 2s pass.  When
    both passes fail, the error of the lower row is raised.
    """
    passes = []
    for k, out in ((s, None), (2 * s, prefix)):
        try:
            passes.append(_sum_cells(prog, grid, s=k, prefix=out, evalf=evalf))
        except RowError as err:
            passes.append(err)
    errors = [p for p in passes if isinstance(p, RowError)]
    if errors:
        raise min(errors, key=lambda err: err.row)
    (l1, u1), (l2, u2) = passes
    return l2, u2, np.abs(l2 - l1), np.abs(u2 - u1)


# Entry points.  ``xs`` is a 1-D breakpoint array, giving a float per sum
# and an array per prefix, or a band grid (``GivenRows`` or ``UniformRows``),
# giving each with a leading axis of rows; a failure raises RowError naming
# its row.  The first pass of a sampled prefix, which sets its widening,
# sums a ``UniformRows`` by stretches.  The ``prefix_*`` entry points and
# ``_prefixes`` serve only the benchmark: no library path calls them.

def _rows(xs) -> _Rows:
    if isinstance(xs, _Rows):
        return xs
    return GivenRows(np.asarray(xs, dtype=np.float64)[None, :])


def _result(xs, parts):
    """``parts`` as they are for a band grid; for a 1-D grid, row 0 of each, a sum as a float."""
    if isinstance(xs, _Rows):
        return parts
    return tuple([float(p[0]) if p.ndim == 1 else p[0] for p in parts])


def _entries(crit_ts, crit_vals, crit_rows):
    crit_ts = np.asarray(crit_ts, dtype=np.float64)
    if crit_rows is None:
        crit_rows = np.zeros(len(crit_ts), dtype=np.int64)
    return crit_rows, crit_ts, np.asarray(crit_vals, dtype=np.float64)


def _prefixes(prog: Program | None, xs, entries=None, s: int = 0, evalf=None):
    grid = _rows(xs)
    prefix = np.empty((2, grid.rows, grid.n))
    if s == 0:
        _sum_cells(prog, grid, entries, prefix=prefix, evalf=evalf)
        return _result(xs, prefix)
    _, _, wl, wu = _sampled(prog, grid, s, evalf, prefix)
    return _result(xs, (prefix[0], prefix[1], wl, wu))


def darboux_endpoint(prog: Program, xs):
    """Lower/upper sums with per-cell extrema at the cell endpoints."""
    return _result(xs, _sum_cells(prog, _rows(xs)))


def darboux_critical(prog: Program, xs, crit_ts, crit_vals, crit_rows=None):
    """Endpoint extrema folded with the critical (t, value) entries of each cell.

    In a band, entry i belongs to row ``crit_rows[i]``; rows are sorted.
    """
    entries = _entries(crit_ts, crit_vals, crit_rows)
    return _result(xs, _sum_cells(prog, _rows(xs), entries))


def darboux_sampled(prog: Program, xs, s: int):
    """Per-cell extrema sampled at s and 2s subintervals.

    Returns the 2s sums plus |difference| between the two passes as a
    measured widening for each of L and U.
    """
    return _result(xs, _sampled(prog, _rows(xs), s))


def prefix_endpoint(prog: Program, xs):
    """Running lower/upper sums of ``darboux_endpoint``, one per cell; for the benchmark only."""
    return _prefixes(prog, xs)


def prefix_critical(prog: Program, xs, crit_ts, crit_vals, crit_rows=None):
    """Running lower/upper sums of ``darboux_critical``, one per cell; for the benchmark only."""
    return _prefixes(prog, xs, _entries(crit_ts, crit_vals, crit_rows))


def prefix_sampled(prog: Program, xs, s: int):
    """Running sums of ``darboux_sampled``'s 2s pass, and its widenings; for the benchmark only."""
    return _prefixes(prog, xs, s=s)


# Callable-kernel variants: same shapes, ``evalf`` instead of a program.

def darboux_endpoint_fn(evalf, xs):
    return _result(xs, _sum_cells(None, _rows(xs), evalf=evalf))


def darboux_sampled_fn(evalf, xs, s: int):
    return _result(xs, _sampled(None, _rows(xs), s, evalf))


def prefix_endpoint_fn(evalf, xs):
    """For the benchmark only, as ``prefix_endpoint``."""
    return _prefixes(None, xs, evalf=evalf)


def prefix_sampled_fn(evalf, xs, s: int):
    """For the benchmark only, as ``prefix_sampled``."""
    return _prefixes(None, xs, s=s, evalf=evalf)
