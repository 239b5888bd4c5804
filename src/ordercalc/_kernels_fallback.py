"""Numpy evaluation of stack programs and their Darboux sums over rows of cells.

Every sum runs through ``_sum_cells``, which takes rows of breakpoints (one
row per atom of a band, all with the same number of cells) and evaluates
them in blocks of at most ``BLOCK_CELLS`` cells: several whole rows while
rows are that short, otherwise one part of one row at a time.  Every kind
of grid places its critical entries by one rule, ``cells``: each entry goes
to the cell a search of its whole row finds.  Rows are summed in one of
two orders, chosen by the kind of grid:

- ``UniformRows`` (every refinement level of ``integrate``): a row is cut
  into stretches of ``STRETCH_CELLS`` cells (a row shorter than that is one
  stretch), and the stretch subtotals are added left to right, so the
  running sum at the end of each stretch is a prefix of the level's own
  total.  A row long enough to be summed alone, a block at a time, sums
  each stretch of a block that holds none of its entries from its point
  values: f is monotone there, so its Darboux sums are Riemann sums tagged
  at an end, step·(inner values + the lesser or greater end value), with
  the inner values summed by one pairwise reduction.  Every other stretch
  (in a block that holds an entry, on a shorter row, or of a sampled pass)
  sums its per-cell products m·Δx by one pairwise reduction.  The
  reductions vectorise, where a running sum over cells cannot, and the
  rounding-error bound grows with log2(STRETCH_CELLS) plus the number of
  stretches instead of with the number of cells.  Every grid keeps those
  stretch running sums in ``running``: they are what an antiderivative
  reads.
- ``GivenRows`` and 1-D breakpoint arrays (explicit partitions, the reads of
  an antiderivative within a stretch, and the ``prefix_*`` calls): each row
  is summed left to right over the whole row, each block's running sum
  starting from the row's running sum so far.  Prefixes are that running
  sum, its error is at most γ_(n-1)·Σ|m·Δx| for a row of n cells, and the
  sequential order makes a cell of zero width (a repeated point) add
  exactly nothing.

In either order a row's blocks are the same whether it is summed alone or
in a band (whole short rows, or the same parts of a long row), and how a
block of a row is summed depends on that row alone, so its sums are bit
for bit the same both ways.  The entry points (``darboux_*``
for sums, ``prefix_*`` for per-cell running sums, and the ``_fn`` twins
of both for callables) sum a whole band, or one row given as a 1-D
breakpoint array.  No library path calls the ``prefix_*`` entry points any
more; they are kept for the benchmark, which times and traces them.
``_run`` evaluates a program over arrays of points through ``_tape.run``,
which alone steps through programs; this module supplies only the numpy
evaluator's op table, ``_OPS``.  ``BLOCK_CELLS`` and ``STRETCH_CELLS`` are
defined here, beside the one loop that reads them.  Stretches fix the
summation order of uniform levels, which this module owns, and the tape
format has no part in it.  Blocks fix the bits too: whether a row of a
uniform level is point-summed (more than BLOCK_CELLS/2 cells), and which of
its blocks hold an entry and so sum their products, both depend on
``BLOCK_CELLS``.  A retune of it moves bits, so it must re-check that every
atom's closing depth is unchanged.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ._tape import (
    OP_ABS,
    OP_ADD,
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
    Program,
    run,
)
from .expr import EvalDomainError, _ipow
from .partitions import grid_points

NAME = "numpy"

# The numpy evaluator's op table.  ``^`` is ``expr._ipow``, which the float
# op table behind ``expr.eval_expr`` shares, so scalar and array values agree
# bit for bit.
_OPS = {
    OP_NEG: np.negative,
    OP_ADD: np.add,
    OP_SUB: np.subtract,
    OP_MUL: np.multiply,
    OP_DIV: np.divide,
    OP_POW: _ipow,
    OP_SIN: np.sin,
    OP_COS: np.cos,
    OP_EXP: np.exp,
    OP_LOG: np.log,
    OP_ABS: np.abs,
    OP_SQRT: np.sqrt,
    OP_MIN2: np.minimum,
    OP_MAX2: np.maximum,
}

# Cells evaluated at once.  An array of this many float64 (64 KiB) stays
# below glibc's 128 KiB mmap threshold, so a block's temporaries come from
# the heap: at 2^15 cells they were fresh mappings, and the oracle workload
# took 36-97k page faults a pass instead of 3.  It also decides which rows
# and blocks of a uniform level are point-summed, so it moves bits (see the
# module docstring).
BLOCK_CELLS = 1 << 13

# Uniform levels sum each stretch of this many cells pairwise, its point
# values or its products, and add the stretch subtotals left to right.  It
# divides BLOCK_CELLS, so no stretch straddles two blocks.  An
# antiderivative keeps one running L and U per stretch of its closing
# level, and a read sums at most this many cells, so the length trades the
# time of a read against kept memory.  Measured
# on the calculus workload's antiderivative (2 vCPUs, numpy 2.4.6), reads
# cost the same at 64 and 256 cells and about 1.3-1.5 times as much at
# 4096, while the kept sums shrink fourfold from 64 to 256.
STRETCH_CELLS = 1 << 8


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
    """The program's values at ``ts``, under the caller's ``np.errstate``; always a new array."""
    out = run(prog, ts, partial(np.full, ts.shape), _OPS)
    return ts.copy() if out is ts else out


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

    def cells(self, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """The cell of each point ``ts[i]`` in its row ``rows[i]``: clip(searchsorted(row, t, "right") - 1, 0, n - 1).

        That is the last point at most t, found by one search of each row
        that holds a point.
        """
        cells = np.empty(len(ts), dtype=np.int64)
        for r in np.unique(rows).tolist():
            at = rows == r
            cells[at] = self.xs[r].searchsorted(ts[at], "right")
        return np.clip(cells - 1, 0, self.n - 1)


class UniformRows(_Rows):
    """Row r holds the points of ``uniform_grid(lo[r], hi[r], n)``, built a block at a time.

    A block's points are formed by ``grid_points``, as in ``uniform_grid``,
    from one index row 0, 1, ..., BLOCK_CELLS kept for the grid: c0 + k is
    an integer, exact in float64, so the points are bit for bit the same.
    ``step`` holds each row's (hi - lo)/n, on a trailing axis of length 1.
    Each sum over the grid writes ``running``, a (2, rows, stretches) array
    of each row's running L and U at the end of each stretch; the last is
    the row's total.  A sampled sum writes it twice, and its finer pass, the
    one it reports, writes last.  A prefix sum, which runs in the order of
    given rows, does not write it.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, n: int):
        self.lo = lo
        self.hi = hi
        self.rows, self.n = len(lo), n
        self._lo, self._hi = lo[:, None], hi[:, None]
        self.step = (self._hi - self._lo) / max(n, 1)  # with no cells, never used
        self._index = np.arange(min(n, BLOCK_CELLS) + 1, dtype=np.float64)
        self.running = np.zeros((2, self.rows, -(-n // STRETCH_CELLS)))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        ks = self._index[: c1 - c0 + 1]
        if c0:
            ks = ks + c0
        r = slice(r0, r1)
        return grid_points(ks, self._lo[r], self._hi[r], self.step[r], c0 == 0, c1 == self.n)

    def cells(self, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """The cell of each point ``ts[i]`` in its row ``rows[i]``: clip(searchsorted(row, t, "right") - 1, 0, n - 1).

        That is the last point at most t.  It is bisected for between a, a
        point at most t (or 0), and b, a point above t (or n + 1), which
        start at k = floor((t - lo)/step) and k + 1 and widen, doubling
        their reach, until they hold; so a run of repeated points (a step
        below the spacing of the floats) costs a few more steps, not one
        per point.  Points are formed as ``grid_points`` forms them,
        min(k·step + lo, hi); point n may read below hi, which the clip to
        n - 1 makes harmless.
        """
        if self.n == 1:  # rows of one cell, as on every level 0
            return np.zeros(len(ts), dtype=np.int64)
        lo, hi, step, n = self.lo[rows], self.hi[rows], self.step[rows, 0], self.n

        def above(k):  # whether point k lies above t
            return np.minimum(k * step + lo, hi) > ts

        with np.errstate(all="ignore"):  # a row of zero width has no estimate: NaN reads 0
            a = np.fmin(np.fmax(np.floor((ts - lo) / step), 0.0), n)
        b, reach = a + 1, 1.0
        while True:
            low, high = above(a) & (a > 0), ~above(b) & (b <= n)
            if not (low | high).any():
                break
            a = np.where(low, np.maximum(a - reach, 0), a)
            b = np.where(high, np.minimum(b + reach, n + 1), b)
            reach *= 2
        while reach > 1 and (b - a > 1).any():
            mid = np.floor(0.5 * (a + b))
            up = ~above(mid)
            a, b = np.where(up, mid, a), np.where(up, b, mid)
        return np.minimum(a, n - 1).astype(np.int64)

    def ends(self) -> np.ndarray:
        """Each row's points at its stretch ends: cells 0, STRETCH_CELLS, ..., and n."""
        ks = np.append(np.arange(0, self.n, STRETCH_CELLS, dtype=np.float64), self.n)
        return grid_points(ks, self._lo, self._hi, self.step, True, True)


def _products(v: np.ndarray, xs: np.ndarray, at=None, vals=None) -> np.ndarray:
    """The (2, rows, cells) products m·Δx of rows of points ``xs`` with values ``v``.

    m is the least and the greatest of each cell's endpoint values, folded
    with the entry values ``vals`` at ``at`` = (rows, cells) when given.
    """
    mb = np.empty((2, v.shape[0], v.shape[1] - 1))
    np.minimum(v[:, :-1], v[:, 1:], out=mb[0])
    np.maximum(v[:, :-1], v[:, 1:], out=mb[1])
    if at is not None:
        np.minimum.at(mb[0], at, vals)
        np.maximum.at(mb[1], at, vals)
    np.multiply(mb, xs[:, 1:] - xs[:, :-1], out=mb)
    return mb


def _stretch_reductions(mb: np.ndarray, out: np.ndarray) -> None:
    """The products ``mb`` (2, rows, cells) summed by one pairwise reduction per stretch, into ``out``."""
    g = STRETCH_CELLS
    whole = mb.shape[2] // g
    if whole:
        np.add.reduce(mb[..., : whole * g].reshape(2, mb.shape[1], whole, g), axis=3, out=out[..., :whole])
    if mb.shape[2] % g:  # a short last stretch, or a row shorter than one
        np.add.reduce(mb[..., whole * g :], axis=2, out=out[..., -1])


def _stretch_sums(v: np.ndarray, xs: np.ndarray, step: np.ndarray, at, vals, out: np.ndarray) -> bool:
    """The L and U of each stretch of a block of one row of a uniform level, into ``out``.

    ``out`` is (2, 1, stretches).  A block that holds none of its row's
    entries has f monotone on every stretch, and a stretch of c cells with
    points p_0 ... p_c has L = step·(f(p_1) + ... + f(p_(c-1)) +
    min(f(p_0), f(p_c))) and U the same with max: its Darboux sums are
    Riemann sums tagged at an end.  Its inner values are summed by one
    pairwise reduction.  A block that holds an entry (at ``at`` = (rows,
    cells), values ``vals``), or whose point sums are not finite, sums its
    products m·Δx instead, a pairwise reduction per stretch.  Returns
    whether every sum in ``out`` is finite.
    """
    if at is None:
        g = STRETCH_CELLS
        m = v.shape[1] - 1
        whole = m // g  # whole stretches, then a short last one if m % g
        inner = np.empty(out.shape[1:])
        if whole:
            np.add.reduce(v[:, : whole * g].reshape(len(v), whole, g)[..., 1:], axis=2, out=inner[:, :whole])
        if m % g:
            np.add.reduce(v[:, whole * g + 1 : m], axis=1, out=inner[:, -1])
        ends = v[:, ::g] if m % g == 0 else np.concatenate((v[:, ::g], v[:, -1:]), axis=1)
        first, last = ends[:, :-1], ends[:, 1:]
        np.minimum(first, last, out=out[0])
        np.maximum(first, last, out=out[1])
        out += inner
        out *= step
        if np.isfinite(out).all():
            return True
    _stretch_reductions(_products(v, xs, at, vals), out)
    return bool(np.isfinite(out).all())


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
    ``entries`` (row, t, value), sorted by row and within a row by t, that
    fall in it; ``s > 0`` samples ``s`` subintervals per cell.  Each entry's
    cell is found once, by ``grid.cells``, and a block takes the entries of
    its rows, or for a long row those whose cells it holds.  Cells are
    evaluated in blocks of at most ``BLOCK_CELLS``, several short rows or
    part of one long row at a time.  A ``UniformRows`` block is summed by
    stretches of ``STRETCH_CELLS`` cells, and once all of a row's stretch
    subtotals are in, they are added left to right, in ``grid.running``.
    With ``s == 0``, on rows of more than BLOCK_CELLS/2 cells (summed
    alone, a block at a time), a block that holds no entry of its row sums
    each stretch from its point values (``_stretch_sums``): this assumes f
    monotone between a row's entries, which certified entries and monotone
    hints give.  A block holding an entry, or whose point sums are not
    finite (a sum of large values can overflow where the products m·Δx do
    not), a block of several shorter rows, and every block of a sampled
    pass sum their products, a pairwise reduction per stretch.  (Point sums
    for some rows of a block and products for the others cost more array
    operations than they save: measured on the benchmark's ``wide``
    workload, 2 vCPUs and numpy 2.4.6, that was about 15% slower.)  Every
    other grid, and every prefix sum, adds each row's products left to
    right, a block's running sums starting from the row's running sum so
    far, added to the block's first product; prefixes need that order, and
    it makes a repeated point add exactly nothing.

    Rounding that the point sums add to that of the products' order (no
    bracket counts either yet): each cell's float width is replaced by the
    row's step, which adds at most about ulp(max|x|)·(TV f + 2·sup|f|) to
    a row's L or U; and float values on a stretch where f is monotone need
    not be monotone, so an end value can miss a cell's float extremum by
    the evaluation error.

    A non-finite kernel value or an overflowing product makes a block's
    sums (or, for rows of one block, their running sums) non-finite, so the
    block is examined only then, and its lowest such row raises RowError
    (see ``_non_finite``) instead of numpy warning of the overflow.  Summed
    left to right, that names the cell at which a row's running sum
    overflowed.  A uniform row of several blocks whose running sum
    overflows only across stretches is named once its last block is
    summed, at the first cell of the block in which it overflowed.
    Returns the row totals as a (2, rows) array (L, U); a (2, rows, n)
    ``prefix`` array, when given, receives each row's running sums, the
    last of which is its total.  ``evalf`` substitutes a callable for the
    program (callable kernels).  A grid of zero cells sums to 0.
    """
    rows, n = grid.rows, grid.n
    pairwise = isinstance(grid, UniformRows) and prefix is None
    per_block = max(1, BLOCK_CELLS // max(n, 1))
    width = max(1, min(n, BLOCK_CELLS))  # with no cells, no blocks
    points = pairwise and s == 0 and per_block == 1  # blocks without entries summed from point values
    i0 = i1 = 0
    if entries is not None and len(entries[1]):
        e_rows, e_ts, e_vals = entries
        e_starts = np.searchsorted(e_rows, np.arange(rows + 1)).tolist()  # of each row's entries
        e_cells = grid.cells(e_rows, e_ts)
    else:  # no entries, or an empty list of them
        entries = None
    totals = np.zeros((2, rows))  # lower and upper; left to right, the running sums so far

    for r0 in range(0, rows, per_block):
        r1 = min(r0 + per_block, rows)
        if pairwise:  # the rows' stretch subtotals, then their running sums
            run = grid.running[:, r0:r1]
        if entries is not None:  # the block's entries
            i0, i1 = e_starts[r0], e_starts[r1]
            b_rows, b_cells, b_vals = e_rows[i0:i1] - r0, e_cells[i0:i1], e_vals[i0:i1]
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            xs = grid.block(r0, r1, c0, c1)
            at = vals = mb = None
            checked = False  # whether ``seen`` is known finite
            if s == 0:
                pts, v = xs, _values(prog, xs, evalf, r0)
                if i1 > i0:  # a long row's entries, sorted by cell, fall in blocks in turn
                    sel = slice(*np.searchsorted(b_cells, (c0, c1))) if n > width else slice(None)
                    if len(b_cells[sel]):
                        at, vals = (b_rows[sel], b_cells[sel] - c0), b_vals[sel]
                if not points:
                    mb = _products(v, xs, at, vals)
            else:
                pts, v, mb = _sampled_minmax(prog, xs, s, evalf, r0)
                np.multiply(mb, xs[:, 1:] - xs[:, :-1], out=mb)
            if pairwise:
                k0, k1 = c0 // STRETCH_CELLS, -(-c1 // STRETCH_CELLS)  # the block's stretches
                seen = run[..., k0:k1]
                if points:  # a long row's ``seen`` stays the sums found finite there
                    checked = _stretch_sums(v, xs, grid.step[r0:r1], at, vals, seen) and n > width
                else:
                    _stretch_reductions(mb, seen)
                if n <= width:  # the rows' only block: make ``seen`` their running sums
                    _running(run)
            else:  # left to right, from the rows' running sums so far
                mb[:, :, 0] += totals[:, r0:r1]
                acc = np.add.accumulate(mb, axis=2, out=mb)
                seen = totals[:, r0:r1] = acc[:, :, -1]
                if prefix is not None:
                    prefix[:, r0:r1, c0:c1] = acc
            if not checked and not np.isfinite(seen).all():  # a finite total has finite terms
                mb = _products(v, xs, at, vals) if mb is None else mb
                _non_finite(seen, v, pts, mb, xs, pairwise, r0)
        if pairwise and n > width:  # one row in blocks: add its stretch subtotals left to right
            bad = ~np.isfinite(_running(run)[:, 0]).all(axis=0)
            if bad[-1]:  # it overflowed across stretches: name the block where it did
                c0 = int(np.argmax(bad)) * STRETCH_CELLS // width * width
                raise _overflow(r0, *grid.block(r0, r0 + 1, c0, c0 + 1)[0])
        if pairwise and n:
            totals[:, r0:r1] = run[..., -1]

    return totals


def _running(run: np.ndarray) -> np.ndarray:
    """Add the (2, rows, stretches) subtotals ``run`` left to right from 0, in place.

    Starting from 0 turns a leading -0.0 (a point sum over a row of zero
    width) into 0.0, as the reductions of products, which start from 0,
    give.
    """
    run[..., :1] += 0.0
    return np.add.accumulate(run, axis=2, out=run)


def _non_finite(seen, v, pts, mb, xs, pairwise: bool, r0: int):
    """Raise RowError for the lowest row of a block whose sums are not finite.

    ``seen`` holds the block's rows' sums: their stretch subtotals or
    running sums (``pairwise``), or their running sums so far.  Names the
    row's first non-finite value (``v`` at ``pts``), or else the first cell
    at which the running sum of its products m·Δx (``mb``, or already their
    running sums unless ``pairwise``) overflowed; if none did, a partial sum
    overflowed, at the block's first cell.
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
    """The entries (rows, ts, vals), ordered by row and within a row by t."""
    crit_ts = np.asarray(crit_ts, dtype=np.float64)
    if crit_rows is None:
        crit_rows = np.zeros(len(crit_ts), dtype=np.int64)
    order = np.lexsort((crit_ts, crit_rows))  # stable: sorted entries keep their order
    return np.asarray(crit_rows)[order], crit_ts[order], np.asarray(crit_vals, dtype=np.float64)[order]


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

    In a band, entry i belongs to row ``crit_rows[i]``.  Entries may come in
    any order: they are sorted by (row, t) first, which moves no bit, as
    the min and max folds commute.
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
