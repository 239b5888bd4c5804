"""Numpy evaluation of stack programs and their Darboux sums over rows of cells.

Every sum runs through ``_sum_cells``, which takes rows of breakpoints (one
row per atom of a band, all with the same number of cells) and evaluates
them in chunks of at most ``CHUNK_CELLS`` cells: several whole rows while
rows are short, otherwise one part of one row at a time.  Every kind of
grid places its critical entries by one rule, ``cells``: each entry goes to
the cell a search of its whole row finds.  Rows are summed in one of two
orders, chosen by the kind of grid:

- ``UniformRows`` (every refinement level of ``integrate``): a row is cut
  into stretches of ``STRETCH_CELLS`` cells (a row shorter than that is one
  stretch, and a row whose length is not a multiple of it ends in a short
  one), and the stretch subtotals are added left to right, so the running
  sum at the end of each stretch is a prefix of the level's own total.
  Each stretch is summed from its point values: f is monotone between a
  row's entries, so its Darboux sums are Riemann sums tagged at an end,
  step·(inner values + the lesser or greater end value), with the inner
  values summed by one pairwise reduction.  A stretch that holds an entry,
  or whose point sums are not finite, and every stretch of a sampled pass,
  sums its per-cell products m·Δx by one pairwise reduction instead.  The
  reductions vectorise, where a running sum over cells cannot, and the
  rounding-error bound grows with log2(STRETCH_CELLS) plus the number of
  stretches instead of with the number of cells.  Every grid keeps those
  stretch running sums in ``running``: they are what an antiderivative
  reads.
- ``GivenRows`` and 1-D breakpoint arrays (explicit partitions, the reads of
  an antiderivative within a stretch, and the ``prefix_*`` calls): each row
  is summed left to right over the whole row, each chunk's running sum
  starting from the row's running sum so far, and the first from +0.0.
  Prefixes are that running sum, its error is at most γ_(n-1)·Σ|m·Δx| for
  a row of n cells, and the sequential order makes a cell of zero width (a
  repeated point) add exactly nothing: its products are ±0.0, and a
  running sum that starts from +0.0 is never -0.0.  So rows of one batch
  that end at different points repeat their last point to the batch's
  length (an antiderivative's reads, one row each, clipped at x) and sum
  to the bits of each row alone.

In either order how a stretch, or a given row, is summed depends on it
alone, so a row's sums are bit for bit the same whether it is summed alone
or in a band.  The entry points (``darboux_*`` for sums, ``prefix_*`` for
per-cell running sums, and the ``_fn`` twins of both for callables) sum a
whole band, or one row given as a 1-D breakpoint array.  No library path
calls the ``prefix_*`` entry points any more; they are kept for the
benchmark, which times and traces them.  Programs are evaluated over
arrays of points through ``_tape.run``, which alone steps through programs;
this module supplies the numpy evaluator's op table, ``_OPS``, and
``_IN_PLACE``, the same table writing each result into a buffer of
``_Buffers``: a sum allocates those once a call, and every chunk reuses
them.  The products m·Δx, of given rows and of the stretches a uniform
level sums by products, are arrays of their own.  ``CHUNK_CELLS`` and
``STRETCH_CELLS`` are defined here, beside the one loop that reads them.
Stretches fix the summation order of uniform levels, which this module
owns, and the tape format has no part in it: a retune of
``STRETCH_CELLS`` moves bits, so it must re-check that every atom's
closing depth is unchanged.  Chunks fix only the evaluation (how many
points a program runs on at once, and how large the buffers are):
``CHUNK_CELLS`` moves no bit.

A uniform level of several rows of at least ``STRETCH_CELLS`` cells each
is summed with numpy's ufunc buffer at ``STRETCH_CELLS`` elements.  With
its default of 8192, numpy copies a per-row column (a row's step, lo or hi)
into the buffer for every row shorter than that before broadcasting it;
with a buffer no longer than a row it broadcasts in place.  Since numpy
2.0 the size is scoped to ``np.errstate``, which ``_sum_cells`` enters, so
the caller's size returns when the call returns or raises.  A level's
reductions are at most one stretch long, no longer than the buffer.
Measured on 2 shared vCPUs with numpy 2.4.6, a (16, 2049) array times a
(16, 1) column took 33 µs with the default buffer and 11.6 µs with one of
256, against 9.4 µs for one (1, 32769) row.  A `t^2` level of 512 rows of
2048 cells went from 3.9 to 2.0 ns a cell, and one row of 2^20 cells takes
2.4 ns a cell.  Shorter rows get slower with a small buffer: a (512, 65)
product went from 32 to 46 µs.  So the rule starts at ``STRETCH_CELLS``
cells, and one-row levels keep the caller's buffer.
"""

from __future__ import annotations

import threading
from functools import cache, partial

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

# The numpy evaluator's op table, out of place; ``_IN_PLACE`` below is the
# form that runs.  ``^`` is ``expr._ipow``, which the float op table behind
# ``expr.eval_expr`` shares, so scalar and array values agree bit for bit.
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

# Cells evaluated at once: one part of a long row, or as many whole rows as
# fit.  Chunks fix only the evaluation, never the bits.  A sum allocates its
# buffers once, for its first (largest) chunk, and every later chunk reuses
# them; a sampled pass evaluates s + 1 points a cell, so its chunks are a
# quarter as wide.  Measured in-process on the benchmark's oracle workload
# (2 vCPUs, numpy 2.4.6), a pass took 0.62-0.64 of the time of evaluating
# 2^13 cells at a time at 2^15 cells and 0.77-0.82 at 2^14; a call's one
# allocation, three arrays of its first chunk for a uniform endpoint pass
# (points and two of values) and two for any other, is 0.75 MiB for a
# uniform endpoint pass at 2^15.  A chunk of several rows of at least
# STRETCH_CELLS cells broadcasts each row's step, lo and hi without numpy's
# buffer (see the module docstring), so 16 rows of 2048 cells cost about
# what one row of 2^15 does.
CHUNK_CELLS = 1 << 15

# Uniform levels sum each stretch of this many cells pairwise, its point
# values or its products, and add the stretch subtotals left to right.  It
# divides CHUNK_CELLS, so a chunk of a long row holds whole stretches.  An
# antiderivative keeps one running L and U per stretch of its closing
# level, and a read sums at most this many cells, so the length trades the
# time of a read against kept memory.  Measured
# on the calculus workload's antiderivative (2 vCPUs, numpy 2.4.6), reads
# cost the same at 64 and 256 cells and about 1.3-1.5 times as much at
# 4096, while the kept sums shrink fourfold from 64 to 256.
STRETCH_CELLS = 1 << 8


class RowError(ValueError):
    """Evaluation failed in row ``row`` of a grid; ``cause`` says where."""

    def __init__(self, row: int, cause: Exception):
        super().__init__(str(cause))
        self.row = row
        self.cause = cause


def _constant(c):
    return c


class _Buffers:
    """The buffers the numpy op table writes into, reused from one chunk of points to the next.

    ``run(prog, ts)`` evaluates a program at the points ``ts`` through
    ``_tape.run`` with ``_IN_PLACE``, which writes into buffers that
    ``take`` hands out.  Given the ``shape`` of the first (largest)
    chunk's points or samples, the constructor makes one allocation of
    three arrays of it: the first holds the points of each chunk
    (``points``), the other two the values (enough for t^3 - t, and for
    every kernel of the benchmark).  Without ``points`` the allocation
    holds only the two arrays of values: a sum whose points are made
    elsewhere (given rows read theirs in place, a sampled pass forms its
    own) never asks for them.  A sum makes one a call, so the
    allocator can hand the same pages to the next call instead of giving
    them back, and every chunk reuses them, a smaller one their leading
    part.  A run that needs more buffers of values allocates them, each as
    large as the arrays of the allocation; a run's result lives until the
    next run starts.  Without a shape there is no allocation, and every
    buffer is allocated as a run takes it.
    Out-of-place evaluation gives the same bits in 71 fewer code lines, but
    on 2 shared vCPUs it took the best ``oracle`` pass from 46-47 to 54-56
    ms and ``calculus`` ``wall_s`` from 150 to 166 ms, and added 0.43 MiB
    to ``oracle`` peak RSS.
    """

    __slots__ = ("memory", "extra", "free", "taken", "var")

    def __init__(self, shape: tuple = (), points: bool = True):
        self.memory = np.empty((2 + points if shape else 0, *shape))
        self.extra: list[np.ndarray] = []  # buffers of values past those

    def points(self, rows: int, cells: int) -> np.ndarray:
        """An array for the points of a chunk of ``rows`` rows of ``cells`` cells."""
        xs = self.memory[0]
        return xs if xs.shape == (rows, cells + 1) else xs[:rows, : cells + 1]

    def run(self, prog: Program, ts: np.ndarray):
        """The program's values at ``ts``: ``ts`` itself, a scalar, or one of these buffers."""
        self.start(ts)
        _using.buffers = self
        try:
            return run(prog, ts, _constant, _IN_PLACE)
        finally:
            _using.buffers = None

    def start(self, ts: np.ndarray) -> None:
        """Free every buffer for values at the points ``ts``."""
        self.var, self.free, self.taken = ts, [], 0

    def take(self) -> np.ndarray:
        """A free buffer, shaped as the points of this run."""
        if self.free:
            return self.free.pop()
        k = self.taken
        self.taken = k + 1
        shape = self.var.shape
        if k < 2 and len(self.memory):
            whole = self.memory[k - 2]  # the last two arrays: the points, when held, come first
        else:
            k -= 2 if len(self.memory) else 0  # past the one allocation
            if k == len(self.extra):  # as large as the allocation's arrays, which later runs fit
                self.extra.append(np.empty(self.memory.shape[1:] if len(self.memory) else shape))
            whole = self.extra[k]
        return whole if whole.shape == shape else whole[tuple(map(slice, shape))]


# The buffers of the run in progress on this thread, which ``_IN_PLACE``
# writes into.  ``_Buffers.run`` sets them around each run; a run calls no
# Python code that could start another.
_using = threading.local()


def _unary_into(f, x):
    if type(x) is not np.ndarray:
        return f(x)
    ws = _using.buffers
    return f(x, out=x if x is not ws.var else ws.take())


def _binary_into(f, x, y):
    ws = _using.buffers
    var = ws.var
    if type(x) is np.ndarray and x is not var:
        if type(y) is np.ndarray and y is not var:
            ws.free.append(y)
        return f(x, y, out=x)
    if type(y) is np.ndarray and y is not var:
        return f(x, y, out=y)
    if type(x) is np.ndarray or type(y) is np.ndarray:
        return f(x, y, out=ws.take())
    return f(x, y)


def _mul_into(a, b):
    ws = _using.buffers
    if type(a) is np.ndarray and a is not ws.var and a is not b:
        return np.multiply(a, b, out=a)
    if type(a) is np.ndarray or type(b) is np.ndarray:
        return np.multiply(a, b, out=ws.take())
    return a * b


def _pow_into(x, e: int):
    return _ipow(x, e, _mul_into, _divide_into)


def _divide_into(x, y):
    return _binary_into(np.divide, x, y)


# The numpy op table ``_OPS`` made to write in place, into the buffers of
# the run: each op writes its result into an operand the table owns (an
# earlier result) or else into a free buffer, and frees the other operand
# it owned.  Constants stay numpy scalars, an op of scalars alone gives a
# scalar, and the run's points are never written.  ``^`` is ``expr._ipow``
# with a multiply that writes into its first operand when the table owns
# it and it is not also the second.  Results are the bits ``_OPS`` gives
# out of place.
_IN_PLACE = {
    op: _pow_into
    if op == OP_POW
    else partial(_binary_into if f.nin == 2 else _unary_into, f)
    for op, f in _OPS.items()
}


def _run(prog: Program, ts: np.ndarray) -> np.ndarray:
    """The program's values at ``ts``, with numpy's warnings off; always a new array."""
    with np.errstate(all="ignore"):
        out = _Buffers().run(prog, ts)
    if out is ts:
        return ts.copy()
    return out if type(out) is np.ndarray else np.full(ts.shape, out)


def eval_many(prog: Program, ts: np.ndarray) -> np.ndarray:
    """Evaluate the program at every point; non-finite results raise."""
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    out = _run(prog, ts)
    _check_finite(out, ts)
    return out


def _finite(x: np.ndarray) -> bool:
    """Whether every value of ``x`` is finite (as ``np.isfinite(x).all()``, with less overhead)."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


def _check_finite(vals: np.ndarray, ts: np.ndarray, row0: int = 0) -> None:
    """Raise RowError at the first non-finite value; rows run along axis 0."""
    if not _finite(vals):
        bad = ~np.isfinite(vals)
        i = int(np.argmax(bad))
        row = row0 + (i // bad[0].size if bad.ndim > 1 else 0)
        t = float(ts.ravel()[i])
        raise RowError(row, EvalDomainError(f"kernel evaluation left the real domain at t={t!r}"))


def _values(prog: Program | None, ts: np.ndarray, evalf, ws: _Buffers, row0: int):
    """Kernel values at a chunk of points whose first row is row ``row0``, unchecked, and a failure.

    Returns (values, failed).  The values are ``ts`` itself for the
    program ``t``, else a buffer of ``ws``.  ``failed`` is None, or (k,
    RowError) when the callable ``evalf`` raised EvalDomainError in row k
    of the chunk: rows k on read NaN, so their sums are not finite, and the
    caller raises it unless a lower row's sums fail first.
    """
    if evalf is None:
        out = ws.run(prog, ts)
        if type(out) is not np.ndarray:  # a constant program
            value, out = out, ws.take()
            out.fill(value)
        return out, None
    ws.start(ts)
    out = ws.take()
    for r, row in enumerate(ts):
        try:
            out[r] = np.asarray(evalf(row.ravel()), dtype=np.float64).reshape(row.shape)
        except EvalDomainError as err:
            out[r:] = np.nan
            return out, (r, RowError(row0 + r, err))
    return out, None


def _distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``, bit for bit those numpy's ``unique`` gives, by its sort and mask.

    The first call of numpy's ``unique`` in a process loads its set
    routines, which raise peak RSS by more than this does.  Unlike it, NaNs
    are not merged, and none is passed.
    """
    s = np.sort(a)
    return np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))


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
    """Rows of given breakpoints: row r of ``xs`` holds the n + 1 points of row r.

    Every row has n cells.  A row that ends before others may repeat its
    last point: each repeat is a cell of zero width, which adds exactly
    nothing to a running sum that is not -0.0, and these never are (see
    ``_sum_cells``), so the row sums to the bits of the row cut there.
    """

    def __init__(self, xs: np.ndarray):
        self.xs = xs
        self.rows, self.n = xs.shape[0], xs.shape[1] - 1

    def block(self, r0: int, r1: int, c0: int, c1: int, out=None) -> np.ndarray:
        """The points of cells c0..c1 of rows r0..r1, read in place: ``out`` is not used."""
        return self.xs[r0:r1, c0 : c1 + 1]

    def cells(self, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """The cell of each point ``ts[i]`` in its row ``rows[i]``: clip(searchsorted(row, t, "right") - 1, 0, n - 1).

        That is the last point at most t, found by one search of each row
        that holds a point; ``rows`` may come in any order.  A grid of one
        row, as a one-point antiderivative read sums, takes its one search
        without grouping: grouped, a read past an entry in its stretch took
        55 µs instead of 49 µs (best of 12 alternated rounds, 2 shared
        vCPUs, numpy 2.4.6).
        """
        if self.rows == 1:
            cells = self.xs[0].searchsorted(ts, "right")
        else:
            cells = np.empty(len(ts), dtype=np.int64)
            for r in _distinct(rows).tolist():
                at = rows == r
                cells[at] = self.xs[r].searchsorted(ts[at], "right")
        return np.clip(cells - 1, 0, self.n - 1)


@cache
def _indices() -> np.ndarray:
    """The float indices 0, 1, ..., CHUNK_CELLS, read-only, that every uniform level forms points from."""
    ks = np.arange(CHUNK_CELLS + 1, dtype=np.float64)
    ks.flags.writeable = False
    return ks


class UniformRows(_Rows):
    """Row r holds the points of ``uniform_grid(lo[r], hi[r], n)``, formed a chunk at a time.

    A chunk's points are formed by ``grid_points``, as in ``uniform_grid``,
    from the shared index row 0, 1, ..., CHUNK_CELLS: c0 + k is an integer,
    exact in float64, so the points are bit for bit the same.  ``step``
    holds each row's (hi - lo)/n, on a trailing axis of length 1.  Each sum
    over the grid writes ``running``, a (2, rows, stretches) array of each
    row's running L and U at the end of each stretch; the last is the row's
    total.  A sampled sum writes it twice, and its finer pass, the one it
    reports, writes last.  A prefix sum, which runs in the order of given
    rows, does not write it.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, n: int):
        self.lo = lo
        self.hi = hi
        self.rows, self.n = len(lo), n
        self._lo, self._hi = lo[:, None], hi[:, None]
        self.step = (self._hi - self._lo) / max(n, 1)  # with no cells, never used
        self.running = np.zeros((2, self.rows, -(-n // STRETCH_CELLS)))

    def block(self, r0: int, r1: int, c0: int, c1: int, out=None) -> np.ndarray:
        """The points of cells c0..c1 (at most CHUNK_CELLS) of rows r0..r1; into ``out`` when given.

        The offset c0 is added to the index row where the points go, so a
        chunk's points take no memory but ``out``'s.
        """
        ks = _indices()[: c1 - c0 + 1]
        if c0:
            ks = np.add(ks, c0, out=out)
        r = slice(r0, r1)
        return grid_points(ks, self._lo[r], self._hi[r], self.step[r], c0 == 0, c1 == self.n, out)

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
            if not np.count_nonzero(low | high):
                break
            a = np.where(low, np.maximum(a - reach, 0), a)
            b = np.where(high, np.minimum(b + reach, n + 1), b)
            reach *= 2
        while reach > 1 and np.count_nonzero(b - a > 1):
            mid = np.floor(0.5 * (a + b))
            up = ~above(mid)
            a, b = np.where(up, mid, a), np.where(up, b, mid)
        return np.minimum(a, n - 1).astype(np.int64)

    def ends(self) -> np.ndarray:
        """Each row's points at its stretch ends: cells 0, STRETCH_CELLS, ..., and n."""
        ks = np.append(np.arange(0, self.n, STRETCH_CELLS, dtype=np.float64), self.n)
        return grid_points(ks, self._lo, self._hi, self.step, True, True)


def _products(v: np.ndarray, xs: np.ndarray, at, vals) -> np.ndarray:
    """The (2, rows, cells) products m·Δx of rows of points ``xs`` with values ``v``, in a new array.

    m is the least and the greatest of each cell's endpoint values, folded
    with the entry values ``vals`` at ``at`` = (rows, cells) unless ``at``
    is None.
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


def _point_sums(v: np.ndarray, step: np.ndarray, out: np.ndarray) -> None:
    """The L and U of each stretch of a chunk of a uniform level from its point values ``v``, into ``out``.

    ``out`` is (2, rows, stretches) and ``step`` holds each row's step on a
    trailing axis.  Where f is monotone on a stretch of c cells with points
    p_0 ... p_c, L = step·(f(p_1) + ... + f(p_(c-1)) + min(f(p_0), f(p_c)))
    and U is the same with max: its Darboux sums are Riemann sums tagged at
    an end.  Its inner values are summed by one pairwise reduction.
    """
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


def _fold_stretches(v: np.ndarray, xs: np.ndarray, at, vals, seen: np.ndarray, held) -> None:
    """Sum by products, into ``seen``, each stretch of a point-summed chunk that needs them.

    Those are the stretches that hold an entry (``held``, the chunk's
    (rows, stretches) mask of the entries ``at`` = (rows, cells) and
    ``vals``, sorted by row and cell; None for a chunk without entries)
    and those whose point sums in ``seen``, the chunk's (2, rows,
    stretches) subtotals, are not finite: a sum of large values can
    overflow where the products m·Δx do not.  They are gathered into one
    ``_products`` call, c + 1 points each for the chunk's c =
    min(STRETCH_CELLS, cells), by one flat ``take`` of the values and one of
    the points; a short last stretch repeats its row's last point, and its
    reduction leaves out the cells past its end.  A chunk all of whose
    stretches hold an entry never gets here: it sums its products in place,
    without point sums or a gather (see ``_sum_cells``).
    """
    g, m = STRETCH_CELLS, xs.shape[1] - 1
    redo = held
    if not _finite(seen):
        bad = ~np.logical_and.reduce(np.isfinite(seen), axis=0)
        redo = bad if held is None else bad | held
    if redo is None:
        return
    rows, ks = np.nonzero(redo)  # ordered by row, then stretch
    c = min(g, m)
    starts = rows * (m + 1) + ks * g  # each stretch's first point in the chunk's points laid flat
    flat = starts[:, None] + np.arange(c + 1)
    if m % c:  # a short last stretch
        flat = np.minimum(flat, (rows * (m + 1) + m)[:, None])
    if at is not None:  # each entry's stretch among those gathered, and its cell there
        at = np.searchsorted(starts, at[0] * (m + 1) + at[1], "right") - 1, at[1] % g
    mb = _products(v.take(flat), xs.take(flat), at, vals)
    sub = np.add.reduce(mb, axis=2)
    if m > g and m % g:  # the short last stretch of a row of several
        sub[:, ks == m // g] = np.add.reduce(mb[:, ks == m // g, : m % g], axis=2)
    seen[:, rows, ks] = sub


def _sampled_minmax(prog: Program | None, xs: np.ndarray, s: int, evalf, ws: _Buffers, row0: int):
    """The sample points, their values, the (2, rows, cells) sampled minima and maxima, and a failure (see ``_values``)."""
    a = xs[:, :-1]
    b = xs[:, 1:]
    step = (b - a) / s
    pts = a[..., None] + np.arange(s + 1) * step[..., None]
    fv, failed = _values(prog, pts, evalf, ws, row0)
    return pts, fv, np.array([fv.min(axis=-1), fv.max(axis=-1)]), failed


@np.errstate(all="ignore")  # non-finite values and overflows are named instead
def _sum_cells(prog: Program | None, grid, entries=None, s: int = 0, prefix=None, evalf=None):
    """Shared summation for all Darboux strategies, over every row of ``grid``.

    ``s == 0`` takes each cell's extrema at its endpoints, folded with the
    ``entries`` (row, t, value), sorted by row and within a row by t, that
    fall in it; ``s > 0`` samples ``s`` subintervals per cell.  Each entry's
    cell is found once, by ``grid.cells``.  Cells are evaluated in chunks
    of at most ``CHUNK_CELLS`` (a sampled pass: a quarter of that), several
    whole rows or part of one long row at a time, into buffers allocated
    once per call; a chunk takes the entries of its rows, or for a long row
    those whose cells it holds.  A ``UniformRows`` row is summed by
    stretches of ``STRETCH_CELLS`` cells (a row shorter than that is one
    stretch, and a row whose length is not a multiple of it ends in a short
    one), and once all of a row's stretch subtotals are in, they are added
    left to right, in ``grid.running``.  With ``s == 0`` each stretch is
    summed from its point values (``_point_sums``, one reduction for the
    whole chunk), and then each stretch that holds an entry of its row, or
    whose point sums are not finite (a sum of large values can overflow
    where the products m·Δx do not), sums its products instead, all those
    of a chunk gathered into one call (``_fold_stretches``): point sums
    assume f monotone between a row's entries, which certified entries and
    monotone hints give.  A chunk every stretch of which holds an entry
    (rows of one stretch each, as on level 0 and small probe levels, that
    all hold one) sums the products of all its cells by the stretch
    reductions of a sampled pass, with no point sums and no gather: the
    same reduction of the same products, one branch on a boolean mask
    rather than a second order.  Every stretch of a sampled pass sums its
    products.
    Either way a stretch's subtotal is one pairwise reduction, and how a
    stretch is summed depends on that stretch alone, so neither the band
    nor the chunks move a bit.  Every other grid, and every prefix sum,
    adds each row's products left to right, each chunk's running sums
    starting from the row's running sum so far, added to its first product;
    prefixes need that order, and it makes a repeated point add exactly
    nothing.

    Rounding that the point sums add to that of the products' order (no
    bracket counts either yet), on every row of a uniform level, short or
    long: each cell's float width is replaced by the row's step, which adds
    at most about ulp(max|x|)·(TV f + 2·sup|f|) to a row's L or U; and
    float values on a stretch where f is monotone need not be monotone, so
    an end value can miss a cell's float extremum by the evaluation error.

    A non-finite kernel value or an overflowing product makes a chunk's
    sums non-finite, so a chunk is examined only then, and the lowest row
    at fault raises RowError (see ``_name_failure``) instead of numpy
    warning of the overflow.  Summed left to right, that names the cell at
    which a row's running sum overflowed.  A uniform row whose stretch
    subtotals are finite but whose running sum is not is named at the
    first cell of the stretch where the running sum left the float range.
    A callable that fails in a row of a chunk is raised unless a lower row
    of the chunk fails; within a long row's chunk it is named before an
    overflow of that row's sums there.  Returns the row totals as a (2,
    rows) array (L, U); a (2, rows, n) ``prefix`` array, when given,
    receives each row's running sums, the last of which is its total.
    ``evalf`` substitutes a callable for the program (callable kernels),
    which is called with at most a chunk's points of one row at a time.  A
    grid of zero cells sums to 0.
    """
    rows, n, g = grid.rows, grid.n, STRETCH_CELLS
    uniform = isinstance(grid, UniformRows)
    if uniform and rows > 1 and n >= g:  # broadcast rows unbuffered (see the module docstring)
        np.setbufsize(g)
    pairwise = uniform and prefix is None
    span = max(n, 1)  # with no cells, no chunks
    reach = CHUNK_CELLS // 4 if s else CHUNK_CELLS
    width = min(span, reach)  # a chunk's cells in each row: whole stretches of a long row
    per_chunk = max(1, reach // span)  # rows
    if entries is not None and len(entries[1]):
        e_rows, e_ts, e_vals = entries
        # each row's first entry, where chunks cut the rows: else one chunk holds them all
        e_starts = np.searchsorted(e_rows, np.arange(rows + 1)).tolist() if rows > per_chunk else [0] * rows + [len(e_ts)]
        e_cells = grid.cells(e_rows, e_ts)
    else:  # no entries, or an empty list of them
        entries = None
    first = min(per_chunk, rows)  # rows of the first chunk, the largest
    # Buffers of values, and of points for the one pass that forms its points here.
    ws = _Buffers((first, width, s + 1) if s else (first, width + 1), points=uniform and not s)
    at = vals = None
    # Lower and upper, the running sums so far, of given rows; a uniform
    # level's are the last of its ``running``.
    totals = None if pairwise and n else np.zeros((2, rows))

    for r0 in range(0, rows, per_chunk):
        r1 = min(r0 + per_chunk, rows)
        if pairwise:  # the rows' stretch subtotals, then their running sums
            run = grid.running[:, r0:r1]
        if entries is not None:  # the chunk's rows' entries
            i0, i1 = e_starts[r0], e_starts[r1]
            c_rows, c_cells, c_vals = e_rows[i0:i1] - r0, e_cells[i0:i1], e_vals[i0:i1]
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            xs = grid.block(r0, r1, c0, c1, ws.points(r1 - r0, c1 - c0) if uniform and not s else None)
            if entries is not None:  # a long row's entries, sorted by cell, fall in chunks in turn
                sel = slice(*np.searchsorted(c_cells, (c0, c1))) if n > width else slice(None)
                at, vals = ((c_rows[sel], c_cells[sel] - c0), c_vals[sel]) if len(c_vals[sel]) else (None, None)
            if s == 0:
                pts = xs
                v, failed = _values(prog, xs, evalf, ws, r0)
                held = None  # of a uniform level, the chunk's (rows, stretches) that hold an entry
                if pairwise and at is not None:
                    held = np.zeros((r1 - r0, -(-(c1 - c0) // g)), dtype=bool)
                    held[at[0], at[1] // g] = True
                # products, unless some stretch of a uniform level holds no entry
                every = not pairwise or (held is not None and np.count_nonzero(held) == held.size)
                mb = _products(v, xs, at, vals) if every else None
            else:
                pts, v, mb, failed = _sampled_minmax(prog, xs, s, evalf, ws, r0)
                np.multiply(mb, xs[:, 1:] - xs[:, :-1], out=mb)
            if pairwise:
                seen = run[..., c0 // g : -(-c1 // g)]  # the chunk's stretches
                if mb is not None:  # every stretch sums its products
                    _stretch_reductions(mb, seen)
                else:
                    _point_sums(v, grid.step[r0:r1], seen)
                    _fold_stretches(v, xs, at, vals, seen, held)
            else:  # left to right, from the rows' running sums so far
                np.add(mb[:, :, 0], totals[:, r0:r1], out=mb[:, :, 0])
                np.add.accumulate(mb, axis=2, out=mb)
                seen = totals[:, r0:r1] = mb[:, :, -1]
                if prefix is not None:
                    prefix[:, r0:r1, c0:c1] = mb
            if not _finite(seen):  # a finite total has finite terms
                _name_failure(seen, v, pts, xs, mb, at, vals, failed, run if pairwise else None, r0)
        if pairwise and not _finite(_running(run)):  # finite subtotals summed past the float range
            r, k = np.argwhere(~np.isfinite(run).all(axis=0))[0].tolist()  # the lowest row, its first such stretch
            raise _overflow(r0 + r, *grid.block(r0 + r, r0 + r + 1, k * g, k * g + 1)[0])

    return grid.running[..., -1].copy() if pairwise and n else totals


def _running(run: np.ndarray) -> np.ndarray:
    """Add the (2, rows, stretches) subtotals ``run`` left to right from 0, in place.

    Starting from 0 turns a leading -0.0 (a point sum over a row of zero
    width) into 0.0, as the reductions of products, which start from 0,
    give.
    """
    run[..., :1] += 0.0
    return np.add.accumulate(run, axis=2, out=run) if run.shape[2] > 1 else run


def _first_non_finite(a: np.ndarray) -> int:
    """The first index along the last axis at which either row of the (2, k) array ``a`` is not finite; 0 if none."""
    return int(np.argmax(~np.isfinite(a).all(axis=0)))


def _name_failure(seen, v, pts, xs, mb, at, vals, failed, run, row0: int):
    """Raise RowError for the lowest row of a chunk whose sums are not finite.

    On a uniform level ``run`` holds the chunk's rows' stretch subtotals
    so far and ``seen`` those of the chunk, and a row is at fault where
    their running sums are not finite.  Otherwise ``run`` is None, ``seen``
    holds the rows' running sums so far and ``mb`` those at each of the
    chunk's cells.  A callable that failed in row k of the chunk
    (``failed``, see ``_values``) is raised unless a row below k is at
    fault.  Names, in the row at fault, its first non-finite value in the
    chunk (``v`` at ``pts``); else, left to right, the first cell at which
    its running sum is not finite; else, in its first stretch whose
    subtotal is not finite, the first cell at which the running sum of the
    stretch's products m·Δx (``mb``; for point sums None, and found again
    with the entries ``at``, ``vals``) is not, or the stretch's first cell
    if none is (a partial sum overflowed); else the first cell of the
    stretch at which the row's running sum left the float range.
    """
    g = STRETCH_CELLS
    sums = seen if run is None else np.add.accumulate(run, axis=2)
    r = int(np.argmax(~np.isfinite(sums).reshape(2, len(xs), -1).all(axis=(0, 2))))
    if failed is not None and r >= failed[0]:
        raise failed[1] from failed[1].cause
    _check_finite(v[r : r + 1], pts[r : r + 1], row0 + r)
    if run is None:
        k = _first_non_finite(mb[:, r])
    elif _finite(seen[:, r]):  # a chunk of whole rows: this one's subtotals summed past the float range
        k = g * _first_non_finite(sums[:, r])
    else:
        k = g * _first_non_finite(seen[:, r])
        prods = _products(v, xs, at, vals) if mb is None else mb
        k += _first_non_finite(np.add.accumulate(prods[:, r, k : k + g], axis=1))
    raise _overflow(row0 + r, xs[r, k], xs[r, k + 1])


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
