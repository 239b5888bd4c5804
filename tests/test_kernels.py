"""The summation core: a band summed as one grid of rows equals its rows summed alone, bit for bit."""

import math
import random
import sys
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from ordercalc import _kernels_fallback as K
from ordercalc.functions import KernelEvalError, LatticeFunction, ScalarKernel
from ordercalc.integrate import ToleranceSchedule, _make_bands, integrate
from ordercalc.lattice import Element, OrderInterval
from ordercalc.partitions import uniform_grid

from helpers import random_expr, running_sums, stretch_subtotals


def _products(prog, xs, crit_ts, crit_vals):
    """Each cell's (min · dx, max · dx) over a whole row: endpoint extrema folded with the entries."""
    n = len(xs) - 1
    v = K.eval_many(prog, xs)
    m, big = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
    cells = np.clip(np.searchsorted(xs, crit_ts, side="right") - 1, 0, n - 1)
    np.minimum.at(m, cells, crit_vals)
    np.maximum.at(big, cells, crit_vals)
    dx = xs[1:] - xs[:-1]
    return m * dx, big * dx


def _reference_sums(prog, xs, crit_ts, crit_vals):
    """The given-rows order written plainly: left to right over the whole row, from 0."""
    return tuple(float(np.add.accumulate(np.append(0.0, p))[-1]) for p in _products(prog, xs, crit_ts, crit_vals))


def _stretch_subtotals(prog, xs, crit_ts, crit_vals):
    """The uniform-rows order written plainly: each STRETCH_CELLS stretch's (L, U), as (2, stretches)."""
    m, big = _products(prog, xs, crit_ts, crit_vals)
    return stretch_subtotals(K.eval_many(prog, xs), xs, m, big, crit_ts, K.STRETCH_CELLS)


def _pairwise_reference(prog, xs, crit_ts, crit_vals):
    """The uniform-rows total: the stretch subtotals added left to right."""
    lo = up = 0.0
    for sub_lo, sub_up in _stretch_subtotals(prog, xs, crit_ts, crit_vals).T:
        lo, up = lo + sub_lo, up + sub_up
    return float(lo), float(up)


def _band(src, lo, hi):
    k = ScalarKernel.from_string(src)
    rows, ts, vals, failed = k.critical_entries(lo, hi)
    assert not failed.any()
    return k, (rows, ts, vals)


@pytest.mark.parametrize("n", [1, 2**12, 2**13 + 5, 2**19 + 2**11])
def test_uniform_rows_equal_one_row_sums(n):
    # Chunks of many short rows, and long rows in several chunks with
    # critical entries on both sides of a chunk boundary.
    lo = np.array([-1.0, -0.3, 0.5, 0.2, -2.0])
    hi = np.array([1.0, 0.9, 0.5, 1.7, 0.3])
    k, entries = _band("t^3 - t", lo, hi)
    e_rows, e_ts, e_vals = entries
    grid = K.UniformRows(lo, hi, n)
    assert len(grid) - 1 == len(lo) * n  # cells, counted as for a 1-D grid
    got = K.darboux_critical(k.program, grid, e_ts, e_vals, e_rows)
    for r in range(len(lo)):
        xs = uniform_grid(lo[r], hi[r], n)
        sel = e_rows == r
        ts, vals = e_ts[sel], e_vals[sel]
        alone = K.darboux_critical(
            k.program, K.UniformRows(lo[r : r + 1], hi[r : r + 1], n), ts, vals, np.zeros(len(ts), int)
        )
        assert (got[0][r], got[1][r]) == _pairwise_reference(k.program, xs, ts, vals), r
        assert (got[0][r], got[1][r]) == (alone[0][0], alone[1][0]), r
        # A 1-D grid is given rows, summed left to right.
        if len(ts):
            one_row = K.darboux_critical(k.program, xs, ts, vals)
        else:
            one_row = K.darboux_endpoint(k.program, xs)
        assert one_row == _reference_sums(k.program, xs, ts, vals), r


@pytest.mark.parametrize("n", [1, 3 * K.STRETCH_CELLS, 2**13 + 5, 2**14])
def test_uniform_rows_keep_the_running_sums_at_stretch_ends(n):
    # A grid keeps, per row, the running sums of the reference order at
    # each stretch end (a short last stretch included), the last being the
    # row's total; ends() are the level's points there.
    lo = np.array([-1.0, -0.3, 0.5, 0.2])
    hi = np.array([1.0, 0.9, 0.5, 1.7])
    k, (e_rows, e_ts, e_vals) = _band("t^3 - t", lo, hi)
    grid = K.UniformRows(lo, hi, n)
    got = K.darboux_critical(k.program, grid, e_ts, e_vals, e_rows)
    g = K.STRETCH_CELLS
    assert grid.running.shape == (2, len(lo), -(-n // g))
    for r in range(len(lo)):
        sel = e_rows == r
        xs = uniform_grid(lo[r], hi[r], n)
        subtotals = _stretch_subtotals(k.program, xs, e_ts[sel], e_vals[sel])
        for side in range(2):
            total, want = 0.0, []
            for sub in subtotals[side]:
                total = total + sub
                want.append(total)
            assert grid.running[side, r].tobytes() == np.array(want).tobytes(), (r, side)
            assert grid.running[side, r, -1] == got[side][r]
        assert grid.ends()[r].tobytes() == xs[list(range(0, n, g)) + [n]].tobytes(), r


@pytest.mark.parametrize("n", [1, 7, 255, 300, 3 * K.STRETCH_CELLS, 4096, 8192 + 300, 2 * 8192])
def test_point_sums_fold_each_stretch_that_holds_an_entry(n):
    # Entries in several stretches: at a stretch's end point (so in the
    # first cell of the next stretch), at the point 8192, inside a cell,
    # and at hi, besides the kernel's own.  Rows of one stretch, of whole
    # stretches, and of whole stretches and a short last one, several to a
    # chunk or one long row: each is point-summed, and each stretch that
    # holds an entry sums its products.
    g = K.STRETCH_CELLS
    lo = np.array([-1.0, 0.25, -2.0])
    hi = np.array([1.0, 1.75, 0.5])
    k, (e_rows, e_ts, e_vals) = _band("t^3 - t", lo, hi)
    rows, ts = [e_rows], [e_ts]
    for r in range(len(lo)):
        xs = uniform_grid(lo[r], hi[r], n)
        inside = g + 3 if g + 3 < n else n // 2
        at = [xs[c] for c in (g, 2 * g, 8192, n) if c <= n] + [0.5 * (xs[inside] + xs[inside + 1])]
        rows.append(np.full(len(at), r))
        ts.append(np.array(at))
    e_rows, e_ts = np.concatenate(rows), np.concatenate(ts)
    order = np.lexsort((e_ts, e_rows))
    e_rows, e_ts = e_rows[order], e_ts[order]
    e_vals = K.eval_many(k.program, e_ts) + 0.5  # above the cell's values, so folding shows in U
    grid = K.UniformRows(lo, hi, n)
    got = K.darboux_critical(k.program, grid, e_ts, e_vals, e_rows)
    plain = K.darboux_endpoint(k.program, grid)
    for r in range(len(lo)):
        sel = e_rows == r
        xs = uniform_grid(lo[r], hi[r], n)
        assert (got[0][r], got[1][r]) == _pairwise_reference(k.program, xs, e_ts[sel], e_vals[sel]), r
        assert got[1][r] > plain[1][r], r
        alone = K.darboux_critical(k.program, K.UniformRows(lo[r : r + 1], hi[r : r + 1], n), e_ts[sel], e_vals[sel], np.zeros(sel.sum(), int))
        assert (got[0][r], got[1][r]) == (alone[0][0], alone[1][0]), r


def test_monotone_callable_point_sums_over_several_stretches():
    # A monotone-hinted callable is summed from its point values on every
    # stretch of a level: rows of one stretch, of whole stretches and of
    # whole stretches and a short last one, several to a chunk or one long
    # row.
    evalf = ScalarKernel.from_callable(math.atan, monotone="increasing").eval_many
    lo, hi = np.array([-2.0, 0.5, 1.0]), np.array([3.0, 0.75, 1.0])
    for n in (1, 7, K.STRETCH_CELLS, 5 * K.STRETCH_CELLS, 3 * K.STRETCH_CELLS + 5, 8192 // 2 + 17, 8192 + 600):
        got = K.darboux_endpoint_fn(evalf, K.UniformRows(lo, hi, n))
        for r in range(len(lo)):
            xs = uniform_grid(lo[r], hi[r], n)
            v = evalf(xs)
            m, big = np.minimum(v[:-1], v[1:]) * np.diff(xs), np.maximum(v[:-1], v[1:]) * np.diff(xs)
            subtotals = stretch_subtotals(v, xs, m, big, [], K.STRETCH_CELLS)
            want = [0.0, 0.0]
            for side in range(2):
                for sub in subtotals[side]:
                    want[side] = want[side] + sub
            assert (got[0][r], got[1][r]) == tuple(want), (n, r)
            alone = K.darboux_endpoint_fn(evalf, K.UniformRows(lo[r : r + 1], hi[r : r + 1], n))
            assert (got[0][r], got[1][r]) == (alone[0][0], alone[1][0]), (n, r)
            if hi[r] > lo[r]:  # a true bracket of the integral
                exact = hi[r] * math.atan(hi[r]) - lo[r] * math.atan(lo[r]) - 0.5 * math.log((1 + hi[r] ** 2) / (1 + lo[r] ** 2))
                assert got[0][r] <= exact <= got[1][r], (n, r)


@pytest.mark.parametrize("n", [1, 4096, 2**13 + 5, 2**19 + 2**11])
def test_uniform_level_sums_within_the_sequential_error_bound(n):
    # |sum - fsum| <= gamma_{n-1} * sum |m_k dx_k|, the bound of a left-to-right sum.
    u = 2.0**-53
    gamma = (n - 1) * u / (1 - (n - 1) * u)
    lo = np.array([-1.0, -0.3, 0.2, -2.0, 0.7])
    hi = np.array([1.0, 0.9, 1.7, 0.3, 3.1])
    for src in ["t^3 - t", "sin(3*t) + exp(t)"]:
        k, (e_rows, e_ts, e_vals) = _band(src, lo, hi)
        got = K.darboux_critical(k.program, K.UniformRows(lo, hi, n), e_ts, e_vals, e_rows)
        for r in range(len(lo)):
            sel = e_rows == r
            xs = uniform_grid(lo[r], hi[r], n)
            for side, prods in enumerate(_products(k.program, xs, e_ts[sel], e_vals[sel])):
                bound = gamma * math.fsum(np.abs(prods))
                assert abs(got[side][r] - math.fsum(prods)) <= bound, (src, r, side)


def test_empty_entries_sum_as_no_entries():
    prog = ScalarKernel.from_string("t^3 - t").program
    xs = uniform_grid(-1.0, 1.0, 100)
    assert K.darboux_critical(prog, xs, [], []) == K.darboux_endpoint(prog, xs)
    for got, want in zip(K.prefix_critical(prog, xs, [], []), K.prefix_endpoint(prog, xs)):
        assert np.array_equal(got, want)
    lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.5, 2.0])
    for grid in (K.UniformRows(lo, hi, 100), K.GivenRows(uniform_grid(lo, hi, 100))):
        got = K.darboux_critical(prog, grid, [], [], np.empty(0, dtype=np.int64))
        assert np.array_equal(got, K.darboux_endpoint(prog, grid))


def test_given_rows_equal_one_row_sums_and_prefixes():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(-1.0, 1.0, (3, 65)), axis=1)
    prog = ScalarKernel.from_string("abs(t - 0.1)").program
    got = K.darboux_sampled(prog, K.GivenRows(xs), 4)
    band = K.prefix_sampled(prog, K.GivenRows(xs), 4)
    for r in range(3):
        assert tuple(x[r] for x in got) == K.darboux_sampled(prog, xs[r], 4)
        pl, pu, wl, wu = K.prefix_sampled(prog, xs[r], 4)
        assert (pl[-1], pu[-1]) == K.darboux_sampled(prog, xs[r], 4)[:2]
        assert np.array_equal(band[0][r], pl) and np.array_equal(band[1][r], pu)
        assert (band[2][r], band[3][r]) == (wl, wu)
    # Critical entries of a band of prefixes, row by row.
    k, (e_rows, e_ts, e_vals) = _band("t^3 - t", xs[:, 0], xs[:, -1])
    band = K.prefix_critical(k.program, K.GivenRows(xs), e_ts, e_vals, e_rows)
    assert band.shape == (2, 3, 64)
    for r in range(3):
        sel = e_rows == r
        alone = K.prefix_critical(k.program, xs[r], e_ts[sel], e_vals[sel])
        assert np.array_equal(band[:, r], alone)


def test_zero_cell_grids_sum_to_zero():
    prog = ScalarKernel.from_string("t^3 - t").program
    evalf = ScalarKernel.from_callable(math.sin).eval_many
    sums = [
        lambda xs: K.darboux_endpoint(prog, xs),
        lambda xs: K.darboux_critical(prog, xs, [1.0], [0.0], [0]),
        lambda xs: K.darboux_sampled(prog, xs, 4),
        lambda xs: K.darboux_endpoint_fn(evalf, xs),
        lambda xs: K.darboux_sampled_fn(evalf, xs, 4),
    ]
    prefixes = [
        lambda xs: K.prefix_endpoint(prog, xs),
        lambda xs: K.prefix_critical(prog, xs, [1.0], [0.0], [0]),
        lambda xs: K.prefix_sampled(prog, xs, 4),
        lambda xs: K.prefix_endpoint_fn(evalf, xs),
        lambda xs: K.prefix_sampled_fn(evalf, xs, 4),
    ]
    one = np.array([1.0])
    for call in sums:
        assert call(one) in [(0.0, 0.0), (0.0, 0.0, 0.0, 0.0)]
    for call in prefixes:
        pl, pu, *widen = call(one)
        assert pl.shape == pu.shape == (0,) and widen in [[], [0.0, 0.0]]
    lo = np.array([1.0, 2.0])
    for grid in (K.GivenRows(lo[:, None]), K.UniformRows(lo, lo, 0)):
        for call in sums:
            assert all(np.array_equal(x, [0.0, 0.0]) for x in call(grid))
        for call in prefixes:
            pl, pu, *widen = call(grid)
            assert pl.shape == pu.shape == (2, 0)
            assert all(np.array_equal(w, [0.0, 0.0]) for w in widen)


def test_overflowing_products_name_the_lowest_row():
    # Row 1's values are finite but its products m·Δx overflow; row 2
    # leaves the domain.  Row 1 is named, by either summation order.
    prog = ScalarKernel.from_string("exp(t) + log(t)").program
    lo, hi = np.array([1.0, 700.0, -1.0]), np.array([2.0, 709.0, 1.0])
    for grid in (K.UniformRows(lo, hi, 1), K.GivenRows(uniform_grid(lo, hi, 1))):
        for call in (K.darboux_endpoint, K.prefix_endpoint):
            with pytest.raises(K.RowError) as info, np.errstate(over="ignore"):
                call(prog, grid)
            assert info.value.row == 1
            assert isinstance(info.value.cause, OverflowError)
            assert "overflowed" in str(info.value) and "[700.0, 709.0]" in str(info.value)


def test_totals_overflowing_across_blocks_name_the_lowest_row():
    # Each stretch's sum of products is finite (its point sum is not); only
    # their running sums pass the float range.  Rows 1 and 2 overflow, row
    # 1 is named, at the first cell of the stretch where its running sum did.
    n, g = 3 * 8192, K.STRETCH_CELLS
    prog = ScalarKernel.from_string("1e308").program
    grid = K.UniformRows(np.array([0.0, 0.0, 0.0]), np.array([1.0, 3.0, 2.5]), n)
    step = 3.0 / n  # row 1's cells: each product is 1e308 * step, exactly
    sub, total, k = float(np.add.reduce(np.full(g, 1e308 * step))), 0.0, 0
    while math.isfinite(total := total + sub):
        k += 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(K.RowError) as info:
            K.darboux_endpoint(prog, grid)
        assert info.value.row == 1 and isinstance(info.value.cause, OverflowError)
        assert f"[{k * g * step!r}, {(k * g + 1) * step!r}]" in str(info.value)
        # Rows sharing a chunk, row 2 leaving the domain: row 1's running sum
        # overflows at its second stretch, which starts at t = 2.
        logged = ScalarKernel.from_string("1e308 + 0*log(t)").program
        grid = K.UniformRows(np.array([1.0, 1.0, -1.0]), np.array([2.0, 3.0, 1.0]), 2 * g)
        with pytest.raises(K.RowError) as info:
            K.darboux_endpoint(logged, grid)
        assert info.value.row == 1 and isinstance(info.value.cause, OverflowError)
        assert f"[2.0, {2.0 + 2.0**-8!r}]" in str(info.value)
        # Left to right, the row is named at the cell where its running sum
        # overflowed: each cell adds 1e308·2^-18, and the float range ends
        # after 1.7976931348623157·2^18 ≈ 471254.47 of them, in cell 471254.
        n = 3 * 2**18
        with pytest.raises(K.RowError) as info:
            K.prefix_endpoint(prog, uniform_grid(0.0, 3.0, n))
        assert isinstance(info.value.cause, OverflowError)
        assert f"[{471254 * 2.0**-18!r}, {471255 * 2.0**-18!r}]" in str(info.value)


def test_short_rows_overflowing_across_stretches_name_the_lowest_row():
    # Rows of two stretches in one chunk: row 1's stretch sums are finite
    # but their running sum is not; row 2 leaves the domain.  Row 1 is named.
    prog = ScalarKernel.from_string("1e308 + 0*log(t)").program
    grid = K.UniformRows(np.array([1.0, 1.0, -1.0]), np.array([2.0, 3.5, 1.0]), 2 * K.STRETCH_CELLS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(K.RowError) as info:
            K.darboux_endpoint(prog, grid)
    assert info.value.row == 1 and isinstance(info.value.cause, OverflowError)


def test_overflowing_products_raise_without_warnings():
    f = LatticeFunction.coordinatewise(["t", "exp(t)"])
    box = OrderInterval(Element([0.0, 700.0]), Element([1.0, 709.0]))
    prog = ScalarKernel.from_string("exp(t) + log(t)").program
    lo, hi = np.array([1.0, 700.0]), np.array([2.0, 709.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelEvalError) as info:
            integrate(f, box)
        assert info.value.atom == 1 and isinstance(info.value.cause, OverflowError)
        for grid in (K.UniformRows(lo, hi, 4), K.GivenRows(uniform_grid(lo, hi, 4))):
            for call in (K.darboux_endpoint, K.prefix_endpoint):
                with pytest.raises(K.RowError, match="overflowed"):
                    call(prog, grid)


def test_point_sums_that_overflow_fall_back_to_the_products():
    # Near exp's overflow a stretch's sum of values passes the float range
    # while the products m·Δx stay finite: those stretches are summed cell
    # by cell, so the level converges, as with products everywhere.
    f = LatticeFunction.coordinatewise(["exp(t)"])
    box = OrderInterval(Element([708.0]), Element([709.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = integrate(f, box, ToleranceSchedule(1e-6, 24))
    assert r.converged and r.depth == 20
    assert r.lower[0] <= math.exp(709.0) - math.exp(708.0) <= r.upper[0]


@pytest.mark.parametrize("n", [1, 7, 8192, 3 * 8192 + 5, 3 * K.CHUNK_CELLS + 5])
def test_uniform_rows_blocks_equal_uniform_grid(n):
    # Chunks are built from one cached index row; every chunk, the last
    # one shorter than CHUNK_CELLS included, is uniform_grid's stretch bit
    # for bit, on rows of all magnitudes and one of zero width.
    lo = np.array([-1.0, 0.0, 1e16, 3.0, -2.5e-300, 0.1])
    hi = np.array([1.0, 1e-300, 1e16 + 64.0, 3.0, 7e-301, 0.7])
    grid = K.UniformRows(lo, hi, n)
    per_chunk = max(1, K.CHUNK_CELLS // n)
    width = min(n, K.CHUNK_CELLS)
    for r0 in range(0, len(lo), per_chunk):
        r1 = min(r0 + per_chunk, len(lo))
        for c0 in range(0, n, width):
            c1 = min(c0 + width, n)
            got = grid.block(r0, r1, c0, c1)
            assert got.tobytes() == uniform_grid(lo[r0:r1], hi[r0:r1], n)[:, c0 : c1 + 1].tobytes()


@pytest.mark.parametrize("kind", [K.UniformRows, K.GivenRows])
@pytest.mark.parametrize("n", [1, 1000, 2**20])
def test_grid_cells_match_a_search_of_the_whole_row(kind, n):
    # Each kind of grid gives each point the cell a search of the whole row
    # finds: UniformRows.cells by bisecting about floor((t - lo)/step)
    # against the row's points, past runs of repeated points (of about 30
    # and 16000 points on [1e16, 1e16 + 64]), on a row of zero width and
    # beyond the row's ends; GivenRows.cells by searching each row.
    rng = np.random.default_rng(8)
    lo = np.array([-1.0, 0.0, 1e16, 3.0, 3.0, -2.5e-300])
    hi = np.array([1.0, 1e-300, 1e16 + 64.0, 3.0 + 1e-12, 3.0, 7e-301])
    grid = K.UniformRows(lo, hi, n) if kind is K.UniformRows else K.GivenRows(uniform_grid(lo, hi, n))
    want, rows, ts = [], [], []
    for r in range(len(lo)):
        row = uniform_grid(lo[r], hi[r], n)
        t = np.concatenate([rng.choice(row, 30), rng.uniform(lo[r], hi[r], 16), [lo[r], hi[r], lo[r] - 1, hi[r] + 1]])
        want.append(np.clip(np.searchsorted(row, t, side="right") - 1, 0, n - 1))
        rows.append(np.full(len(t), r))
        ts.append(t)
        assert np.array_equal(grid.cells(rows[-1], t), want[-1]), r
    order = rng.permutation(sum(map(len, ts)))  # all rows at once, in any order
    got = grid.cells(np.concatenate(rows)[order], np.concatenate(ts)[order])
    assert np.array_equal(got, np.concatenate(want)[order])


@pytest.mark.parametrize("n", [64, 4 * 8192])
@pytest.mark.parametrize("kind", [K.UniformRows, K.GivenRows])
def test_entries_in_any_order_sum_as_sorted(kind, n):
    # Entries are ordered by (row, t) before they are placed, so shuffled
    # entries sum bit for bit as sorted ones, on long rows and on short
    # rows sharing a chunk.
    lo, hi = np.array([0.0, -1.0, 0.5]), np.array([3.0, 2.0, 0.9])
    k, (rows, ts, vals) = _band("sin(40*t)", lo, hi)
    grid = K.UniformRows(lo, hi, n) if kind is K.UniformRows else K.GivenRows(uniform_grid(lo, hi, n))
    want = K.darboux_critical(k.program, grid, ts, vals, rows)
    p = np.random.default_rng(9).permutation(len(ts))
    got = K.darboux_critical(k.program, grid, ts[p], vals[p], rows[p])
    assert got.tobytes() == want.tobytes()


C1 = 1.0 + 100 / 8192  # grid points of [0, 3] and [C1 - 0.5, C1 + 2.5] at 3 * 2^13 cells
C2 = 1.0 + 200 / 8192


def test_non_finite_value_names_its_row():
    # Values are scanned only when a chunk's L or U is not finite; the
    # first bad point of the lowest bad row is still the one named.
    cases = [  # (kernel, lo, hi, cells, row, t, sampled)
        # A chunk of short rows whose third row and a later one are bad.
        ("log(t)", [1.0, 2.0, -1.0, -2.0], [2.0, 3.0, 1.0, 1.0], 16, 2, -1.0, False),
        # 1/t is +inf at the grid point 0.0 of rows 2 and 3.
        ("1/t", [1.0, 2.0, -1.0, -3.0], [2.0, 3.0, 1.0, 1.0], 16, 2, 0.0, False),
        # NaN·0 on a zero-width row, by endpoints and by sampling.
        ("log(t)", [1.0, -1.0, -1.0], [2.0, -1.0, 1.0], 16, 1, -1.0, False),
        ("log(t)", [1.0, -1.0, -1.0], [2.0, -1.0, 1.0], 16, 1, -1.0, True),
        # Long rows: row 1 is bad at C1 and C2, its cells 8292 and 8392, row 2 at C1, its cell 4096.
        ("1/((t - C1)*(t - C2))", [5.0, 0.0, C1 - 0.5], [8.0, 3.0, C1 + 2.5], 3 * 8192, 1, C1, False),
    ]
    for src, lo, hi, n, row, t, sampled in cases:
        prog = ScalarKernel.from_string(src.replace("C1", repr(C1)).replace("C2", repr(C2))).program
        grid = K.UniformRows(np.array(lo), np.array(hi), n)
        with pytest.raises(K.RowError) as info:
            if sampled:
                K.darboux_sampled(prog, grid, 4)
            else:
                K.darboux_endpoint(prog, grid)
        assert info.value.row == row, src
        assert f"t={t!r}" in str(info.value), src


def _level_reference(prog, xs, crit_ts, crit_vals):
    """A uniform row's running sums at its stretch ends, written plainly: the last is its total."""
    return running_sums(_stretch_subtotals(prog, xs, crit_ts, crit_vals))


def _with_entries_at(k, lo, hi, n, cells):
    """The band of ``k`` over the rows [lo, hi], its entries, and more in the ``cells`` of every row.

    The added entries sit mid-cell, half a unit above or below the kernel
    there, so that folding them shows in U or in L.
    """
    k, (e_rows, e_ts, e_vals) = _band(k, lo, hi)
    rows, ts = [e_rows], [e_ts]
    for r in range(len(lo)):
        xs = uniform_grid(lo[r], hi[r], n)
        at = np.array([c for c in cells if 0 <= c < n], dtype=np.int64)
        rows.append(np.full(len(at), r))
        ts.append(0.5 * (xs[at] + xs[at + 1]))
    e_rows, e_ts = np.concatenate(rows), np.concatenate(ts)
    order = np.lexsort((e_ts, e_rows))
    e_rows, e_ts = e_rows[order], e_ts[order]
    e_vals = K.eval_many(k.program, e_ts) + np.where(np.arange(len(e_ts)) % 2, 0.5, -0.5)
    return k, e_rows, e_ts, e_vals


@pytest.mark.parametrize("src", ["t^3 - t", "sin(3*t) + exp(t)"])
@pytest.mark.parametrize("n", [2**12 + 1, 2**13 + 7, 2**15 - 1, 2**15 + 1, 2**16 + 5, 2**17 + 3])
def test_chunked_rows_keep_the_plain_reference_bit_for_bit(src, n):
    # Long rows are evaluated a chunk at a time and point-summed by one
    # reduction for the chunk, then the stretches that hold an entry sum
    # their products.  Entries at the cells 0, 8191, 8192, at the first and
    # last cell of a chunk, and at the row's last cell, besides the
    # kernel's own, land in the stretches the plain order puts them in.
    b, c = 8192, K.CHUNK_CELLS
    lo, hi = np.array([-1.0, 0.3, -2.0]), np.array([1.0, 1.9, 0.5])
    k, e_rows, e_ts, e_vals = _with_entries_at(src, lo, hi, n, (0, b - 1, b, c - 1, c, 2 * c - 1, n - 1))
    grid = K.UniformRows(lo, hi, n)
    got = K.darboux_critical(k.program, grid, e_ts, e_vals, e_rows)
    for r in range(len(lo)):
        sel = e_rows == r
        want = _level_reference(k.program, uniform_grid(lo[r], hi[r], n), e_ts[sel], e_vals[sel])
        assert grid.running[:, r].tobytes() == want.tobytes(), r
        assert got[:, r].tobytes() == want[:, -1].tobytes(), r


def test_a_buffer_first_taken_in_a_short_chunk_serves_the_full_chunks_after_it():
    # sin(t)·cos(t) + exp(t)·sin(t) takes three buffers of values, one more
    # than a sum's allocation holds.  First taken for a short chunk, the
    # third is as large as the allocation's arrays, so the full chunk after
    # it reuses it, and every chunk gives the out-of-place bits.
    prog = ScalarKernel.from_string("sin(t)*cos(t) + exp(t)*sin(t)").program
    ws = K._Buffers((2, 1001))
    for rows, cells in ((1, 10), (2, 1000), (1, 10)):
        ts = ws.points(rows, cells)
        ts[:] = np.linspace(-1.0, 1.0, ts.size).reshape(ts.shape)
        with np.errstate(all="ignore"):
            got = ws.run(prog, ts)
            want = K.run(prog, ts, partial(np.full, ts.shape), K._OPS)
        assert ws.taken == 3
        assert [b.shape for b in ws.extra] == [(2, 1001)]
        assert got.tobytes() == want.tobytes()
    # Through a level of t^3 + t, which has no critical point: row 0 folds
    # a stretch in its last, short chunk, row 1 in its first, full one.
    n = K.CHUNK_CELLS + 1000
    lo, hi = np.array([0.0, -1.0]), np.array([1.0, 1.0])
    prog = ScalarKernel.from_string("t^3 + t").program
    e_rows = np.array([0, 1])
    e_ts = np.array([uniform_grid(lo[r], hi[r], n)[c] + 1e-9 for r, c in ((0, K.CHUNK_CELLS + 10), (1, 10))])
    e_vals = K.eval_many(prog, e_ts) + 0.5
    grid = K.UniformRows(lo, hi, n)
    got = K.darboux_critical(prog, grid, e_ts, e_vals, e_rows)
    for r in range(2):
        want = _level_reference(prog, uniform_grid(lo[r], hi[r], n), e_ts[r : r + 1], e_vals[r : r + 1])
        assert grid.running[:, r].tobytes() == want.tobytes(), r
        assert got[:, r].tobytes() == want[:, -1].tobytes(), r


@pytest.mark.parametrize("n, rows", [(64, 700), (3 * K.STRETCH_CELLS + 5, 90), (5000, 8)])
def test_chunks_of_whole_rows_keep_the_plain_reference_bit_for_bit(n, rows):
    # Short rows share chunks, the last chunk fewer than the others (700
    # rows of 64 cells: chunks of 512 rows; 8 rows of 5000 cells: chunks of
    # 6 rows), and every row is point-summed.
    rng = np.random.default_rng(5)
    lo = rng.uniform(-2.0, 1.0, rows)
    hi = lo + rng.uniform(0.1, 2.0, rows)
    k, e_rows, e_ts, e_vals = _with_entries_at("t^3 - t", lo, hi, n, (0, n // 2, n - 1))
    grid = K.UniformRows(lo, hi, n)
    got = K.darboux_critical(k.program, grid, e_ts, e_vals, e_rows)
    for r in range(rows):
        sel = e_rows == r
        want = _level_reference(k.program, uniform_grid(lo[r], hi[r], n), e_ts[sel], e_vals[sel])
        assert grid.running[:, r].tobytes() == want.tobytes(), r
        assert got[:, r].tobytes() == want[:, -1].tobytes(), r


@pytest.mark.parametrize("entry", [False, True])
@pytest.mark.parametrize("block", [0, 1])
@pytest.mark.parametrize("cubic", [False, True])
def test_non_finite_value_in_a_chunk_names_its_row_and_point(cubic, block, entry):
    # Rows 1 and 2 are bad at p, 37 or 8192 + 37 cells into their second
    # chunk, row 0 nowhere; with an entry there, that stretch sums its
    # products.  The cubic's values take both buffers of values.  Row 1 is
    # named, at p.
    b, n = 8192, 2 * K.CHUNK_CELLS
    p = float(uniform_grid(0.0, 2.0, n)[K.CHUNK_CELLS + block * b + 37])
    src = f"1/(t^3 - t - {p * (p * p) - p!r})" if cubic else f"1/(t - {p!r})"
    prog = ScalarKernel.from_string(src).program
    grid = K.UniformRows(np.zeros(3), np.array([1.0, 2.0, 2.0]), n)
    with pytest.raises(K.RowError) as info:
        if entry:
            K.darboux_critical(prog, grid, [p + 1e-3], [0.0], [1])
        else:
            K.darboux_endpoint(prog, grid)
    assert info.value.row == 1
    assert f"t={p!r}" in str(info.value)


def test_a_callable_that_fails_is_named_after_a_lower_row_at_fault():
    # Rows 0 and 1 share a chunk.  Row 0's values are finite but its sum
    # overflows; row 1's callable leaves the domain.  The lower row is
    # named, as if the rows were summed one by one.
    evalf = ScalarKernel.from_callable(lambda t: np.where(t < 5.0, 1e308, np.inf)).eval_many
    lo, hi = np.array([0.0, 10.0]), np.array([3.0, 11.0])
    with pytest.raises(K.RowError) as info:
        K.darboux_endpoint_fn(evalf, K.UniformRows(lo, hi, 16))
    assert info.value.row == 0 and isinstance(info.value.cause, OverflowError)
    with pytest.raises(K.RowError) as info:
        K.darboux_endpoint_fn(evalf, K.UniformRows(lo[1:], hi[1:], 16))
    assert info.value.row == 0 and "real domain" in str(info.value)


def test_in_place_evaluation_gives_the_out_of_place_bits():
    # Each op writes into a buffer of the run, constants stay scalars, and
    # the points are never written: the values are those of the op table run
    # out of place with a full array per constant, NaN and signed zeros
    # included, for random kernels over rows of points.  The buffers of one
    # sum serve its later, smaller chunks too: fewer rows, then fewer cells.
    rng = random.Random(4)
    ts = np.linspace(-3.0, 3.0, 3 * 41).reshape(3, 41)
    ts[0, :4] = [0.0, -0.0, 1e300, -1e-300]
    before = ts.copy()
    for _ in range(300):
        prog = ScalarKernel.from_expr(random_expr(rng, depth=5)).program
        ws = K._Buffers(ts.shape)
        for part in (ts, ts[1:], ts[2:, 5:]):
            with np.errstate(all="ignore"):
                want = np.broadcast_to(K.run(prog, part, partial(np.full, part.shape), K._OPS), part.shape)
                got = K._run(prog, part)
                chunk = ws.run(prog, part)
            assert got.tobytes() == want.tobytes()
            assert np.broadcast_to(chunk, part.shape).tobytes() == want.tobytes()
        assert ts.tobytes() == before.tobytes()


def test_powers_write_their_last_product_into_the_square_they_end_with():
    # Under the in-place table t^3 takes one buffer of values, not two, and
    # t^5 two, not three; the values are those of the out-of-place table.
    ts = np.linspace(-2.0, 2.0, 9)
    for src, taken in (("t^2", 1), ("t^3", 1), ("t^5", 2), ("t^3 - t", 1)):
        prog = ScalarKernel.from_string(src).program
        ws = K._Buffers(ts.shape)
        got = ws.run(prog, ts)
        assert ws.taken == taken, src
        assert got.tobytes() == K.run(prog, ts, partial(np.full, ts.shape), K._OPS).tobytes(), src


def _clipped_and_cut(xs, x):
    """Each row of ``xs`` clipped at its x (its points past x read x, and so does its last), and each cut there.

    The cut row is the row's points below x, then x: at least one cell,
    [x, x] when x is the row's first point.
    """
    clipped = np.minimum(xs, x[:, None])
    clipped[:, -1] = x
    cut = [np.append(row[: max(1, np.count_nonzero(row < t))], t) for row, t in zip(xs, x.tolist())]
    return clipped, cut


def test_a_row_clipped_at_x_sums_as_the_row_cut_at_x():
    # An antiderivative read's row: past x every point is x, so the trailing
    # cells [x, x] add ±0.0 to a running sum that is never -0.0.  Each row
    # of a band clipped so sums bit for bit as the row cut at x, by the
    # critical and the sampled sums: x at the row's first point, on an
    # interior point, in the first cell, in the last, at the last point,
    # and rows of one cell.  Entries a <= t < x land in the cells of the
    # whole row, one of them on an interior point.
    rng = np.random.default_rng(13)
    xs = np.sort(rng.uniform(-1.0, 1.0, (7, 41)), axis=1)
    x = np.array([xs[0, 0], xs[1, 17], rng.uniform(xs[2, 0], xs[2, 1]), rng.uniform(xs[3, 39], xs[3, 40]), xs[4, 40],
                  rng.uniform(xs[5, 3], xs[5, 30]), rng.uniform(xs[6, 10], xs[6, 11])])
    e_rows = np.repeat(np.arange(1, 7), 3)
    ts = np.array([rng.uniform(xs[r, 0], x[r]) for r in e_rows])
    ts[e_rows == 5] = xs[5, 3], xs[5, 4], xs[5, 10]  # on points of the row, below x
    vals = rng.uniform(-2.0, 2.0, len(ts))
    one_cell = np.sort(rng.uniform(-1.0, 1.0, (3, 2)), axis=1)
    none = (np.zeros(0, dtype=np.int64), np.empty(0), np.empty(0))
    # -t just right of 0, where every product -t·Δx underflows to -0.0; and
    # t across 0, whose lower products there are -0.0 and whose trailing
    # ones are +0.0, so a running sum that were -0.0 would change its sign
    right_of_0 = np.linspace(0.0, 8e-200, 9) * np.ones((2, 1))
    across_0 = np.linspace(-8e-200, 7e-200, 9) * np.ones((2, 1))
    cases = [
        ("t^3 - t", xs, x, (e_rows, ts, vals)),
        ("t^3 - t", one_cell, rng.uniform(one_cell[:, 0], one_cell[:, 1]), none),
        ("-t", right_of_0, np.array([3e-200, 8e-200]), none),
        ("t", across_0, np.array([0.5e-200, -3e-200]), none),
    ]
    for src, rows, at, (e_r, e_t, e_v) in cases:
        prog = ScalarKernel.from_string(src).program
        clipped, cut = _clipped_and_cut(rows, at)
        grid = K.GivenRows(clipped)
        got = [K.darboux_critical(prog, grid, e_t, e_v, e_r), K.darboux_sampled(prog, grid, 4)]
        for r, row in enumerate(cut):
            mine = e_r == r
            alone = [K.darboux_critical(prog, row, e_t[mine], e_v[mine]), K.darboux_sampled(prog, row, 4)]
            for band, one in zip(got, alone):
                assert np.array([p[r] for p in band]).tobytes() == np.array(one).tobytes(), (src, r)
    assert np.signbit(-right_of_0[0, 1:] * np.diff(right_of_0[0])).all()
    assert np.array(K.darboux_endpoint(ScalarKernel.from_string("t").program, cut[0])).tobytes() == np.zeros(2).tobytes()
    # a lone row finds its entries' cells by one search: as the search of its row among others
    one = K.GivenRows(xs[2:3])
    assert np.array_equal(one.cells(np.zeros(5, dtype=np.int64), ts[:5]), K.GivenRows(xs).cells(np.full(5, 2), ts[:5]))


def test_distinct_values_are_those_of_np_unique(monkeypatch):
    # Sort and mask give np.unique's sorted distinct values bit for bit,
    # with repeats, -0.0 next to 0.0, and no value at all; critical_points
    # and GivenRows.cells (whose rows come in any order) read through it.
    rng = np.random.default_rng(12)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300])
    for size in (0, 1, 2, 5, 40):
        for _ in range(50):
            a = rng.choice(pool, size)
            assert K._distinct(a).tobytes() == np.unique(a).tobytes(), a
    rows = rng.integers(0, 5, 30)
    assert K._distinct(rows).tobytes() == np.unique(rows).tobytes()
    xs = uniform_grid(np.arange(5.0), np.arange(5.0) + 1.0, 8)
    ts = rows + rng.uniform(-0.5, 1.5, 30)
    want = [np.clip(xs[r].searchsorted(t, "right") - 1, 0, 7) for r, t in zip(rows, ts)]
    assert np.array_equal(K.GivenRows(xs).cells(rows, ts), want)
    ts = np.array([0.5, -0.0, 0.0, 0.5, -0.5, 0.0])
    entries = (np.zeros(len(ts), dtype=np.int64), ts, ts, np.zeros(1, dtype=bool))
    monkeypatch.setattr(ScalarKernel, "critical_entries", lambda self, lo, hi: entries)
    points = ScalarKernel.from_string("t^3 - t").critical_points(-1.0, 1.0)
    assert points.tobytes() == np.unique(ts).tobytes()


def test_a_level_keeps_a_few_chunk_buffers_not_the_whole_row():
    # One 2^20-cell level of t^2 (point sums, and one block summed by
    # products around the entry at 0) holds its chunk's points, values and
    # one block's products, about 1.3 MiB, and its running sums, 64 KiB: not
    # arrays of the whole row (8 MiB each) nor fresh arrays per block.
    bands, _ = _make_bands(LatticeFunction.coordinatewise(["t^2"]), np.array([-0.7]), np.array([1.3]))
    rows = np.array([0])
    bands[0].level(rows, 1 << 20)  # first, so that no lazy import or cache is counted
    tracemalloc.start()
    try:
        level, _ = bands[0].level(rows, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert level.running.nbytes == 2 * 4096 * 8
    assert peak <= 2 * 2**20


@pytest.mark.parametrize(
    "grid, s, peak_mib",
    [
        # One 2^15-cell row given as breakpoints, read in place: two arrays
        # of values, the products m·Δx and the widths Δx, 1.25 MiB.  An
        # array for points would add 0.25 MiB that nothing writes.
        (np.linspace(0.0, 1.0, 2**15 + 1), 0, 1.25),
        # One uniform 2^15-cell row sampled at 4 and 8 points a cell: the
        # peak is the second pass's, chunks of 2^13 cells of 9 samples,
        # which forms its samples in an array of its own.  Measured at 3.13
        # MiB; an array for points would add 0.5625 MiB.
        (K.UniformRows(np.array([0.0]), np.array([1.0]), 2**15), 4, 3.13),
    ],
    ids=["given-endpoint", "uniform-sampled"],
)
def test_only_a_uniform_endpoint_pass_allocates_an_array_for_its_points(grid, s, peak_mib):
    prog = ScalarKernel.from_string("t^2").program

    def call():
        return K.darboux_sampled(prog, grid, s) if s else K.darboux_endpoint(prog, grid)

    want = call()  # first, so that no lazy import or cache is counted
    tracemalloc.start()
    try:
        got = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert peak <= (peak_mib + 1 / 8) * 2**20


def test_threads_summing_at_once_keep_their_own_buffers():
    # Each thread's runs write into the buffers of its own sums (the table
    # finds them per thread), so sums made on six threads at once, switched
    # often, give the bytes each gives alone.
    lo, hi = np.array([-1.0, 0.3]), np.array([1.0, 1.9])
    kernels = [ScalarKernel.from_string(src).program for src in ("t^3 - t", "sin(3*t) + exp(t)", "3*t^2 - 2*t")]
    jobs = [(prog, n) for prog in kernels for n in (2**15 + 7, 3 * 8192 // 2)]
    want = [K.darboux_endpoint(prog, K.UniformRows(lo, hi, n)).tobytes() for prog, n in jobs]
    got = [None] * len(jobs)

    def work(i):
        for _ in range(3):
            prog, n = jobs[i]
            got[i] = K.darboux_endpoint(prog, K.UniformRows(lo, hi, n)).tobytes()
            if got[i] != want[i]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@pytest.mark.parametrize("n", [1, 200, 3 * K.STRETCH_CELLS, 2**13 + 5, 2**15 + 2**9])
def test_level_sums_match_the_reference_whatever_stretches_hold_entries(n):
    # Differential check against helpers.stretch_subtotals, bit for bit: a
    # chunk where every stretch holds an entry (its products are summed in
    # place), where some do (point sums, then the gathered products) and
    # where none do; rows of one stretch, of several and of a short last
    # one; each row alone and all in one band.  "1e306 + t" has stretches
    # whose point sums overflow while their products do not.
    g = K.STRETCH_CELLS
    lo, hi = np.array([-1.0, 0.25, -2.0, 0.0]), np.array([1.0, 1.75, 0.5, 1.0])
    for src, cover in [("t^3 - t", "every"), ("t^3 - t", "some"), ("t^3 - t", "none"), ("1e306 + t", "some")]:
        prog = ScalarKernel.from_string(src).program
        rows, ts = [], []
        for r in range(len(lo)):
            xs = uniform_grid(lo[r], hi[r], n)
            cells = {"every": range(0, n, g), "some": [min(g + 3, n - 1)] if r % 2 else [], "none": []}[cover]
            at = [0.5 * (xs[c] + xs[c + 1]) for c in cells]
            rows += [r] * 2 * len(at)
            ts += [t for t in at for _ in range(2)]
        e_rows, e_ts = np.array(rows, dtype=np.int64), np.array(ts)
        e_vals = K.eval_many(prog, e_ts) + np.tile([-0.25, 0.25], len(ts) // 2)  # values beyond f's, so folds show
        band = K.UniformRows(lo, hi, n)
        got = K.darboux_critical(prog, band, e_ts, e_vals, e_rows)
        for r in range(len(lo)):
            sel = e_rows == r
            xs = uniform_grid(lo[r], hi[r], n)
            m, big = _products(prog, xs, e_ts[sel], e_vals[sel])
            with np.errstate(over="ignore"):  # the point sums that overflow
                want = running_sums(stretch_subtotals(K.eval_many(prog, xs), xs, m, big, e_ts[sel], g))
            alone = K.UniformRows(lo[r : r + 1], hi[r : r + 1], n)
            K.darboux_critical(prog, alone, e_ts[sel], e_vals[sel], np.zeros(sel.sum(), dtype=np.int64))
            for grid, row in ((band, r), (alone, 0)):
                assert grid.running[:, row].tobytes() == want.tobytes(), (src, cover, r)
            assert (got[0][r], got[1][r]) == tuple(want[:, -1]), (src, cover, r)


def test_a_sum_leaves_the_callers_numpy_buffer_as_it_found_it(monkeypatch):
    # A uniform level of several rows of at least STRETCH_CELLS cells sums
    # with numpy's ufunc buffer at STRETCH_CELLS; any other grid with the
    # caller's.  Afterwards, and after a RowError, the caller's size holds.
    g = K.STRETCH_CELLS
    seen = []
    point_sums = K._point_sums

    def recording(*args):
        seen.append(np.getbufsize())
        return point_sums(*args)

    monkeypatch.setattr(K, "_point_sums", recording)
    prog = ScalarKernel.from_string("1e306 + t").program
    lo, hi = np.array([0.0, 0.0, 0.5]), np.array([1.0, 1000.0, 1.0])  # row 1's sums overflow
    with np.errstate():
        np.setbufsize(4096)
        for rows, n, inside in [(slice(0, 3, 2), g, g), (slice(0, 3, 2), 2 * g, g), (slice(0, 1), 2 * g, 4096), (slice(0, 3, 2), g - 1, 4096)]:
            K.darboux_endpoint(prog, K.UniformRows(lo[rows], hi[rows], n))
            assert (seen.pop(), np.getbufsize()) == (inside, 4096), (rows, n)
        with pytest.raises(K.RowError) as info:
            K.darboux_endpoint(prog, K.UniformRows(lo, hi, 2 * g))
        assert info.value.row == 1 and seen == [g]
        assert np.getbufsize() == 4096
    assert np.getbufsize() == 8192


@pytest.mark.parametrize("n", [256, 512, 2048, 8192, 2**15 + 256])
@pytest.mark.parametrize("src", ["t^2", "t^3 - t"])
def test_rows_of_a_level_sum_as_each_row_alone(src, n):
    # Many rows a chunk (and two chunks a row at 2^15 + 256), with entries
    # in some rows and in none: each row's sums and running sums are the
    # bits of the row summed alone, at the caller's numpy buffer.
    rng = np.random.default_rng(n)
    rows = max(2, min(40, 4 * K.CHUNK_CELLS // n))
    lo = rng.uniform(-2.0, 1.0, rows)
    hi = lo + rng.uniform(0.1, 2.0, rows)
    hi[::7] = lo[::7]  # rows of zero width too
    k, (e_rows, e_ts, e_vals) = _band(src, lo, hi)
    assert 0 < len(np.unique(e_rows)) < rows
    for entries in (True, False):
        band = K.UniformRows(lo, hi, n)
        got = K.darboux_critical(k.program, band, e_ts, e_vals, e_rows) if entries else K.darboux_endpoint(k.program, band)
        for r in range(rows):
            sel = e_rows == r
            alone = K.UniformRows(lo[r : r + 1], hi[r : r + 1], n)
            if entries and sel.any():
                K.darboux_critical(k.program, alone, e_ts[sel], e_vals[sel], np.zeros(sel.sum(), dtype=np.int64))
            else:
                K.darboux_endpoint(k.program, alone)
            assert band.running[:, r].tobytes() == alone.running[:, 0].tobytes(), (entries, r)
            assert (got[0][r], got[1][r]) == tuple(alone.running[:, 0, -1]), (entries, r)
