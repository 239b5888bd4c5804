"""The summation core: a band summed as one block of rows equals its rows summed alone, bit for bit."""

import math
import warnings

import numpy as np
import pytest

from ordercalc import _kernels_fallback as K
from ordercalc.functions import KernelEvalError, LatticeFunction, ScalarKernel
from ordercalc.integrate import ToleranceSchedule, integrate
from ordercalc.lattice import Element, OrderInterval
from ordercalc.partitions import uniform_grid

from helpers import stretch_subtotals


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
    return stretch_subtotals(K.eval_many(prog, xs), xs, m, big, crit_ts, K.STRETCH_CELLS, K.BLOCK_CELLS)


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
    # Blocks of many short rows, and long rows in several blocks with
    # critical entries on both sides of a block boundary.
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


@pytest.mark.parametrize("n", [300, 3 * K.STRETCH_CELLS, K.BLOCK_CELLS + 300, 2 * K.BLOCK_CELLS])
def test_point_sums_fold_each_stretch_that_holds_an_entry(n):
    # Entries in several stretches: at a stretch's end point (so in the
    # first cell of the next stretch), at the first point of the second
    # block, inside a cell, and at hi, besides the kernel's own.  Rows of
    # whole stretches, and of whole stretches and a short last one, in
    # blocks of several rows (all summed by products) and in blocks of one
    # long row (point sums, but by products in a block holding an entry).
    g = K.STRETCH_CELLS
    lo = np.array([-1.0, 0.25, -2.0])
    hi = np.array([1.0, 1.75, 0.5])
    k, (e_rows, e_ts, e_vals) = _band("t^3 - t", lo, hi)
    rows, ts = [e_rows], [e_ts]
    for r in range(len(lo)):
        xs = uniform_grid(lo[r], hi[r], n)
        at = [xs[c] for c in (g, 2 * g, K.BLOCK_CELLS, n) if c <= n] + [0.5 * (xs[g + 3] + xs[g + 4])]
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
    # stretch of a level whose rows are summed alone, a block at a time (a
    # short last stretch included), and by products on shorter rows.
    evalf = ScalarKernel.from_callable(math.atan, monotone="increasing").eval_many
    lo, hi = np.array([-2.0, 0.5, 1.0]), np.array([3.0, 0.75, 1.0])
    for n in (5 * K.STRETCH_CELLS, K.BLOCK_CELLS // 2 + 17, K.BLOCK_CELLS + 600):
        got = K.darboux_endpoint_fn(evalf, K.UniformRows(lo, hi, n))
        for r in range(len(lo)):
            xs = uniform_grid(lo[r], hi[r], n)
            v = evalf(xs)
            m, big = np.minimum(v[:-1], v[1:]) * np.diff(xs), np.maximum(v[:-1], v[1:]) * np.diff(xs)
            subtotals = stretch_subtotals(v, xs, m, big, [], K.STRETCH_CELLS, K.BLOCK_CELLS)
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
    # Each block's sums are finite; only their totals pass the float range.
    # Row 1 overflows at its second block, which starts at t = 1, row 2 at
    # its third; row 1 is named, at the first cell of that block.
    prog = ScalarKernel.from_string("1e308").program
    grid = K.UniformRows(np.array([0.0, 0.0, 0.0]), np.array([1.0, 3.0, 2.5]), 3 * K.BLOCK_CELLS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(K.RowError) as info:
            K.darboux_endpoint(prog, grid)
        assert info.value.row == 1 and isinstance(info.value.cause, OverflowError)
        assert f"[1.0, {1.0 + 1.0 / K.BLOCK_CELLS!r}]" in str(info.value)
        # Left to right, the row is named at the cell where its running sum
        # overflowed: each cell adds 1e308·2^-18, and the float range ends
        # after 1.7976931348623157·2^18 ≈ 471254.47 of them, in cell 471254.
        n = 3 * 2**18
        with pytest.raises(K.RowError) as info:
            K.prefix_endpoint(prog, uniform_grid(0.0, 3.0, n))
        assert isinstance(info.value.cause, OverflowError)
        assert f"[{471254 * 2.0**-18!r}, {471255 * 2.0**-18!r}]" in str(info.value)


def test_short_rows_overflowing_across_stretches_name_the_lowest_row():
    # Rows of two stretches in one block: row 1's stretch sums are finite
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


@pytest.mark.parametrize("n", [1, 7, K.BLOCK_CELLS, 3 * K.BLOCK_CELLS + 5])
def test_uniform_rows_blocks_equal_uniform_grid(n):
    # Blocks are built from one cached index row; every block, the last
    # one shorter than BLOCK_CELLS included, is uniform_grid's stretch bit
    # for bit, on rows of all magnitudes and one of zero width.
    lo = np.array([-1.0, 0.0, 1e16, 3.0, -2.5e-300, 0.1])
    hi = np.array([1.0, 1e-300, 1e16 + 64.0, 3.0, 7e-301, 0.7])
    grid = K.UniformRows(lo, hi, n)
    per_block = max(1, K.BLOCK_CELLS // n)
    width = min(n, K.BLOCK_CELLS)
    for r0 in range(0, len(lo), per_block):
        r1 = min(r0 + per_block, len(lo))
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


@pytest.mark.parametrize("n", [64, 4 * K.BLOCK_CELLS])
@pytest.mark.parametrize("kind", [K.UniformRows, K.GivenRows])
def test_entries_in_any_order_sum_as_sorted(kind, n):
    # Entries are ordered by (row, t) before they are placed, so shuffled
    # entries sum bit for bit as sorted ones, on a long row in blocks and
    # on short rows sharing a block.
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
    # Values are scanned only when a block's L or U is not finite; the
    # first bad point of the lowest bad row is still the one named.
    cases = [  # (kernel, lo, hi, cells, row, t, sampled)
        # A block of short rows whose third row and a later one are bad.
        ("log(t)", [1.0, 2.0, -1.0, -2.0], [2.0, 3.0, 1.0, 1.0], 16, 2, -1.0, False),
        # 1/t is +inf at the grid point 0.0 of rows 2 and 3.
        ("1/t", [1.0, 2.0, -1.0, -3.0], [2.0, 3.0, 1.0, 1.0], 16, 2, 0.0, False),
        # NaN·0 on a zero-width row, by endpoints and by sampling.
        ("log(t)", [1.0, -1.0, -1.0], [2.0, -1.0, 1.0], 16, 1, -1.0, False),
        ("log(t)", [1.0, -1.0, -1.0], [2.0, -1.0, 1.0], 16, 1, -1.0, True),
        # Long rows: row 1 is bad at C1 and C2 in its second block, row 2 in its first.
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
