"""The summation core: a band summed as one block of rows equals its rows summed alone, bit for bit."""

import numpy as np
import pytest

from ordercalc import _kernels_fallback as K
from ordercalc._tape import CHUNK_CELLS
from ordercalc.functions import ScalarKernel
from ordercalc.partitions import uniform_grid


def _reference_sums(prog, xs, crit_ts, crit_vals):
    """The 1-D sums written plainly: whole-row extrema, chunks of CHUNK_CELLS cells."""
    n = len(xs) - 1
    v = K.eval_many(prog, xs)
    m, big = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
    cells = np.clip(np.searchsorted(xs, crit_ts, side="right") - 1, 0, n - 1)
    np.minimum.at(m, cells, crit_vals)
    np.maximum.at(big, cells, crit_vals)
    dx = xs[1:] - xs[:-1]
    lo = up = 0.0
    for c0 in range(0, n, CHUNK_CELLS):
        chunk = slice(c0, c0 + CHUNK_CELLS)
        lo = lo + np.add.accumulate(m[chunk] * dx[chunk])[-1]
        up = up + np.add.accumulate(big[chunk] * dx[chunk])[-1]
    return float(lo), float(up)


def _band(src, lo, hi):
    k = ScalarKernel.from_string(src)
    rows, ts, vals, failed = k.critical_entries(lo, hi)
    assert not failed.any()
    return k, (rows, ts, vals)


@pytest.mark.parametrize("n", [1, 2**12, 2 * CHUNK_CELLS + 2**11])
def test_uniform_rows_equal_one_row_sums(n):
    # Blocks of many short rows, and long rows in several chunks with
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
        ts, vals = entries[1][entries[0] == r], entries[2][entries[0] == r]
        want = _reference_sums(k.program, xs, ts, vals)
        if len(ts):
            one_row = K.darboux_critical(k.program, xs, ts, vals)
        else:
            one_row = K.darboux_endpoint(k.program, xs)
        assert (got[0][r], got[1][r]) == want == one_row, r


def test_given_rows_equal_one_row_sums_and_prefixes():
    rng = np.random.default_rng(3)
    xs = np.sort(rng.uniform(-1.0, 1.0, (3, 65)), axis=1)
    prog = ScalarKernel.from_string("abs(t - 0.1)").program
    got = K.darboux_sampled(prog, K.GivenRows(xs), 4)
    for r in range(3):
        assert tuple(x[r] for x in got) == K.darboux_sampled(prog, xs[r], 4)
        pl, pu, wl, wu = K.prefix_sampled(prog, xs[r], 4)
        assert (pl[-1], pu[-1]) == K.darboux_sampled(prog, xs[r], 4)[:2]


def test_entry_cells_match_a_search_of_the_whole_row():
    # Each block of a row places a point in the cell a search of the whole
    # row finds, or outside the block when that cell is in another block.
    rng = np.random.default_rng(7)
    n = 1000
    for lo, hi in [(-1.0, 1.0), (0.0, 1e-300), (1e16, 1e16 + 64.0), (3.0, 3.0 + 1e-12)]:
        row = uniform_grid(lo, hi, n)  # repeated points in the last three
        ts = np.concatenate([rng.choice(row, 30), rng.uniform(lo, hi, 16), [lo, hi, lo - 1, hi + 1]])
        want = np.clip(np.searchsorted(row, ts, side="right") - 1, 0, n - 1)
        for c0, c1 in [(0, n), (0, 300), (300, 700), (700, n)]:
            got = K._entry_cells(row[None, c0 : c1 + 1], ts, [0, len(ts)], c0 == 0, c1 == n)
            inside = (want >= c0) & (want < c1)
            assert np.array_equal(got[inside], want[inside] - c0)
            assert not ((got[~inside] >= 0) & (got[~inside] < c1 - c0)).any()


def test_non_finite_value_names_its_row():
    prog = ScalarKernel.from_string("log(t)").program
    grid = K.UniformRows(np.array([1.0, 2.0, -1.0, -2.0]), np.array([2.0, 3.0, 1.0, 1.0]), 16)
    with pytest.raises(K.RowError) as info:
        K.darboux_endpoint(prog, grid)
    assert info.value.row == 2
    assert "t=-1.0" in str(info.value)
