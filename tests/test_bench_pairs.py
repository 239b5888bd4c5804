"""The summary of ``tools/bench_pairs.py`` on synthetic runs; no benchmark is run."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(values, name="wall_s"):
    return [None if v is None else {name: v} for v in values]


def test_a_clear_gain_holds():
    parent = _runs([1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99])
    change = _runs([0.90, 0.91, 0.89, 0.90, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90])
    [row] = bench_pairs.summarize(parent, change, {"wall_s": "lower"})
    assert (row["wins"], row["pairs"], row["gain"]) == (10, 10, True)
    assert row["parent"][1] == 1.0 and row["change"][1] == 0.9
    assert row["parent"][0] < row["parent"][1] < row["parent"][2]


def test_eight_wins_of_ten_is_no_gain():
    parent = _runs([1.0] * 10)
    change = _runs([0.5] * 8 + [1.5] * 2)
    [row] = bench_pairs.summarize(parent, change, {"wall_s": "lower"})
    assert (row["wins"], row["gain"]) == (8, False)


def test_a_gap_inside_the_parents_spread_is_no_gain():
    # every pair won, but the medians differ by less than the parent's IQR
    parent = _runs([1.0, 1.4, 0.6, 1.3, 0.7, 1.2, 0.8, 1.1, 0.9, 1.0])
    change = [{"wall_s": p["wall_s"] - 0.01} for p in parent]
    [row] = bench_pairs.summarize(parent, change, {"wall_s": "lower"})
    assert (row["wins"], row["gain"]) == (10, False)


def test_ties_count_for_neither_side():
    [row] = bench_pairs.summarize(_runs([1.0] * 10), _runs([1.0] * 10), {"wall_s": "lower"})
    assert (row["wins"], row["gain"]) == (0, False)


def test_higher_is_better_where_the_metric_says_so():
    parent = _runs([10.0 + 0.1 * i for i in range(10)], "rate")
    change = _runs([20.0 + 0.1 * i for i in range(10)], "rate")
    [row] = bench_pairs.summarize(parent, change, {"rate": "higher"})
    assert (row["wins"], row["gain"]) == (10, True)
    [row] = bench_pairs.summarize(change, parent, {"rate": "higher"})
    assert (row["wins"], row["gain"]) == (0, False)


def test_a_failed_run_loses_its_pair_and_stays_in_the_count():
    parent = _runs([1.0] * 10)
    change = _runs([0.5] * 9 + [None])
    [row] = bench_pairs.summarize(parent, change, {"wall_s": "lower"})
    assert (row["wins"], row["pairs"], row["gain"]) == (9, 10, True)
    change = _runs([0.5] * 8 + [None, None])
    [row] = bench_pairs.summarize(parent, change, {"wall_s": "lower"})
    assert (row["wins"], row["pairs"], row["gain"]) == (8, 10, False)
    [row] = bench_pairs.summarize(parent, _runs([None] * 10), {"wall_s": "lower"})
    assert (row["change"], row["gain"]) == (None, False)
    assert "failed" in bench_pairs.format_rows([row])


def test_every_metric_gets_a_row():
    parent = [{"wall_s": 1.0, "peak_rss_mb": 40.0}] * 10
    change = [{"wall_s": 0.5, "peak_rss_mb": 40.0}] * 10
    rows = bench_pairs.summarize(parent, change, {})
    assert [(r["metric"], r["wins"], r["gain"]) for r in rows] == [("peak_rss_mb", 0, False), ("wall_s", 10, True)]
    text = bench_pairs.format_rows(rows)
    assert text.splitlines()[2].startswith("wall_s") and text.splitlines()[2].endswith("10/10  yes")


def test_each_side_reports_its_best_run():
    # On a loaded machine the medians spread; the best runs show each side's own cost.
    parent = _runs([1.3, 1.0, 2.1, 1.1, None, 1.2, 1.4, 1.05, 1.9, 1.15])
    change = _runs([0.8, 1.6, 0.85, 0.9, 0.82, 1.7, 0.95, 0.88, 0.86, 0.84])
    [row] = bench_pairs.summarize(parent, change, {"wall_s": "lower"})
    assert (row["parent_best"], row["change_best"]) == (1.0, 0.8)
    [row] = bench_pairs.summarize(_runs([10.0, 12.0, 11.0]), _runs([9.0, 13.5, None]), {"wall_s": "higher"})
    assert (row["parent_best"], row["change_best"]) == (12.0, 13.5)
    line = bench_pairs.format_rows([row]).splitlines()[1]
    assert "12 " in line and "13.5 " in line
    [row] = bench_pairs.summarize(_runs([1.0]), _runs([None]), {"wall_s": "lower"})
    assert (row["parent_best"], row["change_best"]) == (1.0, None)
    assert "failed" in bench_pairs.format_rows([row])
