"""Compare two checkouts on one benchmark workload, in alternated pairs of runs.

Each pair runs the ``bench/run.py`` of the parent checkout and of the
changed one once each, one after the other, and the pairs alternate which
side runs first.  Every run reads its own ``BENCHMARK.json`` and imports
its own ``src``; this tool only starts the runs and never edits ``bench/``.
It reads the last JSON line of each run's standard output, prints each
run's metrics as it ends, and then, for every metric, each side's median
and quartiles, each side's best run (the lowest, or the highest where
higher is better: on a loaded machine the fastest runs show the code's
own cost), the pairs the change won (ties count for neither side), and
whether the gain rule holds: the change wins at least nine tenths of the
pairs, and its median beats the parent's by more than the parent's
interquartile range.  A run that fails, or that
prints no result, is reported with its exit code and counts as a pair the
change did not win.  Run from anywhere:

    python tools/bench_pairs.py PARENT CHANGE --workload calculus --seed 1 \\
        --seconds 20 --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, str]:
    """One run of ``tree``'s benchmark: its metric values (None if it failed) and a note on it."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    result = None
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            result = json.loads(line)
            break
    if result is None or "metrics" not in result:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return None, f"exit {proc.returncode}, no result: {tail}"
    values = {name: m["value"] for name, m in result["metrics"].items()}
    shown = ", ".join(f"{name} {value:.6g}" for name, value in sorted(values.items()) if value is not None)
    note = f"exit {proc.returncode}, {result['failed']} of {result['attempted']} calls failed; {shown}"
    return (values if proc.returncode == 0 else None), note


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``; all three are the value itself for a single one."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(parent: list[dict | None], change: list[dict | None], better: dict[str, str]) -> list[dict]:
    """Per metric, both sides' quartiles and best runs, the pairs won, and whether the gain rule holds.

    ``parent[i]`` and ``change[i]`` are pair i's metric values, None for a
    failed run; ``better`` maps a metric to "lower" or "higher" (lower when
    missing).  A metric that reads None in some run is left out of that run.
    """
    names = sorted({name for run in parent + change if run for name in run})
    rows = []
    for name in names:
        sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
        pairs = [(p.get(name) if p else None, c.get(name) if c else None) for p, c in zip(parent, change)]
        wins = sum(1 for p, c in pairs if p is not None and c is not None and sign * c < sign * p)
        sides = [[v for v in (run.get(name) if run else None for run in runs) if v is not None] for runs in (parent, change)]
        p_q, c_q = (quartiles(values) if values else None for values in sides)
        p_best, c_best = (min(values, key=lambda v: sign * v) if values else None for values in sides)
        gain = (
            p_q is not None and c_q is not None
            and wins >= 0.9 * len(pairs)
            and sign * (p_q[1] - c_q[1]) > p_q[2] - p_q[0]
        )
        rows.append({"metric": name, "parent": p_q, "change": c_q, "parent_best": p_best, "change_best": c_best,
                     "wins": wins, "pairs": len(pairs), "gain": gain})
    return rows


def format_rows(rows: list[dict]) -> str:
    def side(q, best):
        return "failed" if q is None else f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}] {best:.6g}"

    head = "median [q1, q3] best"
    lines = [f"{'metric':16s} {'parent ' + head:46s} {'change ' + head:46s} won  gain"]
    for row in rows:
        lines.append(
            f"{row['metric']:16s} {side(row['parent'], row['parent_best']):46s} "
            f"{side(row['change'], row['change_best']):46s} {row['wins']}/{row['pairs']}  {'yes' if row['gain'] else 'no'}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("oracle", "wide", "calculus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[str, list] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, note = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(values)
            print(f"pair {i + 1} {side}: {note}", flush=True)
    for side, side_runs in runs.items():
        print(f"{side}: {side_runs.count(None)} of {len(side_runs)} runs failed")
    print(format_rows(summarize(runs["parent"], runs["change"], better)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
