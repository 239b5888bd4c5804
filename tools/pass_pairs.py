"""Compare two checkouts' in-process pass times on one benchmark workload, in alternated fresh interpreters.

Each run is a fresh ``python -B`` interpreter of one checkout: it imports
that checkout's ``src`` and reads its ``bench/workloads.py`` (neither is
changed, and no bytecode is written), builds the workload at the seed,
makes the selected calls once to warm up, then makes them ``--passes``
times and prints its fastest pass.  Runs alternate between the sides, and
the side that goes first alternates from one round to the next.  The tool
reports each side's median, minimum and runs, and the ratio of the
change's median to the parent's.  It writes nothing, and it exits 1 if any
run fails.  ``--calls`` keeps the calls whose id starts with the prefix
(``mvt[`` for the MVT solves of ``calculus``); each antiderivative query
call reads the antiderivative its build call made, so ``antiderivative``
keeps both.  Run from anywhere:

    python tools/pass_pairs.py PARENT CHANGE --workload wide --processes 8 \\
        --passes 30 --seed 1
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
from pathlib import Path

# Run in a fresh interpreter with the checkout, the workload, the seed, the
# size, the call prefix and the number of passes as arguments; prints the
# number of calls and the fastest pass in seconds.
_CHILD = r"""
import sys, time
from pathlib import Path

tree, name, seed, tiny, prefix, passes = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", sys.argv[5], int(sys.argv[6])
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
import ordercalc
import workloads

if not Path(ordercalc.__file__).resolve().is_relative_to((tree / "src").resolve()):
    sys.exit(f"ordercalc was imported from {ordercalc.__file__}, not from {tree / 'src'}")
calls = [call.fn for call in getattr(workloads, name)(seed, tiny).calls if call.id.startswith(prefix)]
if not calls:
    sys.exit(f"no call of {name} starts with {prefix!r}")
for fn in calls:
    fn()
best = float("inf")
for _ in range(passes):
    start = time.perf_counter()
    for fn in calls:
        fn()
    best = min(best, time.perf_counter() - start)
print(len(calls), best)
"""


def fastest_pass(tree: Path, workload: str, seed: int, tiny: bool, prefix: str, passes: int) -> tuple[int, float]:
    """The number of selected calls and the fastest of ``passes`` passes over them, in seconds, in a fresh interpreter of ``tree``."""
    cmd = [sys.executable, "-B", "-c", _CHILD, str(Path(tree).resolve()), workload, str(seed),
           "1" if tiny else "0", prefix, str(passes)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"the run of {tree} failed with exit {proc.returncode}: {tail}")
    calls, best = proc.stdout.split()
    return int(calls), float(best)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("oracle", "wide", "calculus"))
    parser.add_argument("--calls", default="", help="keep only the calls whose id starts with this")
    parser.add_argument("--processes", type=int, default=8, help="fresh interpreters a side")
    parser.add_argument("--passes", type=int, default=30, help="timed passes an interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tiny", action="store_true", help="the workloads' tiny sizes")
    args = parser.parse_args(argv)

    runs: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(args.processes):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            try:
                calls, best = fastest_pass(getattr(args, side), args.workload, args.seed, args.tiny, args.calls, args.passes)
            except RuntimeError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            runs[side].append(best)
            print(f"round {i + 1} {side}: {calls} calls, fastest pass {best * 1e3:.3f} ms", flush=True)
    medians = {}
    for side, times in runs.items():
        medians[side] = statistics.median(times)
        shown = " ".join(f"{t * 1e3:.3f}" for t in times)
        print(f"{side}: median {medians[side] * 1e3:.3f} ms, min {min(times) * 1e3:.3f} ms, runs {shown}")
    print(f"change/parent medians: {medians['change'] / medians['parent']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
