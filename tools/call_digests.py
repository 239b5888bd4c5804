"""Compare two checkouts' benchmark calls bit for bit, by each call's own digest.

For each checkout one subprocess imports that checkout's ``src`` and
``bench/workloads.py``, builds the ``oracle``, ``wide`` and ``calculus``
workloads at each seed, makes every call once, in the workload's order, and
hashes the digest the call declares (the bytes of an integral's fields, a
report's dict, an MVT point's ``c.data.tobytes()``, the query call's
values).  The tool lists the calls whose digests differ and the calls that
only one side has, and exits 1 on any of these, else 0.  It reads the
checkouts and writes nothing.  Run from anywhere:

    python tools/call_digests.py PARENT CHANGE --seeds 1 2
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

# Run in a fresh interpreter, without bytecode caches, with the checkout,
# the seeds and the size as arguments; prints one JSON object, each call's
# key to its digest's hash.
_CHILD = r"""
import hashlib, json, sys
from pathlib import Path

tree, seeds, tiny = Path(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3] == "1"
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
import ordercalc
import workloads

if not Path(ordercalc.__file__).resolve().is_relative_to((tree / "src").resolve()):
    sys.exit(f"ordercalc was imported from {ordercalc.__file__}, not from {tree / 'src'}")
out = {}
for name in ("oracle", "wide", "calculus"):
    for seed in seeds:
        for call in getattr(workloads, name)(seed, tiny).calls:
            digest = repr(call.digest(call.fn())).encode()
            out[f"{name} seed {seed}: {call.id}"] = hashlib.sha256(digest).hexdigest()
print(json.dumps(out))
"""


def digests(tree: Path, seeds: list[int], tiny: bool = False) -> dict[str, str]:
    """Each call of ``tree``'s workloads at each seed, keyed "workload seed s: call id", to its digest's hash."""
    cmd = [sys.executable, "-B", "-c", _CHILD, str(Path(tree).resolve()), json.dumps(seeds), "1" if tiny else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the calls of {tree} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def compare(parent: dict[str, str], change: dict[str, str]) -> dict[str, list[str]]:
    """The keys whose hashes differ and those only the parent has, in its order; those only the change has, in its."""
    return {
        "differ": [key for key in parent if key in change and parent[key] != change[key]],
        "only in parent": [key for key in parent if key not in change],
        "only in change": [key for key in change if key not in parent],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    parent, change = digests(args.parent, args.seeds), digests(args.change, args.seeds)
    found = compare(parent, change)
    for what, keys in found.items():
        print(f"{what}: {len(keys)}")
        for key in keys:
            print(f"  {key}")
    same = len(parent) - len(found["differ"]) - len(found["only in parent"])
    print(f"{same} of {len(parent)} parent calls have the change's digest")
    return 1 if any(found.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
