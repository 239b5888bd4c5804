"""Set-up time in a fresh process: import ordercalc, parse and compile kernels.

Usage: ``python3 bench/setup_probe.py SRC_DIR < specs.json`` where the JSON
is a list of ``[kernel sources, dim]``.  Prints the seconds from just
before ``import ordercalc`` until every kernel of every function is parsed
and its tape compiled.
"""

import json
import sys
import time


def main() -> None:
    specs = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    from ordercalc import LatticeFunction

    for sources, dim in specs:
        f = LatticeFunction.coordinatewise(sources, dim=dim)
        for k in f.kernels:
            k.program
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
