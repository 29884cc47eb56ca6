"""Times a workload's library units in a fresh interpreter.

    python3 bench/libworker.py '<json spec>'

``run.py`` starts one worker after each CLI run, with the same
``PYTHONHASHSEED`` cycle as the CLI runs, so the in-process timings sample
the same set of dict layouts on every run instead of the one layout the
benchmark process happened to get.  The spec names the workload, seed,
size and the directory holding its inputs and ``expected.out``; the worker
runs units round-robin from ``first`` until ``seconds`` of unit time are
spent.  It prints a JSON list of [seconds, errors] pairs, one per unit.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]](
        Path(spec["workdir"]), spec["seed"], workloads.SIZES[spec["size"]][spec["workload"]],
        replay=False)
    units = wl.lib_units()
    timings = []
    spent = 0.0
    k = spec["first"]
    while spent < spec["seconds"]:
        call, check = units[k % len(units)]
        k += 1
        t0 = perf_counter()
        result = call()
        dt = perf_counter() - t0
        spent += dt
        timings.append([dt, check(result)])
    json.dump(timings, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
