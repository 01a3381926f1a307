"""The oracle workload's library loop: one orbit_count_oracle call per cell.

As a child process (src on PYTHONPATH):
    python3 perfbench/oracle_loop.py '[[D, m, n], ...]'
prints {"loop_s": ..., "cells": [[count, stable, cubes_enumerated], ...]}.
"""

import json
import sys
import time

from cubezeta import cube


def loop(cells: list) -> dict:
    # looked up on the module at each call, so a tracer's wrapper is used
    results = []
    start = time.perf_counter()
    for D, m, n in cells:
        r = cube.orbit_count_oracle(D, m, n)
        results.append([r.count, r.stable, r.cubes_enumerated])
    return {"loop_s": time.perf_counter() - start, "cells": results}


if __name__ == "__main__":
    print(json.dumps(loop(json.loads(sys.argv[1]))))
