"""A fixed piece of work that times the host, not the program.

Started as a fresh process between the program's own runs:

    python3 perfbench/probe.py

It costs what a short ``cubezeta`` run costs apart from cubezeta itself:
interpreter start-up, the standard-library modules the package imports, and
a pure-Python loop of integer arithmetic, dict updates and small tuples.  It
imports nothing from cubezeta, so a change to the program leaves its time
alone, while a slower or busier host makes it slower with the program.
"""

import argparse  # noqa: F401  (imported for their load time, as the CLI does)
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import json  # noqa: F401
import math


def work(n: int = 40000) -> int:
    counts: dict = {}
    total = 0
    for k in range(1, n):
        key = (k % 97, k % 13)
        counts[key] = counts.get(key, 0) + k * k % 1009
        total += math.gcd(k, 360360)
    return total + sum(counts.values())


if __name__ == "__main__":
    work()
