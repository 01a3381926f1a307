"""Starts the program's processes for the benchmark and reports what each cost.

A child's peak RSS (ru_maxrss from os.wait4) is at least the RSS of the
process that started it: exec() carries the parent's high-water mark over
into the child.  The benchmark process grows (it holds table output of
30 MB and more), so it does not start the measured processes itself; this
small process does.

Protocol: each stdin line is JSON [argv, stdout_path]; argv runs with its
stdout written to stdout_path, and one JSON line [exit code, wall seconds,
peak RSS MB] is printed when it has ended.  Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    argv, stdout_path = json.loads(line)
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, wall, usage.ru_maxrss / 1024]), flush=True)
