#!/usr/bin/env python3
"""Record the benchmark's results as BENCH_<pr>.json at the repository root.

Runs perfbench/run.py one run at a time on every workload: seeds 1-3 with
--trace 0 (BENCHMARK.json's run_seconds each), then seed 1 with --trace 1.
Keeps each run's "# env" line and final JSON line, the checkout's git SHA,
whether src/ has uncommitted changes and the line total of the Python files
under src/.  About ten minutes in all.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("oracle", "table", "verify", "requests")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True).stdout.strip()


def bench(workload: str, seed: int, trace: int, seconds: float) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    run = {"workload": workload, "seed": seed, "trace": trace, "exit": done.returncode}
    lines = done.stdout.splitlines()
    env = [line[len("# env "):] for line in lines if line.startswith("# env ")]
    if done.returncode == 0 and env:
        run.update(env=json.loads(env[0]), result=json.loads(lines[-1]))
    else:
        run["stderr"] = done.stderr[-2000:]
    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in the file name")
    pr = parser.parse_args().pr
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = [bench(workload, seed, trace, seconds)
            for workload in WORKLOADS for seed, trace in ((1, 0), (2, 0), (3, 0), (1, 1))]
    record = {"pr": pr, "git_sha": git("rev-parse", "HEAD") or None,
              "src_dirty": bool(git("status", "--porcelain", "--", "src")),
              "src_lines": sum(len(path.read_text().splitlines())
                               for path in (ROOT / "src").rglob("*.py")),
              "run_seconds": seconds, "runs": runs}
    (ROOT / f"BENCH_{pr}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    failed = sum(not run.get("result", {}).get("correct") for run in runs)
    print(f"wrote BENCH_{pr}.json: {len(runs)} runs, {failed} failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
