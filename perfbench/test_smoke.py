"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

Run from the repository root (takes about a minute):

    python3 perfbench/test_smoke.py
"""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench_args(workload: str, trace: int) -> list:
    return ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--tiny"]


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = subprocess.run(
                        [sys.executable, os.path.join(HERE, "run.py"), *bench_args(workload, trace)],
                        capture_output=True, text=True, cwd=ROOT, timeout=300,
                    )
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual((result["correct"], result["failed"]), (True, 0))
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertIsInstance(result["metrics"][name]["value"], (int, float))
                        self.assertRegex(
                            done.stdout, rf"(?m)^{re.escape(name)} +\S+ {re.escape(unit)}$"
                        )

    def test_a_corrupted_expected_answer_is_counted_as_failed(self):
        corrupt = {
            "oracle": mock.patch.object(workloads.orbits, "B", lambda D, m, n: -1),
            "table": mock.patch.dict(workloads.expected()["table"], {"30x6": {"sha256": "0", "rows": 1}}),
            "verify": mock.patch.object(workloads, "VERIFY_STATUS", dict.fromkeys(workloads.VERIFY_STATUS, "fail")),
            "requests": mock.patch.object(reference, "B", lambda D, m, n: -1),
        }
        for workload, patch in corrupt.items():
            with self.subTest(workload=workload), patch:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    self.assertEqual(run.main(bench_args(workload, 0)), 0)
                result = json.loads(out.getvalue().splitlines()[-1])
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])

    def test_reference_square_root_counts(self):
        from cubezeta.congruence import sqrt_count_direct

        for p in (2, 3, 5, 7):
            for e in range(1, 12):
                q = p**e
                if q > 3000:
                    break
                for d in range(-q, q):
                    self.assertEqual(reference._prime_power_count(d, p, e),
                                     sqrt_count_direct(d % q, q), (d, p, e))
        for n in (1, 2**45, 1000003 * 999983, 65537**2 * 12):
            factors = reference.factor(n)
            self.assertEqual(math.prod(p**e for p, e in factors.items()), n)
            self.assertTrue(all(reference.is_prime(p) for p in factors))

    def test_exits_nonzero_without_the_program(self):
        with mock.patch.object(run, "SRC", os.path.join(HERE, "no-such-dir")):
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(run.main(bench_args("table", 0)), 2)


if __name__ == "__main__":
    unittest.main()
