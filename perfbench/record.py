"""Record the answers the benchmark checks against into data/expected.json.

Run once, from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record.py

It records the cube count of every criterion-1 cell (|D| <= 60,
1 <= m <= n <= 5; the oracle workload's cost strata), the stdout digest
and row count of each ``table B`` size, and the instance count of each
``verify`` invocation.  It takes about five minutes.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads as wl  # noqa: E402
from cubezeta import is_discriminant, orbit_count_oracle  # noqa: E402


def main() -> None:
    cells = [
        [D, m, n, orbit_count_oracle(D, m, n).cubes_enumerated]
        for D in range(-60, 61) if is_discriminant(D)
        for m in range(1, 6) for n in range(m, 6)
    ]
    tables, verifies = {}, {}
    with wl.Launcher() as launcher:
        for size in wl.SIZES.values():
            code, out, _, _ = wl.run_cli(wl.table_argv(size, 2), launcher)
            if code != 0:
                raise SystemExit(f"table {size['table']} exited {code}")
            tables["%dx%d" % size["table"]] = {
                "sha256": hashlib.sha256(out).hexdigest(),
                "rows": out.count(b"\n") - 1,
            }
            for args in size["verify"]:
                code, out, _, _ = wl.run_cli(["verify", *args, "--threads", "1"], launcher)
                report = json.loads(out) if code == 0 else {}
                if report.get("status") != wl.VERIFY_STATUS[args[0]]:
                    raise SystemExit(f"verify {args}: exit {code}, status {report.get('status')}")
                verifies[" ".join(["verify", *args])] = report["checked"]
    with open(wl.EXPECTED_PATH, "w") as handle:
        handle.write(dump({"oracle_cells": cells, "table": tables, "verify": verifies}))


def dump(data: dict) -> str:
    """JSON with one list item or one mapping entry per line."""
    parts = []
    for key, value in data.items():
        if isinstance(value, list):
            rows = [json.dumps(item) for item in value]
            parts.append(f'  "{key}": [\n    ' + ",\n    ".join(rows) + "\n  ]")
        else:
            rows = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in value.items()]
            parts.append(f'  "{key}": {{\n    ' + ",\n    ".join(rows) + "\n  }")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main()
