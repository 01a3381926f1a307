"""Byte-for-byte verify and moduli output against recorded golden files.

``golden/commands.json`` lists each command's argv and exit code; its stdout
is ``golden/<name>.out``.  The files were recorded from the CLI before the
verify pipeline was consolidated, so any change in the JSON reports or the
exit codes shows here.  The ``verify_<id>_default`` files pin every check at
its default range, and ``verify_thm12_bench`` and ``verify_thm13_bench`` the
benchmark's two cut ranges; they were recorded before the checks' per-instance
kernels were reworked.  ``verify_thm13_1200_40`` pins thm13 at discriminants
with up to 8 divisor levels and an amax above the default; it was recorded
before the scan read its aggregates from level grids.  ``golden/usage.json`` holds the stdout, stderr and
exit code of every ``--help`` and of argparse's usage errors, recorded from
the CLI before it read a plain command line without argparse, at 80 columns.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubezeta
import cubezeta.cli as cli_module
from cubezeta.commands import IDENTITIES

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())
USAGE = json.loads((GOLDEN / "usage.json").read_text())


def cli(argv: list, **env) -> subprocess.CompletedProcess:
    """``python -m cubezeta.cli argv`` with this checkout's src on PYTHONPATH."""
    src = str(Path(cubezeta.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "cubezeta.cli", *argv],
                          env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_cli_output_matches_golden_bytes(command):
    proc = cli(command["argv"])
    assert proc.returncode == command["exit"], proc.stderr
    assert proc.stdout == (GOLDEN / f"{command['name']}.out").read_bytes()


@pytest.mark.parametrize("case", USAGE, ids=[c["name"] for c in USAGE])
def test_help_and_usage_errors_match_golden_bytes(case):
    proc = cli(case["argv"], COLUMNS="80")
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        case["exit"], case["stdout"], case["stderr"])


def test_usage_goldens_cover_every_command_and_the_top_level():
    commands = {c["argv"][0] for c in USAGE if c["argv"][1:] == ["--help"]}
    assert commands == set(cli_module._COMMANDS)
    assert {"help", "no_arguments", "unknown_command", "unknown_flag",
            "count_without_what"} <= {c["name"] for c in USAGE}


def test_every_identity_has_a_golden_command():
    pinned = {c["argv"][1] for c in COMMANDS if c["argv"][0] == "verify"}
    assert set(IDENTITIES) <= pinned, sorted(set(IDENTITIES) - pinned)
