"""Byte-for-byte verify and moduli output against recorded golden files.

``golden/commands.json`` lists each command's argv and exit code; its stdout
is ``golden/<name>.out``.  The files were recorded from the CLI before the
verify pipeline was consolidated, so any change in the JSON reports or the
exit codes shows here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubezeta
from cubezeta.cli import IDENTITIES

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("command", COMMANDS, ids=[c["name"] for c in COMMANDS])
def test_cli_output_matches_golden_bytes(command):
    src = str(Path(cubezeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "cubezeta.cli", *command["argv"]],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == command["exit"], proc.stderr
    assert proc.stdout == (GOLDEN / f"{command['name']}.out").read_bytes()


def test_every_identity_has_a_golden_command():
    pinned = {c["argv"][1] for c in COMMANDS if c["argv"][0] == "verify"}
    assert set(IDENTITIES) <= pinned, sorted(set(IDENTITIES) - pinned)
