"""End-to-end tests of the command-line interface (in-process via main)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cubezeta
from cubezeta.cli import main
from cubezeta.orbits import B


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_values(capsys):
    assert run(capsys, "count", "B", "--D", "45", "--m", "3", "--n", "3") == (0, "16\n", "")
    assert run(capsys, "count", "A", "--d", "5", "--a", "4") == (0, "2\n", "")
    assert run(capsys, "count", "a3", "--D", "25", "--m", "5", "--n", "5") == (0, "5\n", "")


def test_count_missing_flag_exits_2(capsys):
    code, out, err = run(capsys, "count", "B", "--D", "45", "--m", "3")
    assert code == 2 and out == ""
    assert "missing required flag" in err


def test_count_domain_error_exits_2(capsys):
    code, out, err = run(capsys, "count", "B", "--D", "0", "--m", "1", "--n", "1")
    assert code == 2 and "error:" in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["definitely-not-a-subcommand"]) == 2
    capsys.readouterr()


def test_orbits_with_oracle(capsys):
    code, out, err = run(capsys, "orbits", "--D", "5", "--m", "1", "--n", "1", "--oracle")
    assert code == 0
    assert out.splitlines() == ["B = 4", "oracle = 4", "stable = true", "agree = true"]


def test_orbits_oracle_honours_slack_zero(capsys):
    code, out, _ = run(capsys, "orbits", "--D", "9", "--m", "1", "--n", "1", "--oracle",
                       "--entry-bound", "1", "--slack", "0")
    assert code == 1
    assert out.splitlines() == ["B = 4", "oracle = 24", "stable = false", "agree = false"]


def test_orbits_oracle_negative_box_exits_2(capsys):
    for bound, slack in (("-3", "-2"), ("-1", "5"), ("2", "-1")):
        code, out, err = run(capsys, "orbits", "--D", "9", "--m", "1", "--n", "1", "--oracle",
                             "--entry-bound", bound, "--slack", slack)
        assert code == 2 and out == ""
        assert "nonnegative" in err


def test_oracle_sweep_rejects_bad_ranges_with_exit_2():
    script = Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py"
    src = str(Path(cubezeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for flag, value in (("--slack", "-1"), ("--entry-bound", "-2"), ("--Dmax", "-3"),
                        ("--Mmax", "0")):
        proc = subprocess.run([sys.executable, str(script), flag, value], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == "", flag
        assert f"error: {flag} must be" in proc.stderr, flag
    proc = subprocess.run([sys.executable, str(script), "--Dmax", "5", "--Mmax", "1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("5 cells, 0 mismatches, 0 unstable, ")


def test_pairs_listing(capsys):
    code, out, _ = run(capsys, "pairs", "--D", "5", "--m", "1", "--n", "1")
    assert code == 0
    assert out.splitlines() == ["1 1 -1 -1"]


def test_ppart_polynomials_and_evaluation(capsys):
    code, out, _ = run(capsys, "ppart", "--kmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 27
    assert lines[0] == "0 0 0 1"
    assert "0 1 1 0" in lines
    code, out, _ = run(capsys, "ppart", "--kmax", "2", "--p", "3")
    rows = {tuple(map(int, line.split()[:3])): int(line.split()[3]) for line in out.splitlines()}
    assert rows[(1, 2, 1)] == 3  # the coefficient p at p = 3


def test_table_B(capsys):
    code, out, _ = run(capsys, "table", "B", "--Dmax", "5", "--Mmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,m,n,B"
    assert len(lines) == 1 + 5 * 4  # discriminants -4, -3, 1, 4, 5 times a 2x2 box
    assert "-4,1,1,4" in lines
    for line in lines[1:]:
        D, m, n, b = map(int, line.split(","))
        assert b == B(D, m, n)


def test_table_a3_header(capsys):
    code, out, _ = run(capsys, "table", "a3", "--Dmax", "5", "--Mmax", "2")
    assert code == 0
    assert out.splitlines()[0] == "D,m,n,a,chi_m,chi_n"


def test_moduli_jsonl(capsys):
    code, out, _ = run(capsys, "moduli", "--D", "9", "--a1", "3", "--a2", "3")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 4
    assert all(sorted(r) == ["D", "a1", "a2", "b1", "b2", "fiber"] for r in rows)
    assert sum(r["fiber"] for r in rows) == B(9, 3, 3)


def test_verify_thm44_passes(capsys):
    code, out, _ = run(capsys, "verify", "thm44", "--kmax", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["status"] == "pass"
    assert doc["findings"] == []


def test_verify_prop21_passes_with_findings(capsys):
    code, out, _ = run(capsys, "verify", "prop21", "--Dmax", "12", "--M", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass_with_findings"
    assert doc["checked"] == 12
    assert "2-adic" in doc["findings"][0]


def test_verify_thm13_single_cell(capsys):
    code, out, _ = run(capsys, "verify", "thm13", "--D", "9", "--a1", "9", "--a2", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass_with_findings"
    assert doc["first_mismatch"]["sigma1_sum"] == 144
    assert doc["first_mismatch"]["B"] == 84


def test_zeta_value_and_warning(capsys):
    code, out, err = run(
        capsys, "zeta", "--s1", "1.5", "--s2", "1.5", "--w", "1.5", "--Dmax", "20", "--Mmax", "20"
    )
    assert code == 0 and err == ""
    assert out.strip() == "72.4419205059478"
    code, out, err = run(
        capsys, "zeta", "--s1", "0.9", "--s2", "1.5", "--w", "1.5", "--Dmax", "10", "--Mmax", "10"
    )
    assert code == 0
    assert "convergence" in err or "heuristic" in err


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(["table", "B", "--Dmax", "5", "--Mmax", "2", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().splitlines()[0] == "D,m,n,B"


def test_thread_count_does_not_change_output(capsys):
    _, out1, _ = run(capsys, "table", "B", "--Dmax", "20", "--Mmax", "3", "--threads", "1")
    _, out2, _ = run(capsys, "table", "B", "--Dmax", "20", "--Mmax", "3", "--threads", "2")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ("prop25", "--Dmax", "-5"),
    ("thm12", "--Dmax", "-5"),
    ("prop21", "--Dmax", "0"),
    ("cor24", "--Dmax", "0", "--M", "0"),
    ("thm13", "--Dmax", "4", "--amax", "0"),
    ("thm13", "--Dmax", "4", "--amax", "-3"),
    ("thm44", "--kmax", "-1"),
    ("siegel", "--Dmax", "4", "--T", "0"),
])
def test_verify_rejects_a_range_that_checks_nothing(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --") and "must be at least" in err


@pytest.mark.parametrize("argv", [
    ("thm13", "--D", "5"),
    ("thm13", "--D", "5", "--a1", "1", "--Dmax", "4", "--amax", "2"),
    ("thm13", "--a1", "1", "--a2", "1"),
    ("thm13", "--D", "5", "--a1", "1", "--a2", "1", "--Dmax", "4"),
    ("thm13", "--D", "5", "--a1", "1", "--a2", "1", "--amax", "2"),
    ("cor24", "--D", "5", "--a1", "1", "--a2", "1", "--Dmax", "4", "--M", "4"),
    ("prop21", "--D", "5", "--Dmax", "4", "--M", "4"),
])
def test_verify_cell_flags_go_together_and_only_with_thm13(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: --D, --a1 and --a2 select one thm13 cell")
