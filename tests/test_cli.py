"""End-to-end tests of the command-line interface (in-process via main)."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubezeta
import cubezeta.commands.verify
from cubezeta.cli import main
from cubezeta.commands import _discriminant_count, _discriminants, _map_ordered
from cubezeta.commands.table import _TABLE_CROSSOVER, _row_chunk_B, _row_chunk_a3, _workers
from cubezeta.commands.verify import _CHECKS, _aggregate_reports, _check_cost, _odd_integers
import cubezeta.identities
import cubezeta.ppart
from cubezeta.congruence import chi, hat, sqrt_count
from cubezeta.identities import IdentityReport
from cubezeta.orbits import B
from cubezeta.quadring import verify_thm13_scan
from cubezeta.wmds import a_coeff3


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


@pytest.mark.parametrize("D", ["3", "0"])
def test_a_non_discriminant_gets_one_message_from_every_command(capsys, D):
    error = (2, "", "error: D must be nonzero and = 0 or 1 mod 4\n")
    assert run(capsys, "moduli", "--D", D, "--a1", "1", "--a2", "1") == error
    assert run(capsys, "verify", "thm13", "--D", D, "--a1", "1", "--a2", "1") == error


def test_unknown_subcommand_exits_2(capsys):
    assert main(["definitely-not-a-subcommand"]) == 2
    capsys.readouterr()


def test_orbits_with_oracle(capsys):
    code, out, err = run(capsys, "orbits", "--D", "5", "--m", "1", "--n", "1", "--oracle")
    assert code == 0
    assert out.splitlines() == ["B = 4", "oracle = 4", "stable = true", "agree = true"]


def test_orbits_oracle_honours_slack_zero(capsys):
    # the divisor a = 1 of (m, n) = (2, 4) has g = 4, outside the outer box of
    # radius 3 at slack 0 but inside that of radius 8 at the default slack 5, so
    # only slack 0 flags the count, although it skips no orbit of this cell
    argv = ("orbits", "--D", "-12", "--m", "2", "--n", "4", "--oracle", "--entry-bound", "2")
    code, out, _ = run(capsys, *argv, "--slack", "0")
    assert code == 1
    assert out.splitlines() == ["B = 8", "oracle = 8", "stable = false", "agree = true"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["B = 8", "oracle = 8", "stable = true", "agree = true"]


def test_orbits_oracle_is_unstable_when_the_box_skips_a_divisor(capsys):
    # the box of radius 3 skips the divisor a = 1 (g = 4), whose orbits make up
    # half of B = 16; the count of the divisor a = 2 alone is not called stable
    code, out, _ = run(capsys, "orbits", "--D", "9", "--m", "2", "--n", "4", "--oracle",
                       "--entry-bound", "2", "--slack", "0")
    assert code == 1
    assert out.splitlines() == ["B = 16", "oracle = 8", "stable = false", "agree = false"]


def test_orbits_oracle_negative_box_exits_2(capsys):
    for bound, slack in (("-3", "-2"), ("-1", "5"), ("2", "-1")):
        code, out, err = run(capsys, "orbits", "--D", "9", "--m", "1", "--n", "1", "--oracle",
                             "--entry-bound", bound, "--slack", slack)
        assert code == 2 and out == ""
        assert "nonnegative" in err


def src_env() -> dict:
    """The environment with this checkout's src on PYTHONPATH."""
    src = str(Path(cubezeta.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def python_with_src(*args) -> subprocess.CompletedProcess:
    """Run the interpreter on args with this checkout's src on PYTHONPATH."""
    return subprocess.run([sys.executable, *args], env=src_env(), capture_output=True,
                          text=True, timeout=60)


def oracle_sweep(*argv):
    script = Path(__file__).resolve().parents[1] / "scripts" / "oracle_sweep.py"
    return python_with_src(str(script), *argv)


def test_oracle_sweep_rejects_bad_ranges_with_exit_2():
    for flag, value in (("--slack", "-1"), ("--entry-bound", "-2"), ("--Dmax", "-3"),
                        ("--Mmax", "0")):
        proc = oracle_sweep(flag, value)
        assert proc.returncode == 2 and proc.stdout == "", flag
        assert f"error: {flag} must be" in proc.stderr, flag
    proc = oracle_sweep("--Dmax", "5", "--Mmax", "1", "--entry-bound", "100000")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: D=-4 m=1 n=1: oracle box needs about ")
    proc = oracle_sweep("--Dmax", "5", "--Mmax", "1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("5 cells, 0 mismatches, 0 unstable, 74144 cubes enumerated, ")


def test_oracle_with_no_cube_in_the_inner_box_is_unstable(capsys):
    # entry bound 0 admits no cube (a != 0), though the slice holds 96
    code, out, _ = run(capsys, "orbits", "--D", "5", "--m", "1", "--n", "1", "--oracle",
                       "--entry-bound", "0", "--slack", "0")
    assert code == 1
    assert out.splitlines() == ["B = 4", "oracle = 0", "stable = false", "agree = false"]
    # an empty slice is exact: 5 is no square mod 4n = 8, so B = 0
    code, out, _ = run(capsys, "orbits", "--D", "5", "--m", "1", "--n", "2", "--oracle",
                       "--entry-bound", "0", "--slack", "0")
    assert code == 0
    assert out.splitlines() == ["B = 0", "oracle = 0", "stable = true", "agree = true"]
    proc = oracle_sweep("--Dmax", "5", "--Mmax", "1", "--entry-bound", "0", "--slack", "0")
    assert proc.returncode == 1
    assert "5 cells, 5 mismatches, 5 unstable, " in proc.stdout


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


def test_verify_prop21_at_the_least_cutoff(capsys):
    # 2-adic local data deeper than the truncated printed factor (d = 16, 64)
    code, out, _ = run(capsys, "verify", "prop21", "--Dmax", "64", "--M", "1")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_verify_siegel_caps_T_on_the_largest_modulus_read(capsys):
    # the 2-adic route reads 2^(T+1), so T = 62 must drop to 61 at p = 2
    code, out, err = run(capsys, "verify", "siegel", "--Dmax", "1", "--T", "62", "--threads", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["status"] == "pass"
    # a huge T is capped at once, not stepped down one degree at a time
    proc = python_with_src("-m", "cubezeta.cli", "verify", "siegel", "--Dmax", "1",
                           "--T", str(10**9), "--threads", "1")
    assert proc.returncode == 0 and json.loads(proc.stdout)["status"] == "pass"


_THM44_FAIL = """{
  "checked": 2,
  "findings": [],
  "first_mismatch": {
    "instance": {
      "kmax": 3,
      "route": "polynomial"
    },
    "k": 3,
    "l": 2,
    "lhs": [
      0,
      -1,
      1
    ],
    "rhs": [
      0,
      0,
      1
    ],
    "t": 2
  },
  "identity": "thm44",
  "params": {
    "kmax": 3
  },
  "schema": 1,
  "status": "fail"
}
"""

_SIEGEL_FAIL = """{
  "checked": 25,
  "findings": [],
  "first_mismatch": {
    "instance": {
      "T": 7,
      "d": -8,
      "p": 2
    },
    "l": 2,
    "lhs": 1,
    "rhs": 0
  },
  "identity": "siegel",
  "params": {
    "Dmax": 8,
    "T": 6
  },
  "schema": 1,
  "status": "fail"
}
"""


def test_verify_thm44_failing_report_bytes(capsys, monkeypatch):
    monkeypatch.setattr(cubezeta.ppart, "_NUMERATOR", cubezeta.ppart._NUMERATOR[:-1])
    assert run(capsys, "verify", "thm44", "--kmax", "3", "--threads", "1") == (1, _THM44_FAIL, "")


def test_verify_siegel_failing_report_bytes(capsys, monkeypatch):
    monkeypatch.setattr(cubezeta.identities, "sqrt_count",
                        lambda d, a: sqrt_count(d, a) + (a == 8))
    assert run(capsys, "verify", "siegel", "--Dmax", "8", "--T", "6", "--threads", "1") == (
        1, _SIEGEL_FAIL, "")


def _bump(builder, at):
    """``builder`` with one added to its coefficient at index ``at``."""
    return lambda *args: [c + (n == at) for n, c in enumerate(builder(*args))]


_CORRECTED_ALSO_FAILS = {
    "prop21": ("_corrected_two_part", 8, 5, 5,
               {"n": 4, "lhs": 2, "rhs": 0, "instance": {"M": 12, "d": -4}},
               "corrected form also disagrees at n=8"),
    "cor24": ("_series_p_prime", 4, 5, 5,
              {"n": 4, "lhs": 0, "rhs": 1, "instance": {"M": 12, "d": -4}},
              cubezeta.identities._PREFACTOR_NOTE),
    "prop25": ("_series_zeta_odd_2s_inverse", 4, 3, 4,
               {"n": 9, "lhs": 0, "rhs": 2, "instance": {"D": -3, "M": 12}},
               "damped form also disagrees at n=4"),
    "thm12": ("_series_zeta_odd_2s_inverse", 4, 3, 4,
              {"m": 1, "n": 9, "lhs": 0, "rhs": 4, "instance": {"D": -3, "M": 12}},
              "damped form also disagrees at (m, n)=(1, 4)"),
}


@pytest.mark.parametrize("identity", sorted(_CORRECTED_ALSO_FAILS))
def test_verify_failing_report_bytes_when_the_corrected_form_also_fails(
        capsys, monkeypatch, identity):
    builder, at, Dmax, checked, first, finding = _CORRECTED_ALSO_FAILS[identity]
    monkeypatch.setattr(cubezeta.identities, builder,
                        _bump(getattr(cubezeta.identities, builder), at))
    expected = {"checked": checked, "findings": [finding], "first_mismatch": first,
                "identity": identity, "params": {"Dmax": Dmax, "M": 12}, "schema": 1,
                "status": "fail"}
    assert run(capsys, "verify", identity, "--Dmax", str(Dmax), "--M", "12",
               "--threads", "1") == (1, json.dumps(expected, indent=2, sort_keys=True) + "\n", "")


def _report(status, *findings, instance=0):
    return IdentityReport("test", {"i": instance}, status,
                          None if status == "equal" else {"n": instance}, findings)


def test_aggregate_reports_rule():
    known, mismatch = "known_p2_discrepancy", "mismatch"
    reports = [_report(known, "f1", instance=1), _report(mismatch, "f2", instance=2),
               _report(known, "f3", instance=3), _report(mismatch, "f4", instance=4)]
    doc = _aggregate_reports("test", {}, reports)
    assert (doc["status"], doc["checked"]) == ("fail", 4)
    assert doc["first_mismatch"] == {"instance": {"i": 2}, "n": 2}
    assert doc["findings"] == ["f2"]
    assert _aggregate_reports("test", {}, iter(reports)) == doc
    reports = [_report("equal", instance=1), _report(known, "f1", instance=2),
               _report(known, "f1", "f2", instance=3)]
    doc = _aggregate_reports("test", {"M": 5}, reports)
    assert (doc["status"], doc["params"]) == ("pass_with_findings", {"M": 5})
    assert doc["first_mismatch"] == {"instance": {"i": 2}, "n": 2}
    assert doc["findings"] == ["f1", "f2"]
    assert _aggregate_reports("test", {"M": 5}, iter(reports)) == doc
    reports = [_report("equal"), _report("equal")]
    doc = _aggregate_reports("test", {}, reports)
    assert (doc["status"], doc["first_mismatch"], doc["findings"]) == ("pass", None, [])
    assert sorted(doc) == ["checked", "findings", "first_mismatch", "identity", "params",
                           "schema", "status"]
    assert _aggregate_reports("test", {}, iter(reports)) == doc


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


@pytest.mark.parametrize("s1, message", [
    ("-400", "error: a term of the sum overflows a float\n"),  # 2**400 as a float
    ("nan", "error: exponents s1, s2, w must be finite\n"),
    ("inf", "error: exponents s1, s2, w must be finite\n"),
], ids=["overflow", "nan", "inf"])
def test_zeta_exits_2_on_overflow_and_non_finite_exponents(s1, message):
    argv = ["zeta", "--s1", s1, "--s2", "1", "--w", "1", "--Dmax", "8", "--Mmax", "8"]
    proc = python_with_src("-m", "cubezeta.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


@pytest.mark.parametrize("command, flag, empty", [
    (("table", "B", "--Mmax", "3"), "--Dmax", "D,m,n,B\n"),
    (("table", "a3", "--Dmax", "5"), "--Mmax", "D,m,n,a,chi_m,chi_n\n"),
    (("zeta", "--s1", "2", "--s2", "2", "--w", "2", "--Mmax", "3"), "--Dmax", "0\n"),
    (("zeta", "--s1", "2", "--s2", "2", "--w", "2", "--Dmax", "5"), "--Mmax", "0\n"),
], ids=["table-B-Dmax", "table-a3-Mmax", "zeta-Dmax", "zeta-Mmax"])
def test_range_commands_reject_a_negative_box(capsys, command, flag, empty):
    error = "error: --Dmax and --Mmax must be nonnegative\n"
    assert run(capsys, *command, flag, "-3") == (2, "", error)
    # a zero bound is an empty box, not an error
    assert run(capsys, *command, flag, "0") == (0, empty, "")


@pytest.mark.parametrize("D, m", [("-999999", "1"), ("-4", "1000000000000")])
def test_oracle_above_its_work_cap_exits_2_at_once(D, m):
    start = time.perf_counter()
    proc = python_with_src("-m", "cubezeta.cli", "orbits", "--D", D, "--m", m, "--n", "1",
                           "--oracle")
    assert time.perf_counter() - start < 5
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: oracle ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code = main(["table", "B", "--Dmax", "5", "--Mmax", "2", "--output", str(target)])
    assert code == 0 and capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == "D,m,n,B"
    _, out, _ = run(capsys, "table", "B", "--Dmax", "5", "--Mmax", "2")
    assert target.read_bytes() == out.encode()


def test_output_that_cannot_be_opened_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "count", "A", "--d", "5", "--a", "4", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


def test_output_is_opened_before_the_work(tmp_path, capsys, monkeypatch):
    def boom(*args):
        raise AssertionError("the check ran")

    # the verifier is looked up by name when the check runs; _map_ordered runs it
    monkeypatch.setattr(cubezeta.quadring, "verify_thm13_scan", boom)
    monkeypatch.setattr(cubezeta.commands.verify, "_map_ordered", boom)
    target = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "verify", "thm13", "--threads", "1", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err


def test_closed_stdout_exits_2_without_a_traceback():
    argv = ["table", "B", "--Dmax", "600", "--Mmax", "40", "--threads", "1"]
    proc = subprocess.Popen([sys.executable, "-m", "cubezeta.cli", *argv], env=src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "D,m,n,B\n"
    proc.stdout.close()  # as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "Exception ignored" not in err, err


@pytest.mark.parametrize("argv, first", [
    (["pairs", "--D", "1", "--m", "614889782588491410", "--n", "614889782588491410"],
     "1 1 0 0\n"),
    (["moduli", "--D", "1", "--a1", "614889782588491410", "--a2", "614889782588491410"],
     '{"D": 1, "a1": -614889782588491410, "b1": 1, "a2": -614889782588491410, "b2": 1, '
     '"fiber": 1}\n'),
], ids=["pairs", "moduli"])
def test_a_product_of_a_billion_rows_streams_to_a_closed_stdout(argv, first):
    # m = n = 47 primorial: 2^15 roots a side, 2^30 (about 1.07e9) pairs, and
    # 2^32 class pairs with both orientations; the first rows are written as
    # soon as they are formed, so closing the pipe ends the run
    proc = subprocess.Popen([sys.executable, "-m", "cubezeta.cli", *argv], env=src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == first
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=10) == 2
    assert "Traceback" not in err and "Exception ignored" not in err, err


def pooled_box(what: str, Mmax: int) -> tuple[str, str, int]:
    """(Dmax, Mmax, rows): the least Dmax whose table starts a pool at --threads 2."""
    Dmax = _TABLE_CROSSOVER[what] // (Mmax * Mmax) - 2  # |D| <= Dmax holds about Dmax
    while _workers(2, what, _discriminant_count(Dmax) * Mmax * Mmax) == 1:
        Dmax += 1
    return str(Dmax), str(Mmax), _discriminant_count(Dmax) * Mmax * Mmax


def test_thread_count_does_not_change_output(capsys):
    # a box below every crossover, and for each kind one just above its own
    assert _workers(2, "B", 20 * 3 * 3) == _workers(2, "a3", 20 * 3 * 3) == 1
    for what, (Dmax, Mmax, rows) in [("B", ("20", "3", 20 * 3 * 3)), ("B", pooled_box("B", 40)),
                                     ("a3", pooled_box("a3", 30))]:
        argv = ("table", what, "--Dmax", Dmax, "--Mmax", Mmax)
        _, out1, _ = run(capsys, *argv, "--threads", "1")
        _, out2, _ = run(capsys, *argv, "--threads", "2")
        assert out1 == out2 and out1.count("\n") == 1 + rows


def test_pooled_table_in_a_fresh_process_matches_one_process(tmp_path):
    # above the crossover, so --threads 2 forks a pool from a fresh process,
    # whose workers inherit the orbits module that the table handler has run;
    # --output is closed before the process ends without teardown
    Dmax, Mmax, rows = pooled_box("B", 40)
    argv = ("-m", "cubezeta.cli", "table", "B", "--Dmax", Dmax, "--Mmax", Mmax)
    target = tmp_path / "table.csv"
    one, two, to_file = (python_with_src(*argv, "--threads", threads, *output)
                         for threads, output in (("1", ()), ("2", ()),
                                                 ("2", ("--output", str(target)))))
    assert (one.returncode, one.stderr) == (two.returncode, two.stderr) == (0, "")
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, "", "")
    assert two.stdout == one.stdout and one.stdout.count("\n") == 1 + rows
    assert target.read_bytes() == one.stdout.encode()


def test_a_pooled_table_to_a_closed_stdout_exits_2_and_leaves_no_process(tmp_path):
    # stderr goes to a file, so that a worker left running cannot block its read
    Dmax, Mmax, _ = pooled_box("B", 40)
    argv = ["table", "B", "--Dmax", Dmax, "--Mmax", Mmax, "--threads", "2"]
    with open(tmp_path / "stderr", "w+") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "cubezeta.cli", *argv], env=src_env(),
                                stdout=subprocess.PIPE, stderr=stderr, text=True,
                                start_new_session=True)
        try:
            assert proc.stdout.readline() == "D,m,n,B\n"
            proc.stdout.close()
            assert proc.wait(timeout=30) == 2
            with pytest.raises(ProcessLookupError):  # the pool's workers have ended too
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        stderr.seek(0)
        err = stderr.read()
    assert "Traceback" not in err and "Exception ignored" not in err, err


# A fresh process with an atexit handler and a module-level object whose
# __del__ runs only at interpreter teardown, each writing one line to stderr
_EXIT_PROBE = (
    "import atexit, importlib, runpy, sys\n"
    "atexit.register(lambda: print('atexit handler', file=sys.stderr))\n"
    "class Teardown:\n"
    "    def __del__(self):\n"
    "        print('teardown', file=sys.stderr)\n"
    "teardown = Teardown()\n"
    "sys.argv = ['cubezeta', 'count', 'A', '--d', '5', '--a', '4']\n"
)


@pytest.mark.parametrize("how", ["dash-m", "console-script"])
def test_a_process_runs_its_atexit_handlers_and_skips_the_teardown(how):
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^cubezeta = "(.*):(.*)"$', pyproject, re.M).groups()
    call = {"dash-m": "runpy.run_module('cubezeta.cli', run_name='__main__')",
            "console-script": f"getattr(importlib.import_module({module!r}), {function!r})()"}
    proc = python_with_src("-c", _EXIT_PROBE + call[how])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "atexit handler\n")


def test_a_closed_stdout_leaves_no_file_descriptor_open():
    # the lowest free descriptor is the same before and after main, so the
    # one opened on devnull for the closed stdout has been closed again
    code = (
        "import os, sys\n"
        "from cubezeta.cli import main\n"
        "def lowest_free():\n"
        "    fd = os.open(os.devnull, os.O_RDONLY)\n"
        "    os.close(fd)\n"
        "    return fd\n"
        "read, write = os.pipe()\n"
        "os.close(read)\n"
        "os.dup2(write, 1)\n"
        "os.close(write)\n"
        "before = lowest_free()\n"
        "assert main(['count', 'A', '--d', '5', '--a', '4']) == 2\n"
        "print(lowest_free() - before, file=sys.stderr)\n"
    )
    proc = python_with_src("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "0\n")


def test_output_still_buffered_at_exit_to_a_closed_stdout_exits_2():
    # help is written without a flush, so with stdout buffered only the flush
    # at exit meets the closed pipe
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "cubezeta.cli", "--help"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    assert (proc.wait(timeout=60), proc.stderr.read()) == (2, "")
    proc.stderr.close()


def test_a_process_with_no_stdout_writes_its_output_file(tmp_path):
    target = tmp_path / "out"
    argv = ["count", "A", "--d", "5", "--a", "4", "--output", str(target)]
    proc = subprocess.run([sys.executable, "-m", "cubezeta.cli", *argv], env=src_env(),
                          stderr=subprocess.PIPE, text=True, timeout=60,
                          preexec_fn=lambda: os.close(1))  # sys.stdout is None
    assert (proc.returncode, proc.stderr, target.read_text()) == (0, "", "2\n")


@pytest.mark.parametrize("what, module", [("B", "orbits"), ("a3", "wmds")])
def test_table_runs_its_row_module_before_the_pool_starts(what, module):
    code = (
        "import os, sys, types\n"
        "from cubezeta import cli\n"
        "from cubezeta.commands import table\n"
        "real = table._map_ordered\n"
        "def spy(fn, items, threads, count):  # where the pool would fork its workers\n"
        f"    lazy = type(sys.modules['cubezeta.{module}']) is not types.ModuleType\n"
        "    print('lazy' if lazy else 'run', file=sys.stderr)\n"
        "    return real(fn, items, threads, count)\n"
        "table._map_ordered = spy\n"
        f"argv = ['table', '{what}', '--Dmax', '4', '--Mmax', '2', '--output', os.devnull]\n"
        "assert cli.main(argv) == 0\n"
    )
    proc = python_with_src("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "run\n")


@pytest.mark.parametrize("argv", [
    None,
    ["count", "A", "--d", "5", "--a", "4"],
    ["table", "B", "--Dmax", "20", "--Mmax", "3", "--threads", "2"],
], ids=["import", "count-A", "small-table-threads-2"])
def test_one_process_commands_never_load_multiprocessing(argv):
    code = (
        "import sys\n"
        "from cubezeta.cli import main\n"
        f"argv = {argv!r}\n"
        "assert argv is None or main(argv) == 0\n"
        "pool = ('multiprocessing', 'concurrent.futures.process')\n"
        "print(sorted(name for name in pool if name in sys.modules), file=sys.stderr)\n"
    )
    proc = python_with_src("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_start_up_loads_neither_dataclasses_nor_json():
    code = (
        "import sys\n"
        "unwanted = ('dataclasses', 'inspect', 'json')\n"
        "from cubezeta.cli import main\n"
        "print(sorted(name for name in unwanted if name in sys.modules))\n"
        "assert main(['count', 'A', '--d', '5', '--a', '4']) == 0\n"
        "print(sorted(name for name in unwanted if name in sys.modules))\n"
        "assert main(['verify', 'thm13', '--D', '45', '--a1', '3', '--a2', '3']) == 0\n"
    )
    proc = python_with_src("-c", code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["[]", "2", "[]"]
    assert json.loads("".join(lines[3:]))["status"] == "pass"


_LIBRARY = ("congruence", "cube", "identities", "orbits", "ppart", "quadring", "wmds")


def test_modules_are_registered_at_import_and_run_on_first_use():
    code = (
        "import os, sys, types\n"
        f"library = {_LIBRARY!r}\n"
        "def ran():  # a registered module stays a lazy subclass until its code runs\n"
        "    return [m for m in library if type(sys.modules['cubezeta.' + m]) is types.ModuleType]\n"
        "def handlers():  # the command handler modules imported so far\n"
        "    return sorted(m.rpartition('.')[2] for m in sys.modules\n"
        "                  if m.startswith('cubezeta.commands.'))\n"
        "import cubezeta\n"
        "print(ran())\n"
        "from cubezeta.cli import main\n"
        "print(ran(), handlers())\n"
        "assert main(['count', 'A', '--d', '5', '--a', '4']) == 0\n"
        "print(ran(), handlers())\n"
        "def runs(*argv):  # the modules that have run after the command, written to devnull\n"
        "    assert main([*argv, '--output', os.devnull]) == 0\n"
        "    print(ran(), handlers())\n"
        "runs('count', 'B', '--D', '5', '--m', '2', '--n', '2')\n"
        "runs('ppart', '--kmax', '2')\n"
        "runs('moduli', '--D', '-36', '--a1', '2', '--a2', '4')\n"
        "runs('verify', 'thm13', '--D', '-36', '--a1', '2', '--a2', '4')\n"
        "runs('pairs', '--D', '5', '--m', '1', '--n', '1', '--cubes')\n"
        "from cubezeta import cube\n"
        "print(type(cube) is types.ModuleType, ran())\n"
        "for name in cubezeta.__all__:\n"
        "    obj = getattr(cubezeta, name)\n"
        "    if name in library:\n"
        "        assert obj is sys.modules['cubezeta.' + name], name\n"
        "    else:  # the object of the module that defines it\n"
        "        assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "print(len(cubezeta.__all__), ran() == list(library))\n"
    )
    proc = python_with_src("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]",
        "['congruence'] []",  # every command reads it, so cli imports it
        "2",
        "['congruence'] ['count']",
        "['congruence', 'orbits'] ['count']",  # count B: no cube
        "['congruence', 'orbits', 'ppart', 'wmds'] ['count', 'ppart']",  # no identities
        # moduli: no cube, no identities
        "['congruence', 'orbits', 'ppart', 'quadring', 'wmds'] ['count', 'moduli', 'ppart']",
        # one thm13 cell: the same
        "['congruence', 'orbits', 'ppart', 'quadring', 'wmds'] "
        "['count', 'moduli', 'ppart', 'verify']",
        # pairs --cubes
        "['congruence', 'cube', 'orbits', 'ppart', 'quadring', 'wmds'] "
        "['count', 'moduli', 'pairs', 'ppart', 'verify']",
        "True ['congruence', 'cube', 'orbits', 'ppart', 'quadring', 'wmds']",
        "74 True",
    ]


def test_each_verify_check_runs_only_the_library_modules_it_reads():
    code = (
        "import os, sys, types\n"
        f"library = {_LIBRARY!r}\n"
        "def ran():  # a registered module stays a lazy subclass until its code runs\n"
        "    return [m for m in library if type(sys.modules['cubezeta.' + m]) is types.ModuleType]\n"
        "from cubezeta.cli import main\n"
        "def runs(*argv):  # the modules that have run after the check, written to devnull\n"
        "    assert main(['verify', *argv, '--threads', '1', '--output', os.devnull]) == 0\n"
        "    print(ran())\n"
        "runs('prop21', '--Dmax', '12', '--M', '30')\n"
        "runs('cor24', '--Dmax', '12', '--M', '30')\n"
        "runs('siegel', '--Dmax', '20', '--T', '6')\n"
        "runs('prop25', '--Dmax', '21', '--M', '20')\n"
        "runs('thm12', '--Dmax', '21', '--M', '12')\n"
    )
    proc = python_with_src("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['congruence', 'identities']",  # prop21: no orbits, no wmds
        "['congruence', 'identities']",  # cor24
        "['congruence', 'identities']",  # siegel
        "['congruence', 'identities', 'wmds']",  # prop25: wmds, no orbits
        "['congruence', 'identities', 'orbits', 'wmds']",  # thm12: both
    ]


# a usage error of each command that its handler raises, so the handler module loads
_HANDLER_USAGE_ERRORS = {
    "count": ["count", "B", "--D", "5", "--m", "2"],
    "orbits": ["orbits", "--D", "0", "--m", "1", "--n", "1"],
    "pairs": ["pairs", "--D", "0", "--m", "1", "--n", "1"],
    "ppart": ["ppart", "--kmax", "-1"],
    "verify": ["verify", "prop21", "--Dmax", "0"],
    "table": ["table", "B", "--Dmax", "-1", "--Mmax", "2"],
    "zeta": ["zeta", "--s1", "2", "--s2", "2", "--w", "2", "--Dmax", "-1", "--Mmax", "2"],
    "moduli": ["moduli", "--D", "0", "--a1", "1", "--a2", "1"],
}


@pytest.mark.parametrize("command", list(cubezeta.cli._COMMANDS))
def test_each_command_under_dash_m_loads_cli_once_and_only_its_handler(command):
    # -X importtime logs each module that an import statement loads, and -v
    # writes "import 'name'" for each module imported by name, however;
    # cubezeta.cli runs as __main__, so a line for it is a second load
    proc = python_with_src("-X", "importtime", "-v", "-m", "cubezeta.cli",
                           *_HANDLER_USAGE_ERRORS[command])
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert [line for line in lines if line.startswith("error: ")], proc.stderr
    assert "Traceback" not in proc.stderr
    timed = [line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")]
    imported = [line.split("'")[1] for line in lines if line.startswith("import '")]
    assert "cubezeta.cli" not in timed and "cubezeta.cli" not in imported
    assert "cubezeta.commands" in timed
    assert "argparse" not in timed  # a plain command line is read without it
    assert [m for m in imported if m.startswith("cubezeta.commands.")] == [
        f"cubezeta.commands.{command}"]


def _argparse_reading(argv: list):
    """vars() of argparse's namespace for argv; None when it prints help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cubezeta.cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


_PLAIN = [
    ["count", "A", "--d", "-999999", "--a", "70368744177664", "--threads", "2"],
    ["count", "B", "--D", "-4", "--m", "300", "--n", "7", "--threads", "2"],
    ["count", "a3", "--threads", "1", "--n", "7", "--D", "5", "--m", "3"],
    ["count", "B", "--D", "5", "--m", "2"],
    ["orbits", "--D", "-15", "--m", "2", "--n", "1", "--oracle", "--slack", "0"],
    ["orbits", "--D", "9", "--m", "1", "--n", "1", "--entry-bound", "1"],
    ["pairs", "--D", "1", "--m", "105", "--n", "999999", "--cubes", "--output", "x.txt"],
    ["ppart", "--kmax", "8", "--p", "11", "--threads", "2"],
    ["ppart", "--kmax", "-1"],
    ["verify", "thm13", "--D", "-407", "--a1", "722360", "--a2", "1", "--threads", "2"],
    ["verify", "prop21", "--Dmax", "0"],
    ["verify", "thm44"],
    ["table", "B", "--Dmax", "30", "--Mmax", "6", "--threads", "2"],
    ["zeta", "--s1", "1.5", "--s2", "2", "--w", "1.5", "--Dmax", "20", "--Mmax", "20"],
    ["moduli", "--D", "-468", "--a1", "747966", "--a2", "13"],
]


@pytest.mark.parametrize("argv", _PLAIN, ids=[" ".join(a[:2]) for a in _PLAIN])
def test_a_plain_command_line_is_read_as_argparse_reads_it(argv):
    plain = cubezeta.cli._parse_plain(argv)
    assert plain is not None and vars(plain) == _argparse_reading(argv)


_FLAGS = sorted({flag for _, arguments in cubezeta.cli._COMMANDS.values()
                 for flag, _ in [*cubezeta.cli._COMMON, *arguments] if flag.startswith("-")})
_ODD_FLAGS = ["--ora", "--Mm", "--entry", "--thr", "-h", "--help", "--D=5"]
_VALUES = ["5", "0", "-4", "-0.5", "-1e3", "1.5", "x", "", " 7", "-5\n", "\u0663", "-\u0663",
           "--", "-", "-h"]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([*cubezeta.cli._COMMANDS, "nope", "-h"]),
       st.lists(st.sampled_from(["A", "B", "a3", "C", "prop21", "thm13", "5"]), max_size=1),
       st.lists(st.tuples(st.sampled_from(_FLAGS + _ODD_FLAGS),
                          st.lists(st.sampled_from(_VALUES), max_size=2)), max_size=6))
def test_any_command_line_read_directly_is_read_as_argparse_reads_it(command, first, flags):
    argv = [command, *first, *(token for flag, values in flags for token in (flag, *values))]
    plain = cubezeta.cli._parse_plain(argv)
    assert plain is None or vars(plain) == _argparse_reading(argv), argv


@pytest.mark.parametrize("threads", ["1", "2"])
def test_running_out_of_memory_exits_2_with_one_error_line(threads):
    resource = pytest.importorskip("resource")

    def limit():  # in the child only: 1.5 GB of address space
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

    # each row of --Mmax 10^9 asks for an 8 GB level vector, which the limit refuses
    # before any of it is touched; the header is written first
    argv = ["table", "B", "--Dmax", "3", "--Mmax", str(10**9), "--threads", threads]
    proc = subprocess.run([sys.executable, "-m", "cubezeta.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "D,m,n,B\n", "error: out of memory\n")


def test_verify_above_its_entry_cap_exits_2_at_once(capsys):
    # M = 10^9 would ask for an 8 GB list at once
    start = time.perf_counter()
    proc = python_with_src("-m", "cubezeta.cli", "verify", "prop21", "--Dmax", "3",
                           "--M", str(10**9))
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", "error: verify prop21 needs about 1,000,000,000 entries per instance, "
        "over 1,000,000\n")
    # thm12 holds M x M grids
    assert run(capsys, "verify", "thm12", "--Dmax", "3", "--M", "1001") == (
        2, "", "error: verify thm12 needs about 1,002,001 entries per instance, "
        "over 1,000,000\n")


_RUN, _INSTANCE = "in all, over 10,000,000", "per instance, over 1,000,000"


@pytest.mark.parametrize("argv, estimate", [
    (("thm13", "--Dmax", "100000000"), f"93,200,000,000 entries {_RUN}"),
    (("prop21", "--Dmax", "100000000"), f"23,200,000,000 entries {_RUN}"),
    (("thm12", "--Dmax", "9", "--M", "1000"), f"10,000,320 entries {_RUN}"),
    (("siegel", "--Dmax", "2665", "--T", str(10**9)), f"10,001,745 entries {_RUN}"),
    (("siegel", "--Dmax", "5200", "--T", "62"), f"19,515,600 entries {_RUN}"),
    (("thm44", "--kmax", "32"), f"1,048,576 entries {_INSTANCE}"),
    (("thm13", "--Dmax", "1", "--amax", "1001"), f"1,002,001 entries {_INSTANCE}"),
], ids=["thm13-Dmax", "prop21-Dmax", "thm12-Dmax-M", "siegel-Dmax-T", "siegel-T-62",
        "thm44-kmax", "thm13-amax"])
def test_verify_above_a_cost_cap_exits_2_at_once(argv, estimate):
    start = time.perf_counter()
    proc = python_with_src("-m", "cubezeta.cli", "verify", *argv, "--threads", "1")
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: verify {argv[0]} needs about {estimate}\n")


@pytest.mark.parametrize("box, cells", [
    (("100000000", "10"), "12,100,000,000"),
    (("100", "100000000"), "1,000,000,020,000,000,100"),
], ids=["Dmax", "Mmax"])
def test_zeta_above_its_cell_cap_exits_2_at_once(box, cells):
    start = time.perf_counter()
    proc = python_with_src("-m", "cubezeta.cli", "zeta", "--s1", "2", "--s2", "2", "--w", "2",
                           "--Dmax", box[0], "--Mmax", box[1])
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: zeta needs about {cells} cells, over 100,000,000\n")


def test_default_benchmark_and_edge_verify_ranges_are_under_the_caps():
    ranges = [("thm12", {"Dmax": 150, "M": 40}), ("thm13", {"Dmax": 150, "amax": 20}),
              ("prop21", {"Dmax": 300000, "M": 1}), ("siegel", {"Dmax": 2664, "T": 10**9}),
              ("siegel", {"Dmax": 2640, "T": 62}), ("thm44", {"kmax": 31}),
              ("thm13", {"Dmax": 1, "amax": 1000})]
    ranges += [(identity, {}) for identity in _CHECKS]
    for identity, given in ranges:
        count = _check_cost(identity, {**_CHECKS[identity][0], **given})
        assert isinstance(count, int) and count >= 1, identity


def test_instances_are_counted_without_listing_them():
    for Dmax in range(0, 60):
        assert _discriminant_count(Dmax) == len(list(_discriminants(Dmax))), Dmax
        assert list(_odd_integers(Dmax)) == [D for D in range(-Dmax, Dmax + 1) if D % 2], Dmax


def test_table_streams_a_box_of_ten_billion_rows():
    # 10^8 discriminants: the header and the first row come at once, before
    # any list of the discriminants could be built
    argv = ["table", "B", "--Dmax", "100000000", "--Mmax", "10", "--threads", "1"]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "cubezeta.cli", *argv], env=src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    try:
        lines = [proc.stdout.readline(), proc.stdout.readline()]
        elapsed = time.perf_counter() - start
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    assert lines == ["D,m,n,B\n", "-100000000,1,1,4\n"]
    assert elapsed < 2


def test_module_run_of_the_cli_leaves_stderr_clean_under_warnings_as_errors():
    # runpy warns when the module it runs is in sys.modules before it starts
    proc = python_with_src("-W", "error", "-m", "cubezeta.cli", "count", "A", "--d", "5",
                           "--a", "4")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2\n", "")


def test_workers_fan_out_only_from_the_crossover():
    for what, crossover in _TABLE_CROSSOVER.items():
        assert _workers(4, what, crossover - 1) == 1
        assert _workers(4, what, crossover) == 4
        assert _workers(1, what, 10 * crossover) == 1


def test_table_rows_match_pointwise_cells():
    # D = -3 * 30^2 has eight levels d <= 60, and many rows share a row class
    D, M = -2700, 60
    assert _row_chunk_B(D, M) == "".join(
        f"{D},{m},{n},{B(D, m, n)}\n" for m in range(1, M + 1) for n in range(1, M + 1))
    chis = [None] + [chi(D, hat(m, D)) for m in range(1, M + 1)]
    assert _row_chunk_a3(D, M) == "".join(
        f"{D},{m},{n},{a_coeff3(D, m, n)},{chis[m]},{chis[n]}\n"
        for m in range(1, M + 1) for n in range(1, M + 1))


def test_process_pool_keeps_results_in_order():
    # 96 discriminants make 16 batches of 6, more than the 4 held in flight
    table = [(D, 5) for D in _discriminants(96)]
    assert list(_map_ordered(_row_chunk_B, iter(table), 2, len(table))) == [
        _row_chunk_B(*item) for item in table
    ]
    scans = [(D, 4) for D in _discriminants(12)]
    assert list(_map_ordered(verify_thm13_scan, scans, 2, len(scans))) == [
        verify_thm13_scan(*item) for item in scans
    ]


def _dying_rows(D: int, Mmax: int) -> str:
    """A table row worker whose process ends at once, as one killed for memory does."""
    os._exit(1)


def test_a_dead_pool_worker_exits_2_with_one_error_line(monkeypatch, capsys):
    # two workers, forced past the crossover, each running the dying row worker
    monkeypatch.setattr(cubezeta.commands.table, "_row_chunk_B", _dying_rows)
    monkeypatch.setattr(cubezeta.commands.table, "_workers", lambda threads, what, rows: threads)
    code, out, err = run(capsys, "table", "B", "--Dmax", "8", "--Mmax", "2", "--threads", "2")
    assert (code, out) == (2, "D,m,n,B\n")
    assert err == "error: a worker process died, perhaps killed for lack of memory\n"


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
    ("prop21", "--Dmax", "4", "--M", "5", "--kmax", "3", "--T", "7", "--amax", "2"),
    ("cor24", "--T", "3"),
    ("prop25", "--amax", "2"),
    ("thm12", "--kmax", "2"),
    ("thm44", "--Dmax", "5"),
    ("thm13", "--M", "4"),
    ("siegel", "--Dmax", "4", "--M", "4"),
])
def test_verify_rejects_a_flag_the_identity_does_not_read(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: verify {argv[0]} does not read --")


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
