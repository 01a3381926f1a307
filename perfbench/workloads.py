"""The four benchmark workloads: seeded inputs, one pass, and its checks.

A workload runs as passes.  ``run_one_pass`` draws a pass's inputs from the
seeded generator, runs them either as fresh ``cubezeta`` processes
(end-to-end runs, as a user would) or in this process with ``--threads 1``
(traced runs), checks every item against an independent answer, and
records timings and outcomes in a ``Tally``.

Sizes: ``full`` is the measured workload, ``trace`` the in-process traced
run, ``tiny`` the smoke test.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "data", "expected.json")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")  # gitignored
PROBE_GAP_S = 1.0  # run time between two host probes (see Launcher.tick)

import oracle_loop  # noqa: E402  (these need SRC on sys.path, set by run.py)
import reference as ref  # noqa: E402
from cubezeta import cli, cube, orbits  # noqa: E402
from cubezeta.ppart import f_a3_convolution, p_eval, p_format  # noqa: E402


@functools.cache
def expected() -> dict:
    """Answers recorded at the seed commit by record.py."""
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


VERIFY_STATUS = {
    "prop21": "pass_with_findings",
    "cor24": "pass_with_findings",
    "prop25": "pass_with_findings",
    "thm12": "pass_with_findings",
    "thm13": "pass_with_findings",
    "thm44": "pass",
    "siegel": "pass",
}

# The traced run uses the full oracle and requests inputs.  Table and verify
# are smaller there: their trace-size passes already record 0.76 M and 6.9 M
# spans, and full size would take them to several times that.
SIZES = {
    "full": {
        "oracle_strata": 8,
        "oracle_max_cubes": None,
        "table": (600, 40),
        # the two slow checks cut down, so that a run holds several passes
        "verify": [
            ["prop21"], ["cor24"], ["prop25"], ["thm44"], ["siegel"],
            ["thm12", "--Dmax", "150", "--M", "40"],
            ["thm13", "--Dmax", "150", "--amax", "20"],
        ],
        "requests_per_kind": 12,
        "scan_max": 10**6,
        "countA_max": 2**46,
    },
    "tiny": {
        "oracle_strata": 3,
        "oracle_max_cubes": 3000,
        "table": (30, 6),
        "verify": [
            ["prop21", "--Dmax", "20", "--M", "20"],
            ["cor24", "--Dmax", "20", "--M", "20"],
            ["prop25", "--Dmax", "21", "--M", "20"],
            ["thm12", "--Dmax", "21", "--M", "12"],
            ["thm13", "--Dmax", "20", "--amax", "6"],
            ["thm44", "--kmax", "3"],
            ["siegel", "--Dmax", "20", "--T", "6"],
        ],
        "requests_per_kind": 3,
        "scan_max": 10**3,
        "countA_max": 2**20,
    },
}
SIZES["trace"] = dict(
    SIZES["full"],
    table=(300, 20),
    verify=[
        ["prop21", "--Dmax", "60"],
        ["cor24", "--Dmax", "60"],
        ["prop25", "--Dmax", "99"],
        ["thm12", "--Dmax", "45", "--M", "40"],
        ["thm13", "--Dmax", "60", "--amax", "16"],
        ["thm44"],
        ["siegel", "--Dmax", "100"],
    ],
)


@dataclass
class Tally:
    """Everything one run measured, pass by pass and item by item."""

    pass_walls: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)  # peak of each child process
    latencies: list = field(default_factory=list)  # a request, or a whole pass
    units: int = 0  # cells, rows, instances checked or requests
    output_bytes: int = 0
    slow: dict = field(default_factory=dict)  # requests: {kind: count} slower than 2 x median
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("CUBEZETA_THREADS", None)
    return env


class Launcher:
    """Starts ``python3 <args>`` children through launcher.py; a context manager.

    Peak memory is each child's own ``wait4`` rusage, read in the small
    launcher process (see launcher.py for why), and never RUSAGE_CHILDREN,
    which keeps a running maximum over every child so far.

    ``tick()``, called before each timed program run, times one probe.py
    process whenever PROBE_GAP_S has passed since the last, and one
    ``import cubezeta.cli`` with every second probe, so that both sample
    the whole run.
    """

    def __init__(self):
        self.probe_s: list = []  # wall times of probe.py: the host's speed
        self.setup_s: list = []  # wall times of a fresh ``import cubezeta.cli``
        self._last_tick = -math.inf
        os.makedirs(OUT_DIR, exist_ok=True)
        # one file per launcher, so that benchmark processes running at once
        # do not overwrite each other's output
        handle, self.stdout_path = tempfile.mkstemp(dir=OUT_DIR, prefix="stdout-")
        os.close(handle)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_child_env(), cwd=ROOT, start_new_session=True,
        )

    def run(self, args: list) -> tuple:
        """(exit code, stdout, wall s, peak RSS MB) of one ``python3 <args>``."""
        self.proc.stdin.write(json.dumps([[sys.executable, *args], self.stdout_path]) + "\n")
        self.proc.stdin.flush()
        code, wall, rss = json.loads(self.proc.stdout.readline())
        with open(self.stdout_path, "rb") as handle:
            return code, handle.read(), wall, rss

    def tick(self) -> None:
        if time.perf_counter() - self._last_tick >= PROBE_GAP_S:
            self.probe_s.append(self.run([os.path.join(HERE, "probe.py")])[2])
            if len(self.probe_s) % 2:
                self.setup_s.append(self.run(["-c", "import cubezeta.cli"])[2])
            self._last_tick = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:  # stop the launcher and the child it waits for
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()
        os.remove(self.stdout_path)
        return False


def cli_in_process(argv: list) -> tuple:
    """``cubezeta <argv>`` in this process with one thread; (exit code, stdout bytes)."""
    argv = list(argv)
    if "--threads" in argv:
        argv[argv.index("--threads") + 1] = "1"
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink.getvalue().encode()


def run_cli(argv: list, launcher) -> tuple:
    """(exit code, stdout, wall s, peak RSS MB or None) of one CLI invocation.

    A fresh process through ``launcher``, or in this process when it is None.
    """
    if launcher is not None:
        return launcher.run(["-m", "cubezeta.cli", *argv])
    start = time.perf_counter()
    code, out = cli_in_process(argv)
    return code, out, time.perf_counter() - start, None


def run_sequence(argvs: list, tally: Tally, launcher) -> list:
    """One pass: each CLI invocation in turn; [(exit code, stdout, wall s)].

    The pass time is the sum of the invocations' wall times, so the host
    probes between them are not counted.
    """
    outcomes = []
    for argv in argvs:
        if launcher is not None:
            launcher.tick()
        code, out, wall, rss = run_cli(argv, launcher)
        tally.output_bytes += len(out)
        if rss is not None:
            tally.rss_mb.append(rss)
        outcomes.append((code, out, wall))
    tally.pass_walls.append(sum(wall for _, _, wall in outcomes))
    return outcomes


# ---------------------------------------------------------------------------
# oracle: cube.orbit_count_oracle over the criterion-1 grid
# ---------------------------------------------------------------------------


def oracle_strata(k: int, max_cubes=None) -> list:
    """The grid cells (|D| <= 60, 1 <= m <= n <= 5) in k strata.

    Cost is the cube count each cell enumerated at the seed commit.  The
    costliest cell is a stratum of its own, so every pass contains it and
    the pass's peak memory does not depend on the seed; the other cells form
    k - 1 strata of equal total cost.  Drawing one cell per stratum gives
    every seed a similar mix of cheap and heavy cells.
    """
    cells = sorted(
        (c for c in expected()["oracle_cells"] if max_cubes is None or c[3] <= max_cubes),
        key=lambda c: (c[3], c[0], c[1], c[2]),
    )
    rest = cells[:-1]
    total = sum(c[3] for c in rest) or 1
    strata = [[] for _ in range(k - 1)]
    acc = 0
    for c in rest:
        strata[min(k - 2, acc * (k - 1) // total)].append(c[:3])
        acc += c[3]
    return [s for s in strata if s] + [[cells[-1][:3]]]


def oracle_pass(rng: random.Random, size: dict) -> list:
    cells = [rng.choice(s) for s in oracle_strata(size["oracle_strata"], size["oracle_max_cubes"])]
    rng.shuffle(cells)
    return cells


def oracle_run(cells: list, tally: Tally, launcher) -> list:
    """Counts every cell; returns [(count, stable, cubes)].

    In this process, one loop over the cells.  Through a launcher, one child
    process per cell, so that the host probes (``Launcher.tick``) fall
    between cells; the pass time is the sum of the library loops, without
    process start-up.
    """
    if launcher is None:
        report = oracle_loop.loop(cells)
        results, loop_s = report["cells"], report["loop_s"]
    else:
        results, loop_s = [], 0.0
        for cell in cells:
            launcher.tick()
            code, out, wall, rss = launcher.run([os.path.join(HERE, "oracle_loop.py"), json.dumps([cell])])
            tally.rss_mb.append(rss)
            if code != 0:
                results.append((None, False, 0))
                loop_s += wall
                continue
            report = json.loads(out)
            results += report["cells"]
            loop_s += report["loop_s"]
    tally.pass_walls.append(loop_s)
    tally.units += len(results)
    return results


def oracle_check(cells: list, results: list, tally: Tally) -> None:
    for (D, m, n), (count, stable, _) in zip(cells, results):
        tally.check(stable and count == orbits.B(D, m, n), ("oracle", D, m, n, count))


# ---------------------------------------------------------------------------
# table: cubezeta table B over a large box
# ---------------------------------------------------------------------------


def table_argv(size: dict, threads: int) -> list:
    Dmax, Mmax = size["table"]
    return ["table", "B", "--Dmax", str(Dmax), "--Mmax", str(Mmax), "--threads", str(threads)]


def table_expected(size: dict) -> dict:
    return expected()["table"]["%dx%d" % size["table"]]


def table_check(out: bytes, code: int, rng: random.Random, size: dict, tally: Tally) -> None:
    """Digest recorded at the seed commit, plus sampled rows recomputed independently."""
    ok = code == 0 and hashlib.sha256(out).hexdigest() == table_expected(size)["sha256"]
    if ok:
        lines = out.split(b"\n")[1:-1]
        for line in rng.sample(lines, min(40, len(lines))):
            D, m, n, value = (int(v) for v in line.split(b","))
            ok = ok and value == ref.B(D, m, n)
    tally.check(ok, ("table", code, len(out)))


# ---------------------------------------------------------------------------
# verify: every identity check at its default range
# ---------------------------------------------------------------------------


def verify_pass(rng: random.Random, size: dict) -> list:
    jobs = [["verify", *args, "--threads", "1"] for args in size["verify"]]
    rng.shuffle(jobs)
    return jobs


def verify_check(jobs: list, outcomes: list, tally: Tally) -> None:
    for argv, (code, out, _) in zip(jobs, outcomes):
        key = " ".join(argv[:-2])
        try:
            report = json.loads(out) if code == 0 else {}
        except ValueError:
            report = {}
        ok = (
            report.get("status") == VERIFY_STATUS[argv[1]]
            and report.get("checked") == expected()["verify"][key]
        )
        tally.units += report.get("checked", 0)
        tally.check(ok, (key, code))


# ---------------------------------------------------------------------------
# requests: one client, a closed loop of single-answer CLI invocations
# ---------------------------------------------------------------------------

# Every kind equally often: there is no record of real use to weight them by.
REQUEST_KINDS = ("countA", "countB", "a3", "pairs", "moduli", "orbits", "thm13", "ppart", "table")


def _discriminant(rng: random.Random, bound: int) -> int:
    while True:
        D = rng.randint(-bound, bound)
        if D and D % 4 in (0, 1):
            return D


def _log_uniform(u: float, lo: int, hi: int) -> int:
    return min(hi, int(lo * math.exp(u * math.log(hi / lo))))


def _request(kind: str, u: float, rng: random.Random, size: dict) -> tuple:
    """(argv, what to check the answer against) for one request.

    ``u`` in [0, 1) places the request's modulus on a log scale from 1 up to
    size["scan_max"] (size["countA_max"] for count A).
    """
    top = size["scan_max"]
    if kind == "countA":
        d, a = rng.randint(-10**6, 10**6), _log_uniform(u, 2, size["countA_max"])
        return ["count", "A", "--d", str(d), "--a", str(a)], ("countA", d, a)
    if kind in ("countB", "a3", "orbits", "pairs"):
        D = _discriminant(rng, 10**4)
        m, n = _log_uniform(u, 1, top), _log_uniform(rng.random(), 1, top)
        cell = ["--D", str(D), "--m", str(m), "--n", str(n)]
        if kind == "pairs":
            cubes = rng.random() < 0.5
            return ["pairs", *cell] + ["--cubes"] * cubes, ("pairs", D, m, n, cubes)
        if kind == "orbits":
            return ["orbits", *cell], (kind, D, m, n)
        return ["count", "B" if kind == "countB" else "a3", *cell], (kind, D, m, n)
    if kind in ("moduli", "thm13"):
        # |D| <= 500 and a2 <= 30: the range on which the exact per-pair fibers
        # are documented to aggregate to B.
        D = _discriminant(rng, 500)
        a1, a2 = _log_uniform(u, 1, top), rng.randint(1, 30)
        cell = ["--D", str(D), "--a1", str(a1), "--a2", str(a2)]
        if kind == "moduli":
            return ["moduli", *cell], ("moduli", D, a1, a2)
        return ["verify", "thm13", *cell], ("thm13", D, a1, a2)
    if kind == "ppart":
        kmax, p = rng.randint(1, 8), rng.choice((None, 2, 3, 5, 7, 11))
        argv = ["ppart", "--kmax", str(kmax)] + (["--p", str(p)] if p else [])
        return argv, ("ppart", kmax, p)
    Dmax, Mmax = rng.randint(4, 30), rng.randint(1, 6)
    return ["table", "B", "--Dmax", str(Dmax), "--Mmax", str(Mmax)], ("table", Dmax, Mmax)


def requests_pass(rng: random.Random, size: dict) -> list:
    """size['requests_per_kind'] requests of each kind, in seeded order.

    Within a kind the moduli are stratified on the log scale (one draw in
    each of n equal slices), so every seed gets a similar spread of costs.
    """
    n = size["requests_per_kind"]
    jobs = []
    for kind in REQUEST_KINDS:
        for j in range(n):
            argv, answer = _request(kind, (j + rng.random()) / n, rng, size)
            jobs.append((argv + ["--threads", "2"], answer))
    rng.shuffle(jobs)
    return jobs


def slow_requests(jobs: list, latencies: list) -> dict:
    """{kind: count} of the requests slower than twice the median request."""
    cut = 2 * sorted(latencies)[len(latencies) // 2]
    slow: dict = {}
    for (_, answer), wall in zip(jobs, latencies):
        if wall > cut:
            slow[answer[0]] = slow.get(answer[0], 0) + 1
    return slow


def _a3_reference(D: int, m: int, n: int) -> int:
    """a3 as a product of prime-part coefficients (the ppart convolution route)."""
    fm, fn, fD = ref.factor(m), ref.factor(n), ref.factor(D)
    primes = set(fm) | set(fn)
    K = max([f.get(p, 0) for p in primes for f in (fm, fn, fD)], default=0)
    conv = f_a3_convolution(K).coeffs
    return math.prod(
        p_eval(conv[fm.get(p, 0)][fD.get(p, 0)][fn.get(p, 0)], p) for p in primes
    )


def _roots_ok(D: int, a: int, root: int, cofactor: int) -> bool:
    return 0 <= root < 2 * a and root * root - D == 4 * a * cofactor


def _answer_ok(answer: tuple, out: bytes) -> bool:
    kind = answer[0]
    text = out.decode()
    lines = text.splitlines()
    if kind == "countA":
        _, d, a = answer
        return lines == [str(ref.sqrt_count(d, a))]
    if kind == "countB":
        return lines == [str(ref.B(*answer[1:]))]
    if kind == "orbits":
        return lines == [f"B = {ref.B(*answer[1:])}"]
    if kind == "a3":
        return lines == [str(_a3_reference(*answer[1:]))]
    if kind == "pairs":
        _, D, m, n, cubes = answer
        count = ref.sqrt_count(D, 4 * m) // 2 * (ref.sqrt_count(D, 4 * n) // 2)
        if len(lines) != count:
            return False
        for line in lines:
            head, _, cube_text = line.partition(" | ")
            x, y, s, t = (int(v) for v in head.split())
            if not (_roots_ok(D, m, x, s) and _roots_ok(D, n, y, t)):
                return False
            if cubes:
                q1, q2, _ = cube.forms(cube.Cube(*(int(v) for v in cube_text.split())))
                if (q1.a, q1.b, q1.c, q2.a, q2.b, q2.c) != (m, x, s, n, y, t):
                    return False
        return True
    if kind == "moduli":
        _, D, a1, a2 = answer
        rows = [json.loads(line) for line in lines]
        if len(rows) != ref.sqrt_count(D, 4 * a1) * ref.sqrt_count(D, 4 * a2):
            return False
        for row in rows:
            for a, b in ((row["a1"], row["b1"]), (row["a2"], row["b2"])):
                if not 0 <= b < 2 * abs(a) or (b * b - D) % (4 * abs(a)):
                    return False
        return sum(row["fiber"] for row in rows) == ref.B(D, a1, a2)
    if kind == "thm13":
        _, D, a1, a2 = answer
        report = json.loads(text)
        if report["status"] not in ("pass", "pass_with_findings"):
            return False
        found = report["first_mismatch"]
        return found is None or found["exact_sum"] == found["B"] == ref.B(D, a1, a2)
    if kind == "ppart":
        _, kmax, p = answer
        conv = f_a3_convolution(kmax).coeffs
        want = [
            f"{l} {k} {t} {p_eval(conv[l][k][t], p) if p else p_format(conv[l][k][t])}"
            for l in range(kmax + 1) for k in range(kmax + 1) for t in range(kmax + 1)
        ]
        return lines == want
    _, Dmax, Mmax = answer  # table
    want = ["D,m,n,B"] + [
        f"{D},{m},{n},{ref.B(D, m, n)}"
        for D in range(-Dmax, Dmax + 1) if D and D % 4 in (0, 1)
        for m in range(1, Mmax + 1) for n in range(1, Mmax + 1)
    ]
    return lines == want


def requests_check(jobs: list, outcomes: list, tally: Tally) -> None:
    for (argv, answer), (code, out, _) in zip(jobs, outcomes):
        try:
            ok = code == 0 and _answer_ok(answer, out)
        except (ValueError, KeyError, TypeError):  # output that does not parse
            ok = False
        tally.check(ok, " ".join(argv))


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def run_one_pass(
    name: str, rng: random.Random, size: dict, tally: Tally, launcher,
    running=contextlib.nullcontext,
) -> None:
    """Draw, run and check one pass of workload ``name``.

    Only the run itself happens inside the ``running()`` context (the
    tracer, in traced runs); drawing inputs and checking answers do not.
    A latency sample is one request on ``requests``, and one whole pass on
    the batch workloads, whose user waits for the pass.
    """
    if name == "oracle":
        cells = oracle_pass(rng, size)
        with running():
            results = oracle_run(cells, tally, launcher)
        oracle_check(cells, results, tally)
    elif name == "table":
        with running():
            ((code, out, _),) = run_sequence([table_argv(size, 2)], tally, launcher)
        tally.units += table_expected(size)["rows"]
        table_check(out, code, rng, size, tally)
    elif name == "verify":
        jobs = verify_pass(rng, size)
        with running():
            outcomes = run_sequence(jobs, tally, launcher)
        verify_check(jobs, outcomes, tally)
    else:
        jobs = requests_pass(rng, size)
        with running():
            outcomes = run_sequence([argv for argv, _ in jobs], tally, launcher)
        tally.units += len(jobs)
        walls = [wall for _, _, wall in outcomes]
        tally.latencies.extend(walls)
        for kind, count in slow_requests(jobs, walls).items():
            tally.slow[kind] = tally.slow.get(kind, 0) + count
        requests_check(jobs, outcomes, tally)
    if name != "requests":
        tally.latencies.append(tally.pass_walls[-1])


def prepare(name: str, rng: random.Random, size: dict, tally: Tally, launcher) -> None:
    """Untimed work once per end-to-end run, before the passes.

    For table: one --threads 1 run, whose output must have the digest
    recorded from --threads 2, so both thread counts print the same bytes.
    """
    if name == "table":
        code, out, _, _ = run_cli(table_argv(size, 1), launcher)
        table_check(out, code, rng, size, tally)
