"""Benchmark of the cubezeta library and CLI: four workloads, checked answers.

Run from the repository root:

    python3 perfbench/run.py --workload {oracle,table,verify,requests} \\
        --seed N --seconds S --trace {0,1} [--tiny]

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with tracing
off: the workload runs as fresh processes in passes until ``--seconds`` is
used, and its times are scaled to a reference host speed by interleaved
probe processes (probe.py).  ``--trace 1`` runs one smaller pass in this process with one thread,
untraced and then traced, and reports the per-layer metrics.  ``--tiny``
shrinks every workload for the smoke test.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("oracle", "table", "verify", "requests")
# Mean wall time of probe.py on the 2-vCPU machine the bounds were set on
# (median over 80 runs of each run's mean; they ranged 0.104-0.217 s).
# End-to-end times are reported at this host speed.
PROBE_REF_S = 0.14
HELDOUT_SEEDS = 1000  # seeds >= this were never used while tuning the benchmark


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    """What a result was measured on: revision, source digest, interpreter, cores."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cubezeta")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "heldout_seed": seed >= HELDOUT_SEEDS,
    }


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(wl, name: str, seed: int, seconds: float, size: dict):
    """The end-to-end metrics from passes of fresh processes.

    Every time is divided by the run's host factor: the mean wall time of
    the probe.py processes over PROBE_REF_S.  The mean, not the median,
    because a pass time is a sum of wall times, which includes the host's
    slow moments as a mean does.  The probes and the set-up samples are
    interleaved with the passes (``Launcher.tick``), so the factor tracks
    the host's speed over the same minute as the passes.  The run, probes
    and answer checks included, stops before a pass as long as the longest
    so far would take it past ``seconds`` less a second for the last probe;
    it always makes at least one pass.
    """
    run_start = time.perf_counter()
    with wl.Launcher() as launcher:
        launcher.run(["-c", "import cubezeta.cli"])  # warm-up
        rng = random.Random(f"{name}:{seed}")
        tally = wl.Tally()
        wl.prepare(name, rng, size, tally, launcher)
        longest = 0.0
        while True:
            pass_start = time.perf_counter()
            wl.run_one_pass(name, rng, size, tally, launcher)
            now = time.perf_counter()
            longest = max(longest, now - pass_start)
            if now - run_start + longest > seconds - 1:
                break
        launcher.tick()
    probe = statistics.fmean(launcher.probe_s)
    host = probe / PROBE_REF_S
    raw = {
        "wall_s": statistics.median(tally.pass_walls),
        "items_per_s": tally.units / sum(tally.pass_walls),
        "latency_p50_s": percentile(tally.latencies, 0.5),
        "latency_p90_s": percentile(tally.latencies, 0.9),
        "peak_rss_mb": max(tally.rss_mb),
        "setup_s": statistics.median(launcher.setup_s),
    }
    scale = {"items_per_s": host, "peak_rss_mb": 1.0}
    values = {k: v * scale.get(k, 1 / host) for k, v in raw.items()}
    notes = (
        f"{len(tally.pass_walls)} passes, {len(tally.latencies)} latency samples, {tally.units} units, "
        f"{len(launcher.probe_s)} probes (mean {probe:.4f} s, host factor {host:.3f}), "
        f"run {time.perf_counter() - run_start:.1f} s, "
        f"failed_frac {tally.failed / tally.attempted:.4g} ({tally.failed}/{tally.attempted})"
    )
    if name == "requests":
        slow = sum(tally.slow.values())
        notes += (
            f", slow share {slow / len(tally.latencies):.3f} "
            f"(latency > 2 x median: {json.dumps(tally.slow, sort_keys=True)})"
        )
    notes += "\n# before the host factor: " + json.dumps({k: float(f"{v:.6g}") for k, v in raw.items()})
    notes += "\n# probe and set-up samples (s): " + json.dumps(
        [[round(p, 4) for p in launcher.probe_s], [round(p, 4) for p in launcher.setup_s]])
    return values, tally, notes


def clear_caches() -> None:
    """Empty every lru_cache in the package, as a fresh CLI process starts."""
    for key, module in list(sys.modules.items()):
        if key == "cubezeta" or key.startswith("cubezeta."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == key:
                    obj.cache_clear()


def traced(wl, name: str, seed: int, size: dict, metric_names: list):
    """One in-process pass untraced and one traced, each from cold caches."""
    rng_seed = f"{name}:{seed}"
    plain = wl.Tally()
    clear_caches()
    wl.run_one_pass(name, random.Random(rng_seed), size, plain, launcher=None)
    tally = wl.Tally()
    tracer = Tracer()
    caches = {}

    @contextlib.contextmanager
    def running():
        with tracer:
            yield
        # before the answers are checked, which call the library again
        congruence = sys.modules["cubezeta.congruence"]
        for fn in ("factorize", "sqrt_count", "divisors"):
            caches[fn] = getattr(congruence, fn).cache_info()

    clear_caches()
    wl.run_one_pass(name, random.Random(rng_seed), size, tally, launcher=None,
                    running=running)
    summary = tracer.summary()

    def layer_value(metric: str):
        layer, _, stat = metric.rpartition(".")
        if metric == "cube.cubes_enumerated":
            return tracer.cubes_enumerated
        if metric == "cube.cubes_per_s":
            busy = summary["cube.orbit_count_oracle"][1]
            return tracer.cubes_enumerated / busy if busy else 0.0
        if metric == "cli.output_bytes":
            return tally.output_bytes
        if metric == "trace.overhead_ratio":
            return sum(tally.pass_walls) / sum(plain.pass_walls)
        if stat == "calls":
            return summary[layer][0]
        if stat == "self_s":
            return summary[layer][2]
        info = caches[layer.partition(".")[2]]
        if stat == "cache_size":
            return info.currsize
        if stat == "hit_ratio":
            return info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
        raise KeyError(metric)

    values = {metric: layer_value(metric) for metric in metric_names}
    path = os.path.join(wl.OUT_DIR, f"trace-{name}-seed{seed}.csv")
    tracer.write(path)
    notes = (
        f"{len(tracer)} spans written to {os.path.relpath(path, ROOT)}; "
        f"failed_frac {tally.failed / tally.attempted:.4g} ({tally.failed}/{tally.attempted})"
    )
    return values, tally, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "cubezeta", "cli.py")) or not os.path.isfile(spec_path):
        print("error: run from a cubezeta checkout (src/cubezeta and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads as wl

    with open(spec_path) as handle:
        spec = json.load(handle)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    env = environment(args.seed)
    print(f"# cubezeta benchmark: workload={args.workload} trace={args.trace} "
          f"seconds={args.seconds:g} tiny={args.tiny}")
    print("# env " + json.dumps(env, sort_keys=True))

    if args.trace:
        size = wl.SIZES["tiny" if args.tiny else "trace"]
        values, tally, notes = traced(wl, args.workload, args.seed, size, list(units))
    else:
        size = wl.SIZES["tiny" if args.tiny else "full"]
        values, tally, notes = end_to_end(wl, args.workload, args.seed, args.seconds, size)

    for failure in tally.failures[:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    width = max(len(n) for n in units)
    for metric, unit in units.items():
        print(f"{metric:<{width}}  {values[metric]:>14.6g} {unit}")
    print("# " + notes)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind so that workloads.Launcher stops the child it waits for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
