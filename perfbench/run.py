"""Run one workload of the dpcolor benchmark, check its answers, print its metrics.

    python3 perfbench/run.py --workload sweep-k3 --seed 1 --seconds 60 --trace 0

Run from anywhere; dpcolor is imported from the ``src/`` directory beside
this one, and the script exits with code 2, printing no result, when it
is missing.  ``--trace 0`` measures the named workload untraced for about
``--seconds`` and prints the end-to-end metrics of BENCHMARK.json, every
timing in them scaled by the host's speed (see ``yardstick.py``);
``--trace 1`` makes one traced pass of every workload from the same seed,
prints the per-layer metrics and writes the spans under
``perfbench/out/``.  Each metric is printed by name with its unit, then
the error rate and the machine, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
# setup_s is the median of cold set-up rounds: SETUP_FIRST of them before
# the first pass, then more between passes until the rounds have taken
# SETUP_SHARE of the run
SETUP_FIRST = 5
SETUP_SHARE = 0.15
# refute-deep is not a BENCHMARK.json workload (too unsteady on a shared host
# to gate on); it is part of every traced run and can still be run by hand
WORKLOADS = ("sweep-k3", "cover-queries", "refute-deep")
# one set-up round, in a fresh interpreter started in the checkout.  One
# timing of the yardstick varies up to 3x and the child may run on another
# core than the passes, so the child times the loop itself, three times
# before and three after the set-up, and scales by the median of the six
SETUP_ROUND = """
import statistics
import sys
from time import perf_counter
sys.path.insert(0, "src")
from perfbench.yardstick import scaled, time_loop
loops = [time_loop() for _ in range(3)]
t0 = perf_counter()
from perfbench import workloads
workloads.build(sys.argv[1], int(sys.argv[2]))
took = perf_counter() - t0
loops += [time_loop() for _ in range(3)]
loop = statistics.median(loops)
print(scaled(took, loop, loop))
"""


def setup(workloads: list[str], seed: int):
    """Import dpcolor and build the inputs; returns the workloads module and the inputs."""
    from perfbench import workloads as mod

    return mod, {w: mod.build(w, seed) for w in workloads}


def setup_round(workload: str, seed: int) -> float:
    """The scaled time of one cold set-up: a dpcolor import and the input build.

    It runs in a child interpreter, so that every round imports from cold
    and none adds to this process's peak memory.
    """
    argv = [sys.executable, "-c", SETUP_ROUND, workload, str(seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def measure(workload: str, seed: int, seconds: float):
    """Whole passes for about ``seconds``, with set-up rounds spread between them.

    The host's speed drifts over a minute; set-up rounds taken across the
    whole run see that drift the way the passes do, instead of sampling
    only its first second.  Returns the passes, every round's scaled time
    and the yardstick timed between the requests of the passes.
    """
    mod, data = setup([workload], seed)
    from perfbench.yardstick import Yardstick

    one_pass = mod.PASSES[workload]
    stick = Yardstick()
    times: list[float] = []
    passes = []
    start = perf_counter()
    setup_wall = 0.0
    while True:
        while len(times) < SETUP_FIRST or setup_wall < SETUP_SHARE * (perf_counter() - start):
            t0 = perf_counter()
            times.append(setup_round(workload, seed))
            setup_wall += perf_counter() - t0
        passes.append(one_pass(data[workload], stick=stick))
        spent = perf_counter() - start
        if spent + statistics.median(p.seconds for p in passes) > seconds:
            return passes, times, stick


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: defined for any non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes: list, setup_times: list[float]) -> dict:
    """The gated metrics, from the scaled latencies and set-up times.

    Every pass sends the same requests in the same order; a request's
    latency is its median over the run's passes, so that a burst of host
    load in one pass does not move it.  The percentiles are taken over the
    requests, and a pass's time is the sum of its requests' latencies.  A
    sweep pass has only 11 requests, whose slowest is a 2-second graph: the
    slowest of its few samples in a run spread the runs' p99 twice as wide
    as the median of them does.
    """
    latencies = [statistics.median(xs) for xs in zip(*(p.scaled for p in passes))]
    busy = sum(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "covers_per_s": passes[0].covers / busy,
        "queries_per_s": len(latencies) / busy,
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p99_ms": nearest_rank(latencies, 0.99) * 1e3,
        "refute_s": busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def machine() -> dict:
    """Informational: no check reads these."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dpcolor" / "__init__.py").is_file():
        print(f"run.py: no dpcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    info = machine()

    if args.trace:
        _, data = setup(WORKLOADS, args.seed)
        from perfbench import layers

        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
        values, attempted, failed = layers.traced_run(ROOT, data, OUT, trace_path, info)
        declared = spec["per_layer"]
    else:

        passes, times, stick = measure(args.workload, args.seed, args.seconds)
        values = end_to_end(passes, times)
        loop = statistics.median(stick.loops)
        raw = statistics.median(sum(p.latencies) for p in passes)
        print(
            f"yardstick: loop median {loop:.6g} s over {len(stick.loops)} timings; "
            f"unscaled pass {raw:.6g} s; "
            f"{len(passes)} passes, {len(times)} set-up rounds"
        )
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        declared = spec["end_to_end"]

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(
            f"run.py: measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}",
            file=sys.stderr,
        )
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name:44} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':44} {failed / attempted:.6g} ({failed} wrong of {attempted} answers)")
    print("machine " + json.dumps(info))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
