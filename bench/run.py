"""Run one gausscalc benchmark workload and print its metrics.

    python3 bench/run.py --workload identity --seed 1 --seconds 25 --trace 0

Run from a checkout: the program is imported from its src/.  Load is a
closed loop from this one process: one worker pass at a time (see
worker.py), each a fresh interpreter with one check in flight; on the
cli workload each check is itself one `python -m gausscalc` child.
Passes repeat until --seconds is spent, with at least MIN_PASSES.

--trace 0 prints the end-to-end metrics.  Their times are CPU seconds of
the worker and its children, and those of the checks are scaled to a
machine of fixed speed (see worker.py): on a virtual machine, wall time
also holds the time the host ran something else, which moved single
checks by up to 5x on a 2-vCPU guest, and the CPU time of fixed work
moved by up to 40 % between runs with the load of other guests.  The
raw CPU and wall-clock figures are printed too, but not gated.
--trace 1 alternates untraced and traced passes, at least MIN_PASSES of
each, both in process (on cli, gausscalc.cli.main is called with the
same argv), and prints the per-layer metrics plus the tracing overhead,
traced minus untraced scaled CPU time.  The last stdout line is the
JSON result; the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import worker
import workloads

WORKER = Path(worker.__file__).resolve()
MIN_PASSES = 2
#: Set-up is sampled at least this often per run; extra samples stop at "ready".
SETUP_SAMPLES = 7
#: check_cpu_tail_ms is the highest of these with ten checks beyond it in MIN_PASSES passes.
TAIL_LADDER = (99.9, 99, 95, 90, 80, 75, 70, 60, 50)
WORKER_TIMEOUT_S = 120
#: One check is in flight, so BLAS gets one thread: a second would only spin
#: against whatever else shares the machine.
BLAS_THREADS = 1

UNITS = {"setup_s": "s", "cpu_s": "s", "check_cpu_p50_ms": "ms", "check_cpu_tail_ms": "ms",
         "peak_rss_mb": "MB", "setup_wall_s": "s", "wall_s": "s", "check_p50_ms": "ms",
         "check_tail_ms": "ms", "raw_cpu_s": "s", "kernel_ms": "ms"}


class HarnessError(RuntimeError):
    pass


def environment(seed: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "seed": seed, "default_seed": workloads.DEFAULT_SEED,
            "held_out_seed": workloads.HELD_OUT_SEED}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(spec: dict, env: dict) -> dict:
    """Run one worker to completion; adds its set-up time, wall and CPU."""
    start = time.monotonic_ns()
    # Its own process group, so a timeout also ends the worker's cli children.
    with subprocess.Popen([sys.executable, str(WORKER), json.dumps(spec)], cwd=workloads.ROOT,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    out = json.loads(lines[-1])
    out["setup"] = {"wall": (out["ready_ns"] - start) / 1e9, "cpu": out["ready_cpu"]}
    return out


def repeat(specs: list, seconds: float, env: dict) -> list:
    """Run rounds of `specs` until `seconds` is spent, and at least MIN_PASSES rounds."""
    deadline = time.monotonic() + seconds
    rounds, durations = [], []
    while len(rounds) < MIN_PASSES or time.monotonic() + statistics.median(durations) <= deadline:
        start = time.monotonic()
        # Alternate which spec goes first, so neither always runs first.
        order = specs if len(rounds) % 2 == 0 else specs[::-1]
        results = {id(spec): spawn(spec, env) for spec in order}
        rounds.append([results[id(spec)] for spec in specs])
        durations.append(time.monotonic() - start)
    return rounds


def percentile(sorted_values: list, p: float) -> float:
    k = (len(sorted_values) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)


def tail_percentile(checks_per_pass: int) -> float:
    """Highest ladder percentile with ten checks beyond it in the fewest passes a run makes."""
    n = checks_per_pass * MIN_PASSES
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return p
    return 50.0  # only the tiny smoke-test sizes have fewer than 20 checks


def end_to_end(passes: list, setups: list) -> tuple:
    """The gated metrics, in CPU time (scaled, except set-up), and the raw CPU
    and wall-clock counterparts that are only printed."""
    tail_p = tail_percentile(passes[0]["attempted"])
    scaled = sorted(x for p in passes for x in p["scaled"])
    wall = sorted(x for p in passes for x in p["latencies"])
    metrics = {
        "setup_s": statistics.median(s["cpu"] for s in setups),
        "cpu_s": statistics.median(sum(p["scaled"]) for p in passes),
        "check_cpu_p50_ms": percentile(scaled, 50) * 1e3,
        "check_cpu_tail_ms": percentile(scaled, tail_p) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
    }
    printed = {
        "raw_cpu_s": statistics.median(sum(p["cpu"]) for p in passes),
        "kernel_ms": statistics.median(k for p in passes for k in p["kernel"]) * 1e3,
        "setup_wall_s": statistics.median(s["wall"] for s in setups),
        "wall_s": statistics.median(sum(p["latencies"]) for p in passes),
        "check_p50_ms": percentile(wall, 50) * 1e3,
        "check_tail_ms": percentile(wall, tail_p) * 1e3,
    }
    notes = {
        "setup_s": f"CPU, median of {len(setups)} set-ups",
        "cpu_s": f"scaled CPU, median of {len(passes)} passes",
        "check_cpu_p50_ms": f"scaled CPU, n={len(scaled)}",
        "check_cpu_tail_ms": f"scaled CPU, p{tail_p:g}, n={len(scaled)}",
        "peak_rss_mb": f"median of {len(passes)} passes",
        "raw_cpu_s": "CPU, not gated",
        "kernel_ms": f"kernel CPU time, nominal {worker.KERNEL_NOMINAL_S * 1e3:g} ms",
        **{name: "wall clock, not gated" for name in printed if "wall" in name or "check" in name},
    }
    return metrics, printed, notes


def traced_metrics(rounds: list) -> tuple:
    """Per-layer metrics: times are medians over traced passes, counts must repeat exactly."""
    traced = [r[1]["trace"] for r in rounds]
    problems = sorted({span for t in traced for span in t["missing"]})
    problems = [f"traced run never reached {span}" for span in problems]
    metrics = {}
    for name in traced[0]["metrics"]:
        values = [t["metrics"][name] for t in traced]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                problems.append(f"counter {name} did not repeat: {values}")
            metrics[name] = values[0]
    untraced = statistics.median(sum(r[0]["scaled"]) for r in rounds)
    traced_cpu = statistics.median(sum(r[1]["scaled"]) for r in rounds)
    metrics["trace.overhead_s"] = traced_cpu - untraced
    metrics["trace.overhead_share"] = (traced_cpu - untraced) / untraced
    return metrics, problems, traced[0]["edges"]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the result object and prints the report lines."""
    env_record = environment(seed)
    env = worker_env()
    spec = {"workload": workload, "seed": seed, "tiny": tiny}
    print(f"# gausscalc benchmark: workload={workload} trace={int(trace)} "
          f"seconds={seconds:g} why: {workloads.WHY[workload]}")
    print("# environment: " + json.dumps(env_record, sort_keys=True))

    if trace:
        rounds = repeat([{**spec, "in_process": True}, {**spec, "in_process": True, "traced": True}],
                        seconds, env)
        passes = [p for r in rounds for p in r]
        metrics, problems, edges = traced_metrics(rounds)
        units = {name: unit_of(name) for name in metrics}
        printed = {}
        notes = {"trace.overhead_s": f"traced minus untraced scaled cpu_s, {len(rounds)} pairs"}
        print("# spans (parent -> child: calls): " + json.dumps(edges))
    else:
        rounds = repeat([spec], seconds, env)
        passes = [r[0] for r in rounds]
        setups = [p["setup"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn({**spec, "setup_only": True}, env)["setup"])
        metrics, printed, notes = end_to_end(passes, setups)
        units = UNITS
        problems = []

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = sorted({m for p in passes for m in p["problems"]}) + problems
    for name, value in {**metrics, **printed}.items():
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:44s} {shown:14s} {units[name]:6s} {notes.get(name, '')}")
    print(f"{'fail_frac':44s} {failed / attempted:<14.6g} {'ratio':6s} {failed} of {attempted} checks")
    for problem in problems:
        print(f"# problem: {problem}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "gausscalc" / "__init__.py").is_file():
        print(f"error: no gausscalc sources under {workloads.SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
