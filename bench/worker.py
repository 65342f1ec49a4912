"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py '{"workload": "identity", "seed": 1, ...}'

Builds the workload's seeded inputs, reports when the first check is
ready, runs every check once with one in flight, judging each result
against reference.json as it comes.  Prints one JSON line.  run.py
starts one worker per pass, so nothing (the Hermite cache included)
carries over between passes.

Check CPU times are also reported scaled to a machine of fixed speed.
On a shared 2-vCPU virtual machine the speed of pure-Python work flips
between two levels about 2x apart, often within a second, so the CPU
time of a fixed pass moved by up to 40 % between runs.  Its ratio to a
fixed pure-Python kernel run alongside moved by about 3 %.  So the
worker runs kernel_s() between checks, outside the timed calls, and
multiplies each check's CPU time by KERNEL_NOMINAL_S over the mean of
the kernel samples just before and after its chunk of checks.  Set-up
is not scaled: interpreter start and imports slowed by only about 20 %
when the kernel slowed 2x, so scaling would overcorrect them.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference.json"

_perf = time.perf_counter

#: The kernel's CPU seconds on the machine that scaled times refer to.
KERNEL_NOMINAL_S = 0.02
#: Checks run between two kernel samples until they have used this much CPU.
KERNEL_EVERY_S = 0.2


def kernel_s() -> float:
    """CPU seconds of a fixed kernel of the kind of work gausscalc does:
    Fraction arithmetic and dict updates keyed by tuples."""
    start = time.process_time()
    acc, terms = Fraction(0), {}
    for i in range(1, 2000):
        acc += Fraction(i % 13 + 1, i % 97 + 1)
        key = (i % 7, i % 11)
        terms[key] = terms.get(key, 0) + Fraction(1, i % 5 + 1)
    return time.process_time() - start


def _cpu():
    """CPU seconds of this process and of its waited-for children."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def execute(checks, cpu_clock=time.process_time, tracer=None):
    """Run the checks in order, one at a time, judging each result as soon as its call returns.

    Returns the timings (wall, CPU and scaled CPU seconds per check, and
    the kernel samples) and ``(digests, members, failures)``: item -> hex
    digest of the exact outputs, item -> indices of its checks, and check
    index -> problem message.  Judging and kernel samples run outside the
    timed call, with the tracer off, and each result is dropped once it is
    digested, so the worker holds no more output than a user's sweep.
    """
    latencies, cpu = [], []
    # Each check is scaled by the mean of the kernel samples before and after its chunk.
    kernel, chunk_of, since = [kernel_s()], [], 0.0
    hashes, members, failures = {}, defaultdict(list), {}
    for i, check in enumerate(checks):
        if tracer is not None:
            tracer.active = True
        t, c = _perf(), cpu_clock()
        try:
            result, error = check.fn(*check.args), None
        except Exception as exc:  # a raising check is a failed check, not a harness error
            result, error = None, f"{check.kind} raised {exc!r}"
        cpu.append(cpu_clock() - c)
        latencies.append(_perf() - t)
        if tracer is not None:
            tracer.active = False
        chunk_of.append(len(kernel) - 1)
        since += cpu[-1]
        if since >= KERNEL_EVERY_S or i == len(checks) - 1:
            kernel.append(kernel_s())
            since = 0.0
        text = None
        if error is None:
            try:
                text, error = check.verify(result, check.args)
            except Exception as exc:  # a malformed result fails its check
                error = f"{check.kind}: cannot verify the result: {exc!r}"
        del result
        if error:
            failures[i] = error
        if check.item is not None:
            members[check.item].append(i)
            hashes.setdefault(check.item, hashlib.sha256()).update((text or "").encode() + b"\n")
    digests = {k: h.hexdigest()[:32] for k, h in hashes.items()}
    scaled = [c * 2 * KERNEL_NOMINAL_S / (kernel[j] + kernel[j + 1]) for c, j in zip(cpu, chunk_of)]
    timings = {"latencies": latencies, "cpu": cpu, "scaled": scaled, "kernel": kernel}
    return timings, (digests, members, failures)


def reference_key(item, tiny):
    """The tiny smoke-test sizes run fewer checks per item, so they have their own digests."""
    return f"tiny/{item}" if tiny else item


def load_gausscalc(with_cli):
    """Import gausscalc from this checkout's src/ and return (module, import seconds)."""
    sys.path.insert(0, str(workloads.SRC))
    start = _perf()
    import gausscalc

    if with_cli:
        import gausscalc.cli  # noqa: F401
    import_s = _perf() - start
    origin = Path(gausscalc.__file__).resolve()
    if workloads.SRC.resolve() not in origin.parents:
        raise SystemExit(f"gausscalc was imported from {origin}, not from {workloads.SRC}")
    return gausscalc, import_s


def main(spec):
    name = spec["workload"]
    build, slots = workloads.WORKLOADS[name]
    in_process = name != "cli" or spec.get("in_process", False)
    gc, import_s = load_gausscalc(name == "cli") if in_process else (None, 0.0)
    tracer = None
    if spec.get("traced"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # before the checks bind any function
    checks = build(gc, workloads.choices(name, spec["seed"], slots), spec.get("tiny", False))
    ready_ns, ready_cpu = time.monotonic_ns(), time.process_time()
    ready = {"ready_ns": ready_ns, "ready_cpu": ready_cpu}
    if spec.get("setup_only"):
        return ready

    # Subprocess checks are charged their child's CPU time as well.
    timings, (digests, members, failures) = execute(
        checks, time.process_time if in_process else _cpu, tracer)
    reference = json.loads(REFERENCE.read_text()).get(name, {}) if REFERENCE.exists() else {}
    for item, digest in digests.items():
        if reference.get(reference_key(item, spec.get("tiny", False))) != digest:
            for i in members[item]:
                failures.setdefault(i, f"exact output of {item} differs from the reference")

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    out = {
        **ready,
        **timings,
        "attempted": len(checks),
        "failed": len(failures),
        "problems": sorted(set(failures.values()))[:5],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
    }
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["cli.import_s"] = import_s
        expected = sorted({span for check in checks for span in check.expects})
        out["trace"] = {
            "metrics": metrics,
            "missing": [span for span in expected if not tracer.calls[span]],
            "edges": {f"{parent} -> {child}": n for (parent, child), n in sorted(tracer.edges.items())},
        }
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
