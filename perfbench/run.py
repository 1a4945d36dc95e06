#!/usr/bin/env python3
"""Benchmark of the sombortree package, driven through its public functions.

    python3 perfbench/run.py --workload audit|search|large|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Prints the environment, the workload's
description, a table of metrics with units, and as its last line one JSON
object with the keys correct, attempted, failed and metrics.  ``--trace 0``
reports the end-to-end metrics, whose op times are scaled by a reference
kernel timed around and during every op to the speed of a quiet host;
``--trace 1`` times the same passes untraced, then one traced pass, and
reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Child processes that each time one cold set-up; setup_s is the median of
#: their scaled times.  They run between passes, so that they sample the
#: host over the whole run.
SETUP_PROBES = 9

#: The oracle's tie-heavy and tie-free reference sequences in `audit`.
TIES, NOTIES = "2,2,2,2,2,2,2,2", "3,2,2,2,2,2,2"

#: The reference kernel's time on a 2-vCPU Intel Xeon VM when the host is
#: quiet; the ``*_ref_*`` metrics are op times scaled to that speed.
REFERENCE_S = 0.002

#: Seconds between the reference samples taken while an op runs.
SAMPLE_EVERY_S = 0.05


def reference_kernel(n: int = 1600) -> float:
    """Fixed work of the kinds the package does: tuples, dict and set
    lookups, a small heap, float square roots.  About 2 ms on a quiet host.
    """
    table, seen, heap = {}, set(), []
    total = 0.0
    for i in range(n):
        key = (i & 15, i % 13, i)
        table[key] = [i, i + 1]
        seen.add(key[:2])
        heapq.heappush(heap, (key[1], i))
        if len(heap) > 16:
            heapq.heappop(heap)
        total += math.sqrt(i * i + key[1])
    for key in table:
        total += table[key][0] + (key[:2] in seen)
    return total


def reference_s() -> float:
    """Time one reference kernel: how fast the host runs right now."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def environment() -> dict:
    uname = os.uname()
    cpu = uname.machine
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "os": f"{uname.sysname} {uname.release}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "reference_ms": round(statistics.median(reference_s() for _ in range(5)) * 1e3, 4),
    }


def setup(name: str, seed: int, scale: str):
    """Import the program and generate the workload's inputs."""
    pkg = workloads.load_program()
    return pkg, workloads.WORKLOADS[name].inputs(pkg, seed, scale)


def setup_probe(name: str, seed: int, scale: str) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter, so that imports are cold.

    Returns (time, mean of the reference times just before and after it),
    both taken in that interpreter.
    """
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name,
         "--seed", str(seed), "--scale", scale],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    took, ref = proc.stdout.split()[-2:]
    return float(took), float(ref)


class HostSampler:
    """Times the reference kernel every SAMPLE_EVERY_S seconds during an op.

    A SIGALRM handler runs the kernel between the op's bytecodes, so that
    an op of seconds has the host's speed while it ran, not only around
    it.  Each sample records when it started, so that its time can be
    taken out of the op's time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._old = signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def arm(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self):
        self.disarm()
        signal.signal(signal.SIGALRM, self._old)


def run_passes(pkg, wl, inputs, expected, seconds, tracer=None, max_passes=None,
               between=None):
    """Repeat the workload's operations in passes until `seconds` have gone.

    Each output is checked as soon as its op returns; then a full garbage
    collection runs, so that no op pays for the garbage of the ops before
    it, and the reference kernel is timed.  Every op thus has the host's
    speed just before and just after it, and, untraced, every
    SAMPLE_EVERY_S seconds while it runs.  None of this counts in the op's
    time, and a pass's wall time is the sum of its ops' times.  `between`
    is called after each pass.  `op_s` maps each op to its (time, mean
    reference time) pairs, one per pass.
    """
    walls, op_s, errors, references = [], {}, [], []
    attempted = 0
    sampler = HostSampler() if tracer is None else None
    start = time.perf_counter()
    try:
        while True:
            gc.collect()
            references.append(reference_s())
            wall = 0.0
            for op in wl.ops(pkg, inputs, expected):
                if sampler is not None:
                    sampler.arm()
                a = time.perf_counter()
                try:
                    if tracer is None:
                        out = op.run()
                    else:
                        with tracer.op(op.label):
                            out = op.run()
                except Exception:
                    out, err = None, traceback.format_exc(limit=-3)
                else:
                    err = None
                b = time.perf_counter()
                inside = []
                if sampler is not None:
                    sampler.disarm()
                    inside = sampler.samples
                attempted += 1
                if err is None:
                    try:
                        err = op.check(out)
                    except Exception:
                        err = traceback.format_exc(limit=-3)
                if err:
                    errors.append(f"{op.label}: {err}")
                del out
                gc.collect()
                references.append(reference_s())
                took = b - a - math.fsum(dt for t, dt in inside if a <= t < b)
                around = [references[-2], references[-1], *(dt for _, dt in inside)]
                op_s.setdefault(op.label, []).append((took, statistics.fmean(around)))
                wall += took
            walls.append(wall)
            if between is not None:
                between()
            if time.perf_counter() - start >= seconds or len(walls) == max_passes:
                break
    finally:
        if sampler is not None:
            sampler.close()
    return walls, op_s, attempted, errors, references


def per_op(op_s, scaled: bool) -> list[float]:
    """Each op's median time over the run's passes, in ascending order.

    With `scaled`, each time is first multiplied by REFERENCE_S over the
    reference time around it: the time the op would take on the quiet host.
    """
    return sorted(
        statistics.median(t * REFERENCE_S / r if scaled else t for t, r in v)
        for v in op_s.values()
    )


def op_stats(op_s, scaled: bool) -> tuple[float, float, float]:
    """(wall, p50, tail) in seconds: the sum of the per-op medians, their
    median, and the highest percentile with at least ten ops beyond it."""
    ops = per_op(op_s, scaled)
    if len(ops) < 11:
        raise ValueError("op_tail needs at least 11 ops per pass")
    return math.fsum(ops), statistics.median(ops), ops[-11]


def end_to_end(setups, op_s) -> dict:
    wall, p50, tail = op_stats(op_s, scaled=True)
    return {
        "setup_s": (statistics.median(t * REFERENCE_S / r for t, r in setups), "s"),
        "wall_ref_s": (wall, "s"),
        "op_p50_ref_ms": (p50 * 1e3, "ms"),
        "op_tail_ref_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ops": (len(op_s), "count"),
    }


def as_measured(setups, walls, op_s) -> dict:
    """The unscaled times, printed next to the metrics."""
    _, p50, tail = op_stats(op_s, scaled=False)
    return {
        "setup_measured_s": (statistics.median(t for t, _ in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
    }


def run_workload(name, seed, seconds, trace, scale="full", probes=SETUP_PROBES):
    """Run one workload; returns (description, unscaled times, result,
    failed checks)."""
    wl = workloads.WORKLOADS[name]
    expected = workloads.load_expected()
    workloads.OUT_DIR.mkdir(exist_ok=True)
    setups = []

    def probe():
        if len(setups) < probes:
            setups.append(setup_probe(name, seed, scale))

    pkg, inputs = setup(name, seed, scale)
    walls, op_s, attempted, errors, references = run_passes(
        pkg, wl, inputs, expected, seconds, between=probe)
    while len(setups) < probes:
        probe()
    desc = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "why": wl.why, "generator": wl.generator, "passes": len(walls),
        "ops_per_pass": len(op_s), "setup_probes": len(setups),
        "tail_percentile": round(100 * (len(op_s) - 11) / (len(op_s) - 1), 1),
        "reference_ms_during": round(statistics.median(references) * 1e3, 4),
        "reference_ms_quiet": REFERENCE_S * 1e3,
    }
    measured = {k: round(v, 6) for k, (v, _) in as_measured(setups, walls, op_s).items()}
    if not trace:
        metrics = end_to_end(setups, op_s)
    else:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            pkg, inputs = setup(name, seed, scale)
            twalls, _, tattempted, terrors, _ = run_passes(
                pkg, wl, inputs, expected, 0, tracer, max_passes=1)
        finally:
            restore()
        attempted += tattempted
        errors += terrors
        spans_path = workloads.OUT_DIR / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans_path)
        desc["spans"] = os.path.relpath(spans_path)
        metrics = tracing.layer_metrics(
            tracer.spans, twalls[0], statistics.median(walls), TIES, NOTIES)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return desc, measured, result, errors


SAMPLES = {
    "setup_s": "median of {setup_probes} set-ups, scaled to the quiet host",
    "wall_ref_s": "sum of {ops_per_pass} ops, each its median scaled time",
    "op_p50_ref_ms": "median of {ops_per_pass} ops, each its median of "
                     "{passes} passes, scaled to the quiet host",
    "op_tail_ref_ms": "p{tail_percentile} of the same; 10 beyond it",
    "ops": "per pass",
    "setup_measured_s": "as measured: median of the same set-ups",
    "wall_s": "as measured: median of {passes} passes",
    "op_p50_ms": "as measured: median of the {ops_per_pass} per-op medians",
    "op_tail_ms": "as measured: p{tail_percentile} of the same",
}


def print_table(desc, measured, result) -> None:
    print(f"{desc['workload']}: seed {desc['seed']}, {desc['passes']} untraced "
          f"pass(es) of {desc['ops_per_pass']} ops, {desc['setup_probes']} set-ups")
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    if not desc["trace"]:
        rows += [(k, v, "ms" if k.endswith("_ms") else "s") for k, v in measured.items()]
    for k, v, unit in rows:
        note = SAMPLES.get(k, "") if not desc["trace"] else ""
        print(f"  {k:<44} {v:>14.6g} {unit:<9} {note.format(**desc)}")
    print(f"  {'ops_failed':<44} {result['failed']:>14d} count  "
          f"(of {result['attempted']} attempted)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        reference_s()  # warm up the kernel, not the package
        before = reference_s()
        t0 = time.perf_counter()
        setup(args.workload, args.seed, args.scale)
        took = time.perf_counter() - t0
        print(took, (before + reference_s()) / 2)
        return 0

    env = environment()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        desc, measured, result, errors = run_workload(
            name, args.seed, args.seconds, args.trace, args.scale)
        if env is not None:  # printed once the program is known to load
            print(json.dumps({"env": env}))
            env = None
        print(json.dumps({**desc, "as_measured": measured}))
        print_table(desc, measured, result)
        for e in errors[:5]:
            print(f"FAILED {name} {e}", file=sys.stderr)
        results[name] = result
    print(json.dumps({"env_end": {
        "reference_ms": round(statistics.median(reference_s() for _ in range(5)) * 1e3, 4)}}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
