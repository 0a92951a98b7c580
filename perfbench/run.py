"""Layered benchmark of the gtc toolkit (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/``.
Workloads: trick-treat, sessions, hom, search (see ``workloads.py``).

``--trace 0`` runs the closed loop for S seconds (and at least the
workload's ``min_ops``) and reports the end-to-end metrics.  ``--trace 1``
runs an untraced phase of S/2 seconds, for the per-op phase timings and
the untraced throughput, then a traced phase of exactly ``trace_ops`` ops
with span and count wrappers around every layer (``tracing.py``), and
reports the per-layer metrics.  Counts cover a fixed op prefix, so they
repeat exactly at one seed; so does the SHA-256 digest of the outputs of
the first ``min_ops`` ops.

Clocks: times are process CPU time (``time.process_time``).  The loop
is single-threaded and never waits, so CPU time is its wall time minus
the preemption that other processes on a shared host add.  ``ops_per_s``
is ops over the CPU time of the timed phase (the wall-clock rate is in
the record); op and phase latencies are the CPU time of the calls into
the package.  ``setup_s`` is the median over several
child processes of the CPU time from exec to the first op being ready to
run: interpreter start, the ``gtc`` import and building the fixtures.
Span times in the traced run are wall time (``time.perf_counter``).

Every metric is printed by name with its unit, then a ``record`` line
(seeds, Python, commit, nproc, CPU probe, sample counts, digests, all
counts), then, as the last line, the JSON result.  A wrong output makes
``correct`` false and the exit code 1.  ``selftest.py`` checks that.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from array import array
from statistics import median, quantiles
from time import perf_counter, process_time

from metrics import END_TO_END, PER_LAYER
from tracing import Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
HARD_STOP_S = 150.0  # stop timed loops early rather than overrun the 180 s limit
HOLDOUT_SEED = 7_300_218  # reserved: confirm claims on it, never tune against it
PROCESS_START = perf_counter()


def import_package() -> float:
    """Import gtc from this checkout's src/; returns the import CPU time in ms."""
    if not os.path.isfile(os.path.join(SRC, "gtc", "__init__.py")):
        sys.exit(f"error: no package at {SRC}/gtc; run from the root of a checkout")
    sys.path.insert(0, SRC)
    t0 = process_time()
    import gtc.cli  # noqa: F401  (imports every layer)

    ms = (process_time() - t0) * 1000.0
    if not os.path.abspath(sys.modules["gtc"].__file__).startswith(SRC + os.sep):
        sys.exit("error: gtc was imported from outside this checkout")
    return ms


def cpu_probe_ms() -> float:
    """A fixed pure-Python loop, so host drift shows beside the numbers."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return (perf_counter() - t0) * 1000.0


def probe_setup(args) -> tuple[list, list, list]:
    """Spawn fresh interpreters that set up the workload and report ready.

    Returns each one's CPU time from exec to ready, which other processes
    on a shared host do not inflate, its wall time, and its import time.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    setup_cpu, setup_wall, import_ms = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            proc.wait()
        if proc.returncode != 0 or not line:
            sys.exit(f"error: set-up probe exited with {proc.returncode}")
        report = json.loads(line)
        setup_cpu.append(report["cpu_s"])
        setup_wall.append(t1 - t0)
        import_ms.append(report["import_ms"])
    return setup_cpu, setup_wall, import_ms


class Phase:
    """One closed loop over ops; failures are counted, not raised."""

    def __init__(self, workload, keep: int) -> None:
        self.workload, self.keep = workload, keep
        self.latencies = array("d")  # flat floats: memory barely grows with the op count
        self.marks: list = []  # op count at the end of each wall-clock second
        self.hash = hashlib.sha256()
        self.ops = self.failed = 0
        self.wall = self.cpu = 0.0
        self.truncated = False

    def run(self, min_ops: int, seconds: float, tracer=None) -> "Phase":
        gc.collect()
        start, cpu_start = perf_counter(), process_time()
        deadline = start + seconds
        i = 0
        while True:
            now = perf_counter()
            while now >= start + len(self.marks) + 1:
                self.marks.append(len(self.latencies))
            if i >= min_ops and now >= deadline:
                break
            if now - PROCESS_START > HARD_STOP_S:
                self.truncated = True
                break
            if tracer is not None:
                tracer.op_id = i
            try:
                dt, ok, out = self.workload.op(i)
            except Exception:
                if self.failed == 0:
                    traceback.print_exc(file=sys.stderr)
                self.failed += 1
                out = None
            else:
                self.latencies.append(dt)
                if not ok:
                    if self.failed == 0:
                        print(f"op {i}: output failed its check", file=sys.stderr)
                    self.failed += 1
            if i < self.keep:  # hash now: holding outputs would grow the heap the GC scans
                text = "<raised>" if out is None else self.workload.serialize(out)
                self.hash.update(text.encode() + b"\0")
            i += 1
        self.wall = perf_counter() - start
        self.cpu = process_time() - cpu_start
        self.ops = i
        return self

    def windows(self) -> list:
        """(ops, p50 ms) of each whole wall-clock second: host drift in a run."""
        out, lo = [], 0
        for hi in self.marks:
            if hi > lo:
                out.append((hi - lo, median(self.latencies[lo:hi]) * 1000.0))
            lo = hi
        return out

    def ops_per_s(self) -> float:
        """Ops per CPU second of the phase (the loop never waits)."""
        return self.ops / self.cpu

    def tail(self) -> tuple[int, float]:
        """p99 with at least 1000 samples, else p90 (ten samples beyond it)."""
        pct = 99 if len(self.latencies) >= 1000 else 90
        if len(self.latencies) < 2:
            return pct, max(self.latencies, default=0.0) * 1000.0
        return pct, quantiles(self.latencies, n=100)[pct - 1] * 1000.0


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "gtc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def layer_values(workload, tracer, untraced: Phase, traced: Phase, import_ms) -> dict:
    values = dict(tracer.counts)
    values.update({f"{name}.self_ms": ms for name, ms in tracer.self_ms().items()})
    values.update(workload.layer_metrics())
    values["cli.import_ms"] = median(import_ms)
    values["trace.overhead_ratio"] = untraced.ops_per_s() / traced.ops_per_s()
    values["failed_ratio"] = (untraced.failed + traced.failed) / (untraced.ops + traced.ops)
    return {name: values.get(name, 0) for name in PER_LAYER}


def end_to_end_values(untraced: Phase, setup_s, rss_mb) -> dict:
    return {
        "setup_s": median(setup_s),
        "ops_per_s": untraced.ops_per_s(),
        "op_p50_ms": median(untraced.latencies) * 1000.0 if untraced.latencies else 0.0,
        "op_tail_ms": untraced.tail()[1],
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt every output (the checks must catch it)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]

    import_ms_here = import_package()
    if args.setup_probe:
        workload = cls(args.seed, False)
        print(json.dumps({"import_ms": import_ms_here, "cpu_s": process_time()}), flush=True)
        workload.close()
        return 0

    probes = [cpu_probe_ms() for _ in range(3)]
    setup_s, setup_wall, import_ms = probe_setup(args)
    workload = cls(args.seed, args.inject_fault)
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = Phase(workload, keep=cls.min_ops).run(cls.min_ops, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases = [untraced]
        if args.trace:
            tracer = Tracer()
            workload.begin_traced(tracer)
            tracer.install()
            try:
                traced = Phase(workload, keep=cls.trace_ops).run(cls.trace_ops, 0.0, tracer)
            finally:
                tracer.uninstall()
            phases.append(traced)
        errors = workload.final_errors()
        pct, _ = untraced.tail()
        record = {
            "workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
            "python": platform.python_version(), "commit": git_commit(),
            "source_sha256": source_digest(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_probe_ms": probes, "setup_s_samples": setup_s,
            "setup_wall_s_samples": setup_wall,
            "import_ms_samples": import_ms, "ops": untraced.ops,
            "latency_samples": len(untraced.latencies), "tail_percentile": pct,
            "min_ops": cls.min_ops, "digest": untraced.hash.hexdigest(),
            "truncated": untraced.truncated, "errors": errors,
            "windows": untraced.windows(), "wall_ops_per_s": untraced.ops / untraced.wall,
        }
        if args.trace:
            units = PER_LAYER
            metrics = layer_values(workload, tracer, untraced, traced, import_ms)
            record.update({
                "trace_ops": traced.ops, "traced_digest": traced.hash.hexdigest(),
                "traced_wall_s": traced.wall, "spans": len(tracer.spans),
                "counts": dict(sorted(tracer.counts.items())),
                "group_ops": dict(sorted(tracer.group_ops.items())),
            })
        else:
            units = END_TO_END
            metrics = end_to_end_values(untraced, setup_s, rss_mb)
    finally:
        workload.close()

    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("record " + json.dumps(record, sort_keys=True))
    failed = sum(p.failed for p in phases)
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct, "attempted": sum(p.ops for p in phases), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
