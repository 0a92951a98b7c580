"""Self-test of the benchmark itself (not part of the timed runs).

    python3 perfbench/selftest.py [--seed N]

Checks, from the root of a checkout:
- the metric names and units in BENCHMARK.json match ``metrics.py``;
- two traced runs at one seed give identical counts and digests, and an
  untraced run gives the same output digest;
- the checks bite: with ``--inject-fault`` (a wrong session key, one
  flipped ciphertext letter, a wrong search verdict, a flipped decrypted
  bit) every workload reports ``correct: false`` and exits 1;
- without the package next to it, the benchmark exits non-zero and prints
  no result.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN = os.path.join(HERE, "run.py")
COUNT_UNITS = {"count", "letters", "ratio"}
TIMED_RATIOS = {"trace.overhead_ratio"}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record ")),
                  None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, record, result


def check_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != expected:
            fail(f"BENCHMARK.json {key} differs from metrics.py: "
                 f"{sorted(set(listed.items()) ^ set(expected.items()))}")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    print("ok: metric and workload names match BENCHMARK.json")


def check_repeatable(workload, seed) -> None:
    runs = [run(workload, seed, 1) for _ in range(2)]
    for code, record, result in runs:
        if code != 0 or not result or not result["correct"]:
            fail(f"{workload}: traced run failed (exit {code})")
    (_, r1, m1), (_, r2, m2) = runs
    for key in ("counts", "group_ops", "digest", "traced_digest"):
        if r1[key] != r2[key]:
            fail(f"{workload}: {key} differs between two traced runs at seed {seed}")
    counted = [n for n, u in PER_LAYER.items() if u in COUNT_UNITS and n not in TIMED_RATIOS
               and not n.endswith(("accuracy", "_rate"))]
    for name in counted:
        if m1["metrics"][name]["value"] != m2["metrics"][name]["value"]:
            fail(f"{workload}: {name} differs between two traced runs")
    code, r0, result = run(workload, seed, 0)
    if code != 0 or r0["digest"] != r1["digest"]:
        fail(f"{workload}: untraced run digest differs from the traced run's")
    for name in END_TO_END:
        if result["metrics"][name]["value"] <= 0:
            fail(f"{workload}: {name} is not positive")
    print(f"ok: {workload}: counts and digests repeat ({len(r1['counts'])} counters)")


def check_inject(workload, seed) -> None:
    code, _, result = run(workload, seed, 0, "--inject-fault")
    if code != 1 or result is None or result["correct"]:
        fail(f"{workload}: a corrupted output was not caught (exit {code})")
    print(f"ok: {workload}: corrupted outputs caught "
          f"({result['failed']}/{result['attempted']} ops failed)")


def check_without_package() -> None:
    bare = os.path.join(ROOT, ".perfbench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hom", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the package next to it")
    print(f"ok: without the package the benchmark exits {proc.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    check_names()
    check_without_package()
    for name in WORKLOADS:
        check_inject(name, args.seed)
        check_repeatable(name, args.seed)
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
