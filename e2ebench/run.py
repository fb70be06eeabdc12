#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. The benchmark binary is built from the
checkout's sources into $CARGO_TARGET_DIR (default .bench_build, relative to
the checkout root); stores, sockets and span files live in a work directory
under it. The report goes to stdout, and its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}, the metrics being the
end-to-end ones BENCHMARK.json names (--trace 0) or its per-layer ones
(--trace 1). Exits non-zero, without a result line, if the build fails or a
metric is missing; exits 1 after the result line if a correctness check
failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fleet_stream", "disconnect_refill", "crash_restart")
# Every process of one invocation ends within this many seconds.
RUN_BUDGET_S = 170
BUILD_JOBS = 4


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    cmake_dir = build_dir / "cmake"
    if not (cmake_dir / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(root / "e2ebench"), "-B", str(cmake_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", str(cmake_dir), "--target", "e2ebench", "-j", str(BUILD_JOBS)],
        stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    return cmake_dir / "e2ebench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        fail("no BENCHMARK.json at the checkout root")
    spec = json.loads(spec_path.read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    binary = build(root, build_dir)

    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = None
    if args.trace == "1":
        # Tracing overhead: the same workload and seed untraced, in its own
        # process so its memory figures start from the same clean slate.
        untraced, _ = run_binary(binary, build_dir, args, "0", deadline)
    result, lines = run_binary(binary, build_dir, args, args.trace, deadline)
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        print("\n".join(lines))
        fail("metrics missing from the run: " + ", ".join(missing))
    for line in lines:
        print(line)
    if untraced is not None:
        for m in spec["end_to_end"]:
            base = untraced["metrics"].get(m["name"], {}).get("value", 0.0)
            traced = result["metrics"].get(m["name"], {}).get("value", 0.0)
            ratio = traced / base if base else 0.0
            print(f"metric bench.trace_overhead.{m['name']} {ratio:.6g} ratio "
                  f"(traced {traced:.6g} vs untraced {base:.6g} {m['unit']})")
    correct = result["correct"] and (untraced is None or untraced["correct"])
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: result["metrics"][name] for name in wanted},
    }
    print(json.dumps(final), flush=True)
    sys.exit(0 if correct else 1)


def run_binary(binary, build_dir, args, trace, deadline):
    """Runs one benchmark process; returns its result object and report lines."""
    work_dir = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    spans_dir = build_dir / "spans"
    # A session of its own, so a timeout can stop the binary and any server
    # child it forked.
    proc = subprocess.Popen(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", trace, "--work-dir", str(work_dir)],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_BUDGET_S} s")
    finally:
        for spans in work_dir.glob("spans-*.jsonl"):
            spans_dir.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), spans_dir / spans.name)
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"benchmark exited with {proc.returncode} and no result")
    return json.loads(lines[-1]), lines[:-1]


if __name__ == "__main__":
    main()
