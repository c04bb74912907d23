#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 repobench/run.py --workload plan-hot --seed 1 --seconds 25 --trace 0
    python3 repobench/run.py --self-test

The first call configures and builds the benchmark (CMake, Release) into
$CARGO_TARGET_DIR/repobench, or .bench_build/repobench when the variable is
unset; later calls rebuild incrementally. Build output goes to stderr. The
benchmark's stdout is passed through, so its last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exit codes: 0 ok, 1 a correctness check failed, 2 the benchmark could not be
built or run (no result line is printed then).
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base / "repobench").resolve()


def build(out: Path) -> None:
    """Configures (once) and builds the benchmark; raises on failure."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, stderr=sys.stderr, check=True,
                timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", str(out), "--", "-j", jobs],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)


def quality_bounds() -> list:
    """--bound arguments of the negative control, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args = []
    for metric in spec["end_to_end"]:
        if metric["name"] in ("qerror_p50", "qerror_p95", "plan_cost_ratio_mean"):
            args += ["--bound", "%s=%s" % (metric["name"], metric["bound"])]
    return args


def run(cmd: list) -> int:
    """Runs a benchmark binary, passing stdout through; returns its code."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("repobench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(stdout)
        print("repobench: benchmark exited %d without a result"
              % proc.returncode, file=sys.stderr)
        return 2
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(stdout)
        print("repobench: last line is not a JSON result", file=sys.stderr)
        return 2
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("repobench: malformed result keys %s" % sorted(result),
              file=sys.stderr)
        return 2
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own tests (negative control)")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("repobench: build failed: %s" % err, file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([str(out / "repobench_negative_control")]
                              + quality_bounds(),
                              timeout=RUN_TIMEOUT_S).returncode
    return run([str(out / "repobench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)])


if __name__ == "__main__":
    sys.exit(main())
