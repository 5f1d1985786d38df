#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload stage_loop --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which compiles the library from src/) into the directory
named by CARGO_TARGET_DIR, or .bench_build by default, then runs
hmis_perfbench.  Its output passes through unchanged once its last
line has been checked: one JSON object with exactly the keys correct,
attempted, failed and metrics, whose metrics are exactly the end_to_end
(--trace 0) or per_layer (--trace 1) metrics of BENCHMARK.json, each with its
unit.  Anything else is an error: exit code != 0 and no result line.

Extra flags, for the self-test: --scale tiny shrinks every input about ten
times; --inject wrong|refuse makes one answer wrong or refused.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(os.cpu_count() or 1)
    # Configure every time: cheap on an existing tree, and CMake refuses a
    # build directory that was configured from another checkout's sources.
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "hmis_perfbench"]]
    for cmd in steps:
        code, _ = run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail(f"build step failed ({code}): {' '.join(cmd)}")
    return os.path.join(build_dir, "hmis_perfbench")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def check_result(line, spec, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys are {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        raise ValueError("failed must be a whole number >= 0")
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ: missing {missing}, extra {extra}")
    for name, unit in want.items():
        entry = got[name]
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            raise ValueError(f"metric {name} must be {{value, unit: {unit}}}")
        if not isinstance(entry["value"], (int, float)):
            raise ValueError(f"metric {name} is not a number")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stage_loop", "short_solves", "serve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--inject", choices=["none", "wrong", "refuse"],
                    default="none")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    program = build(build_dir)

    work = os.path.join(build_dir, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--scale", args.scale, "--inject", args.inject,
           "--git-sha", git_sha()]
    try:
        code, out = run_checked(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                                text=True)
        if args.trace and code == 0:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copy(os.path.join(work, "trace.json"),
                        os.path.join(traces,
                                     f"{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail(f"hmis_perfbench exited with status {code}")
    lines = out.splitlines()
    if not lines:
        fail("hmis_perfbench printed nothing")
    try:
        check_result(lines[-1], spec, args.trace)
    except ValueError as e:
        fail(f"malformed result line: {e}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
