#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures the program's
own CMake project with the benchmark driver attached
(perfbench/cmake/attach.cmake) and builds it into .bench_build/; later
calls rebuild incrementally. The driver runs the workload for S seconds
and prints its record; the last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list;
this script checks the names and units against that file.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
DRIVER = os.path.join(BUILD_DIR, "perfbench", "perfbench_driver")
DRIVER_TIMEOUT_S = 170


def checkout_env():
    """Environment for child processes: temporary files (compiler scratch
    included) stay inside the checkout's build directory."""
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the driver and the libraries it links."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the repository root: CMakeLists.txt and src/ not found")
    hook = os.path.abspath(os.path.join("perfbench", "cmake", "attach.cmake"))
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DCMAKE_PROJECT_crkhacc_INCLUDE={hook}"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench_driver", "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=checkout_env()) != 0:
                fail(f"build failed, see {log_path}")


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def run_driver(args):
    workdir = os.path.join(BUILD_DIR, "work")
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True, env=checkout_env())
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"driver exited with code {proc.returncode}")
    return out.rstrip("\n").split("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    lines = run_driver(args)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write("\n".join(lines) + "\n")
        fail("driver printed no result line")
    for line in lines[:-1]:
        print(line)

    # The record must carry exactly the metrics BENCHMARK.json declares for
    # this mode, each with its declared unit.
    expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        print(f"FAILED metric set: missing {missing}, undeclared {extra}, "
              f"unit mismatch {wrong}")
        result["correct"] = False
        result["failed"] = max(result["failed"], 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
