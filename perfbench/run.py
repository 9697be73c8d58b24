#!/usr/bin/env python3
"""Closed-loop benchmark of the engine, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n>
                             --seconds <s> --trace <0|1>

Workloads: amplab_colf, cached_interactive, etl_spill (see client.cc and
BENCHMARK.json for what each exercises and why).

The script builds the engine's libraries and the client from source into
.bench_build/ (an optimized CMake build; later runs only re-check it), runs
the arithmetic self-test, then runs the client in a private scratch
directory under .bench_scratch/ that is removed when the run ends. With
--trace 1 the client's Chrome trace is kept under .bench_out/.

The last line of stdout is the client's JSON result. The exit code is 0
only when the build, the self-test and every request succeeded with the
right answer.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
SCRATCH_ROOT = os.path.join(ROOT, ".bench_scratch")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("amplab_colf", "cached_interactive", "etl_spill")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=timeout, check=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("engine sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                "perfbench_client", "perfbench_selftest"], BUILD_TIMEOUT_S)
    run_logged([os.path.join(BUILD_DIR, "perfbench_selftest")], 60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1

    scratch = os.path.join(SCRATCH_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                        os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "perfbench_client"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", scratch]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    started = time.monotonic()
    try:
        os.makedirs(scratch)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("client exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass
    lines = proc.stdout.splitlines()
    has_result = bool(lines) and lines[-1].startswith("{")
    if proc.returncode == 0 and has_result:
        sys.stdout.write(proc.stdout)
        return 0
    # A wrong answer still prints its result (correct: false); any other
    # failure prints none.
    (sys.stdout if has_result else sys.stderr).write(proc.stdout)
    log("client exited with %d after %.1f s" %
        (proc.returncode, time.monotonic() - started))
    return proc.returncode or 1


if __name__ == "__main__":
    sys.exit(main())
