#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first run builds the harness from
the checkout's own sources into .bench_build/perfbench (about a minute on
4 cores); later runs reuse that build.  The workload runs in a process of
its own, so its peak RSS is its own.  Everything the harness prints goes to
standard output, and the last line is the result object; on any failure the
script exits non-zero and prints no result.  perfbench/README.md describes
the workloads and metrics.
"""
import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def die_with_parent():
    """Runs in the child: the kernel kills it if this script dies first."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def call(command, timeout, capture=False):
    """Runs `command` in its own process group and waits for it.

    On a timeout, an interrupt or SIGTERM the whole group is killed and
    reaped before this script exits."""
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        start_new_session=True,
        preexec_fn=die_with_parent,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            fail("%s timed out after %d s" % (os.path.basename(command[0]),
                                              timeout))
        raise
    return proc.returncode, out


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = call([cmake, "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       BUILD_TIMEOUT_S)
        if code != 0:
            fail("configure failed")
    code, _ = call([cmake, "--build", BUILD, "--target", "perfbench_harness",
                    "-j", "4"], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"] for m in group}, [w["name"] for w in spec["workloads"]]


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--instance", type=int, default=1,
                        help="fit input instance (README.md, 'Seeds')")
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    expected_names, workloads = metric_names(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                   ", ".join(workloads)))
    build()

    trace_out = os.path.join(
        BUILD, "trace-%s-seed%d.json" % (args.workload, args.seed))
    code, out = call([HARNESS, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--instance", str(args.instance),
                      "--expected", os.path.join(HERE, "expected.txt"),
                      "--trace-out", trace_out],
                     RUN_TIMEOUT_S, capture=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail("harness exited with code %d" % code)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    if set(result["metrics"]) != expected_names:
        fail("result metrics differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ expected_names))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
