#!/usr/bin/env python3
"""Host-cost benchmark: builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary (perfbench/main.cc) links the
libraries under src/ and is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). It runs with
address-space randomization off, so heap layout and peak RSS repeat.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
raw values, drift and diagnostics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
R0 and the digests pinned for the default seed come from
perfbench/baseline.json. Exits non-zero without a result when the program
cannot be built (for example when src/ is missing).
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_2pc", "fig8_commit", "fault_trials", "crash_states")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configures and builds the benchmark; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no program sources under {os.path.join(ROOT, 'src')}")
        return None
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.isfile(os.path.join(out, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", *generator, "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                   "perfbench_calib_test"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def no_aslr_prefix():
    """setarch -R turns address-space randomization off for the benchmark."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run([*prefix, "true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="self-test size (perfbench/selftest.py)")
    args = parser.parse_args()

    with open(os.path.join(HERE, "baseline.json")) as f:
        baseline = json.load(f)
    out = build_dir()
    binary = build(out)
    if binary is None:
        log("build failed")
        return 1
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)

    cmd = [*no_aslr_prefix(), binary, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--r0-ms", repr(baseline["r0_ms"]),
           "--out-dir", results]
    if args.small:
        cmd.append("--small")
    pinned = baseline.get("digests", {}).get(args.workload)
    if pinned and args.seed == baseline["default_seed"] and not args.small:
        cmd += ["--pinned-digests", pinned]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
