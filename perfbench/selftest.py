#!/usr/bin/env python3
"""Self-test of the benchmark, at the small size (--small, 1 s per run).

    python3 perfbench/selftest.py

Checks that
  * the calibration arithmetic unit test (perfbench_calib_test) passes;
  * for every workload, a plain and a traced run are correct and emit
    exactly the metrics BENCHMARK.json names (end_to_end when plain,
    per_layer when traced), each with its unit;
  * the traced run's span file is well nested: each span ends after it
    starts, lies inside its parent and belongs to its parent's op;
  * the traced layer self times tile the op wall time within TILING_TOLERANCE;
  * run.py exits non-zero without printing a result in a directory that
    holds only BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The layer self times must add up to the calibrated op wall time within
# this share (the gap between the benchmark's clock reads and the op span's).
TILING_TOLERANCE = 0.01

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}")
    return condition


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not check(proc.returncode == 0 and len(lines) >= 2,
                 f"{workload} trace={trace}: run failed (exit {proc.returncode})"):
        return None, None
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def check_metrics(workload, trace, result, declared):
    got = result["metrics"]
    check(set(got) == set(declared),
          f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}")
    for name, unit in declared.items():
        if name in got:
            check(got[name]["unit"] == unit,
                  f"{workload} trace={trace}: {name} unit {got[name]['unit']!r} != {unit!r}")
            check(isinstance(got[name]["value"], (int, float)),
                  f"{workload} trace={trace}: {name} value is not a number")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload} trace={trace}: attempted must be >= 1")
    check(result["correct"] is True, f"{workload} trace={trace}: not correct")


def check_spans(workload, path):
    with open(path) as f:
        spans = json.load(f)
    if not check(spans, f"{workload}: span file {path} is empty"):
        return
    for span in spans:
        sid = span["id"]
        check(span["end_ns"] >= span["start_ns"], f"{workload}: span {sid} ends before it starts")
        parent = span["parent"]
        if parent < 0:
            check(span["name"] == "op", f"{workload}: root span {sid} is {span['name']}, not op")
            continue
        p = spans[parent]
        check(parent < sid, f"{workload}: span {sid} precedes its parent {parent}")
        check(p["start_ns"] <= span["start_ns"] and span["end_ns"] <= p["end_ns"],
              f"{workload}: span {sid} ({span['name']}) is not inside its parent {parent}")
        check(p["op"] == span["op"], f"{workload}: span {sid} and its parent are different ops")


def check_tiling(workload, info):
    layers = info["layer_self_ns_per_op"]
    wall = info["traced_op_ns_mean"]
    total = sum(layers.values())
    check(wall > 0 and abs(total - wall) / wall <= TILING_TOLERANCE,
          f"{workload}: layer self times sum to {total:.0f} ns/op, op wall is {wall:.0f} ns/op")
    check(info["tiling_error_pct"] <= 100 * TILING_TOLERANCE,
          f"{workload}: tiling error {info['tiling_error_pct']}% over {100 * TILING_TOLERANCE}%")


def check_fails_without_sources(build_dir):
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_2pc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=180)
    check(proc.returncode != 0, "run.py succeeded without program sources")
    check(proc.stdout.strip() == "", "run.py printed a result without program sources")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in bench["workloads"]:
        workload = w["name"]
        info, result = run(workload, 0)
        if result is not None:
            check_metrics(workload, 0, result, end_to_end)
        info, result = run(workload, 1)
        if result is not None:
            check_metrics(workload, 1, result, per_layer)
            check_spans(workload, info["span_file"])
            check_tiling(workload, info)
        print(f"{workload}: checked", flush=True)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                             "perfbench")
    unit = subprocess.run([os.path.join(build_dir, "perfbench_calib_test")])
    check(unit.returncode == 0, "perfbench_calib_test failed")
    check_fails_without_sources(build_dir)

    print("selftest: ok" if not failures else f"selftest: {len(failures)} failures")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
