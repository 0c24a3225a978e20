#!/usr/bin/env python3
"""Steadiness report: N plain runs per workload, each with another seed.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 20]
        [--workloads fleet_2pc ...] [--pin-r0] [--pin-digests] [--record]

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, of
the calibrated values and of the raw ones, and checks each calibrated
spread against a third of the metric's bound in BENCHMARK.json (setup_s is
exempt from the spread check).

--pin-r0       set perfbench/baseline.json "r0_ms" to the median slice time
               of these runs (do this on the reference host; calibrated
               values scale with R0, so the report is rescaled to match);
--pin-digests  pin the default seed's per-op digests;
--record       write the report, the host fingerprint and R0 into
               perfbench/baseline.json.
Seeds run 1..N, so the default seed (1) is always among them.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    return info, result


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def host_fingerprint():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = subprocess.run(["c++", "--version"], stdout=subprocess.PIPE,
                              text=True).stdout.splitlines()[0]
    return {"cpu_model": model, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": "RelWithDebInfo"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--pin-r0", action="store_true")
    parser.add_argument("--pin-digests", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(BASELINE) as f:
        baseline = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in range(1, args.runs + 1):
            info, result = run_once(workload, seed, seconds)
            runs[workload].append((info, result))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"slice={info['bench.ref_slice_ms']:.2f}ms "
                  f"drift={info['bench.host_drift']:.2f} guard={info['guard_ratio']:.3f}",
                  flush=True)

    scale = 1.0
    if args.pin_r0:
        slices = [info["bench.ref_slice_ms"] for w in runs for info, _ in runs[w]]
        new_r0 = statistics.median(slices)
        scale = new_r0 / baseline["r0_ms"]
        baseline["r0_ms"] = round(new_r0, 4)
        print(f"R0 pinned at {baseline['r0_ms']} ms")

    report = {}
    steady = True
    for workload in workloads:
        report[workload] = {}
        infos = [info for info, _ in runs[workload]]
        results = [result for _, result in runs[workload]]
        for name in bounds:
            # Calibrated times scale with R0 (ops_per_s inversely); peak RSS
            # is not a time.
            factor = 1.0 if name == "peak_rss_mb" else (1 / scale if name == "ops_per_s" else scale)
            cal = [r["metrics"][name]["value"] * factor for r in results]
            entry = {"calibrated": summary(cal)}
            if name in infos[0]["raw"]:
                entry["raw"] = summary([i["raw"][name] for i in infos])
            report[workload][name] = entry
            spread = entry["calibrated"]["spread"]
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            raw = entry.get("raw", {}).get("spread")
            print(f"{workload:13s} {name:12s} median {entry['calibrated']['median']:12.4f} "
                  f"q1 {entry['calibrated']['q1']:12.4f} q3 {entry['calibrated']['q3']:12.4f} "
                  f"spread {spread:.4f} (raw {raw if raw is None else round(raw, 4)}) "
                  f"bound/3 {bounds[name] / 3:.4f} {'ok' if ok else 'TOO WIDE'}")
        report[workload]["bench.host_drift"] = summary([i["bench.host_drift"] for i in infos])
        report[workload]["guard_ratio"] = summary([i["guard_ratio"] for i in infos])
        report[workload]["failed_per_run"] = [r["failed"] for r in results]
        if args.pin_digests:
            baseline.setdefault("digests", {})[workload] = infos[0]["op_digests"]

    if args.record or args.pin_r0 or args.pin_digests:
        if args.record:
            baseline["host"] = host_fingerprint()
            recorded = baseline.setdefault("steadiness", {"workloads": {}})
            recorded.update(runs=args.runs, seconds=seconds, r0_ms=baseline["r0_ms"])
            recorded["workloads"].update(report)
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=2)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
