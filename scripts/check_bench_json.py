#!/usr/bin/env python3
"""Validate ftx bench-results JSON files (the --json output of bench/*).

Checks the schema envelope described in docs/OBSERVABILITY.md:

  * top level: schema == "ftx.bench-results", schema_version == 1,
    "bench" (string), "full_scale" (bool), "meta" (object), "rows"
    (non-empty array of flat objects);
  * row values are strings, numbers, or bools, except an optional nested
    "metrics" object whose values are numbers (counters/gauges) or
    histogram objects with count/sum/min/max/p50/p90/p99/bounds/buckets,
    optional nested "audit"/"audit_disk" causal-audit reports
    (ftx.causal-audit schema v1) whose Save-work violation count must be
    zero, and an optional nested "critical_path" report (ftx critical-path
    schema v1) whose hop spans must tile the crash-to-commit window;
  * bench-specific required row fields for the benches we know about
    (e.g. fig8 rows must carry workload/protocol/checkpoints).

With --trace the files are instead Chrome trace_event JSON (the --trace
output of bench/*): every B/E slice must nest per (pid, tid) track, every
flow-finish ('f') must bind to a preceding flow-start ('s') with the same
(cat, name, id), and every counter sample ('C') must carry a numeric args
object.

With --timeseries the files are ftx.timeseries JSONL (the --timeseries
output of bench/*): a v1 header line naming the columns in strict bytewise
name order, then one array per sample with a strictly increasing sim-time
column, no NaN/inf anywhere, and nonnegative nondecreasing counters. With
--results RESULTS.json alongside, the final fleet.efficiency sample must
equal the end-of-run efficiency of the results file's last row.

Usage: check_bench_json.py [--trace] FILE.json [FILE.json ...]
       check_bench_json.py --timeseries [--results R.json] FILE.jsonl [...]
Exits 0 if every file validates, 1 otherwise.
"""

import json
import sys

SCHEMA_NAME = "ftx.bench-results"
SCHEMA_VERSION = 1
AUDIT_SCHEMA_VERSION = 1
TIMESERIES_SCHEMA_NAME = "ftx.timeseries"
TIMESERIES_SCHEMA_VERSION = 1
CRITICAL_PATH_SCHEMA_VERSION = 1
# Recovery phases a critical-path hop may be attributed to (src/obs/causal/).
CRITICAL_PATH_PHASES = {"detection", "log_scan", "page_install",
                        "undo_rollback", "rebuild", "re_execution", "message"}

# Required row fields per bench name prefix. Rows may carry more.
REQUIRED_ROW_FIELDS = {
    "fig8_": ["workload", "protocol", "scale", "checkpoints",
              "rio_overhead_pct", "disk_overhead_pct"],
    "table1_app_faults": ["workload", "fault_type", "crashes", "violations",
                          "violation_fraction"],
    "table2_os_faults": ["workload", "fault_type", "crashes",
                         "failed_recoveries", "failed_recovery_fraction"],
    "fig7_dangerous_paths": ["sweep", "dangerous_fraction"],
    "fig3_protocol_space": ["section", "protocol"],
    "section4_composition": ["section", "workload"],
    "ablation_crash_latency": ["slow_detection_probability",
                               "violation_fraction"],
    "ablation_cost_model": ["sweep"],
    "ablation_protocol_faults": ["protocol", "crashes", "violation_fraction"],
    "micro_commit_hotpath": ["benchmark", "real_time_ns", "cpu_time_ns",
                             "iterations"],
    "torture_commit": ["workload", "protocol", "scale", "batch", "commits",
                       "crash_states", "prefix_states", "torn_states",
                       "reorder_states", "survivor_committed",
                       "survivor_inflight", "survivor_none", "replays",
                       "replays_consistent", "violations", "ok"],
    "fleet_faults": ["protocol", "crashes", "clients", "servers",
                     "requests_per_client", "necessary_ops", "executed_ops",
                     "efficiency", "violations", "commits", "rollbacks",
                     "crashes_landed"],
    "recovery_profile": ["section", "workload", "protocol", "store", "scale",
                         "crash_fraction", "repeats", "ok", "violations",
                         "replays", "redo_records", "mttr_count",
                         "mttr_sim_ns_mean", "mttr_sim_ns_p50",
                         "mttr_sim_ns_p90", "mttr_sim_ns_p99",
                         "recover_wall_ns",
                         "phase_log_scan_ns", "phase_crc_validate_ns",
                         "phase_page_install_ns", "phase_reprotect_ns",
                         "phase_nd_replay_ns",
                         "phase_log_scan_count", "phase_crc_validate_count",
                         "phase_page_install_count", "phase_reprotect_count",
                         "phase_nd_replay_count"],
}

HISTOGRAM_FIELDS = {"count", "sum", "min", "max", "p50", "p90", "p99",
                    "bounds", "buckets"}

# Keys of the nested causal-audit report ("audit" / "audit_disk" row
# members) that must be present; reports may carry more.
AUDIT_REQUIRED_FIELDS = {"schema_version", "violations"}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return False


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_metrics(path, row_index, metrics):
    ok = True
    if not isinstance(metrics, dict):
        return fail(path, f"rows[{row_index}].metrics is not an object")
    for name, value in metrics.items():
        if is_number(value):
            continue
        if isinstance(value, dict):
            missing = HISTOGRAM_FIELDS - value.keys()
            if missing:
                ok = fail(path, f"rows[{row_index}].metrics[{name!r}] is an "
                                f"object but not a histogram (missing "
                                f"{sorted(missing)})")
                continue
            if len(value["buckets"]) != len(value["bounds"]) + 1:
                ok = fail(path, f"rows[{row_index}].metrics[{name!r}]: "
                                f"buckets must have len(bounds)+1 entries")
            if sum(value["buckets"]) != value["count"]:
                ok = fail(path, f"rows[{row_index}].metrics[{name!r}]: "
                                f"bucket counts do not sum to count")
            if value["count"] > 0:
                quantiles = [value["min"], value["p50"], value["p90"],
                             value["p99"], value["max"]]
                if any(not is_number(q) for q in quantiles):
                    ok = fail(path, f"rows[{row_index}].metrics[{name!r}]: "
                                    f"non-numeric quantile")
                elif sorted(quantiles) != quantiles:
                    ok = fail(path, f"rows[{row_index}].metrics[{name!r}]: "
                                    f"quantiles not monotone "
                                    f"(min<=p50<=p90<=p99<=max): {quantiles}")
            continue
        ok = fail(path, f"rows[{row_index}].metrics[{name!r}] has "
                        f"unexpected type {type(value).__name__}")
    return ok


def check_audit(path, row_index, key, audit):
    """Validates a nested causal-audit report and gates violations == 0."""
    if not isinstance(audit, dict):
        return fail(path, f"rows[{row_index}].{key} is not an object")
    ok = True
    missing = AUDIT_REQUIRED_FIELDS - audit.keys()
    if missing:
        return fail(path, f"rows[{row_index}].{key} missing {sorted(missing)}")
    if audit["schema_version"] != AUDIT_SCHEMA_VERSION:
        ok = fail(path, f"rows[{row_index}].{key}.schema_version is "
                        f"{audit['schema_version']!r}, expected "
                        f"{AUDIT_SCHEMA_VERSION}")
    # The gate: an audited run must uphold Save-work online.
    if audit["violations"] != 0:
        details = audit.get("findings", audit.get("incidents_total"))
        ok = fail(path, f"rows[{row_index}].{key}: Save-work violated online "
                        f"(violations={audit['violations']!r}, "
                        f"findings={details!r})")
    findings = audit.get("findings")
    if findings is not None:
        if not isinstance(findings, list):
            ok = fail(path, f"rows[{row_index}].{key}.findings is not a list")
        else:
            for j, finding in enumerate(findings):
                if not isinstance(finding, dict) or "detail" not in finding:
                    ok = fail(path, f"rows[{row_index}].{key}.findings[{j}] "
                                    f"is not a finding object")
    incidents = audit.get("incidents")
    if incidents is not None:
        if not isinstance(incidents, list):
            ok = fail(path, f"rows[{row_index}].{key}.incidents is not a list")
        else:
            for j, incident in enumerate(incidents):
                if (not isinstance(incident, dict)
                        or not isinstance(incident.get("reason"), str)
                        or not isinstance(incident.get("dump"), str)):
                    ok = fail(path, f"rows[{row_index}].{key}.incidents[{j}] "
                                    f"must carry string reason and dump")
    dumps = audit.get("incident_dumps")
    if dumps is not None and (not isinstance(dumps, list) or
                              any(not isinstance(d, str) for d in dumps)):
        ok = fail(path, f"rows[{row_index}].{key}.incident_dumps must be a "
                        f"list of strings")
    return ok


def check_critical_path(path, row_index, report):
    """Validates a nested critical-path report (fleet_faults max-crash rows).

    The hop chain must start at the root crash, tile the crash-to-commit
    window without gaps or overlaps (hop i+1 starts where hop i ends), use
    only known recovery phases, and name a binding hop that really is the
    longest one reported."""
    if not isinstance(report, dict):
        return fail(path, f"rows[{row_index}].critical_path is not an object")
    ok = True
    if report.get("schema_version") != CRITICAL_PATH_SCHEMA_VERSION:
        ok = fail(path, f"rows[{row_index}].critical_path.schema_version is "
                        f"{report.get('schema_version')!r}, expected "
                        f"{CRITICAL_PATH_SCHEMA_VERSION}")
    if report.get("found") is not True:
        # A crash-free or commit-free run legitimately has no path; nothing
        # else to validate.
        return ok
    span = report.get("span_ns")
    if not is_number(span) or span <= 0:
        ok = fail(path, f"rows[{row_index}].critical_path.span_ns {span!r} "
                        f"must be a positive number")
    hops = report.get("hops")
    if not isinstance(hops, list) or not hops:
        return fail(path, f"rows[{row_index}].critical_path.hops must be a "
                          f"non-empty list")
    cursor = report.get("root_crash_ns")
    longest = None
    for j, hop in enumerate(hops):
        if not isinstance(hop, dict):
            ok = fail(path, f"rows[{row_index}].critical_path.hops[{j}] is "
                            f"not an object")
            continue
        if hop.get("phase") not in CRITICAL_PATH_PHASES:
            ok = fail(path, f"rows[{row_index}].critical_path.hops[{j}]: "
                            f"unknown phase {hop.get('phase')!r}")
        if not (is_number(hop.get("dur_ns")) and hop["dur_ns"] >= 0):
            ok = fail(path, f"rows[{row_index}].critical_path.hops[{j}]: "
                            f"dur_ns {hop.get('dur_ns')!r} must be >= 0")
            continue
        if hop.get("start_ns") != cursor:
            ok = fail(path, f"rows[{row_index}].critical_path.hops[{j}] "
                            f"starts at {hop.get('start_ns')!r}, expected "
                            f"{cursor!r} (hops must tile the span)")
        cursor = hop.get("start_ns", cursor) + hop["dur_ns"]
        if longest is None or hop["dur_ns"] > longest["dur_ns"]:
            longest = hop
    # Hops may be truncated for reporting (hops_total > len(hops)); only a
    # complete chain must land exactly on the last dependent commit.
    if (report.get("hops_total") == len(hops)
            and cursor != report.get("last_commit_ns")):
        ok = fail(path, f"rows[{row_index}].critical_path: hops end at "
                        f"{cursor!r}, not last_commit_ns="
                        f"{report.get('last_commit_ns')!r}")
    binding = report.get("binding")
    if not isinstance(binding, dict):
        ok = fail(path, f"rows[{row_index}].critical_path.binding missing")
    elif longest is not None and binding.get("ns") != longest["dur_ns"]:
        ok = fail(path, f"rows[{row_index}].critical_path.binding.ns "
                        f"{binding.get('ns')!r} is not the longest reported "
                        f"hop ({longest['dur_ns']!r})")
    return ok


def required_fields_for(bench):
    for prefix, fields in REQUIRED_ROW_FIELDS.items():
        if bench == prefix or (prefix.endswith("_") and bench.startswith(prefix)):
            return fields
    return []


def check_file(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    ok = True
    if doc.get("schema") != SCHEMA_NAME:
        ok = fail(path, f"schema is {doc.get('schema')!r}, "
                        f"expected {SCHEMA_NAME!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        ok = fail(path, f"schema_version is {doc.get('schema_version')!r}, "
                        f"expected {SCHEMA_VERSION}")
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        ok = fail(path, "missing or empty 'bench'")
        bench = ""
    if not isinstance(doc.get("full_scale"), bool):
        ok = fail(path, "'full_scale' must be a bool")
    if not isinstance(doc.get("meta"), dict):
        ok = fail(path, "'meta' must be an object")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(path, "'rows' must be a non-empty array")

    required = required_fields_for(bench)
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            ok = fail(path, f"rows[{i}] is not an object")
            continue
        for field in required:
            if field not in row:
                ok = fail(path, f"rows[{i}] missing required field "
                                f"{field!r} for bench {bench!r}")
        for key, value in row.items():
            if key == "metrics":
                ok = check_metrics(path, i, value) and ok
            elif key in ("audit", "audit_disk"):
                ok = check_audit(path, i, key, value) and ok
            elif key == "critical_path":
                ok = check_critical_path(path, i, value) and ok
            elif not isinstance(value, (str, int, float, bool)):
                ok = fail(path, f"rows[{i}][{key!r}] has unexpected type "
                                f"{type(value).__name__}")
        # Torture reports gate hard: an explored crash state that violates
        # the Save-work invariant fails validation, not just the binary.
        if bench == "torture_commit":
            if row.get("violations") != 0 or row.get("ok") is not True:
                ok = fail(path, f"rows[{i}]: crash-state invariant violated "
                                f"(violations={row.get('violations')!r}, "
                                f"diagnostics="
                                f"{row.get('violation_diagnostics')!r})")
            if row.get("replays") != row.get("replays_consistent"):
                ok = fail(path, f"rows[{i}]: {row.get('replays')} replays but "
                                f"only {row.get('replays_consistent')} "
                                f"consistent")
        # Recovery-profile rows gate hard too: every sweep point must have
        # actually recovered (replays > 0) into a consistent state, and its
        # host-time phase attribution must have fired (the recovery ran
        # under the profiler, so the log-scan scope count cannot be zero).
        if bench == "recovery_profile":
            if row.get("violations") != 0 or row.get("ok") is not True:
                ok = fail(path, f"rows[{i}]: recovery inconsistent "
                                f"(violations={row.get('violations')!r}, "
                                f"ok={row.get('ok')!r})")
            if not (is_number(row.get("replays")) and row["replays"] > 0):
                ok = fail(path, f"rows[{i}]: zero replays — no recovery was "
                                f"exercised (replays="
                                f"{row.get('replays')!r})")
            if not (is_number(row.get("phase_log_scan_count"))
                    and row["phase_log_scan_count"] > 0):
                ok = fail(path, f"rows[{i}]: profiler saw no recover.log_scan "
                                f"scope (count="
                                f"{row.get('phase_log_scan_count')!r})")
    # Fleet efficiency rows gate hard: exactly-once must hold at every fault
    # rate, efficiency is necessary/executed so it lives in (0, 1] and is
    # exactly 1.0 fault-free, each protocol's curve must be (near-)monotone
    # nonincreasing in the injected crash count — the crash sets are prefixes
    # of each other, so added faults can only add rolled-back work — every
    # crash that landed must have been recovered (one rollback each), and a
    # full-scale run must actually be the 10k-client ROADMAP fleet.
    if bench == "fleet_faults":
        curves = {}
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                continue
            if row.get("violations") != 0:
                ok = fail(path, f"rows[{i}]: exactly-once violated "
                                f"(violations={row.get('violations')!r})")
            landed = row.get("crashes_landed")
            if landed != row.get("rollbacks"):
                ok = fail(path, f"rows[{i}]: crashes_landed={landed!r} != "
                                f"rollbacks={row.get('rollbacks')!r} (a landed "
                                f"crash was not recovered, or a rollback had "
                                f"no crash)")
            elif not is_number(landed) or not is_number(row.get("crashes")) \
                    or landed > row["crashes"]:
                ok = fail(path, f"rows[{i}]: crashes_landed={landed!r} "
                                f"exceeds crashes={row.get('crashes')!r}")
            eff = row.get("efficiency")
            if not is_number(eff) or not 0.0 < eff <= 1.0:
                ok = fail(path, f"rows[{i}]: efficiency {eff!r} outside (0, 1]")
                continue
            if row.get("crashes") == 0 and eff != 1.0:
                ok = fail(path, f"rows[{i}]: fault-free efficiency is {eff!r},"
                                f" expected exactly 1.0")
            curves.setdefault(row.get("protocol"), []).append(
                (row.get("crashes"), eff))
        for protocol, points in curves.items():
            points.sort()
            for (c0, e0), (c1, e1) in zip(points, points[1:]):
                if e1 > e0 + 0.01:
                    ok = fail(path, f"{protocol!r}: efficiency rises from "
                                    f"{e0} at {c0} crashes to {e1} at {c1} "
                                    f"crashes (curve must be nonincreasing)")
        if doc.get("full_scale") is True:
            clients = [r.get("clients") for r in rows if isinstance(r, dict)]
            if any(not is_number(c) or c < 10000 for c in clients):
                ok = fail(path, f"full-scale fleet run with fewer than 10000 "
                                f"clients: {sorted(set(clients))!r}")
    if ok:
        print(f"{path}: ok ({bench}, {len(rows)} rows)")
    return ok


def check_trace_file(path):
    """Validates a Chrome trace_event JSON file (bench --trace output)."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return fail(path, "not a trace_event document (no traceEvents array)")

    ok = True
    events = doc["traceEvents"]
    depth = {}        # (pid, tid) -> open B count
    flow_starts = set()  # (cat, name, id) seen as 's'
    counts = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            ok = fail(path, f"traceEvents[{i}] is not an object")
            continue
        phase = event.get("ph")
        counts[phase] = counts.get(phase, 0) + 1
        if phase == "M":
            continue
        if phase not in ("B", "E", "i", "s", "f", "C"):
            ok = fail(path, f"traceEvents[{i}]: unexpected phase {phase!r}")
            continue
        track = (event.get("pid"), event.get("tid"))
        if phase == "B":
            depth[track] = depth.get(track, 0) + 1
        elif phase == "E":
            depth[track] = depth.get(track, 0) - 1
            if depth[track] < 0:
                ok = fail(path, f"traceEvents[{i}]: 'E' without open 'B' on "
                                f"track {track}")
        elif phase in ("s", "f"):
            flow_key = (event.get("cat"), event.get("name"), event.get("id"))
            if event.get("id") is None:
                ok = fail(path, f"traceEvents[{i}]: flow event without id")
            elif phase == "s":
                flow_starts.add(flow_key)
            elif flow_key not in flow_starts:
                ok = fail(path, f"traceEvents[{i}]: flow finish {flow_key} "
                                f"without a preceding start")
            if phase == "f" and event.get("bp") != "e":
                ok = fail(path, f"traceEvents[{i}]: flow finish must bind "
                                f"with bp='e'")
        elif phase == "C":
            args = event.get("args")
            if (not isinstance(args, dict) or not args
                    or any(not is_number(v) for v in args.values())):
                ok = fail(path, f"traceEvents[{i}]: counter sample needs a "
                                f"non-empty numeric args object")
    for track, open_slices in depth.items():
        if open_slices != 0:
            ok = fail(path, f"track {track}: {open_slices} unclosed 'B' "
                            f"slices at end of trace")
    if ok:
        summary = ", ".join(f"{phase}={n}" for phase, n in sorted(counts.items()))
        print(f"{path}: ok (trace, {len(events)} events: {summary})")
    return ok


def is_finite_number(value):
    return is_number(value) and value == value and abs(value) != float("inf")


def check_timeseries_file(path, results_path=None):
    """Validates an ftx.timeseries JSONL file (bench --timeseries output)."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line for line in (l.strip() for l in f) if line]
    except OSError as e:
        return fail(path, f"unreadable: {e}")
    if not lines:
        return fail(path, "empty file")
    try:
        header = json.loads(lines[0])
        samples = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as e:
        return fail(path, f"invalid JSON line: {e}")

    ok = True
    if not isinstance(header, dict):
        return fail(path, "header line is not an object")
    if header.get("schema") != TIMESERIES_SCHEMA_NAME:
        ok = fail(path, f"schema is {header.get('schema')!r}, expected "
                        f"{TIMESERIES_SCHEMA_NAME!r}")
    if header.get("version") != TIMESERIES_SCHEMA_VERSION:
        ok = fail(path, f"version is {header.get('version')!r}, expected "
                        f"{TIMESERIES_SCHEMA_VERSION}")
    cadence = header.get("cadence_ns")
    if not (is_number(cadence) and cadence > 0):
        ok = fail(path, f"cadence_ns {cadence!r} must be a positive number")
        cadence = None
    columns = header.get("columns")
    if not isinstance(columns, list) or not columns:
        return fail(path, "'columns' must be a non-empty array")
    names = []
    for c, col in enumerate(columns):
        if (not isinstance(col, dict) or not isinstance(col.get("name"), str)
                or col.get("kind") not in ("counter", "gauge")):
            ok = fail(path, f"columns[{c}] must carry a string name and a "
                            f"counter|gauge kind: {col!r}")
            continue
        names.append(col["name"])
    # Column order is pinned: strict bytewise (ordinal) name order, the same
    # collation-independent order the registry snapshot uses.
    if names != sorted(names) or len(set(names)) != len(names):
        ok = fail(path, f"column names not in strict bytewise order: {names}")
    if header.get("samples") != len(samples):
        ok = fail(path, f"header says {header.get('samples')!r} samples, file "
                        f"has {len(samples)}")
    if not (isinstance(header.get("dropped"), int) and header["dropped"] >= 0):
        ok = fail(path, f"'dropped' must be a nonnegative integer, got "
                        f"{header.get('dropped')!r}")
    if not samples:
        return fail(path, "no samples")

    prev_t = None
    prev_counters = {}
    counter_idx = [c for c, col in enumerate(columns)
                   if isinstance(col, dict) and col.get("kind") == "counter"]
    for i, sample in enumerate(samples):
        if not isinstance(sample, list) or len(sample) != len(columns) + 1:
            ok = fail(path, f"sample {i} must be an array of "
                            f"{len(columns) + 1} values: {sample!r}")
            continue
        t = sample[0]
        if not is_finite_number(t) or t < 0:
            ok = fail(path, f"sample {i}: bad time {t!r}")
            continue
        if prev_t is not None and t <= prev_t:
            ok = fail(path, f"sample {i}: time {t} not strictly greater than "
                            f"{prev_t}")
        # Every sample except the closing one lands on a cadence boundary.
        if cadence and i < len(samples) - 1 and t % cadence != 0:
            ok = fail(path, f"sample {i}: time {t} off the {cadence} ns "
                            f"cadence")
        prev_t = t
        for c, value in enumerate(sample[1:]):
            if not is_finite_number(value):
                ok = fail(path, f"sample {i} column {c}: non-finite value "
                                f"{value!r}")
        for c in counter_idx:
            value = sample[1 + c]
            if not is_finite_number(value):
                continue
            if value < 0:
                ok = fail(path, f"sample {i}: counter "
                                f"{columns[c]['name']!r} negative: {value!r}")
            if c in prev_counters and value < prev_counters[c]:
                ok = fail(path, f"sample {i}: counter "
                                f"{columns[c]['name']!r} retreats from "
                                f"{prev_counters[c]!r} to {value!r}")
            prev_counters[c] = value

    # Cross-check: the closing fleet.efficiency sample is the end-of-run
    # state, so it must equal the efficiency the results row reports for the
    # sampled run (the last declared row's max-crash run).
    if results_path is not None and "fleet.efficiency" in names:
        try:
            with open(results_path, encoding="utf-8") as f:
                results = json.load(f)
            row = results["rows"][-1]
            reported = row["efficiency"]
        except (OSError, json.JSONDecodeError, LookupError, TypeError) as e:
            ok = fail(path, f"cannot cross-check against {results_path}: {e}")
        else:
            eff_col = 1 + names.index("fleet.efficiency")
            final = samples[-1][eff_col]
            if not is_number(reported) or abs(final - reported) > 1e-9:
                ok = fail(path, f"final fleet.efficiency sample {final!r} != "
                                f"reported end-of-run efficiency {reported!r} "
                                f"({results_path} rows[-1])")
    if ok:
        print(f"{path}: ok (timeseries, {len(samples)} samples x "
              f"{len(columns)} columns)")
    return ok


def main(argv):
    args = argv[1:]
    trace_mode = False
    timeseries_mode = False
    results_path = None
    if args and args[0] == "--trace":
        trace_mode = True
        args = args[1:]
    elif args and args[0] == "--timeseries":
        timeseries_mode = True
        args = args[1:]
        if len(args) >= 2 and args[0] == "--results":
            results_path = args[1]
            args = args[2:]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    ok = True
    for path in args:
        if trace_mode:
            ok = check_trace_file(path) and ok
        elif timeseries_mode:
            ok = check_timeseries_file(path, results_path) and ok
        else:
            ok = check_file(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
