// perfbench: the host-cost benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --r0-ms MS
//             [--small] [--out-dir DIR] [--pinned-digests HEX,HEX,...]
//
// Single process, single thread, closed loop: each op starts when the
// previous one has finished. The benchmark
//   1. sets the workload up kSetups times (references, calibration runs and
//      warm-up ops), each bracketed by reference slices;
//   2. runs whole cycles of ops for S seconds, with a reference slice after
//      every kSliceGapNs of op time, and checks every op's output and digest;
//   3. runs calibration guards (two back-to-back slices that must read 2.00x
//      one slice) after each set-up, every kGuardGapNs of op time and at the
//      end;
//   4. runs the trials that reproduce the program's recorded defects once,
//      untimed, and reports which still reproduce;
//   5. reports drift-calibrated times (calib.h).
// With --trace 1 the time is split into a plain half and a traced half;
// the traced half records per-layer spans and must reproduce the plain
// half's digests. The last line of stdout is the result object; the line
// before it carries raw values and diagnostics.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calib.h"
#include "layers.h"
#include "slice.h"
#include "src/obs/json.h"
#include "src/obs/prof/prof.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up runs this many times; setup_s is the median.
constexpr int kSetups = 3;
// A calibration guard after every this much op time, two after each set-up
// and three at the end, so that even a short run has nine to take the
// median of.
constexpr double kGuardGapNs = 4e9;
// A slice after at most this much op time. The host's speed changes within
// seconds; slices further apart than about half a second track it too
// coarsely, closer ones cost more run time than they return.
constexpr double kSliceGapNs = 300e6;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double r0_ms = 0;
  bool small = false;
  std::string out_dir = ".";
  std::vector<uint64_t> pinned;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--r0-ms MS [--small] [--out-dir DIR] [--pinned-digests HEX,...]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value) != 0;
    } else if (flag == "--r0-ms") {
      args.r0_ms = std::atof(value);
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--pinned-digests") {
      for (const char* p = value; *p != '\0';) {
        char* end = nullptr;
        args.pinned.push_back(std::strtoull(p, &end, 16));
        p = *end == ',' ? end + 1 : end;
      }
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty() || args.r0_ms <= 0 || args.seconds <= 0) {
    Usage("--workload, --r0-ms and --seconds are required");
  }
  return args;
}

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}


// One measured op.
struct OpRecord {
  int interval = -1;  // SliceLog interval id
  OpResult result;
  ftx_prof::Profile profile;  // traced phase only
};

// Runs whole cycles of ops for `seconds`, with a slice after every
// kSliceGapNs of op time.
std::vector<OpRecord> RunPhase(Workload& workload, RefSlice& slice, SliceLog& log,
                               double seconds, bool traced, SpanLog* spans, int64_t* next_index,
                               const std::function<void()>& run_guard) {
  workload.set_trace(traced);
  SpanLog::SetActive(traced ? spans : nullptr);
  std::vector<OpRecord> ops;
  const int64_t start = NowNs();
  double since_slice = 0;
  double since_guard = 0;
  for (int64_t k = 0;; ++k) {
    if (k % workload.cycle() == 0 && k > 0 &&
        static_cast<double>(NowNs() - start) >= seconds * 1e9) {
      break;
    }
    OpRecord record;
    std::unique_ptr<ftx_prof::Profiler> profiler;
    if (traced) {
      profiler = std::make_unique<ftx_prof::Profiler>();
      spans->set_op(*next_index);
    }
    const int64_t t0 = NowNs();
    {
      ftx_prof::Activation activation(profiler.get());
      Span span("op");
      record.result = workload.RunOp(k);
    }
    const double raw = static_cast<double>(NowNs() - t0);
    if (profiler) {
      record.profile = profiler->Merge();
    }
    record.interval = log.AddInterval(raw);
    ops.push_back(std::move(record));
    ++*next_index;
    since_slice += raw;
    since_guard += raw;
    if (since_guard >= kGuardGapNs) {
      log.AddSlice(static_cast<double>(slice.Run()));
      run_guard();
      since_slice = 0;
      since_guard = 0;
    } else if (since_slice >= kSliceGapNs) {
      log.AddSlice(static_cast<double>(slice.Run()));
      since_slice = 0;
    }
  }
  if (since_slice > 0) {
    log.AddSlice(static_cast<double>(slice.Run()));
  }
  SpanLog::SetActive(nullptr);
  return ops;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  ftx_obs::Json values = ftx_obs::Json::Object();
  for (const Metric& m : metrics) {
    ftx_obs::Json metric = ftx_obs::Json::Object();
    metric.Set("value", m.value).Set("unit", m.unit);
    values.Set(m.name, std::move(metric));
  }
  ftx_obs::Json result = ftx_obs::Json::Object();
  result.Set("correct", correct)
      .Set("attempted", attempted)
      .Set("failed", failed)
      .Set("metrics", std::move(values));
  std::printf("%s\n", result.Dump().c_str());
}

// The per-layer metrics of the traced phase: calibrated ns per op, counts
// per op, and ratios over the phase.
std::vector<Metric> LayerMetrics(const std::vector<OpRecord>& ops, const SliceLog& log,
                                 double* tiling_error_pct, double* op_ns_mean,
                                 std::map<std::string, double>* self_per_op) {
  std::map<std::string, double> times;   // calibrated ns, summed over ops
  std::map<std::string, double> counts;  // summed over ops
  double root_total = 0;
  double root_self = 0;
  double wall = 0;
  double run_other = 0;
  double explore = 0;
  for (const OpRecord& op : ops) {
    const double f = log.factor(op.interval);
    for (const auto& [name, ns] : LayerTimes(op.profile)) {
      times[name] += name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0 ? ns * f : ns;
    }
    for (const auto& [layer, ns] : LayerSelfTimes(op.profile)) {
      (*self_per_op)[layer] += ns * f / static_cast<double>(ops.size());
    }
    for (const auto& [name, n] : op.result.counts) {
      counts[name] += n;
    }
    if (const ftx_prof::ProfileEntry* root = op.profile.Find("op")) {
      root_total += static_cast<double>(root->total_ns) * f;
      root_self += static_cast<double>(root->self_ns) * f;
      wall += log.calibrated(op.interval);
    }
  }
  run_other = times["core.run_other_ns"];
  explore = times["torture.explore_ns"];
  const double n = static_cast<double>(ops.size());
  auto per_op = [n](double v) { return n > 0 ? v / n : 0.0; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  *tiling_error_pct = wall > 0 ? 100.0 * std::fabs(root_total - wall) / wall : 0.0;
  *op_ns_mean = per_op(wall);

  std::vector<Metric> out;
  auto time = [&](const char* name) { out.push_back({name, per_op(times[name]), "ns"}); };
  auto count = [&](const char* name, const char* unit = "count") {
    out.push_back({name, per_op(counts[name]), unit});
  };
  time("core.build_ns");
  time("core.run_ns");
  time("core.run_other_ns");
  time("core.check_ns");
  count("sim.events");
  out.push_back({"sim.ns_per_event", ratio(run_other, counts["sim.events"]), "ns"});
  count("sim.messages_sent");
  count("sim.bytes_sent", "bytes");
  count("sim.messages_requeued");
  count("sim.kernel_syscalls");
  count("statemachine.trace_events");
  out.push_back({"statemachine.trace_events_per_sim_event",
                 ratio(counts["statemachine.trace_events"], counts["sim.events"]), "ratio"});
  time("statemachine.lose_work_check_ns");
  time("checkpoint.env_call_ns");
  time("checkpoint.commit_ns");
  time("checkpoint.recover_ns");
  count("checkpoint.commits");
  count("checkpoint.rollbacks");
  count("checkpoint.bytes_persisted", "bytes");
  out.push_back({"checkpoint.bytes_per_commit",
                 ratio(counts["checkpoint.bytes_persisted"], counts["checkpoint.commits"]),
                 "bytes"});
  time("vista.barrier_ns");
  out.push_back({"vista.barrier_count", per_op(times["vista.barrier_count"]), "count"});
  time("storage.serialize_crc_ns");
  time("storage.persist_ns");
  time("storage.window_flush_ns");
  time("storage.log_scan_ns");
  time("storage.crc_validate_ns");
  time("storage.page_install_ns");
  time("storage.logimage_decode_ns");
  time("storage.slot_select_ns");
  count("storage.redo_records");
  count("storage.redo_bytes", "bytes");
  time("apps.step_ns");
  out.push_back({"apps.steps", per_op(times["apps.steps"]), "count"});
  count("apps.fleet_executed_ops");
  out.push_back({"apps.fleet_efficiency",
                 ratio(counts["apps.fleet_necessary_ops"], counts["apps.fleet_executed_ops"]),
                 "ratio"});
  time("recovery.consistency_check_ns");
  count("obs.instruments");
  time("obs.snapshot_ns");
  time("obs.critical_path_ns");
  time("faults.trial_ns");
  count("faults.trials");
  count("faults.crashed");
  out.push_back({"faults.crash_yield", ratio(counts["faults.crashed"], counts["faults.trials"]),
                 "ratio"});
  count("faults.lose_work_violations");
  count("faults.failed_recoveries");
  time("torture.explore_ns");
  time("torture.image_check_ns");
  time("torture.survivor_replay_ns");
  out.push_back({"torture.ns_per_state", ratio(explore, counts["torture.crash_states"]), "ns"});
  count("torture.crash_states");
  count("torture.replays");
  out.push_back({"bench.tiling_gap_pct", root_total > 0 ? 100.0 * root_self / root_total : 0.0,
                 "%"});
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  WorkloadOptions options;
  options.seed = args.seed;
  options.small = args.small;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, options);
  if (workload == nullptr) {
    Usage(("unknown workload " + args.workload).c_str());
  }

  RefSlice slice;
  SliceLog log(args.r0_ms * 1e6);
  std::vector<std::string> failures;

  // Calibration guard: two back-to-back slices, timed as one op, must read
  // 2.00x one slice. A warm-up slice first, so that the guard's bracketing
  // slice is as warm as the two it brackets. One guard swings by tens of
  // percent when the host hiccups inside it; the reading is the median.
  std::vector<double> guard;
  auto run_guard = [&] {
    slice.Run();
    log.AddSlice(static_cast<double>(slice.Run()));
    const int64_t two = slice.Run() + slice.Run();
    const int id = log.AddInterval(static_cast<double>(two));
    log.AddSlice(static_cast<double>(slice.Run()));
    guard.push_back(log.calibrated(id) / log.r0_ns());
  };

  // Set-up, repeated; each repetition is bracketed by slices. The warm-up
  // ops are part of set-up and checked like any other op.
  std::vector<int> setup_intervals;
  for (int s = 0; s < kSetups; ++s) {
    log.AddSlice(static_cast<double>(slice.Run()));
    const int64_t t0 = NowNs();
    workload->SetUp();
    for (int k = 0; k < workload->warmup_ops(); ++k) {
      const OpResult warm = workload->RunOp(k);
      if (!warm.ok) {
        failures.push_back("warm-up: " + workload->OpName(k) + ": " + warm.failure);
      }
    }
    setup_intervals.push_back(log.AddInterval(static_cast<double>(NowNs() - t0)));
    log.AddSlice(static_cast<double>(slice.Run()));
    run_guard();
    run_guard();
  }

  int64_t op_counter = 0;
  SpanLog spans;
  std::vector<OpRecord> plain =
      RunPhase(*workload, slice, log, args.trace ? args.seconds / 2 : args.seconds, false,
               &spans, &op_counter, run_guard);
  std::vector<OpRecord> traced;
  if (args.trace) {
    traced =
        RunPhase(*workload, slice, log, args.seconds / 2, true, &spans, &op_counter, run_guard);
  }
  run_guard();
  run_guard();
  run_guard();

  // Recorded defects of the program: untimed, once per run.
  std::vector<std::string> known_defects;
  workload->CheckKnownDefects(&known_defects, &failures);

  // Correctness: every op's checks, its digest against cycle 0 of the plain
  // phase (and the pinned digests for the default seed), and the guard.
  const int cycle = workload->cycle();
  std::vector<uint64_t> digests(static_cast<size_t>(cycle), 0);
  int64_t attempted = 0;
  int64_t failed = 0;
  uint64_t cycle_digest = 0xcbf29ce484222325ULL;
  auto check_ops = [&](std::vector<OpRecord>& ops, const char* phase) {
    for (size_t i = 0; i < ops.size(); ++i) {
      OpResult& r = ops[i].result;
      const size_t p = i % static_cast<size_t>(cycle);
      if (&ops == &plain && i < static_cast<size_t>(cycle)) {
        digests[p] = r.digest;
        cycle_digest = (cycle_digest ^ r.digest) * 0x100000001b3ULL;
        if (!args.pinned.empty() &&
            (args.pinned.size() != static_cast<size_t>(cycle) || args.pinned[p] != r.digest)) {
          r.Fail("digest " + Hex(r.digest) + " differs from the pinned digest");
        }
      } else if (r.digest != digests[p]) {
        r.Fail(std::string(phase) + " digest differs from cycle 0");
      }
      ++attempted;
      if (!r.ok) {
        ++failed;
        if (failures.size() < 8) {
          failures.push_back(std::string(phase) + " op " + std::to_string(i) + " (" +
                             workload->OpName(static_cast<int>(p)) + "): " + r.failure);
        }
      }
    }
  };
  check_ops(plain, "plain");
  check_ops(traced, "traced");

  const double guard_ratio = Quantile(guard, 0.5);
  if (std::fabs(guard_ratio - 2.0) > 0.10) {
    failures.push_back("calibration guard read " + std::to_string(guard_ratio) +
                       "x, not 2.00x +- 5%");
  }

  // Calibrated and raw op times of the plain phase.
  std::vector<double> cal;
  std::vector<double> raw;
  double cal_sum = 0;
  double raw_sum = 0;
  double events = 0;
  double run_cal = 0;
  double run_raw = 0;
  double states = 0;
  for (const OpRecord& op : plain) {
    cal.push_back(log.calibrated(op.interval));
    raw.push_back(log.raw(op.interval));
    cal_sum += cal.back();
    raw_sum += raw.back();
    events += op.result.sim_events;
    run_cal += op.result.run_raw_ns * log.factor(op.interval);
    run_raw += op.result.run_raw_ns;
    auto it = op.result.counts.find("torture.crash_states");
    states += it == op.result.counts.end() ? 0.0 : it->second;
  }
  // crash_states counts throughput in crash states checked, not calls.
  const double units = args.workload == "crash_states" ? states : static_cast<double>(plain.size());
  std::vector<double> setup_cal;
  std::vector<double> setup_raw;
  for (int id : setup_intervals) {
    setup_cal.push_back(log.calibrated(id) / 1e9);
    setup_raw.push_back(log.raw(id) / 1e9);
  }
  const std::vector<double>& slices = log.slices();
  const double slice_ms = Quantile(slices, 0.5) / 1e6;
  const double drift = *std::max_element(slices.begin(), slices.end()) /
                       *std::min_element(slices.begin(), slices.end());

  std::vector<Metric> end_to_end = {
      {"ops_per_s", units / (cal_sum / 1e9), "ops/s"},
      {"op_ms_p50", Quantile(cal, 0.5) / 1e6, "ms"},
      {"op_ms_p90", Quantile(cal, 0.9) / 1e6, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"setup_s", Quantile(setup_cal, 0.5), "s"},
  };
  std::vector<Metric> raw_metrics = {
      {"ops_per_s", units / (raw_sum / 1e9), "ops/s"},
      {"op_ms_p50", Quantile(raw, 0.5) / 1e6, "ms"},
      {"op_ms_p90", Quantile(raw, 0.9) / 1e6, "ms"},
      {"setup_s", Quantile(setup_raw, 0.5), "s"},
  };

  // Diagnostics line: raw values beside calibrated ones, drift, guard,
  // digests and (traced) the layer self times and tiling error.
  auto values_of = [](const std::vector<Metric>& metrics) {
    ftx_obs::Json j = ftx_obs::Json::Object();
    for (const Metric& m : metrics) {
      j.Set(m.name, m.value);
    }
    return j;
  };
  std::string op_digests;
  for (int p = 0; p < cycle; ++p) {
    op_digests += (p > 0 ? "," : "") + Hex(digests[static_cast<size_t>(p)]);
  }
  ftx_obs::Json info = ftx_obs::Json::Object();
  info.Set("workload", args.workload)
      .Set("seed", std::to_string(args.seed))
      .Set("ops", static_cast<int64_t>(plain.size()))
      .Set("cycle", cycle)
      .Set("slices", static_cast<int64_t>(slices.size()))
      .Set("bench.ref_slice_ms", slice_ms)
      .Set("bench.host_drift", drift)
      .Set("r0_ms", args.r0_ms)
      .Set("guard_ratio", guard_ratio)
      .Set("guards", static_cast<int64_t>(guard.size()))
      .Set("digest", Hex(cycle_digest))
      .Set("op_digests", op_digests)
      .Set("calibrated", values_of(end_to_end))
      .Set("raw", values_of(raw_metrics));
  ftx_obs::Json defect_list = ftx_obs::Json::Array();
  for (const std::string& defect : known_defects) {
    defect_list.Push(defect);
  }
  info.Set("known_defects_reproduced", std::move(defect_list));
  if (events > 0) {
    ftx_obs::Json rate = ftx_obs::Json::Object();
    rate.Set("calibrated", events / (run_cal / 1e9)).Set("raw", events / (run_raw / 1e9));
    info.Set("sim_events_per_s", std::move(rate));
  }

  std::vector<Metric> result = end_to_end;
  if (args.trace) {
    double tiling_error = 0;
    double op_ns_mean = 0;
    std::map<std::string, double> self_per_op;
    result = LayerMetrics(traced, log, &tiling_error, &op_ns_mean, &self_per_op);
    std::vector<double> traced_cal;
    for (const OpRecord& op : traced) {
      traced_cal.push_back(log.calibrated(op.interval));
    }
    result.push_back({"bench.ref_slice_ms", slice_ms, "ms"});
    result.push_back({"bench.host_drift", drift, "ratio"});
    result.push_back({"bench.trace_overhead_pct",
                      100.0 * (Quantile(traced_cal, 0.5) / Quantile(cal, 0.5) - 1.0), "%"});
    ftx_obs::Json layers = ftx_obs::Json::Object();
    for (const auto& [layer, ns] : self_per_op) {
      layers.Set(layer, ns);
    }
    const std::string span_path = args.out_dir + "/spans_" + args.workload + ".json";
    if (!spans.WriteJson(span_path)) {
      failures.push_back("cannot write " + span_path);
    }
    info.Set("traced_ops", static_cast<int64_t>(traced.size()))
        .Set("tiling_error_pct", tiling_error)
        .Set("traced_op_ns_mean", op_ns_mean)
        .Set("layer_self_ns_per_op", std::move(layers))
        .Set("span_file", span_path);
  }
  ftx_obs::Json failure_list = ftx_obs::Json::Array();
  for (const std::string& failure : failures) {
    failure_list.Push(failure);
  }
  info.Set("failures", std::move(failure_list));
  ftx_obs::Json line = ftx_obs::Json::Object();
  line.Set("perfbench", std::move(info));
  std::printf("%s\n", line.Dump().c_str());
  PrintResult(failures.empty() && failed == 0, attempted, failed, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
