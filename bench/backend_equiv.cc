// Backend equivalence: the ftx::env seam acceptance driver.
//
// The same seeded event scripts run on both execution substrates — the
// discrete-event simulator through the env::sim adapters, and real
// std::threads through env::threads (channel transport, file-backed stable
// media, kill-flag crash injection) — and every row byte-compares the two
// canonical decision logs: protocol consultations, commits, coordinated 2PC
// rounds, and post-crash rollbacks, in global script order. The simulator is
// the oracle; the threads backend must reproduce its decision sequence
// exactly, with zero transport or durability mismatches on either side.
//
// Crash-free rows additionally cross-check the commit count against the
// pure-protocol ScriptReplay harness, tying the seam's executor back to the
// Save-work property tests' oracle. Crashing rows exercise the torn-commit
// window for real: a mid-commit kill drops unsynced bytes, recovery reads
// back the durable record count and re-delivers retained messages.
//
// --backend sim|threads runs a single substrate (no comparison) and reports
// its decision log stats; the default runs both. Exits nonzero if any row's
// logs differ or any run saw a transport/durability mismatch.

#include <atomic>
#include <string>
#include <vector>

#include "bench/suite.h"
#include "src/common/rng.h"
#include "src/env/script_runner.h"
#include "src/protocol/script_replay.h"
#include "src/statemachine/random_model.h"

namespace {

struct WorkloadProfile {
  const char* name;
  ftx_sm::RandomTraceOptions options;  // num_processes/events set at runtime
};

// Two communication shapes from opposite corners of the Fig. 8 suite:
// treadmarks-like (message-heavy DSM traffic, logged receives) and nvi-like
// (interactive, ND-heavy, almost no messages).
WorkloadProfile MakeProfile(const char* name) {
  WorkloadProfile profile;
  profile.name = name;
  if (std::string(name) == "treadmarks") {
    profile.options.nd_probability = 0.2;
    profile.options.fixed_nd_probability = 0.05;
    profile.options.send_probability = 0.35;
    profile.options.visible_probability = 0.1;
    profile.options.logged_fraction = 0.5;
  } else {  // nvi
    profile.options.nd_probability = 0.45;
    profile.options.fixed_nd_probability = 0.15;
    profile.options.send_probability = 0.08;
    profile.options.visible_probability = 0.2;
    profile.options.logged_fraction = 0.0;
  }
  return profile;
}

// First line index at which the two canonical logs disagree (-1 if equal,
// including length).
int64_t FirstMismatch(const ftx::env::DecisionLog& a, const ftx::env::DecisionLog& b) {
  size_t common = std::min(a.lines.size(), b.lines.size());
  for (size_t i = 0; i < common; ++i) {
    if (a.lines[i] != b.lines[i]) {
      return static_cast<int64_t>(i);
    }
  }
  if (a.lines.size() != b.lines.size()) {
    return static_cast<int64_t>(common);
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options =
      ftx_bench::ParseBenchOptions(argc, argv, {.threads_backend = true});
  const int events_per_process =
      options.scale_override > 0 ? options.scale_override : (options.full_scale ? 80 : 20);
  const int num_processes = 3;
  const std::string mode = options.backend.empty() ? "both" : options.backend;

  ftx_bench::Suite suite("backend_equiv", options);
  suite.SetMeta("mode", mode);
  suite.SetMeta("processes", num_processes);
  suite.SetMeta("events_per_process", events_per_process);

  suite.Text(ftx_bench::Sprintf(
      "================================================================\n"
      "Backend equivalence: env::sim oracle vs env::threads\n"
      "(%d processes, %d events/process, mode %s)\n\n"
      "%-12s %-10s %8s %6s %8s %9s %7s %11s %6s\n",
      num_processes, events_per_process, mode.c_str(), "workload", "protocol", "crashes",
      "batch", "commits", "rollbacks", "syncs", "decisions", "equal"));

  std::atomic<bool> all_ok{true};
  int row_number = 0;
  for (const char* workload : {"treadmarks", "nvi"}) {
    // cand (commit-after-ND) commits away from output events, so its batched
    // rows accumulate genuine multi-record windows between forced syncs —
    // the other two mostly commit right before a send/visible and produce
    // singleton windows.
    for (const char* protocol : {"cpvs", "cbndvs", "cand"}) {
      for (int crashes : {0, 3}) {
        // batch > 1 exercises the group-commit window path on both
        // substrates: staged unsynced records, forced syncs before
        // send/visible events, and crash-drop of the open window.
        for (int64_t batch : {INT64_C(1), INT64_C(8)}) {
        const int this_row = row_number++;
        suite.AddRow([&all_ok, workload, protocol, crashes, batch, events_per_process,
                      num_processes, mode, this_row](ftx_bench::RowContext& ctx) {
          WorkloadProfile profile = MakeProfile(workload);
          profile.options.num_processes = num_processes;
          profile.options.events_per_process = events_per_process;

          const uint64_t seed =
              ctx.SeedOr(41000) + static_cast<uint64_t>(this_row) * 7919;
          ftx::Rng rng(seed);
          std::vector<ftx_sm::ScriptedEvent> script =
              ftx_sm::MakeRandomScript(&rng, profile.options);
          if (crashes > 0) {
            script = ftx::env::InjectCrashes(std::move(script), crashes, seed ^ 0xc4a5,
                                             num_processes);
          }

          ftx::env::ScriptRunOptions run;
          run.num_processes = num_processes;
          run.protocol = protocol;
          run.sim_seed = seed;
          run.batch_records = batch;

          ftx::env::DecisionLog sim_log;
          ftx::env::DecisionLog threads_log;
          if (mode != "threads") {
            sim_log = ftx::env::RunScriptOnSim(script, run);
          }
          if (mode != "sim") {
            threads_log = ftx::env::RunScriptOnThreads(script, run);
          }
          const ftx::env::DecisionLog& primary = mode == "threads" ? threads_log : sim_log;

          bool equal = true;
          int64_t mismatch_index = -1;
          if (mode == "both") {
            mismatch_index = FirstMismatch(sim_log, threads_log);
            equal = mismatch_index < 0;
          }

          // Crash-free scripts must commit exactly as often as the
          // pure-protocol replay oracle says the protocol commits.
          bool replay_match = true;
          int64_t replay_commits = -1;
          if (crashes == 0) {
            ftx_proto::ScriptReplayResult replay =
                ftx_proto::ReplayScript(script, num_processes, protocol);
            replay_commits = replay.total_commits;
            replay_match = primary.commits == replay.total_commits;
          }

          const bool clean = primary.clean() &&
                             (mode != "both" || (sim_log.clean() && threads_log.clean()));
          const bool ok = equal && clean && replay_match;
          if (!ok) {
            all_ok.store(false);
          }

          ftx_bench::RowResult result;
          result.console = ftx_bench::Sprintf(
              "%-12s %-10s %8d %6lld %8lld %9lld %7lld %11zu %6s\n", workload, protocol, crashes,
              static_cast<long long>(batch), static_cast<long long>(primary.commits),
              static_cast<long long>(primary.rollbacks),
              static_cast<long long>(primary.window_syncs), primary.lines.size(),
              mode != "both" ? "n/a" : (equal ? "yes" : "NO"));

          ftx_obs::Json row = ftx_obs::Json::Object();
          row.Set("workload", workload);
          row.Set("protocol", protocol);
          row.Set("backend", mode);
          row.Set("processes", num_processes);
          row.Set("events", static_cast<int64_t>(script.size()));
          row.Set("crashes", crashes);
          row.Set("batch", batch);
          row.Set("commits", primary.commits);
          row.Set("window_syncs", primary.window_syncs);
          row.Set("rollbacks", primary.rollbacks);
          row.Set("coordinated_rounds", primary.coordinated_rounds);
          row.Set("logged_events", primary.logged_events);
          row.Set("decisions", static_cast<int64_t>(primary.lines.size()));
          row.Set("decision_crc", static_cast<int64_t>(primary.Crc()));
          row.Set("transport_mismatches",
                  sim_log.transport_mismatches + threads_log.transport_mismatches);
          row.Set("durable_mismatches",
                  sim_log.durable_mismatches + threads_log.durable_mismatches);
          row.Set("equal", equal);
          row.Set("mismatch_index", mismatch_index);
          row.Set("replay_commits", replay_commits);
          row.Set("ok", ok);
          result.json.push_back(std::move(row));
          result.values.push_back(ok ? 1.0 : 0.0);
          return result;
        });
        }
      }
    }
  }

  suite.Summarize([mode](const std::vector<ftx_bench::RowResult>& rows) {
    int failed = 0;
    for (const ftx_bench::RowResult& row : rows) {
      if (!row.values.empty() && row.values[0] == 0.0) {
        ++failed;
      }
    }
    if (failed > 0) {
      return ftx_bench::Sprintf("\n%d of %zu rows FAILED equivalence.\n", failed, rows.size());
    }
    return ftx_bench::Sprintf(
        "\nAll %zu rows clean%s: the threads backend reproduces the simulator's\n"
        "commit/rollback decision sequence byte-for-byte, crash injection included.\n",
        rows.size(), mode == "both" ? " and byte-equal" : "");
  });

  int rc = suite.Run();
  return rc != 0 ? rc : (all_ok.load() ? 0 : 1);
}
