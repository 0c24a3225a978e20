// Fleet efficiency curve: useful work vs. fault rate at fleet scale.
//
// N client processes drive M servers (src/apps/fleet.h) under the
// coordinated 2PC protocols while stop failures land on uniformly random
// processes at uniformly random times. The Dwork/Halpern/Waarts efficiency
// of each run is
//
//     necessary work / executed work  =  2·N·K / Σ executed_ops
//
// where the necessary work is one server apply plus one client
// ack-processing per request and the executed counters are host-side (every
// re-execution after a rollback re-counts). A fault-free run scores exactly
// 1.0; rising crash rates roll back and re-execute more of the fleet, so
// the curve decays — and because each row's crash set is a prefix of the
// next row's, the decay is monotone per protocol (the checker gates this).
//
// Exactly-once application is asserted separately: the "violations" column
// counts lost or duplicated requests against the committed server ledgers
// (sum of applies, ledger value total, per-client ack counts), plus any
// process the run could not finish or recover. It must be zero under every
// measured protocol at every fault rate.
//
// "crashes_landed" counts the stop failures that hit a live, unfinished
// process; one aimed at a process already down or finished does nothing.
// Each landed crash must be recovered by exactly one rollback (the checker
// gates crashes_landed == rollbacks).
//
// Scale: the default run is a small smoke fleet; --full runs the ROADMAP
// fleet-scale configuration (10,000 clients + 16 servers). The trial pool
// (--jobs) never changes a byte of the output — CTest pins it.

#include <algorithm>
#include <utility>
#include <vector>

#include "bench/suite.h"
#include "src/apps/fleet.h"
#include "src/common/rng.h"
#include "src/core/computation.h"

namespace {

struct FleetRunOutcome {
  int64_t executed = 0;    // host-side: applies + ack-processings, re-runs included
  int64_t commits = 0;
  int64_t rollbacks = 0;
  int64_t crashes_landed = 0;  // stop failures that hit a live, unfinished process
  int violations = 0;
  double sim_ms = 0.0;     // simulated completion time
  ftx::TimePoint end_time;
  // Critical-path report of crash-injected runs (JSON null otherwise).
  // Computed unconditionally for the max-crash run of every row — not
  // gated on any flag — so the emitted rows are byte-identical whether or
  // not --timeseries/--trace was given (the neutrality compare relies on
  // this).
  ftx_obs::Json critical_path;
};

struct CrashPlan {
  int pid = 0;
  ftx::TimePoint at;
};

FleetRunOutcome RunFleet(const ftx_apps::FleetConfig& config, const std::string& protocol,
                         uint64_t seed, bool audit, bool critical_path,
                         const std::string& timeseries_path,
                         const std::vector<CrashPlan>& crashes) {
  ftx::ComputationOptions copt;
  copt.seed = seed;
  copt.protocol = protocol;
  copt.store = ftx::StoreKind::kRio;
  copt.lean_trace = true;  // fleet scale: skip dense clock snapshots (audit overrides)
  copt.audit = audit;
  copt.critical_path = critical_path;
  copt.timeseries_path = timeseries_path;
  // Fleet runs last tens of simulated ms; a 250 µs cadence resolves the
  // efficiency dip and recovery window the report plots.
  copt.timeseries_options.cadence_ns = 250'000;
  copt.recovery_delay = ftx::Microseconds(200);
  ftx::Computation computation(copt, ftx_apps::MakeFleetApps(config));

  if (ftx_obs::TimeSeriesDb* tsdb = computation.timeseries()) {
    // Fleet lanes on top of the computation's core columns: host-side
    // executed work, committed-ledger progress, and the running
    // Dwork-Halpern-Waarts efficiency. All simulated (or
    // simulated-determined) quantities, so the export stays byte-identical
    // across --jobs; the final efficiency sample equals the row's
    // end-of-run efficiency (the checker cross-validates the two).
    tsdb->SetMeta("workload", "fleet");
    std::vector<ftx_apps::FleetServer*> servers;
    std::vector<ftx_apps::FleetClient*> clients;
    for (int pid = 0; pid < config.num_processes(); ++pid) {
      ftx_dc::App& app = computation.app(pid);
      if (auto* server = dynamic_cast<ftx_apps::FleetServer*>(&app)) {
        servers.push_back(server);
      } else if (auto* client = dynamic_cast<ftx_apps::FleetClient*>(&app)) {
        clients.push_back(client);
      }
    }
    auto executed_now = [servers, clients]() {
      int64_t total = 0;
      for (const auto* server : servers) {
        total += server->executed_ops();
      }
      for (const auto* client : clients) {
        total += client->executed_ops();
      }
      return total;
    };
    auto comp = &computation;
    auto applied_now = [comp, num_servers = config.num_servers]() {
      int64_t applied = 0;
      for (int s = 0; s < num_servers; ++s) {
        applied += ftx_apps::FleetServer::AppliedCount(comp->runtime(s));
      }
      return applied;
    };
    auto acked_now = [comp, config]() {
      int64_t acked = 0;
      for (int c = 0; c < config.num_clients; ++c) {
        acked += ftx_apps::FleetClient::AckedCount(comp->runtime(config.num_servers + c));
      }
      return acked;
    };
    tsdb->AddCounter("fleet.executed", executed_now);
    // Ledger gauges, not counters: rollbacks legitimately retreat them.
    tsdb->AddGauge("fleet.applied",
                   [applied_now]() { return static_cast<double>(applied_now()); });
    tsdb->AddGauge("fleet.acked", [acked_now]() { return static_cast<double>(acked_now()); });
    tsdb->AddGauge("fleet.efficiency", [executed_now, applied_now, acked_now]() {
      // Running efficiency: committed useful work over executed work. At
      // completion applied + acked == 2·N·K == the report's necessary ops,
      // so the closing sample equals the end-of-run efficiency exactly.
      const int64_t executed = executed_now();
      if (executed <= 0) {
        return 1.0;  // no work attempted yet, none wasted
      }
      return static_cast<double>(applied_now() + acked_now()) / static_cast<double>(executed);
    });
  }

  for (const CrashPlan& crash : crashes) {
    computation.ScheduleStopFailure(crash.pid, crash.at, ftx::Microseconds(200));
  }
  ftx::ComputationResult result = computation.Run();

  FleetRunOutcome out;
  if (computation.critical_path() != nullptr) {
    out.critical_path = computation.critical_path()->ToJson();
  }
  out.commits = result.total_commits;
  out.rollbacks = result.total_rollbacks;
  out.crashes_landed = computation.crashes_landed();
  out.end_time = result.end_time;
  out.sim_ms = static_cast<double>(result.end_time.nanos()) / 1e6;
  for (int pid = 0; pid < config.num_processes(); ++pid) {
    ftx_dc::App& app = computation.app(pid);
    if (auto* server = dynamic_cast<ftx_apps::FleetServer*>(&app)) {
      out.executed += server->executed_ops();
    } else if (auto* client = dynamic_cast<ftx_apps::FleetClient*>(&app)) {
      out.executed += client->executed_ops();
    }
    if (computation.recovery_abandoned(pid)) {
      ++out.violations;
    }
  }

  // Exactly-once ledger checks against the final committed segments.
  if (!result.all_done) {
    ++out.violations;
  }
  const int64_t total_requests =
      static_cast<int64_t>(config.num_clients) * config.requests_per_client;
  int64_t applied = 0;
  int64_t value_sum = 0;
  for (int s = 0; s < config.num_servers; ++s) {
    applied += ftx_apps::FleetServer::AppliedCount(computation.runtime(s));
    value_sum += ftx_apps::FleetServer::ValueSum(computation.runtime(s));
  }
  if (applied != total_requests) {
    ++out.violations;  // a request was lost or applied twice
  }
  if (value_sum != ftx_apps::FleetExpectedValueSum(config)) {
    ++out.violations;  // ledger total drifted (wrong or reordered apply)
  }
  for (int c = 0; c < config.num_clients; ++c) {
    if (ftx_apps::FleetClient::AckedCount(computation.runtime(config.num_servers + c)) !=
        config.requests_per_client) {
      ++out.violations;
      break;  // one flag per run is enough; counting 10k clients is noise
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv);

  ftx_apps::FleetConfig config;
  if (options.full_scale) {
    config.num_servers = 16;
    config.num_clients = 10000;  // the ROADMAP fleet-scale target
    config.requests_per_client = 3;
    config.report_every = 256;
  } else {
    config.num_servers = 4;
    config.num_clients = 48;
    config.requests_per_client = 4;
    config.report_every = 16;
  }
  if (options.scale_override > 0) {
    config.num_clients = options.scale_override;
    if (options.scale_override >= 256 && !options.full_scale) {
      // Mid-size fleets get the full server tier: --scale 1000 reproduces
      // the 16-server acceptance configuration without the 10k-client cost
      // (and without tripping the checker's full-scale client floor).
      config.num_servers = 16;
      config.report_every = 256;
    }
  }
  const int num_processes = config.num_processes();

  // Crash counts per row: 0, then ~0.5%, ~1%, ~2% of the fleet. Each row's
  // crash set is a prefix of the next one's, so added faults only ever add
  // rolled-back work — the efficiency curve is monotone by construction.
  const std::vector<int> crash_counts = {
      0, std::max(1, num_processes / 200), std::max(2, num_processes / 100),
      std::max(4, num_processes / 50)};

  ftx_bench::Suite suite("fleet_faults", options);
  suite.SetMeta("workload", "fleet");
  suite.SetMeta("servers", config.num_servers);
  suite.SetMeta("clients", config.num_clients);
  suite.SetMeta("requests_per_client", config.requests_per_client);

  suite.Text(ftx_bench::Sprintf(
      "================================================================\n"
      "Fleet efficiency vs. fault rate (%d clients + %d servers,\n"
      "%d requests/client; necessary work = %lld ops)\n\n"
      "%-11s %9s %12s %12s %11s %11s\n",
      config.num_clients, config.num_servers, config.requests_per_client,
      static_cast<long long>(2LL * config.num_clients * config.requests_per_client), "protocol",
      "crashes", "efficiency", "executed", "rollbacks", "violations"));

  for (const char* protocol : {"cpv-2pc", "cbndv-2pc"}) {
    suite.AddRow([protocol, config, crash_counts](ftx_bench::RowContext& ctx) {
      const uint64_t seed = ctx.SeedOr(90000 + static_cast<uint64_t>(ctx.row_index));
      const int64_t necessary =
          2LL * config.num_clients * config.requests_per_client;

      // Calibration: the fault-free run is the first curve point and fixes
      // the time window the crash plan draws from.
      const FleetRunOutcome baseline =
          RunFleet(config, protocol, seed, ctx.options->audit, /*critical_path=*/false,
                   /*timeseries_path=*/{}, {});

      // One master crash list per protocol; row r injects its first
      // crash_counts[r] entries. Times are uniform over the middle 80% of
      // the fault-free run, pids uniform over the whole fleet.
      ftx::Rng rng(ftx::DeriveTrialSeed(seed, 0xf1ee7));
      std::vector<CrashPlan> master(static_cast<size_t>(crash_counts.back()));
      const int64_t window_lo = baseline.end_time.nanos() / 10;
      const int64_t window_hi = std::max(window_lo + 1, baseline.end_time.nanos() * 9 / 10);
      for (CrashPlan& crash : master) {
        crash.pid = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(config.num_processes())));
        crash.at = ftx::TimePoint() + ftx::Nanoseconds(rng.NextInRange(window_lo, window_hi));
      }

      // The crashing points are independent given the shared plan: shard
      // them over the pool (byte-identical for every --jobs). The max-crash
      // run — the curve's most degraded point — additionally extracts the
      // causal critical path (always, flag-independent) and, when this row
      // owns --timeseries, writes the telemetry JSONL.
      const int64_t last = static_cast<int64_t>(crash_counts.size()) - 2;
      std::vector<FleetRunOutcome> outcomes =
          ftx::RunSharded(*ctx.pool, static_cast<int64_t>(crash_counts.size()) - 1, seed,
                          [&](int64_t i, uint64_t) {
                            const std::vector<CrashPlan> prefix(
                                master.begin(), master.begin() + crash_counts[static_cast<size_t>(i) + 1]);
                            return RunFleet(config, protocol, seed, ctx.options->audit,
                                            /*critical_path=*/i == last,
                                            i == last ? ctx.timeseries_path : std::string(),
                                            prefix);
                          });
      outcomes.insert(outcomes.begin(), baseline);

      ftx_bench::RowResult result;
      for (size_t i = 0; i < outcomes.size(); ++i) {
        const FleetRunOutcome& out = outcomes[i];
        const double efficiency =
            out.executed > 0 ? static_cast<double>(necessary) / static_cast<double>(out.executed)
                             : 0.0;
        result.console += ftx_bench::Sprintf(
            "%-11s %9d %12.4f %12lld %11lld %11d\n", protocol, crash_counts[i], efficiency,
            static_cast<long long>(out.executed), static_cast<long long>(out.rollbacks),
            out.violations);
        ftx_obs::Json row = ftx_obs::Json::Object();
        row.Set("protocol", protocol);
        row.Set("crashes", crash_counts[i]);
        row.Set("clients", config.num_clients);
        row.Set("servers", config.num_servers);
        row.Set("requests_per_client", config.requests_per_client);
        row.Set("necessary_ops", necessary);
        row.Set("executed_ops", out.executed);
        row.Set("efficiency", efficiency);
        row.Set("violations", out.violations);
        row.Set("commits", out.commits);
        row.Set("rollbacks", out.rollbacks);
        row.Set("crashes_landed", out.crashes_landed);
        row.Set("sim_ms", out.sim_ms);
        if (!out.critical_path.is_null()) {
          row.Set("critical_path", out.critical_path);
          // Console attribution: which process and which recovery phase
          // bound the fleet's end-to-end recovery at this fault rate.
          const ftx_obs::Json* found = out.critical_path.Find("found");
          const ftx_obs::Json* binding = out.critical_path.Find("binding");
          const ftx_obs::Json* span = out.critical_path.Find("span_ns");
          if (found != nullptr && found->boolean() && binding != nullptr && span != nullptr) {
            result.console += ftx_bench::Sprintf(
                "%-11s   critical path: %.3f ms crash-to-commit, bound by p%lld %s "
                "(%.3f ms)\n",
                protocol, span->number() / 1e6,
                static_cast<long long>(binding->Find("pid")->integer()),
                binding->Find("phase")->str().c_str(), binding->Find("ns")->number() / 1e6);
          }
        }
        result.json.push_back(std::move(row));
        result.values.push_back(efficiency);
      }
      return result;
    });
  }

  suite.Text(
      "\nEfficiency is necessary/executed work (Dwork-Halpern-Waarts): 1.0 "
      "fault-free,\ndecaying as crashes roll back and re-execute more of the "
      "fleet. Violations\ncount exactly-once failures against the committed "
      "ledgers and must be zero.\n");
  return suite.Run();
}
