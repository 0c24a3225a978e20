// Crash-state torture of the DC-disk commit path (see docs/TORTURE.md).
//
// Default (smoke) mode explores nvi and magic at reduced depth — a bounded
// number of commit windows — so the run fits in CTest. --full explores
// every commit window of all four Fig. 8 workloads: every prefix of the
// sector-level write trace, plus torn-final-sector and reorder-within-
// barrier variants, each decoded like a rebooted machine and replayed
// through recovery against the consistency oracle.
//
// The process exits nonzero if any explored crash state violates the
// Save-work invariant, so CI can gate on the binary directly as well as on
// the "violations" field of the --json report.

#include <atomic>

#include "bench/suite.h"
#include "src/torture/torture.h"

namespace {

struct WorkloadDepth {
  const char* workload;
  int smoke_scale;          // workload scale in smoke mode
  int smoke_windows;        // commit-window cap in smoke mode (0 = all)
  int full_scale;           // workload scale under --full (0 = default)
};

// Full mode explores every window ("0"), at scales that keep the quadratic
// decode sweep (states x committed bytes) within a few minutes total.
constexpr WorkloadDepth kDepths[] = {
    {"nvi", 40, 10, 150},
    {"magic", 12, 10, 60},
    {"xpilot", 0, 0, 60},
    {"treadmarks", 0, 0, 12},
};

}  // namespace

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv, {.batch = true});

  ftx_bench::Suite suite("torture_commit", options);
  suite.SetMeta("mode", options.full_scale ? "full" : "smoke");
  suite.SetMeta("seed", 29);
  suite.SetMeta("batch", options.batch > 1 ? options.batch : 1);

  suite.Text(
      "================================================================\n"
      "Crash-state torture: DC-disk commit/recovery write path\n"
      "Save-work invariant over every enumerated crash state\n"
      "workload         states   survivors(c/i/n)  replays  violations\n"
      "----------------------------------------------------------------\n");

  std::atomic<long long> total_violations{0};
  for (const WorkloadDepth& depth : kDepths) {
    const bool full = options.full_scale;
    if (!full && depth.smoke_scale == 0) {
      continue;  // smoke mode tortures nvi + magic only
    }
    suite.AddRow([&total_violations, depth, full](ftx_bench::RowContext& ctx) {
      ftx_torture::TortureSpec spec;
      spec.workload = depth.workload;
      spec.seed = ctx.SeedOr(29);
      if (ctx.options->scale_override > 0) {
        spec.scale = ctx.options->scale_override;
        spec.max_commit_windows = 0;
      } else if (full) {
        spec.scale = depth.full_scale;
        spec.max_commit_windows = 0;
      } else {
        spec.scale = depth.smoke_scale;
        spec.max_commit_windows = depth.smoke_windows;
      }

      spec.audit = ctx.options->audit;
      // --batch N > 1: torture the group-commit pipeline instead of the
      // one-sync-pair-per-commit path (batched window shapes end to end).
      // CPVS commits right before every visible/send event, which the
      // pipeline also flushes on, so its windows stay singletons; CAND
      // commits after each ND event and accumulates genuine multi-record
      // windows between output flushes — the shapes worth torturing.
      spec.batch_records = ctx.options->batch > 1 ? ctx.options->batch : 1;
      if (spec.batch_records > 1) {
        spec.protocol = "cand";
      }

      ftx_torture::TortureReport report = ftx_torture::ExploreCommitPath(spec, ctx.pool);
      total_violations.fetch_add(report.violations + report.audit_violations,
                                 std::memory_order_relaxed);

      ftx_bench::RowResult result;
      result.console = ftx_bench::Sprintf(
          "%-12s %10lld   %6lld/%lld/%lld %8lld %11lld%s\n", report.workload.c_str(),
          static_cast<long long>(report.crash_states),
          static_cast<long long>(report.survivor_committed),
          static_cast<long long>(report.survivor_inflight),
          static_cast<long long>(report.survivor_none), static_cast<long long>(report.replays),
          static_cast<long long>(report.violations), report.ok() ? "" : "  <-- VIOLATION");
      result.json.push_back(report.ToJsonRow());
      return result;
    });
  }

  suite.Summarize([](const std::vector<ftx_bench::RowResult>&) {
    return std::string(
        "----------------------------------------------------------------\n"
        "survivors(c/i/n): last-committed / in-flight-slot-landed / none\n");
  });

  int exit_code = suite.Run();
  if (total_violations.load(std::memory_order_relaxed) != 0) {
    return 1;
  }
  return exit_code;
}
