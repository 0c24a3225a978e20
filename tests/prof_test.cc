// Tests for ftx::prof, the host-time scoped profiler: scope aggregation
// into collapsed stacks, inactive scopes being no-ops, activation nesting,
// leaf aggregation, the collapsed-stack export, TrialPool propagation with
// jobs-independent scope counts, host metadata, and the recovery-path
// instrumentation actually firing during a crash-and-recover run.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/computation.h"
#include "src/core/experiment.h"
#include "src/core/parallel.h"
#include "src/obs/prof/prof.h"

namespace {

using ftx_prof::Activation;
using ftx_prof::Profile;
using ftx_prof::Profiler;
using ftx_prof::Scope;

void Spin() {
  // Make every scope interval strictly positive without sleeping.
  volatile int sink = 0;
  for (int i = 0; i < 1000; ++i) sink = sink + i;
}

TEST(ProfScope, NestedScopesBuildCollapsedStacks) {
  Profiler profiler;
  {
    Activation on(&profiler);
    for (int i = 0; i < 3; ++i) {
      Scope outer("commit");
      Spin();
      {
        Scope inner("commit.crc");
        Spin();
      }
    }
    {
      Scope other("recover");
      Spin();
    }
  }
  Profile profile = profiler.Merge();
  ASSERT_EQ(profile.entries.size(), 3u);
  // Entries are sorted by stack path.
  EXPECT_EQ(profile.entries[0].stack, "commit");
  EXPECT_EQ(profile.entries[1].stack, "commit;commit.crc");
  EXPECT_EQ(profile.entries[2].stack, "recover");

  const ftx_prof::ProfileEntry* outer = profile.Find("commit");
  const ftx_prof::ProfileEntry* inner = profile.Find("commit;commit.crc");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3);
  EXPECT_EQ(inner->count, 3);
  // Parent total includes the child; self excludes it.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_GE(outer->total_ns, outer->self_ns);
  EXPECT_EQ(inner->total_ns, inner->self_ns);  // leaf: no children
  EXPECT_GT(inner->total_ns, 0);
  EXPECT_EQ(profile.Find("missing"), nullptr);
}

TEST(ProfScope, ScopesWithoutActiveProfilerAreNoOps) {
  {
    Scope scope("orphan");
    Spin();
  }
  FTX_PROF_SCOPE("orphan_macro");
  Profiler profiler;
  EXPECT_TRUE(profiler.Merge().empty());
  EXPECT_EQ(Profiler::ActiveOnThisThread(), nullptr);
}

TEST(ProfScope, ActivationNestsAndRestores) {
  Profiler outer_profiler;
  Profiler inner_profiler;
  {
    Activation outer(&outer_profiler);
    EXPECT_EQ(Profiler::ActiveOnThisThread(), &outer_profiler);
    {
      Scope scope("outer_scope");
      Spin();
    }
    {
      Activation inner(&inner_profiler);
      EXPECT_EQ(Profiler::ActiveOnThisThread(), &inner_profiler);
      Scope scope("inner_scope");
      Spin();
    }
    {
      // Activation(nullptr) is the propagation no-op: the outer profiler
      // stays active.
      Activation noop(nullptr);
      EXPECT_EQ(Profiler::ActiveOnThisThread(), &outer_profiler);
      Scope scope("still_outer");
      Spin();
    }
  }
  EXPECT_EQ(Profiler::ActiveOnThisThread(), nullptr);
  Profile outer_profile = outer_profiler.Merge();
  Profile inner_profile = inner_profiler.Merge();
  EXPECT_NE(outer_profile.Find("outer_scope"), nullptr);
  EXPECT_NE(outer_profile.Find("still_outer"), nullptr);
  EXPECT_EQ(outer_profile.Find("inner_scope"), nullptr);
  ASSERT_EQ(inner_profile.entries.size(), 1u);
  EXPECT_EQ(inner_profile.entries[0].stack, "inner_scope");
}

TEST(ProfScope, LeafAggregationSumsAcrossStacks) {
  Profiler profiler;
  {
    Activation on(&profiler);
    {
      Scope a("a");
      Scope shared("shared");
      Spin();
    }
    {
      Scope b("b");
      for (int i = 0; i < 2; ++i) {
        Scope shared("shared");
        Spin();
      }
    }
  }
  Profile profile = profiler.Merge();
  // "shared" appears under two parents; leaf aggregation sums both.
  EXPECT_EQ(profile.LeafCount("shared"), 3);
  const ftx_prof::ProfileEntry* under_a = profile.Find("a;shared");
  const ftx_prof::ProfileEntry* under_b = profile.Find("b;shared");
  ASSERT_NE(under_a, nullptr);
  ASSERT_NE(under_b, nullptr);
  EXPECT_EQ(profile.LeafTotalNs("shared"), under_a->total_ns + under_b->total_ns);
  EXPECT_EQ(profile.LeafCount("a"), 1);
  EXPECT_EQ(profile.LeafCount("nonexistent"), 0);
  EXPECT_EQ(profile.LeafTotalNs("nonexistent"), 0);
}

TEST(ProfExport, CollapsedTextIsByteExact) {
  Profiler profiler;
  {
    Activation on(&profiler);
    for (int i = 0; i < 5; ++i) {
      Scope outer("phase");
      Scope inner("phase.step");
      Spin();
    }
  }
  Profile profile = profiler.Merge();
  ASSERT_EQ(profile.entries.size(), 2u);

  // Count-weighted collapsed text is fully deterministic.
  EXPECT_EQ(profile.ToCollapsed(/*weight_ns=*/false), "phase 5\nphase;phase.step 5\n");

  // ns-weighted text carries each stack's total_ns, one line per entry in
  // stack order.
  EXPECT_EQ(profile.ToCollapsed(/*weight_ns=*/true),
            "phase " + std::to_string(profile.entries[0].total_ns) + "\nphase;phase.step " +
                std::to_string(profile.entries[1].total_ns) + "\n");
}

// The merged scope counts must not depend on how trials were sharded
// across workers: run the same scoped workload at --jobs 1 and --jobs 8
// and compare everything except the wall-clock fields.
TEST(ProfPool, ScopeCountsAreJobsIndependent) {
  auto run = [](int jobs) {
    Profiler profiler;
    ftx::TrialPool pool(jobs);
    {
      Activation on(&profiler);
      pool.ParallelFor(16, [](int64_t i) {
        Scope trial("trial");
        for (int64_t k = 0; k <= i % 3; ++k) {
          Scope step("trial.step");
          Spin();
        }
      });
    }
    std::map<std::string, int64_t> counts;
    for (const ftx_prof::ProfileEntry& entry : profiler.Merge().entries) {
      counts[entry.stack] = entry.count;
    }
    return counts;
  };
  std::map<std::string, int64_t> serial = run(1);
  std::map<std::string, int64_t> parallel = run(8);
  EXPECT_EQ(serial, parallel);
  ASSERT_TRUE(serial.count("trial"));
  EXPECT_EQ(serial["trial"], 16);
  // i % 3 over [0, 16): six 0s, five 1s, five 2s -> 6*1 + 5*2 + 5*3 steps.
  EXPECT_EQ(serial["trial;trial.step"], 31);
}

TEST(ProfPool, WorkerThreadsRecordIntoCallersProfiler) {
  Profiler profiler;
  ftx::TrialPool pool(4);
  {
    Activation on(&profiler);
    pool.ParallelFor(32, [](int64_t) {
      FTX_PROF_SCOPE("pooled");
      Spin();
    });
  }
  Profile profile = profiler.Merge();
  const ftx_prof::ProfileEntry* entry = profile.Find("pooled");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 32);
  EXPECT_GT(entry->total_ns, 0);
}

TEST(ProfHost, MetaCarriesRealHostFields) {
  std::string meta = ftx_prof::HostMetaJson().Dump(1);
  EXPECT_NE(meta.find("\"cpu_model\""), std::string::npos);
  EXPECT_NE(meta.find("\"num_cpus\""), std::string::npos);
  EXPECT_NE(meta.find("\"ftx_native\""), std::string::npos);
  EXPECT_NE(meta.find("\"sanitizer\""), std::string::npos);
  EXPECT_NE(meta.find("\"compiler\""), std::string::npos);
}

// End-to-end: a DC-disk run that crashes and recovers must light up the
// recovery-phase scopes in src/checkpoint/runtime.cc — and produce exactly
// the same simulated results as the unprofiled run (profiling must be
// invisible to the simulation).
TEST(ProfRecovery, CrashRunPopulatesRecoveryPhases) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.protocol = "cpvs";
  spec.scale = 10;
  spec.seed = 77;
  spec.store = ftx::StoreKind::kDisk;

  ftx::RunSpec baseline_spec = spec;
  baseline_spec.mode = ftx_dc::RuntimeMode::kBaseline;
  ftx::RunOutput baseline = ftx::RunExperiment(baseline_spec);
  const ftx::Duration crash_at =
      ftx::Nanoseconds(baseline.elapsed.nanos() / 2);
  ASSERT_GT(crash_at.nanos(), 0);

  auto run_crash = [&](Profiler* profiler) {
    std::unique_ptr<ftx::Computation> computation = ftx::BuildComputation(spec);
    computation->ScheduleStopFailure(0, ftx::TimePoint() + crash_at,
                                     ftx::Milliseconds(50));
    Activation on(profiler);  // nullptr-safe: unprofiled control run
    ftx::ComputationResult result = computation->Run();
    return ftx::Collect(*computation, result);
  };

  Profiler profiler;
  ftx::RunOutput profiled = run_crash(&profiler);
  ftx::RunOutput unprofiled = run_crash(nullptr);

  // Profiling changed nothing the simulation can see.
  EXPECT_EQ(profiled.result.total_rollbacks, unprofiled.result.total_rollbacks);
  EXPECT_EQ(profiled.checkpoints, unprofiled.checkpoints);
  EXPECT_EQ(profiled.elapsed.nanos(), unprofiled.elapsed.nanos());

  Profile profile = profiler.Merge();
  EXPECT_GE(profile.LeafCount("recover"), 1);
  EXPECT_GE(profile.LeafCount("recover.log_scan"), 1);
  EXPECT_GE(profile.LeafCount("recover.reprotect"), 1);
  EXPECT_GE(profile.LeafCount("recover.kernel_replay"), 1);
  EXPECT_GE(profile.LeafCount("recover.app_rebuild"), 1);
  // The DC-disk commit path is instrumented too, and the crash happened
  // mid-run, after commits.
  EXPECT_GE(profile.LeafCount("commit"), 1);
  EXPECT_GT(profile.LeafTotalNs("recover"), 0);
  // The recovery sub-phases nest under "recover" in the collapsed stacks.
  EXPECT_EQ(profile.Find("recover.log_scan"), nullptr);
  EXPECT_NE(profile.Find("recover;recover.log_scan"), nullptr);
}

}  // namespace
