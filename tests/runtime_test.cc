// Tests for the Discount Checking runtime: commit/rollback round trips,
// kernel-state reconstruction, ND-log replay, DC-disk redo recovery, and
// cost accounting — driven through a purpose-built test application — and
// the constructor's check of every required Environment field.

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/computation.h"
#include "src/recovery/consistency.h"
#include "src/statemachine/invariants.h"
#include "src/statemachine/trace_format.h"

namespace {

// A deterministic counter app: each step reads one input token, adds it to
// an accumulator in the segment, echoes the accumulator (visible), and
// occasionally performs syscalls and transient ND events.
class CounterApp : public ftx_dc::App {
 public:
  struct State {
    int64_t steps = 0;
    int64_t accumulator = 0;
    int64_t fd = -1;
  };

  std::string_view name() const override { return "counter"; }
  size_t SegmentBytes() const override { return 64 * 1024; }
  int64_t HeapBytes() const override { return 16 * 1024; }
  int64_t HeapOffset() const override { return 32 * 1024; }

  void Init(ftx_dc::ProcessEnv& env) override {
    State state;
    ftx::Result<int> fd = env.Open("counter.log", true);
    state.fd = fd.ok() ? *fd : -1;
    env.segment().WriteValue(0, state);
  }

  ftx_dc::StepOutcome Step(ftx_dc::ProcessEnv& env) override {
    std::optional<ftx::Bytes> token = env.ReadUserInput();
    if (!token.has_value()) {
      return {ftx_dc::StepOutcome::Status::kDone, ftx::Duration()};
    }
    auto state = env.segment().Read<State>(0);
    ++state.steps;
    state.accumulator += (*token)[0];
    env.segment().WriteValue(0, state);

    env.Compute(ftx::Microseconds(50));
    if (state.steps % 5 == 0) {
      (void)env.GetTimeOfDay();  // unloggable transient ND
    }
    if (state.steps % 7 == 0 && state.fd >= 0) {
      (void)env.WriteFile(static_cast<int>(state.fd), 128);
    }
    ftx::Bytes echo;
    ftx::AppendValue(&echo, state.steps);
    ftx::AppendValue(&echo, state.accumulator);
    env.Print(std::move(echo));
    return {ftx_dc::StepOutcome::Status::kContinue, ftx::Duration()};
  }

  static State Read(ftx_dc::ProcessEnv& env) { return env.segment().Read<State>(0); }
};

std::vector<ftx::Bytes> TokenScript(int n) {
  std::vector<ftx::Bytes> script;
  for (int i = 0; i < n; ++i) {
    script.push_back(ftx::Bytes{static_cast<uint8_t>(1 + (i * 13) % 50)});
  }
  return script;
}

struct Harness {
  explicit Harness(const std::string& protocol, ftx::StoreKind store = ftx::StoreKind::kRio,
                   int tokens = 40) {
    ftx::ComputationOptions options;
    options.seed = 7;
    options.protocol = protocol;
    options.store = store;
    std::vector<std::unique_ptr<ftx_dc::App>> apps;
    apps.push_back(std::make_unique<CounterApp>());
    computation = std::make_unique<ftx::Computation>(options, std::move(apps));
    computation->SetInputScript(0, TokenScript(tokens));
  }
  std::unique_ptr<ftx::Computation> computation;
};

int64_t ExpectedAccumulator(int n) {
  int64_t acc = 0;
  for (int i = 0; i < n; ++i) {
    acc += 1 + (i * 13) % 50;
  }
  return acc;
}

TEST(Runtime, FailureFreeRunProducesExpectedState) {
  Harness h("cpvs");
  ftx::ComputationResult result = h.computation->Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(h.computation->runtime(0));
  EXPECT_EQ(state.steps, 40);
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_EQ(h.computation->recorder().size(), 40u);
}

TEST(Runtime, StopFailureRecoversExactState) {
  for (const char* protocol : {"cpvs", "cand", "cbndvs", "cand-log", "cbndvs-log"}) {
    Harness h(protocol);
    h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Microseconds(900));
    ftx::ComputationResult result = h.computation->Run();
    EXPECT_TRUE(result.all_done) << protocol;
    auto state = CounterApp::Read(h.computation->runtime(0));
    EXPECT_EQ(state.steps, 40) << protocol;
    EXPECT_EQ(state.accumulator, ExpectedAccumulator(40)) << protocol;
    EXPECT_GE(h.computation->runtime(0).stats().rollbacks, 1) << protocol;
  }
}

TEST(Runtime, DcDiskRecoversFromRedoChain) {
  Harness h("cpvs", ftx::StoreKind::kDisk);
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(500));
  ftx::ComputationResult result = h.computation->Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(h.computation->runtime(0));
  EXPECT_EQ(state.steps, 40);
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_GE(h.computation->runtime(0).stats().rollbacks, 1);
}

TEST(Runtime, MultipleFailuresStillRecover) {
  Harness h("cbndvs");
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Microseconds(500));
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(60));
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(120));
  ftx::ComputationResult result = h.computation->Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(h.computation->runtime(0));
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_GE(h.computation->runtime(0).stats().rollbacks, 3);
}

TEST(Runtime, VisibleOutputConsistentAcrossFailure) {
  // Reference: failure-free run.
  Harness reference("cpvs");
  reference.computation->Run();

  Harness failed("cpvs");
  failed.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(1));
  failed.computation->Run();

  auto check = ftx_rec::CheckConsistentRecovery(reference.computation->recorder(),
                                                failed.computation->recorder(), 1);
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(Runtime, KernelStateSurvivesRecovery) {
  Harness h("cbndvs-log");
  h.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(2));
  ftx::ComputationResult result = h.computation->Run();
  ASSERT_TRUE(result.all_done);
  // The fd opened at Init must still be open after recovery, with the file
  // writes the run performed accounted (40/7 = 5 writes of 128B -> 1 block
  // each: disk usage must match exactly, not double-count replay).
  const ftx_sim::KernelState& kernel = h.computation->kernel().StateOf(0);
  ASSERT_FALSE(kernel.fd_table.empty());
  ASSERT_TRUE(kernel.fd_table[0].has_value());
  EXPECT_EQ(kernel.fd_table[0]->path, "counter.log");
  EXPECT_EQ(kernel.disk_blocks_used, 5);
}

TEST(Runtime, SaveWorkHoldsOnRecoveredTracePrefix) {
  // The failure-free portion of a protocol-governed run passes the
  // Save-work checker (the runtime's event discipline is correct).
  Harness h("cbndvs");
  ftx::ComputationResult result = h.computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_TRUE(ftx_sm::CheckSaveWork(h.computation->trace()).ok());
}

TEST(Runtime, CommitStatsAreCoherent) {
  Harness h("cand");
  ftx::ComputationResult result = h.computation->Run();
  ASSERT_TRUE(result.all_done);
  const auto& stats = h.computation->runtime(0).stats();
  // CAND commits once per unlogged ND event: 40/5 timeofday + 40/7 writes,
  // plus checkpoint #0 and the 40 loggable inputs (CAND does not log).
  EXPECT_GT(stats.commits, 40);
  EXPECT_GT(stats.nd_events, 40);
  EXPECT_EQ(stats.visible_events, 40);
  EXPECT_GT(stats.commit_time.nanos(), 0);
  EXPECT_GT(stats.pages_committed, 0);
}

TEST(Runtime, NdLogReplayKeepsLoggedProtocolConsistent) {
  // With cand-log, inputs are replayed from the ND log after recovery; the
  // run must still complete with identical final state and no duplicated
  // *new* outputs beyond tolerated repeats.
  Harness reference("cand-log");
  reference.computation->Run();
  auto ref_state = CounterApp::Read(reference.computation->runtime(0));

  Harness failed("cand-log");
  failed.computation->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(1));
  ftx::ComputationResult result = failed.computation->Run();
  ASSERT_TRUE(result.all_done);
  auto state = CounterApp::Read(failed.computation->runtime(0));
  EXPECT_EQ(state.accumulator, ref_state.accumulator);

  auto check = ftx_rec::CheckConsistentRecovery(reference.computation->recorder(),
                                                failed.computation->recorder(), 1);
  EXPECT_TRUE(check.consistent) << check.diagnostic;
}

TEST(Runtime, GroupCommitMatchesUnbatchedRunAndAuditsClean) {
  // Group-commit staging must be invisible to everything but the sync
  // schedule: same app state, same commit count, and a clean online
  // Save-work audit. cand commits after each ND event, so a step with two
  // ND events stages two records into one window; every Print flushes the
  // open window before the output escapes.
  auto run = [](bool batched) {
    ftx::ComputationOptions options;
    options.seed = 7;
    options.protocol = "cand";
    options.store = ftx::StoreKind::kDisk;
    options.audit = true;
    if (batched) {
      options.group_commit.enabled = true;
      options.group_commit.max_records = 8;
    }
    std::vector<std::unique_ptr<ftx_dc::App>> apps;
    apps.push_back(std::make_unique<CounterApp>());
    auto computation = std::make_unique<ftx::Computation>(options, std::move(apps));
    computation->SetInputScript(0, TokenScript(40));
    ftx::ComputationResult result = computation->Run();
    return std::make_pair(std::move(computation), result);
  };

  auto [unbatched, base] = run(false);
  auto [batched, grouped] = run(true);
  EXPECT_TRUE(base.all_done);
  EXPECT_TRUE(grouped.all_done);
  EXPECT_EQ(grouped.total_commits, base.total_commits);
  auto base_state = CounterApp::Read(unbatched->runtime(0));
  auto grouped_state = CounterApp::Read(batched->runtime(0));
  EXPECT_EQ(grouped_state.steps, base_state.steps);
  EXPECT_EQ(grouped_state.accumulator, base_state.accumulator);
  ASSERT_NE(batched->audit(), nullptr);
  EXPECT_EQ(batched->audit()->violations(), 0);
  // Clean shutdown leaves nothing staged.
  ASSERT_NE(batched->commit_pipeline(0), nullptr);
  EXPECT_TRUE(batched->commit_pipeline(0)->empty());
}

TEST(Runtime, GroupCommitSurvivesMidRunFailure) {
  // A kill with a window open drops the staged (never-reported) commits;
  // recovery replays the durable prefix and the run still finishes with
  // the exact expected state.
  ftx::ComputationOptions options;
  options.seed = 7;
  options.protocol = "cand";
  options.store = ftx::StoreKind::kDisk;
  options.group_commit.enabled = true;
  options.group_commit.max_records = 8;
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation computation(options, std::move(apps));
  computation.SetInputScript(0, TokenScript(40));
  computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Milliseconds(500));
  ftx::ComputationResult result = computation.Run();
  EXPECT_TRUE(result.all_done);
  auto state = CounterApp::Read(computation.runtime(0));
  EXPECT_EQ(state.steps, 40);
  EXPECT_EQ(state.accumulator, ExpectedAccumulator(40));
  EXPECT_GE(computation.runtime(0).stats().rollbacks, 1);
}

// A failure-free DC-disk CAND run of the counter app with the audit and the
// Chrome tracer on, under the given group-commit policy.
std::unique_ptr<ftx::Computation> RunDiskCand(ftx_store::BatchPolicy policy) {
  ftx::ComputationOptions options;
  options.seed = 7;
  options.protocol = "cand";
  options.store = ftx::StoreKind::kDisk;
  options.audit = true;
  options.group_commit = policy;
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<CounterApp>());
  auto computation = std::make_unique<ftx::Computation>(options, std::move(apps));
  computation->SetInputScript(0, TokenScript(40));
  computation->tracer().SetEnabled(true);
  EXPECT_TRUE(computation->Run().all_done);
  return computation;
}

// Every Chrome trace event, one per line: spans, flows and the audit's
// per-commit cost counters.
std::string TracerDump(const ftx_obs::Tracer& tracer) {
  std::ostringstream out;
  for (const ftx_obs::TraceEvent& ev : tracer.events()) {
    out << ev.phase << ' ' << ev.pid << ' ' << static_cast<int>(ev.lane) << ' ' << ev.category
        << ' ' << ev.name << ' ' << ev.ts_ns << ' ' << ev.flow_id;
    for (const auto& [key, value] : ev.counter_values) {
      out << ' ' << key << '=' << static_cast<int64_t>(value);
    }
    out << '\n';
  }
  return out.str();
}

// Every commit cost the audit ledger still holds, one per line.
std::string LedgerCosts(const ftx_causal::CausalAudit& audit) {
  std::ostringstream out;
  audit.ledger().ForEach([&out](const ftx_causal::LedgerEntry& entry) {
    if (entry.has_costs) {
      const ftx_causal::CommitCosts& c = entry.costs;
      out << ftx_causal::RefToString(entry.ref) << ' ' << c.fixed_ns << ' ' << c.before_image_ns << ' '
          << c.reprotect_ns << ' ' << c.persist_ns << ' ' << c.pages << ' ' << c.payload_bytes
          << ' ' << c.begin_ns << ' ' << c.end_ns << '\n';
    }
  });
  return out.str();
}

TEST(Runtime, OneRecordWindowIsTheUnbatchedCommit) {
  // Batching off makes every DC-disk commit a one-record window, so an
  // enabled policy that closes each window at one record must report
  // commits exactly as the default policy does.
  ftx_store::BatchPolicy one;
  one.enabled = true;
  one.max_records = 1;
  auto unbatched = RunDiskCand(ftx_store::BatchPolicy{});
  auto single = RunDiskCand(one);

  const ftx_dc::RuntimeStats& a = unbatched->runtime(0).stats();
  const ftx_dc::RuntimeStats& b = single->runtime(0).stats();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.commit_time, b.commit_time);
  EXPECT_EQ(a.pages_committed, b.pages_committed);
  EXPECT_EQ(a.bytes_persisted, b.bytes_persisted);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.visible_events, b.visible_events);
  EXPECT_EQ(ftx_sm::FormatTrace(unbatched->trace()), ftx_sm::FormatTrace(single->trace()));

  const ftx_obs::MetricsSnapshot snap_a = unbatched->metrics().Snapshot();
  const ftx_obs::MetricsSnapshot snap_b = single->metrics().Snapshot();
  const ftx_obs::MetricValue* hist_a = snap_a.Find("dc.commit_ns");
  const ftx_obs::MetricValue* hist_b = snap_b.Find("dc.commit_ns");
  ASSERT_NE(hist_a, nullptr);
  ASSERT_NE(hist_b, nullptr);
  EXPECT_EQ(hist_a->count, hist_b->count);
  EXPECT_EQ(hist_a->sum, hist_b->sum);
  EXPECT_EQ(hist_a->min, hist_b->min);
  EXPECT_EQ(hist_a->max, hist_b->max);
  EXPECT_EQ(hist_a->bucket_counts, hist_b->bucket_counts);

  EXPECT_EQ(LedgerCosts(*unbatched->audit()), LedgerCosts(*single->audit()));
  EXPECT_EQ(TracerDump(unbatched->tracer()), TracerDump(single->tracer()));
}

TEST(Runtime, GroupCommitCostsAddUpToChargedCommitTime) {
  // With real multi-record windows, every charged nanosecond of commit time
  // is attributed to exactly one commit: the dc.commit_ns histogram and the
  // audit's per-commit breakdowns both sum to the charged total, fixed
  // cost, reprotect and the overlap credit included.
  ftx_store::BatchPolicy eight;
  eight.enabled = true;
  eight.max_records = 8;
  auto computation = RunDiskCand(eight);
  const int64_t charged = computation->runtime(0).stats().commit_time.nanos();

  const ftx_obs::MetricsSnapshot snap = computation->metrics().Snapshot();
  EXPECT_EQ(snap.TotalCounter("dc.commit_ns"), charged);
  const ftx_obs::MetricValue* hist = snap.Find("dc.commit_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, computation->runtime(0).stats().commits);
  EXPECT_EQ(hist->sum, charged);

  // The audit emits one cost counter per reported commit; unlike the
  // ledger ring, the tracer keeps them all.
  int64_t audited = 0;
  int64_t audited_commits = 0;
  bool multi_record_window = false;
  for (const ftx_obs::TraceEvent& ev : computation->tracer().events()) {
    if (ev.phase == 'C' && ev.name == "commit cost (ns)") {
      ++audited_commits;
      for (const auto& [component, ns] : ev.counter_values) {
        audited += static_cast<int64_t>(ns);
      }
    }
    multi_record_window |= ev.name.rfind("commit(window x", 0) == 0;
  }
  EXPECT_TRUE(multi_record_window);
  EXPECT_EQ(audited_commits, computation->runtime(0).stats().commits);
  EXPECT_EQ(audited, charged);
}

TEST(Runtime, BaselineModeDoesNoRecoveryWork) {
  ftx::ComputationOptions options;
  options.mode = ftx_dc::RuntimeMode::kBaseline;
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation computation(options, std::move(apps));
  computation.SetInputScript(0, TokenScript(20));
  ftx::ComputationResult result = computation.Run();
  EXPECT_TRUE(result.all_done);
  EXPECT_EQ(result.total_commits, 0);
  EXPECT_EQ(computation.runtime(0).stats().commit_time.nanos(), 0);
}

// A baseline process runs every event down the same path as a recoverable
// one, so a failure-free run counts the same events in both modes.
TEST(Runtime, BaselineRunCountsTheSameEventsAsRecoverable) {
  auto run = [](ftx_dc::RuntimeMode mode) {
    ftx::ComputationOptions options;
    options.mode = mode;
    std::vector<std::unique_ptr<ftx_dc::App>> apps;
    apps.push_back(std::make_unique<CounterApp>());
    ftx::Computation computation(options, std::move(apps));
    computation.SetInputScript(0, TokenScript(20));
    EXPECT_TRUE(computation.Run().all_done);
    return computation.metrics().Snapshot();
  };
  const ftx_obs::MetricsSnapshot baseline = run(ftx_dc::RuntimeMode::kBaseline);
  const ftx_obs::MetricsSnapshot recoverable = run(ftx_dc::RuntimeMode::kRecoverable);
  EXPECT_GT(baseline.Find("p0.dc.events")->counter, 0);
  EXPECT_GT(baseline.Find("p0.dc.nd_events")->counter, 0);
  for (const char* name : {"p0.dc.events", "p0.dc.nd_events", "p0.dc.visible_events"}) {
    EXPECT_EQ(baseline.Find(name)->counter, recoverable.Find(name)->counter) << name;
  }
  EXPECT_EQ(baseline.Find("p0.dc.commits")->counter, 0);
}

TEST(Runtime, RecoverableSlowerThanBaseline) {
  ftx::ComputationOptions options;
  options.mode = ftx_dc::RuntimeMode::kBaseline;
  std::vector<std::unique_ptr<ftx_dc::App>> baseline_apps;
  baseline_apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation baseline(options, std::move(baseline_apps));
  baseline.SetInputScript(0, TokenScript(30));
  ftx::ComputationResult base = baseline.Run();

  options.mode = ftx_dc::RuntimeMode::kRecoverable;
  options.protocol = "cpvs";
  options.store = ftx::StoreKind::kDisk;
  std::vector<std::unique_ptr<ftx_dc::App>> rec_apps;
  rec_apps.push_back(std::make_unique<CounterApp>());
  ftx::Computation recoverable(options, std::move(rec_apps));
  recoverable.SetInputScript(0, TokenScript(30));
  ftx::ComputationResult rec = recoverable.Run();

  EXPECT_GT((rec.end_time - ftx::TimePoint()).nanos(),
            (base.end_time - ftx::TimePoint()).nanos());
}

// --- Environment: the constructor checks every required dependency ---

// A full set of valid dependencies for the Runtime-constructor tests.
struct EnvFixture {
  ftx_sim::Simulator sim{1};
  ftx_sim::Network network{&sim, 3};
  ftx_sim::KernelSim kernel{&sim, 3};
  ftx_rec::OutputRecorder recorder;
  ftx_sm::Trace trace{3};
  ftx_store::RioStore store;
  ftx_store::RedoLog redo_log;
  ftx_store::CommitPipeline pipeline{&redo_log, ftx_store::BatchPolicy{}};

  // Every field a recoverable Rio runtime requires.
  ftx_dc::Environment Recoverable() {
    ftx_dc::Environment env;
    env.sim = &sim;
    env.network = &network;
    env.kernel = &kernel;
    env.recorder = &recorder;
    env.trace = &trace;
    env.store = &store;
    return env;
  }
};

class IdleApp : public ftx_dc::App {
 public:
  std::string_view name() const override { return "idle"; }
  size_t SegmentBytes() const override { return 16 * 1024; }
  void Init(ftx_dc::ProcessEnv& env) override { (void)env; }
  ftx_dc::StepOutcome Step(ftx_dc::ProcessEnv& env) override {
    (void)env;
    return {ftx_dc::StepOutcome::Status::kDone, ftx::Duration()};
  }
};

void MakeRuntime(ftx_dc::Environment env, ftx_dc::RuntimeMode mode) {
  IdleApp app;
  std::unique_ptr<ftx_proto::Protocol> protocol;
  if (mode == ftx_dc::RuntimeMode::kRecoverable) {
    protocol = ftx_proto::MakeProtocolByName("cpvs");
  }
  ftx_dc::Runtime runtime(0, 3, &app, std::move(protocol), std::move(env), mode);
}

TEST(RuntimeEnv, ConstructsWithEveryRequiredDependency) {
  EnvFixture fx;
  ftx_dc::Environment baseline = fx.Recoverable();
  baseline.trace = nullptr;  // optional without recovery
  baseline.store = nullptr;
  MakeRuntime(baseline, ftx_dc::RuntimeMode::kBaseline);
  MakeRuntime(fx.Recoverable(), ftx_dc::RuntimeMode::kRecoverable);
  ftx_dc::Environment disk = fx.Recoverable();
  disk.redo_log = &fx.redo_log;
  disk.commit_pipeline = &fx.pipeline;
  MakeRuntime(disk, ftx_dc::RuntimeMode::kRecoverable);
}

TEST(RuntimeEnvDeathTest, NamesEachMissingRequiredField) {
  EnvFixture fx;
  const std::pair<const char*, void (*)(ftx_dc::Environment&)> cases[] = {
      {"sim", [](ftx_dc::Environment& env) { env.sim = nullptr; }},
      {"network", [](ftx_dc::Environment& env) { env.network = nullptr; }},
      {"kernel", [](ftx_dc::Environment& env) { env.kernel = nullptr; }},
      {"recorder", [](ftx_dc::Environment& env) { env.recorder = nullptr; }},
  };
  for (const auto& [field, clear] : cases) {
    ftx_dc::Environment env = fx.Recoverable();
    clear(env);
    EXPECT_DEATH(MakeRuntime(env, ftx_dc::RuntimeMode::kBaseline),
                 std::string("missing required dependency '") + field + "'");
  }
}

TEST(RuntimeEnvDeathTest, RecoverableModeAdditionallyRequiresTraceAndStore) {
  EnvFixture fx;
  ftx_dc::Environment no_trace = fx.Recoverable();
  no_trace.trace = nullptr;
  EXPECT_DEATH(MakeRuntime(no_trace, ftx_dc::RuntimeMode::kRecoverable),
               "requires dependency 'trace'");
  ftx_dc::Environment no_store = fx.Recoverable();
  no_store.store = nullptr;
  EXPECT_DEATH(MakeRuntime(no_store, ftx_dc::RuntimeMode::kRecoverable),
               "requires dependency 'store'");
}

TEST(RuntimeEnvDeathTest, DcDiskRequiresCommitPipeline) {
  EnvFixture fx;
  ftx_dc::Environment env = fx.Recoverable();
  env.redo_log = &fx.redo_log;
  EXPECT_DEATH(MakeRuntime(env, ftx_dc::RuntimeMode::kRecoverable),
               "requires dependency 'commit_pipeline'");
}

}  // namespace
