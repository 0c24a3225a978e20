// Tests for the ftx::env execution-environment seam (src/env/):
//
//   * the Runtime constructor checks every required Environment field and
//     names the missing one in its abort message;
//   * env::threads primitives uphold the seam contracts for real — the
//     channel transport delivers in send order with the recovery-buffer
//     semantics recovery depends on, and the file-backed stable medium
//     genuinely loses bytes appended but not synced when a kill lands in the
//     torn-commit window;
//   * the scripted cross-backend harness produces byte-identical decision
//     logs on the simulator oracle and the threads backend, crash injection
//     included, and the sim path is --jobs invariant (safe to shard).

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/checkpoint/runtime.h"
#include "src/common/rng.h"
#include "src/core/parallel.h"
#include "src/env/env.h"
#include "src/env/script_runner.h"
#include "src/env/sim_env.h"
#include "src/env/thread_env.h"
#include "src/recovery/output_recorder.h"
#include "src/sim/kernel.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/statemachine/random_model.h"
#include "src/statemachine/trace.h"
#include "src/storage/commit_pipeline.h"
#include "src/storage/stable_store.h"

namespace {

using ftx::env::ChannelTransport;
using ftx::env::Environment;
using ftx::env::FileMedium;
using ftx::env::KillSwitch;
using ftx::env::Message;

// A full set of valid dependencies for the Runtime-constructor tests.
struct EnvFixture {
  ftx_sim::Simulator sim{1};
  ftx_sim::Network network{&sim, 3};
  ftx::env::SimClock clock{&sim};
  ftx::env::SimTransport transport{&network};
  ftx_sim::KernelSim kernel{&clock, 3};
  ftx_rec::OutputRecorder recorder;
  ftx_sm::Trace trace{3};
  ftx_store::RioStore store;
  ftx_store::RedoLog redo_log;
  ftx_store::CommitPipeline pipeline{&redo_log, ftx_store::BatchPolicy{}};

  // Every field a recoverable Rio runtime requires.
  Environment Recoverable() {
    Environment env;
    env.clock = &clock;
    env.transport = &transport;
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

void MakeRuntime(Environment env, ftx_dc::RuntimeMode mode) {
  IdleApp app;
  std::unique_ptr<ftx_proto::Protocol> protocol;
  if (mode == ftx_dc::RuntimeMode::kRecoverable) {
    protocol = ftx_proto::MakeProtocolByName("cpvs");
  }
  ftx_dc::Runtime runtime(0, 3, &app, std::move(protocol), std::move(env), mode);
}

TEST(RuntimeEnv, ConstructsWithEveryRequiredDependency) {
  EnvFixture fx;
  Environment baseline = fx.Recoverable();
  baseline.trace = nullptr;  // optional without recovery
  baseline.store = nullptr;
  MakeRuntime(baseline, ftx_dc::RuntimeMode::kBaseline);
  MakeRuntime(fx.Recoverable(), ftx_dc::RuntimeMode::kRecoverable);
  Environment disk = fx.Recoverable();
  disk.redo_log = &fx.redo_log;
  disk.commit_pipeline = &fx.pipeline;
  MakeRuntime(disk, ftx_dc::RuntimeMode::kRecoverable);
}

TEST(RuntimeEnvDeathTest, NamesEachMissingRequiredField) {
  EnvFixture fx;
  const std::pair<const char*, void (*)(Environment&)> cases[] = {
      {"clock", [](Environment& env) { env.clock = nullptr; }},
      {"transport", [](Environment& env) { env.transport = nullptr; }},
      {"kernel", [](Environment& env) { env.kernel = nullptr; }},
      {"recorder", [](Environment& env) { env.recorder = nullptr; }},
  };
  for (const auto& [field, clear] : cases) {
    Environment env = fx.Recoverable();
    clear(env);
    EXPECT_DEATH(MakeRuntime(env, ftx_dc::RuntimeMode::kBaseline),
                 std::string("missing required dependency '") + field + "'");
  }
}

TEST(RuntimeEnvDeathTest, RecoverableModeAdditionallyRequiresTraceAndStore) {
  EnvFixture fx;
  Environment no_trace = fx.Recoverable();
  no_trace.trace = nullptr;
  EXPECT_DEATH(MakeRuntime(no_trace, ftx_dc::RuntimeMode::kRecoverable),
               "requires dependency 'trace'");
  Environment no_store = fx.Recoverable();
  no_store.store = nullptr;
  EXPECT_DEATH(MakeRuntime(no_store, ftx_dc::RuntimeMode::kRecoverable),
               "requires dependency 'store'");
}

TEST(RuntimeEnvDeathTest, DcDiskRequiresCommitPipeline) {
  EnvFixture fx;
  Environment env = fx.Recoverable();
  env.redo_log = &fx.redo_log;
  EXPECT_DEATH(MakeRuntime(env, ftx_dc::RuntimeMode::kRecoverable),
               "requires dependency 'commit_pipeline'");
}

TEST(ChannelTransport, DeliversInSendOrderWithIncreasingIds) {
  ChannelTransport transport(3);
  EXPECT_EQ(transport.num_processes(), 3);
  // Interleave two senders toward process 2; arrival order must equal global
  // send order (sends enqueue synchronously), ids strictly increasing.
  std::vector<int64_t> sent_ids;
  for (int i = 0; i < 6; ++i) {
    int src = i % 2;
    ftx::Bytes payload = {static_cast<uint8_t>(0xa0 + i)};
    sent_ids.push_back(transport.Send(src, 2, payload));
  }
  for (size_t i = 1; i < sent_ids.size(); ++i) {
    EXPECT_LT(sent_ids[i - 1], sent_ids[i]);
  }
  EXPECT_FALSE(transport.HasPending(0));
  ASSERT_TRUE(transport.HasPending(2));
  const Message* peeked = transport.PeekNext(2);
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->id, sent_ids[0]);
  for (int i = 0; i < 6; ++i) {
    auto message = transport.Deliver(2);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(message->id, sent_ids[static_cast<size_t>(i)]);
    EXPECT_EQ(message->src, i % 2);
    ASSERT_EQ(message->payload.size(), 1u);
    EXPECT_EQ(message->payload[0], 0xa0 + i);
  }
  EXPECT_FALSE(transport.Deliver(2).has_value());
}

TEST(ChannelTransport, RetainRequeueReleaseAndDropNewest) {
  ChannelTransport transport(2);
  std::vector<int64_t> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(transport.Send(0, 1, {static_cast<uint8_t>(i)}));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(transport.Deliver(1).has_value());
  }
  EXPECT_FALSE(transport.HasPending(1));

  // Rollback: retained messages return to the inbox front in original order.
  transport.RequeueRetained(1);
  for (int i = 0; i < 3; ++i) {
    auto message = transport.Deliver(1);
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(message->id, ids[static_cast<size_t>(i)]);
  }

  // A logged receive is dropped from the buffer: only the older two return.
  transport.DropNewestRetained(1, ids[2]);
  transport.RequeueRetained(1);
  auto first = transport.Deliver(1);
  auto second = transport.Deliver(1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->id, ids[0]);
  EXPECT_EQ(second->id, ids[1]);
  EXPECT_FALSE(transport.Deliver(1).has_value());

  // Commit: released messages never come back.
  transport.ReleaseAllDelivered(1);
  transport.RequeueRetained(1);
  EXPECT_FALSE(transport.HasPending(1));
}

TEST(FileMedium, KillInTornCommitWindowLosesUnsyncedBytes) {
  FileMedium medium("ftx-env-test");
  KillSwitch kill;

  // Commit 1 completes: append + sync.
  medium.Append("rec1", 4);
  medium.Sync();
  EXPECT_EQ(medium.durable_bytes(), 4);

  // Commit 2 is killed between Append and Sync — the torn-commit window the
  // script runner's CommitThroughMedium models.
  kill.armed.store(true);
  medium.Append("rec2", 4);
  ASSERT_TRUE(kill.armed.load());  // armed: the commit path must not Sync
  EXPECT_EQ(medium.buffered_bytes(), 4);
  medium.CrashDropBuffered();
  kill.armed.store(false);

  EXPECT_EQ(medium.durable_bytes(), 4);
  ftx::Bytes durable;
  medium.ReadDurable(&durable);
  ASSERT_EQ(durable.size(), 4u);
  EXPECT_EQ(std::memcmp(durable.data(), "rec1", 4), 0);

  // Recovery re-runs the commit; this time it reaches Sync.
  medium.Append("rec2", 4);
  medium.Sync();
  EXPECT_EQ(medium.durable_bytes(), 8);
  medium.ReadDurable(&durable);
  ASSERT_EQ(durable.size(), 8u);
  EXPECT_EQ(std::memcmp(durable.data() + 4, "rec2", 4), 0);
}

std::vector<ftx_sm::ScriptedEvent> SmallScript(uint64_t seed, int events_per_process) {
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 3;
  options.events_per_process = events_per_process;
  options.send_probability = 0.3;
  options.logged_fraction = 0.4;
  ftx::Rng rng(seed);
  return ftx_sm::MakeRandomScript(&rng, options);
}

TEST(ScriptRunner, BackendsProduceIdenticalDecisionLogs) {
  std::vector<ftx_sm::ScriptedEvent> script = SmallScript(7, 12);
  ftx::env::ScriptRunOptions options;
  options.protocol = "cbndvs";  // coordinated: exercises the 2PC round path
  ftx::env::DecisionLog sim_log = ftx::env::RunScriptOnSim(script, options);
  ftx::env::DecisionLog threads_log = ftx::env::RunScriptOnThreads(script, options);
  EXPECT_GT(sim_log.commits, 0);
  EXPECT_TRUE(sim_log.clean());
  EXPECT_TRUE(threads_log.clean());
  EXPECT_EQ(sim_log.Canonical(), threads_log.Canonical());
  EXPECT_EQ(sim_log.Crc(), threads_log.Crc());
}

TEST(ScriptRunner, CrashInjectionRollsBackIdenticallyOnBothBackends) {
  std::vector<ftx_sm::ScriptedEvent> script =
      ftx::env::InjectCrashes(SmallScript(11, 12), 2, 99, 3);
  ftx::env::ScriptRunOptions options;
  options.protocol = "cpvs";
  ftx::env::DecisionLog sim_log = ftx::env::RunScriptOnSim(script, options);
  ftx::env::DecisionLog threads_log = ftx::env::RunScriptOnThreads(script, options);
  EXPECT_EQ(sim_log.rollbacks, 2);
  EXPECT_TRUE(sim_log.clean());
  EXPECT_TRUE(threads_log.clean());
  EXPECT_EQ(sim_log.Canonical(), threads_log.Canonical());
}

TEST(ScriptRunner, SimBackendIsJobsInvariant) {
  // The sim runner is a pure function of (script, options): sharding seeds
  // across a TrialPool must not change a byte of any decision log.
  constexpr int kSeeds = 8;
  auto run_all = [](int jobs) {
    std::vector<std::string> logs(kSeeds);
    ftx::TrialPool pool(jobs);
    pool.ParallelFor(kSeeds, [&logs](int64_t i) {
      std::vector<ftx_sm::ScriptedEvent> script =
          ftx::env::InjectCrashes(SmallScript(100 + static_cast<uint64_t>(i), 10), 1,
                                  static_cast<uint64_t>(i), 3);
      ftx::env::ScriptRunOptions options;
      options.protocol = "cbndvs";
      logs[static_cast<size_t>(i)] = ftx::env::RunScriptOnSim(script, options).Canonical();
    });
    return logs;
  };
  EXPECT_EQ(run_all(1), run_all(8));
}

// The ScriptExecutor's 2PC closure has no process limit either: the same
// 70-process script as the ReplayScript pin commits exactly p0 and p65.
TEST(ScriptRunner, CoordinatedClosureBeyond64Processes) {
  using ftx_sm::EventKind;
  const std::vector<ftx_sm::ScriptedEvent> script = {
      {0, EventKind::kSend, 1}, {65, EventKind::kReceive, 1}, {0, EventKind::kVisible}};
  ftx::env::ScriptRunOptions options;
  options.num_processes = 70;
  options.protocol = "coordinated-ckpt";
  const ftx::env::DecisionLog log = ftx::env::RunScriptOnSim(script, options);
  EXPECT_TRUE(log.clean());
  EXPECT_EQ(log.coordinated_rounds, 1);
  EXPECT_EQ(log.commits, 2);
  std::vector<std::string> commits;
  for (const std::string& line : log.lines) {
    if (line.rfind("commit ", 0) == 0) {
      commits.push_back(line.substr(0, line.find(' ', 7)));
    }
  }
  EXPECT_EQ(commits, (std::vector<std::string>{"commit p65", "commit p0"}));
}

}  // namespace
