// Per-application tests: determinism, functional correctness against
// reference models, and event-mix sanity for the Fig. 8 workloads, plus
// the fleet workload's exactly-once ledger and observer neutrality.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "src/apps/fleet.h"
#include "src/apps/magic.h"
#include "src/apps/nvi.h"
#include "src/apps/postgres.h"
#include "src/apps/treadmarks.h"
#include "src/apps/workloads.h"
#include "src/apps/xpilot.h"
#include "src/common/rng.h"
#include "src/core/computation.h"
#include "src/core/experiment.h"

namespace {

ftx::RunOutput RunWorkload(const std::string& workload, int scale, uint64_t seed,
                   const std::string& protocol = "cbndvs") {
  ftx::RunSpec spec;
  spec.workload = workload;
  spec.scale = scale;
  spec.seed = seed;
  spec.protocol = protocol;
  return ftx::RunExperiment(spec);
}

// --- determinism: same seed, same visible stream ---

TEST(Apps, DeterministicWorkloads) {
  for (const char* workload : {"nvi", "magic", "postgres", "treadmarks"}) {
    int scale = workload == std::string("treadmarks") ? 4 : 60;
    ftx::RunOutput a = RunWorkload(workload, scale, 5);
    ftx::RunOutput b = RunWorkload(workload, scale, 5);
    ASSERT_TRUE(a.result.all_done) << workload;
    ASSERT_EQ(a.outputs.size(), b.outputs.size()) << workload;
    for (size_t i = 0; i < a.outputs.size(); ++i) {
      EXPECT_EQ(a.outputs.events()[i].payload, b.outputs.events()[i].payload)
          << workload << " visible " << i;
    }
  }
}

TEST(Apps, DifferentSeedsDiverge) {
  ftx::RunOutput a = RunWorkload("nvi", 60, 5);
  ftx::RunOutput b = RunWorkload("nvi", 60, 6);
  bool any_diff = a.outputs.size() != b.outputs.size();
  for (size_t i = 0; !any_diff && i < a.outputs.size(); ++i) {
    any_diff = a.outputs.events()[i].payload != b.outputs.events()[i].payload;
  }
  EXPECT_TRUE(any_diff);
}

// --- nvi ---

TEST(Nvi, BufferMatchesSimpleGapBufferModel) {
  // Replay the same script against a trivial string-based reference.
  const int keys = 300;
  std::vector<ftx::Bytes> script = ftx_apps::Nvi::MakeScript(77, keys);

  std::string reference;
  size_t cursor = 0;
  for (const ftx::Bytes& key : script) {
    if (key.size() == 1 && key[0] >= 0x20) {
      reference.insert(reference.begin() + static_cast<int64_t>(cursor),
                       static_cast<char>(key[0]));
      ++cursor;
    } else if (key.size() == 2) {
      switch (key[1]) {
        case 'L':
          cursor = cursor > 0 ? cursor - 1 : 0;
          break;
        case 'R':
          cursor = std::min(cursor + 1, reference.size());
          break;
        case 'D':
          if (cursor > 0) {
            reference.erase(reference.begin() + static_cast<int64_t>(cursor) - 1);
            --cursor;
          }
          break;
        case 'N':
          reference.insert(reference.begin() + static_cast<int64_t>(cursor), '\n');
          ++cursor;
          break;
        default:
          break;
      }
    }
  }

  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = keys;
  spec.seed = 77;
  auto computation = ftx::BuildComputation(spec);
  computation->Run();
  std::string buffer = ftx_apps::Nvi::BufferContents(computation->runtime(0));
  EXPECT_EQ(buffer, reference);
}

TEST(Nvi, EventMixMatchesFig8aShape) {
  // One loggable input per keystroke, visibles ≈ keystrokes (+status lines),
  // almost no unloggable ND: cand-log commit counts collapse.
  ftx::RunOutput cand = RunWorkload("nvi", 500, 3, "cand");
  ftx::RunOutput cand_log = RunWorkload("nvi", 500, 3, "cand-log");
  EXPECT_GT(cand.checkpoints, 450);
  EXPECT_LT(cand_log.checkpoints, 10);
}

TEST(Nvi, IntegrityCheckCleanOnHealthyRun) {
  ftx::RunSpec spec;
  spec.workload = "nvi";
  spec.scale = 100;
  auto computation = ftx::BuildComputation(spec);
  computation->Run();
  EXPECT_TRUE(computation->app(0).CheckIntegrity(computation->runtime(0)).ok());
}

// --- magic ---

TEST(Magic, PaintsCells) {
  ftx::RunSpec spec;
  spec.workload = "magic";
  spec.scale = 30;
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_GT(ftx_apps::Magic::PaintedCells(computation->runtime(0)), 10000);
  EXPECT_TRUE(computation->app(0).CheckIntegrity(computation->runtime(0)).ok());
}

TEST(Magic, CommandsDirtyManyPages) {
  ftx::RunOutput out = RunWorkload("magic", 30, 3, "cpvs");
  const auto& stats = out.result.per_process[0];
  // The big dirty footprint behind magic's DC-disk overheads.
  EXPECT_GT(stats.pages_committed / std::max<int64_t>(stats.commits, 1), 100);
}

TEST(Magic, UnloggableNdKeepsCandLogHigh) {
  ftx::RunOutput cand = RunWorkload("magic", 40, 3, "cand");
  ftx::RunOutput cand_log = RunWorkload("magic", 40, 3, "cand-log");
  // Logging halves-ish CAND's commits but cannot remove the
  // timeofday/select events (Fig. 8b's shape).
  EXPECT_GT(cand_log.checkpoints, cand.checkpoints / 4);
  EXPECT_LT(cand_log.checkpoints, cand.checkpoints);
}

// --- postgres ---

TEST(Postgres, MatchesReferenceMapModel) {
  const int queries = 600;
  std::vector<ftx::Bytes> script = ftx_apps::Postgres::MakeScript(91, queries, 300);

  // Reference: a plain std::map executing the same script.
  std::map<int64_t, int64_t> reference;
  for (const ftx::Bytes& token : script) {
    struct Q {
      uint8_t op;
      int64_t key;
      int64_t value;
    } q{};
    std::memcpy(&q, token.data(), sizeof(Q) <= token.size() ? sizeof(Q) : token.size());
    switch (q.op) {
      case 'I':
        reference[q.key] = q.value;
        break;
      case 'U':
        if (reference.count(q.key)) {
          reference[q.key] += q.value;
        }
        break;
      case 'D':
        reference.erase(q.key);
        break;
      default:
        break;
    }
  }

  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = queries;
  spec.seed = 91;
  auto computation = ftx::BuildComputation(spec);
  computation->SetInputScript(0, script);  // exactly the reference's script
  computation->Run();

  auto& env = computation->runtime(0);
  EXPECT_EQ(ftx_apps::Postgres::TupleCount(env), static_cast<int64_t>(reference.size()));
  for (const auto& [key, value] : reference) {
    EXPECT_EQ(ftx_apps::Postgres::Lookup(env, key), value) << "key " << key;
  }
  EXPECT_TRUE(computation->app(0).CheckIntegrity(env).ok());
}

class PostgresProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PostgresProperty, IntegrityHoldsAcrossSeeds) {
  ftx::RunSpec spec;
  spec.workload = "postgres";
  spec.scale = 300;
  spec.seed = GetParam();
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_TRUE(computation->app(0).CheckIntegrity(computation->runtime(0)).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostgresProperty, ::testing::Range<uint64_t>(1, 9));

// --- xpilot ---

TEST(Xpilot, RunsAtFullSpeedUnderDiscountChecking) {
  ftx::RunSpec spec;
  spec.workload = "xpilot";
  spec.scale = 150;
  spec.protocol = "cbndvs";
  ftx::OverheadRow row = ftx::MeasureOverhead(spec);
  EXPECT_NEAR(row.recoverable_fps, 15.0, 1.0);
}

TEST(Xpilot, CandDegradesOnDisk) {
  ftx::RunSpec spec;
  spec.workload = "xpilot";
  spec.scale = 100;
  spec.protocol = "cand";
  spec.store = ftx::StoreKind::kDisk;
  ftx::OverheadRow row = ftx::MeasureOverhead(spec);
  EXPECT_LT(row.recoverable_fps, 2.0);  // the paper's "0 fps"
}

TEST(Xpilot, ClientsRenderServerFrames) {
  ftx::RunSpec spec;
  spec.workload = "xpilot";
  spec.scale = 80;
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_EQ(ftx_apps::XpilotServer::FramesRun(computation->runtime(0)), 80);
  for (int c = 1; c <= 3; ++c) {
    EXPECT_GT(ftx_apps::XpilotClient::FramesRendered(computation->runtime(c)), 60);
  }
}

// --- treadmarks ---

TEST(TreadMarks, AllProcessesCompleteAllIterations) {
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 6;
  auto computation = ftx::BuildComputation(spec);
  auto result = computation->Run();
  ASSERT_TRUE(result.all_done);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(ftx_apps::TreadMarks::IterationsDone(computation->runtime(p)), 6);
  }
}

TEST(TreadMarks, BodiesEvolve) {
  ftx::RunSpec spec;
  spec.workload = "treadmarks";
  spec.scale = 4;
  auto c1 = ftx::BuildComputation(spec);
  c1->Run();
  uint32_t after4 = ftx_apps::TreadMarks::OwnBodiesChecksum(c1->runtime(0));

  spec.scale = 8;
  auto c2 = ftx::BuildComputation(spec);
  c2->Run();
  uint32_t after8 = ftx_apps::TreadMarks::OwnBodiesChecksum(c2->runtime(0));
  EXPECT_NE(after4, after8);  // the N-body system actually integrates
}

TEST(TreadMarks, TwoPcCollapsesCommitCount) {
  ftx::RunOutput cpvs = RunWorkload("treadmarks", 5, 3, "cpvs");
  ftx::RunOutput two_pc = RunWorkload("treadmarks", 5, 3, "cpv-2pc");
  // Fig. 8d's headline: visibles are rare, so coordinated commits win by
  // orders of magnitude.
  EXPECT_GT(cpvs.checkpoints, two_pc.checkpoints * 20);
}

TEST(TreadMarks, DsmTrafficDominatesEvents) {
  ftx::RunOutput out = RunWorkload("treadmarks", 5, 3, "cpvs");
  int64_t sends = 0;
  int64_t receives = 0;
  for (const auto& stats : out.result.per_process) {
    sends += stats.sends;
    receives += stats.receives;
  }
  EXPECT_GT(sends, 4 * 5 * 20);  // page requests + replies + barrier
  EXPECT_GT(receives, 4 * 5 * 20);
}

TEST(TreadMarks, ScalesToEightProcesses) {
  ftx_apps::TreadMarksOptions options;
  options.num_processes = 8;
  options.bodies = 512;
  options.iterations = 3;
  options.tree_work = ftx::Milliseconds(2);
  options.force_work = ftx::Milliseconds(4);

  ftx::ComputationOptions computation_options;
  computation_options.protocol = "cpvs";
  std::vector<std::unique_ptr<ftx_dc::App>> apps;
  for (int p = 0; p < 8; ++p) {
    apps.push_back(std::make_unique<ftx_apps::TreadMarks>(options));
  }
  ftx::Computation computation(computation_options, std::move(apps));
  computation.ScheduleStopFailure(5, ftx::TimePoint() + ftx::Milliseconds(60));
  auto result = computation.Run();
  ASSERT_TRUE(result.all_done);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(ftx_apps::TreadMarks::IterationsDone(computation.runtime(p)), 3) << p;
  }
}

TEST(Apps, ProtocolChoiceNeverChangesDeterministicOutput) {
  // The protocol decides WHEN to commit, never WHAT the application does:
  // visible streams must be identical across protocols (failure-free).
  ftx::RunOutput reference = RunWorkload("magic", 25, 9, "commit-all");
  for (const char* protocol : {"cand", "cbndvs-log", "hypervisor", "optimistic-log"}) {
    ftx::RunOutput out = RunWorkload("magic", 25, 9, protocol);
    ASSERT_EQ(out.outputs.size(), reference.outputs.size()) << protocol;
    for (size_t i = 0; i < out.outputs.size(); ++i) {
      EXPECT_EQ(out.outputs.events()[i].payload, reference.outputs.events()[i].payload)
          << protocol << " visible " << i;
    }
  }
}

// --- workload factory ---

TEST(Workloads, FactoryKnowsAllNames) {
  for (const std::string& name : ftx_apps::WorkloadNames()) {
    ftx_apps::WorkloadSetup setup = ftx_apps::MakeWorkload(name, 4, 1);
    EXPECT_FALSE(setup.apps.empty()) << name;
    EXPECT_EQ(setup.apps.size(), setup.scripts.size()) << name;
    EXPECT_GT(ftx_apps::DefaultScale(name, false), 0);
    EXPECT_GT(ftx_apps::DefaultScale(name, true), ftx_apps::DefaultScale(name, false) / 100);
  }
}

// --- fleet: observer neutrality and the exactly-once ledger ---

uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 0x100000001b3ULL;
  }
  return hash;
}

// One randomized fleet run, fully serialized: configuration and crash plan
// derive from the seed, so two runs of one seed that differ only in
// observer settings must return identical strings.
std::string FleetFingerprint(uint64_t seed, bool lean_trace) {
  ftx::Rng rng(seed);
  ftx_apps::FleetConfig config;
  config.num_servers = 1 + static_cast<int>(rng.NextBounded(3));
  config.num_clients =
      1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(16 - config.num_servers)));
  config.requests_per_client = 1 + static_cast<int>(rng.NextBounded(4));
  config.report_every = 1 + static_cast<int>(rng.NextBounded(8));
  config.client_think = ftx::Microseconds(10 + static_cast<int64_t>(rng.NextBounded(90)));

  ftx::ComputationOptions options;
  options.seed = seed;
  options.protocol = (seed % 2 == 0) ? "cpv-2pc" : "cbndv-2pc";
  options.store = ftx::StoreKind::kRio;
  options.lean_trace = lean_trace;
  options.recovery_delay = ftx::Microseconds(100);
  ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));

  // Crash injection on half the seeds: one or two stop failures at random
  // times inside the fleet's active window.
  if (rng.NextBernoulli(0.5)) {
    const int crashes = 1 + static_cast<int>(rng.NextBounded(2));
    for (int i = 0; i < crashes; ++i) {
      int pid = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(config.num_processes())));
      int64_t at_us = 20 + static_cast<int64_t>(rng.NextBounded(400));
      computation.ScheduleStopFailure(pid, ftx::TimePoint() + ftx::Microseconds(at_us),
                                      ftx::Microseconds(100));
    }
  }
  ftx::ComputationResult result = computation.Run();

  std::string fp;
  fp += "all_done=";
  fp += std::to_string(result.all_done);
  fp += " end=";
  fp += std::to_string(result.end_time.nanos());
  fp += " commits=";
  fp += std::to_string(result.total_commits);
  fp += " events=";
  fp += std::to_string(result.total_events);
  fp += " rollbacks=";
  fp += std::to_string(result.total_rollbacks);
  fp += "\n";
  // The user-observed visible stream, globally ordered: the strongest
  // external observable.
  for (const ftx_rec::VisibleEvent& visible : computation.recorder().events()) {
    fp += "v p";
    fp += std::to_string(visible.process);
    fp += " t";
    fp += std::to_string(visible.time.nanos());
    fp += " [";
    for (uint8_t byte : visible.payload) {
      fp += std::to_string(byte);
      fp += ",";
    }
    fp += "]\n";
  }
  // Per-process executed-event logs (the commit sequence rides in here as
  // kCommit events with their atomic 2PC group ids).
  for (int pid = 0; pid < config.num_processes(); ++pid) {
    fp += "p";
    fp += std::to_string(pid);
    fp += ":";
    for (const ftx_sm::TraceEvent& event : computation.trace().ProcessEvents(pid)) {
      fp += " ";
      fp += std::to_string(static_cast<int>(event.kind));
      fp += "/";
      fp += std::to_string(event.message_id);
      fp += "/";
      fp += std::to_string(event.logged);
      fp += "/";
      fp += std::to_string(event.atomic_group);
    }
    fp += "\n";
  }
  // Final committed segment images.
  for (int pid = 0; pid < config.num_processes(); ++pid) {
    const ftx_vista::Segment& segment = computation.runtime(pid).segment();
    fp += "seg";
    fp += std::to_string(pid);
    fp += "=";
    fp += std::to_string(Fnv1a(0xcbf29ce484222325ULL, segment.data(), segment.size()));
    fp += "\n";
  }
  return fp;
}

// Every request applied once on the committed server ledgers and acked
// once by its client.
void ExpectExactlyOnce(ftx::Computation& computation, const ftx_apps::FleetConfig& config) {
  int64_t applied = 0;
  int64_t value_sum = 0;
  for (int s = 0; s < config.num_servers; ++s) {
    applied += ftx_apps::FleetServer::AppliedCount(computation.runtime(s));
    value_sum += ftx_apps::FleetServer::ValueSum(computation.runtime(s));
  }
  EXPECT_EQ(applied, static_cast<int64_t>(config.num_clients) * config.requests_per_client);
  EXPECT_EQ(value_sum, ftx_apps::FleetExpectedValueSum(config));
  for (int c = 0; c < config.num_clients; ++c) {
    EXPECT_EQ(ftx_apps::FleetClient::AckedCount(computation.runtime(config.num_servers + c)),
              config.requests_per_client)
        << "client " << c;
  }
}

TEST(Fleet, LeanTraceChangesNoSimulatedByte) {
  // The lean (clock-free) trace mode drops only observer state; visible
  // output, event logs, commit totals, and segments must not move.
  for (uint64_t seed : {3u, 8u, 21u}) {
    EXPECT_EQ(FleetFingerprint(seed, /*lean_trace=*/true),
              FleetFingerprint(seed, /*lean_trace=*/false))
        << "lean trace perturbed simulated state at seed " << seed;
  }
}

TEST(Fleet, AuditChangesNoSimulatedByte) {
  // The causal audit only observes: audited and unaudited runs must agree
  // on every simulated observable.
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 10;
  config.requests_per_client = 3;
  config.report_every = 4;
  auto run = [&](bool audit) {
    ftx::ComputationOptions options;
    options.seed = 5;
    options.protocol = "cbndv-2pc";
    options.audit = audit;
    ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));
    computation.ScheduleStopFailure(3, ftx::TimePoint() + ftx::Microseconds(120),
                                    ftx::Microseconds(100));
    ftx::ComputationResult result = computation.Run();
    std::string fp = std::to_string(result.total_commits) + "/" +
                     std::to_string(result.total_rollbacks) + "/" +
                     std::to_string(result.end_time.nanos()) + "/" +
                     std::to_string(result.total_events);
    for (const ftx_rec::VisibleEvent& visible : computation.recorder().events()) {
      fp += " " + std::to_string(visible.process) + "@" + std::to_string(visible.time.nanos());
    }
    for (int pid = 0; pid < config.num_processes(); ++pid) {
      const ftx_vista::Segment& segment = computation.runtime(pid).segment();
      fp += " " + std::to_string(Fnv1a(0xcbf29ce484222325ULL, segment.data(), segment.size()));
    }
    return fp;
  };
  EXPECT_EQ(run(false), run(true));
}

// --- fleet workload sanity: the ledger is exactly-once at small scale ---

TEST(Fleet, ExactlyOnceUnderCrashes) {
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 12;
  config.requests_per_client = 4;
  config.report_every = 4;
  ftx::ComputationOptions options;
  options.seed = 77;
  options.protocol = "cbndv-2pc";
  options.recovery_delay = ftx::Microseconds(100);
  ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));
  computation.ScheduleStopFailure(0, ftx::TimePoint() + ftx::Microseconds(90),
                                  ftx::Microseconds(100));
  computation.ScheduleStopFailure(5, ftx::TimePoint() + ftx::Microseconds(150),
                                  ftx::Microseconds(100));
  ftx::ComputationResult result = computation.Run();
  ASSERT_TRUE(result.all_done);

  ExpectExactlyOnce(computation, config);
}

// Coordinated Checkpointing's participant closure has no process limit: a
// 70-process fleet, past what a 64-bit pid mask can hold, completes
// exactly-once.
TEST(Fleet, CoordinatedCheckpointingBeyond64Processes) {
  ftx_apps::FleetConfig config;
  config.num_servers = 2;
  config.num_clients = 68;
  config.requests_per_client = 2;
  config.report_every = 8;
  ftx::ComputationOptions options;
  options.seed = 70;
  options.protocol = "coordinated-ckpt";
  options.recovery_delay = ftx::Microseconds(100);
  ftx::Computation computation(options, ftx_apps::MakeFleetApps(config));
  computation.ScheduleStopFailure(1, ftx::TimePoint() + ftx::Microseconds(120),
                                  ftx::Microseconds(100));
  ftx::ComputationResult result = computation.Run();
  ASSERT_TRUE(result.all_done);
  EXPECT_GT(result.total_commits, 0);
  ExpectExactlyOnce(computation, config);
}

}  // namespace
