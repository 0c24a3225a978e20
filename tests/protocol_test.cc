// Tests for the Save-work protocols: unit tests of each protocol's decision
// table, plus the central property test of the library — every protocol,
// applied to randomized multi-process computations, produces a trace the
// Save-work checker accepts. A deliberately broken protocol is the negative
// control.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <tuple>

#include "src/common/rng.h"
#include "src/protocol/coordination.h"
#include "src/protocol/protocol.h"
#include "src/protocol/protocol_space.h"
#include "src/protocol/script_replay.h"
#include "src/statemachine/invariants.h"
#include "src/statemachine/random_model.h"

namespace {

using ftx_proto::AppEvent;
using ftx_proto::CommitDecision;
using ftx_proto::Protocol;

// --- decision tables ---

TEST(ProtocolDecisions, CandCommitsAfterEveryNdEvent) {
  auto protocol = ftx_proto::MakeCand();
  for (AppEvent event : {AppEvent::kTransientNd, AppEvent::kFixedNd, AppEvent::kUserInput,
                         AppEvent::kReceive}) {
    CommitDecision d = protocol->Decide(event);
    EXPECT_TRUE(d.commit_after);
    EXPECT_FALSE(d.commit_before);
    EXPECT_FALSE(d.log_event);
    protocol->OnCommitted();
  }
  EXPECT_FALSE(protocol->Decide(AppEvent::kVisible).commit_after);
  EXPECT_FALSE(protocol->Decide(AppEvent::kSend).commit_after);
  EXPECT_FALSE(protocol->Decide(AppEvent::kInternal).commit_after);
}

TEST(ProtocolDecisions, CandLogLogsInputAndReceives) {
  auto protocol = ftx_proto::MakeCandLog();
  CommitDecision input = protocol->Decide(AppEvent::kUserInput);
  EXPECT_TRUE(input.log_event);
  EXPECT_FALSE(input.commit_after);
  CommitDecision recv = protocol->Decide(AppEvent::kReceive);
  EXPECT_TRUE(recv.log_event);
  EXPECT_FALSE(recv.commit_after);
  // Unloggable ND still commits.
  CommitDecision signal = protocol->Decide(AppEvent::kTransientNd);
  EXPECT_FALSE(signal.log_event);
  EXPECT_TRUE(signal.commit_after);
}

TEST(ProtocolDecisions, CpvsCommitsBeforeVisibleAndSendAlways) {
  auto protocol = ftx_proto::MakeCpvs();
  EXPECT_TRUE(protocol->Decide(AppEvent::kVisible).commit_before);
  protocol->OnCommitted();
  // Even with no ND since the last commit: CPVS is pessimistic.
  EXPECT_TRUE(protocol->Decide(AppEvent::kSend).commit_before);
  EXPECT_FALSE(protocol->Decide(AppEvent::kTransientNd).commit_before);
}

TEST(ProtocolDecisions, CbndvsCommitsOnlyWhenNdDirty) {
  auto protocol = ftx_proto::MakeCbndvs();
  EXPECT_FALSE(protocol->Decide(AppEvent::kVisible).commit_before);  // clean
  protocol->Decide(AppEvent::kTransientNd);
  EXPECT_TRUE(protocol->HasUncommittedNd());
  EXPECT_TRUE(protocol->Decide(AppEvent::kVisible).commit_before);
  protocol->OnCommitted();
  EXPECT_FALSE(protocol->HasUncommittedNd());
  EXPECT_FALSE(protocol->Decide(AppEvent::kSend).commit_before);
}

TEST(ProtocolDecisions, CbndvsLogOnlyArmsOnUnloggedNd) {
  auto protocol = ftx_proto::MakeCbndvsLog();
  protocol->Decide(AppEvent::kUserInput);  // logged: does not arm
  EXPECT_FALSE(protocol->Decide(AppEvent::kVisible).commit_before);
  protocol->Decide(AppEvent::kTransientNd);  // unloggable: arms
  EXPECT_TRUE(protocol->Decide(AppEvent::kVisible).commit_before);
}

TEST(ProtocolDecisions, TwoPhaseVariantsCoordinateOnVisibleOnly) {
  auto cpv = ftx_proto::MakeCpv2pc();
  CommitDecision on_visible = cpv->Decide(AppEvent::kVisible);
  EXPECT_TRUE(on_visible.commit_before);
  EXPECT_TRUE(on_visible.coordinated);
  EXPECT_EQ(on_visible.scope, ftx_proto::CoordinationScope::kAll);
  EXPECT_FALSE(cpv->Decide(AppEvent::kSend).commit_before);  // sends are free

  auto cbndv = ftx_proto::MakeCbndv2pc();
  CommitDecision narrowed = cbndv->Decide(AppEvent::kVisible);
  EXPECT_TRUE(narrowed.coordinated);
  EXPECT_EQ(narrowed.scope, ftx_proto::CoordinationScope::kNdDirty);
}

TEST(ProtocolDecisions, CommitAllCommitsEverything) {
  auto protocol = ftx_proto::MakeCommitAll();
  for (AppEvent event : {AppEvent::kInternal, AppEvent::kTransientNd, AppEvent::kVisible,
                         AppEvent::kSend}) {
    EXPECT_TRUE(protocol->Decide(event).commit_after);
  }
}

TEST(ProtocolFactory, AllMeasuredNamesResolve) {
  for (const std::string& name : ftx_proto::MeasuredProtocolNames()) {
    auto protocol = ftx_proto::MakeProtocolByName(name);
    ASSERT_NE(protocol, nullptr);
    EXPECT_EQ(protocol->name(), name);
    auto clone = protocol->Clone();
    EXPECT_EQ(clone->name(), name);
  }
}

TEST(ProtocolSpace, EntriesCoverImplementedProtocols) {
  int implemented = 0;
  for (const auto& entry : ftx_proto::ProtocolSpaceEntries()) {
    EXPECT_GE(entry.point.nd_effort, 0.0);
    EXPECT_LE(entry.point.nd_effort, 1.0);
    EXPECT_GE(entry.point.visible_effort, 0.0);
    EXPECT_LE(entry.point.visible_effort, 1.0);
    if (entry.implemented) {
      ++implemented;
      EXPECT_NO_FATAL_FAILURE({ ftx_proto::MakeProtocolByName(entry.name); });
    }
  }
  EXPECT_EQ(implemented, 15);  // every point in the space is instantiable
}

TEST(ProtocolSpace, DesignVariablesFollowFig4Trends) {
  // Commit frequency falls with radial distance.
  auto origin = ftx_proto::DeriveDesignVariables({0.0, 0.0});
  auto far = ftx_proto::DeriveDesignVariables({0.9, 0.9});
  EXPECT_GT(origin.relative_commit_frequency, far.relative_commit_frequency);
  // Recovery-time constraint grows along x.
  EXPECT_GT(ftx_proto::DeriveDesignVariables({0.9, 0.0}).recovery_constraint,
            ftx_proto::DeriveDesignVariables({0.1, 0.0}).recovery_constraint);
  // Propagation-failure survival grows with distance from the x axis.
  EXPECT_GT(ftx_proto::DeriveDesignVariables({0.2, 0.9}).propagation_survival,
            ftx_proto::DeriveDesignVariables({0.2, 0.0}).propagation_survival);
}

TEST(ProtocolSpace, AsciiRenderingMentionsEveryProtocol) {
  std::string plot = ftx_proto::RenderProtocolSpaceAscii();
  for (const auto& entry : ftx_proto::ProtocolSpaceEntries()) {
    EXPECT_NE(plot.find(entry.name.substr(0, 4)), std::string::npos) << entry.name;
  }
}

// --- the Save-work property ---
//
// A miniature protocol executor: replays a random multi-process script,
// consulting a per-process protocol instance for every event and appending
// the resulting commit events (including full 2PC rounds) to the trace —
// the same event discipline the real runtime follows. The resulting trace
// must satisfy the Save-work checker for every protocol.

using ProtocolSeed = std::tuple<std::string, uint64_t>;

class SaveWorkProperty : public ::testing::TestWithParam<ProtocolSeed> {};

TEST_P(SaveWorkProperty, RandomComputationsUpholdSaveWork) {
  const auto& [protocol_name, seed] = GetParam();
  ftx::Rng rng(seed);
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 3;
  options.events_per_process = 60;
  std::vector<ftx_sm::ScriptedEvent> script = ftx_sm::MakeRandomScript(&rng, options);

  ftx_proto::ScriptReplayResult replay =
      ftx_proto::ReplayScript(script, options.num_processes, protocol_name);

  ftx_sm::SaveWorkReport report = ftx_sm::CheckSaveWork(replay.trace);
  EXPECT_TRUE(report.ok()) << protocol_name << " seed " << seed << ": "
                           << report.violations.size() << " violations, e.g. "
                           << report.violations[0].ToString(replay.trace);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsManySeeds, SaveWorkProperty,
    ::testing::Combine(::testing::Values("commit-all", "cand", "cand-log", "cpvs", "cbndvs",
                                         "cbndvs-log", "cpv-2pc", "cbndv-2pc", "sbl",
                                         "targon32", "hypervisor", "optimistic-log",
                                         "coordinated-ckpt", "fbl", "manetho"),
                       ::testing::Range<uint64_t>(1, 16)),
    [](const ::testing::TestParamInfo<ProtocolSeed>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(SaveWorkNegativeControl, NeverCommittingViolates) {
  // Sanity check that the property is not vacuous: a "protocol" that never
  // commits or logs fails the checker on ND-before-visible computations.
  ftx::Rng rng(99);
  ftx_sm::RandomTraceOptions options;
  options.num_processes = 2;
  options.events_per_process = 80;
  options.nd_probability = 0.5;
  options.visible_probability = 0.3;
  ftx_sm::Trace trace = ftx_sm::MakeRandomComputation(&rng, options);
  EXPECT_FALSE(ftx_sm::CheckSaveWork(trace).ok());
}

TEST(SaveWorkCommitCounts, CbndvsNeverCommitsMoreThanCpvs) {
  // The protocol-space refinement: knowledge of non-determinism can only
  // remove commits.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ftx::Rng rng_a(seed);
    ftx::Rng rng_b(seed);
    ftx_sm::RandomTraceOptions options;
    auto script_a = ftx_sm::MakeRandomScript(&rng_a, options);
    auto script_b = ftx_sm::MakeRandomScript(&rng_b, options);

    auto cpvs = ftx_proto::ReplayScript(script_a, options.num_processes, "cpvs");
    auto cbndvs = ftx_proto::ReplayScript(script_b, options.num_processes, "cbndvs");
    EXPECT_LE(cbndvs.total_commits, cpvs.total_commits) << "seed " << seed;
  }
}

TEST(SaveWorkCommitCounts, LoggingReducesCandCommits) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ftx::Rng rng_a(seed);
    ftx::Rng rng_b(seed);
    ftx_sm::RandomTraceOptions options;
    auto script_a = ftx_sm::MakeRandomScript(&rng_a, options);
    auto script_b = ftx_sm::MakeRandomScript(&rng_b, options);

    auto cand = ftx_proto::ReplayScript(script_a, options.num_processes, "cand");
    auto cand_log = ftx_proto::ReplayScript(script_b, options.num_processes, "cand-log");
    EXPECT_LE(cand_log.total_commits, cand.total_commits) << "seed " << seed;
  }
}

// --- 2PC participant selection ---

TEST(CoordinationParticipants, ScopesSelectInAscendingPidOrder) {
  std::vector<ftx_proto::CommunicationRecord> records(6);
  // Chain 5 -> 3 -> 0 (each record names the next member), plus 1 <-> 4 on
  // their own.
  records[5].Note(3);
  records[3].Note(0);
  records[1].Note(4);
  records[4].Note(1);
  ftx_proto::ParticipantQuery query;
  query.num_processes = 6;
  query.has_uncommitted_nd = [](int pid) { return pid % 2 == 1; };
  query.communicated = [&records](int pid) -> const ftx_proto::CommunicationRecord& {
    return records[static_cast<size_t>(pid)];
  };
  using Scope = ftx_proto::CoordinationScope;
  EXPECT_EQ(ftx_proto::CoordinationParticipants(2, Scope::kAll, query),
            (std::vector<int>{0, 1, 3, 4, 5}));
  EXPECT_EQ(ftx_proto::CoordinationParticipants(1, Scope::kNdDirty, query),
            (std::vector<int>{3, 5}));
  EXPECT_EQ(ftx_proto::CoordinationParticipants(0, Scope::kCommunicated, query),
            (std::vector<int>{3, 5}));
  EXPECT_EQ(ftx_proto::CoordinationParticipants(4, Scope::kCommunicated, query),
            (std::vector<int>{1}));
  EXPECT_TRUE(ftx_proto::CoordinationParticipants(2, Scope::kCommunicated, query).empty());

  // An ineligible process neither joins nor links the rest of the chain.
  query.eligible = [](int pid) { return pid != 3; };
  EXPECT_TRUE(ftx_proto::CoordinationParticipants(0, Scope::kCommunicated, query).empty());
  EXPECT_EQ(ftx_proto::CoordinationParticipants(2, Scope::kAll, query),
            (std::vector<int>{0, 1, 4, 5}));
}

// 70 processes: p0 sends to p65, p65 receives, then p0 emits a visible
// event under Coordinated Checkpointing. Only p0 and p65 commit — a closure
// over 64-bit pid masks would wrap pid 65 onto pid 1 and pull p1 and p64
// in as well.
TEST(CoordinationParticipants, ReplayScriptClosureBeyond64Processes) {
  using ftx_sm::EventKind;
  const std::vector<ftx_sm::ScriptedEvent> script = {
      {0, EventKind::kSend, 1}, {65, EventKind::kReceive, 1}, {0, EventKind::kVisible}};
  ftx_proto::ScriptReplayResult result = ftx_proto::ReplayScript(script, 70, "coordinated-ckpt");
  EXPECT_EQ(result.coordinated_rounds, 1);
  EXPECT_EQ(result.total_commits, 2);
  for (int pid = 0; pid < 70; ++pid) {
    int commits = 0;
    for (const ftx_sm::TraceEvent& event : result.trace.ProcessEvents(pid)) {
      commits += event.kind == EventKind::kCommit ? 1 : 0;
    }
    EXPECT_EQ(commits, pid == 0 || pid == 65 ? 1 : 0) << "p" << pid;
  }
}

}  // namespace
