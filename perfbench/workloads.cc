#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "layers.h"
#include "src/apps/fleet.h"
#include "src/apps/workloads.h"
#include "src/common/rng.h"
#include "src/core/computation.h"
#include "src/core/experiment.h"
#include "src/core/fault_study.h"
#include "src/faults/fault_types.h"
#include "src/protocol/protocol.h"
#include "src/recovery/consistency.h"
#include "src/statemachine/invariants.h"
#include "src/torture/torture.h"

namespace perfbench {
namespace {

using ftx::Computation;

// FNV-1a over 64-bit fields.
class Digest {
 public:
  Digest& Add(int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<uint64_t>(v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

int64_t Counter(const ftx_obs::MetricsSnapshot& snap, std::string_view name) {
  const ftx_obs::MetricValue* v = snap.Find(name);
  return v == nullptr ? 0 : v->counter;
}

// Per-layer counts every computation the benchmark builds contributes.
void AddRunCounts(Computation& computation, const ftx_obs::MetricsSnapshot& snap,
                  OpResult* op) {
  auto& c = op->counts;
  c["sim.events"] += static_cast<double>(Counter(snap, "sim.events_executed"));
  c["sim.messages_sent"] += static_cast<double>(Counter(snap, "sim.messages_sent"));
  c["sim.bytes_sent"] += static_cast<double>(Counter(snap, "sim.bytes_sent"));
  c["sim.messages_requeued"] += static_cast<double>(Counter(snap, "sim.messages_requeued"));
  c["sim.kernel_syscalls"] += static_cast<double>(Counter(snap, "kernel.syscalls"));
  c["statemachine.trace_events"] += static_cast<double>(computation.trace().TotalEvents());
  c["checkpoint.commits"] += static_cast<double>(snap.TotalCounter("dc.commits"));
  c["checkpoint.rollbacks"] += static_cast<double>(snap.TotalCounter("dc.rollbacks"));
  c["checkpoint.bytes_persisted"] += static_cast<double>(snap.TotalCounter("dc.bytes_persisted"));
  c["storage.redo_records"] += static_cast<double>(snap.TotalCounter("redo.records"));
  c["storage.redo_bytes"] += static_cast<double>(snap.TotalCounter("redo.bytes_written"));
  c["obs.instruments"] += static_cast<double>(snap.entries.size());
}

// Builds, runs, snapshots and tears down one computation; `check` runs
// between Run and teardown inside a core.check span.
template <typename Build, typename Check>
void DriveComputation(OpResult* op, Digest* digest, Build&& build, Check&& check) {
  std::unique_ptr<Computation> computation;
  {
    Span span("core.build");
    computation = build();
  }
  ftx::ComputationResult result;
  {
    Span span("core.run");
    const int64_t start = NowNs();
    result = computation->Run();
    op->run_raw_ns += static_cast<double>(NowNs() - start);
  }
  {
    Span span("core.check");
    if (!result.all_done) {
      op->Fail("run did not complete");
    }
    check(*computation, result);
  }
  {
    // Reading the registry is the obs layer's cost, snapshot teardown included.
    Span span("obs.snapshot");
    const ftx_obs::MetricsSnapshot snap = computation->metrics().Snapshot();
    op->sim_events += static_cast<double>(computation->sim().events_executed());
    AddRunCounts(*computation, snap, op);
    digest->Add(result.total_commits)
        .Add(result.total_rollbacks)
        .Add(computation->sim().events_executed())
        .Add(result.end_time.nanos())
        .Add(snap.TotalCounter("redo.bytes_written"));
  }
  {
    Span span("core.teardown");
    computation.reset();
  }
}

// ---------------------------------------------------------------- fleet_2pc

// One op: a cpv-2pc run and a cbndv-2pc run of the same fleet under the
// same seeded ~1% stop-failure set, each checked against the exactly-once
// ledger and for critical-path hop tiling.
class Fleet2pc final : public Workload {
 public:
  explicit Fleet2pc(const WorkloadOptions& options) : Workload(options) {
    config_.num_servers = options.small ? 4 : 16;
    config_.num_clients = options.small ? 48 : 1500;
    config_.requests_per_client = 3;
    config_.report_every = options.small ? 16 : 256;
  }

  // Each position draws its own crash set, so a run's median spans several.
  int cycle() const override { return 8; }
  std::string OpName(int position) const override {
    return "fleet crash set " + std::to_string(position);
  }

  void SetUp() override {
    // Calibration: the fault-free run fixes the window crashes land in.
    OpResult scratch;
    Digest digest;
    ftx::TimePoint end;
    DriveComputation(
        &scratch, &digest, [&] { return Build("cpv-2pc", {}); },
        [&](Computation&, const ftx::ComputationResult& result) { end = result.end_time; });
    window_lo_ = end.nanos() / 10;
    window_hi_ = std::max(window_lo_ + 1, end.nanos() * 9 / 10);
  }

  OpResult RunOp(int64_t index) override {
    OpResult op;
    Digest digest;
    ftx::Rng rng(ftx::DeriveTrialSeed(options_.seed, static_cast<uint64_t>(index % cycle())));
    std::vector<Crash> crashes(static_cast<size_t>(std::max(1, config_.num_processes() / 100)));
    for (Crash& crash : crashes) {
      crash.pid = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(config_.num_processes())));
      crash.at = ftx::TimePoint() + ftx::Nanoseconds(rng.NextInRange(window_lo_, window_hi_));
    }
    for (const char* protocol : {"cpv-2pc", "cbndv-2pc"}) {
      int64_t executed = 0;
      DriveComputation(
          &op, &digest, [&] { return Build(protocol, crashes); },
          [&](Computation& c, const ftx::ComputationResult&) {
            executed = CheckLedger(c, &op);
            Span span("obs.critical_path");
            CheckCriticalPath(c, &op);
          });
      digest.Add(executed);
      op.counts["apps.fleet_executed_ops"] += static_cast<double>(executed);
      op.counts["apps.fleet_necessary_ops"] +=
          2.0 * config_.num_clients * config_.requests_per_client;
    }
    op.digest = digest.value();
    return op;
  }

 private:
  struct Crash {
    int pid = 0;
    ftx::TimePoint at;
  };

  std::unique_ptr<Computation> Build(const char* protocol, const std::vector<Crash>& crashes) {
    ftx::ComputationOptions copt;
    copt.seed = options_.seed;
    copt.protocol = protocol;
    copt.store = ftx::StoreKind::kRio;
    copt.lean_trace = true;
    copt.critical_path = !crashes.empty();
    copt.recovery_delay = ftx::Microseconds(200);
    auto computation = std::make_unique<Computation>(
        copt, WrapApps(ftx_apps::MakeFleetApps(config_), options_.trace));
    for (const Crash& crash : crashes) {
      computation->ScheduleStopFailure(crash.pid, crash.at, ftx::Microseconds(200));
    }
    return computation;
  }

  // Exactly-once ledger checks against the committed server segments (as
  // bench/fleet_faults.cc); returns the executed-work count.
  int64_t CheckLedger(Computation& c, OpResult* op) {
    int64_t executed = 0;
    for (int pid = 0; pid < config_.num_processes(); ++pid) {
      ftx_dc::App& app = Unwrap(c.app(pid));
      if (auto* server = dynamic_cast<ftx_apps::FleetServer*>(&app)) {
        executed += server->executed_ops();
      } else if (auto* client = dynamic_cast<ftx_apps::FleetClient*>(&app)) {
        executed += client->executed_ops();
      }
      if (c.recovery_abandoned(pid)) {
        op->Fail("fleet: recovery abandoned");
      }
    }
    int64_t applied = 0;
    int64_t value_sum = 0;
    for (int s = 0; s < config_.num_servers; ++s) {
      applied += ftx_apps::FleetServer::AppliedCount(c.runtime(s));
      value_sum += ftx_apps::FleetServer::ValueSum(c.runtime(s));
    }
    if (applied != static_cast<int64_t>(config_.num_clients) * config_.requests_per_client) {
      op->Fail("fleet: a request was lost or applied twice");
    }
    if (value_sum != ftx_apps::FleetExpectedValueSum(config_)) {
      op->Fail("fleet: ledger total drifted");
    }
    for (int i = 0; i < config_.num_clients; ++i) {
      if (ftx_apps::FleetClient::AckedCount(c.runtime(config_.num_servers + i)) !=
          config_.requests_per_client) {
        op->Fail("fleet: a client's ack count is wrong");
        break;
      }
    }
    return executed;
  }

  // The crash-to-commit hops must tile the critical-path span.
  static void CheckCriticalPath(Computation& c, OpResult* op) {
    if (c.critical_path() == nullptr) {
      return;
    }
    const ftx_causal::CriticalPathTracker::Path path = c.critical_path()->Extract();
    if (!path.found) {
      return;
    }
    int64_t total = 0;
    for (const auto& [phase, ns] : path.totals_ns) {
      total += ns;
    }
    bool tiled = total == path.span_ns && !path.hops.empty() &&
                 path.hops.front().start_ns == path.root_crash_ns;
    for (size_t i = 1; i < path.hops.size(); ++i) {
      const auto& prev = path.hops[i - 1];
      tiled = tiled && path.hops[i].start_ns == prev.start_ns + prev.dur_ns;
    }
    if (static_cast<int64_t>(path.hops.size()) == path.hops_total && !path.hops.empty()) {
      tiled = tiled && path.hops.back().start_ns + path.hops.back().dur_ns == path.last_commit_ns;
    }
    if (!tiled) {
      op->Fail("fleet: critical-path hops do not tile the span");
    }
  }

  ftx_apps::FleetConfig config_;
  int64_t window_lo_ = 0;
  int64_t window_hi_ = 1;
};

// -------------------------------------------------------------- fig8_commit

// One op: one protocol's failure-free recoverable runs of the four Fig. 8
// apps on Rio and on DC-disk (the last op: DC-disk cand and cand-log with
// 8-record group commit), each run checked for consistent recovery against
// the same cell's reference run made in set-up. Grouping a protocol's cells
// into one op keeps every op the same kind of work.
class Fig8Commit final : public Workload {
 public:
  explicit Fig8Commit(const WorkloadOptions& options) : Workload(options) {
    for (const std::string& protocol : ftx_proto::MeasuredProtocolNames()) {
      std::vector<Cell> op;
      for (const char* app : kApps) {
        op.push_back({app, protocol, ftx::StoreKind::kRio, 0});
        op.push_back({app, protocol, ftx::StoreKind::kDisk, 0});
      }
      ops_.push_back(op);
    }
    std::vector<Cell> batched;
    for (const char* app : kApps) {
      batched.push_back({app, "cand", ftx::StoreKind::kDisk, 8});
      batched.push_back({app, "cand-log", ftx::StoreKind::kDisk, 8});
    }
    ops_.push_back(batched);
  }

  // Every op kind once per input draw: magic's inputs (and with them its
  // redo volume and memory) vary with the seed, so a run spans four draws.
  int cycle() const override { return static_cast<int>(ops_.size()) * kDraws; }
  std::string OpName(int position) const override {
    const Cell& cell = ops_[static_cast<size_t>(position) % ops_.size()].front();
    return (cell.batch > 1 ? "dc-disk cand/cand-log batch" + std::to_string(cell.batch)
                           : cell.protocol + " rio+dc-disk") +
           " draw " + std::to_string(position / static_cast<int>(ops_.size()));
  }

  // The reference of each cell is the same cell run once through
  // RunExperiment: xpilot's frames depend on simulated timing, so a
  // recoverable run is compared with a recoverable run, not a baseline.
  // Running every cell also warms every op up.
  void SetUp() override {
    references_.assign(static_cast<size_t>(cycle()), {});
    for (int p = 0; p < cycle(); ++p) {
      for (const Cell& cell : ops_[static_cast<size_t>(p) % ops_.size()]) {
        ftx::RunSpec spec;
        spec.workload = cell.app;
        spec.scale = Scale(cell.app);
        spec.seed = DrawSeed(p);
        spec.protocol = cell.protocol;
        spec.store = cell.store;
        spec.tweak_options = [batch = cell.batch](ftx::ComputationOptions* o) {
          SetBatch(batch, o);
        };
        references_[static_cast<size_t>(p)].push_back(ftx::RunExperiment(spec).outputs);
      }
    }
  }
  int warmup_ops() const override { return 0; }

  OpResult RunOp(int64_t index) override {
    OpResult op;
    Digest digest;
    const int position = static_cast<int>(index % cycle());
    const std::vector<Cell>& cells = ops_[static_cast<size_t>(position) % ops_.size()];
    for (size_t i = 0; i < cells.size(); ++i) {
      RunCell(cells[i], DrawSeed(position), references_[static_cast<size_t>(position)][i], &op,
              &digest);
    }
    op.digest = digest.value();
    return op;
  }

 private:
  static constexpr const char* kApps[] = {"nvi", "xpilot", "treadmarks", "magic"};
  static constexpr int kDraws = 4;

  struct Cell {
    std::string app;
    std::string protocol;
    ftx::StoreKind store;
    int64_t batch;
  };

  void RunCell(const Cell& cell, uint64_t seed, const ftx_rec::OutputRecorder& reference,
               OpResult* op, Digest* digest) {
    DriveComputation(
        op, digest,
        [&] {
          ftx_apps::WorkloadSetup setup =
              ftx_apps::MakeWorkload(cell.app, Scale(cell.app), seed, /*interactive=*/true);
          ftx::ComputationOptions copt;
          copt.seed = seed;
          copt.protocol = cell.protocol;
          copt.store = cell.store;
          SetBatch(cell.batch, &copt);
          auto c = std::make_unique<Computation>(copt,
                                                 WrapApps(std::move(setup.apps), options_.trace));
          for (int pid = 0; pid < c->num_processes(); ++pid) {
            if (pid < static_cast<int>(setup.scripts.size()) &&
                !setup.scripts[static_cast<size_t>(pid)].empty()) {
              c->SetInputScript(pid, setup.scripts[static_cast<size_t>(pid)]);
            }
          }
          return c;
        },
        [&](Computation& c, const ftx::ComputationResult&) {
          Span span("recovery.consistency_check");
          const ftx_rec::ConsistencyResult consistency =
              ftx_rec::CheckConsistentRecovery(reference, c.recorder(), c.num_processes());
          if (!consistency.consistent) {
            op->Fail("fig8 " + cell.app + "/" + cell.protocol +
                     ": output inconsistent with the reference: " + consistency.diagnostic);
          }
        });
  }

  // Group commit of `batch` records per window (the batched cells only).
  static void SetBatch(int64_t batch, ftx::ComputationOptions* options) {
    if (batch > 1) {
      options->group_commit.enabled = true;
      options->group_commit.max_records = batch;
    }
  }

  uint64_t DrawSeed(int position) const {
    const int draw = position / static_cast<int>(ops_.size());
    return draw == 0 ? options_.seed
                     : ftx::DeriveTrialSeed(options_.seed, static_cast<uint64_t>(draw));
  }

  // Sizes: treadmarks is mostly app compute, so it gets one iteration and
  // nvi, xpilot and magic carry most of the commit and storage work.
  int Scale(const std::string& app) const {
    if (app == "nvi") {
      return options_.small ? 60 : 400;
    }
    if (app == "xpilot") {
      return options_.small ? 10 : 40;
    }
    if (app == "treadmarks") {
      return 1;
    }
    return options_.small ? 4 : 8;  // magic
  }

  std::vector<std::vector<Cell>> ops_;
  std::vector<std::vector<ftx_rec::OutputRecorder>> references_;  // per position, per cell
};

// ------------------------------------------------------------- fault_trials

// Ops, in cycle order:
//   * DC-disk stop-failure runs on nvi and postgres that the benchmark builds
//     itself, checked through CheckLoseWorkOperational and
//     CheckConsistentRecovery;
//   * one fault type's RunApplicationFault and RunOsFault trials on nvi and
//     postgres, each on Rio and on DC-disk (eight trials per op, so that op
//     times do not hang on which single trial crashes late).
// The trials perfbench/baseline.json records as known defects of
// src/core/fault_study.cc fail every time, so they are not ops. They run
// once per run in CheckKnownDefects, together with every drawn trial that
// set-up finds showing one of their signatures, and the run reports which
// of them still reproduce.
class FaultTrials final : public Workload {
 public:
  explicit FaultTrials(const WorkloadOptions& options) : Workload(options) {
    uint64_t index = 0;
    for (int draw = 0; draw < kDraws; ++draw) {
      for (ftx_fault::FaultType type : ftx_fault::AllFaultTypes()) {
        std::vector<Trial> op;
        for (const char* app : kApps) {
          for (bool os : {false, true}) {
            op.push_back({app, type, os, ftx::DeriveTrialSeed(options.seed, index++)});
          }
        }
        drawn_.push_back(op);
      }
    }
    trial_ops_ = drawn_;
  }

  int cycle() const override { return kStopOps + static_cast<int>(trial_ops_.size()); }
  // Set-up's screening pass warms the trials up; warm up the stop-failure
  // runs here.
  int warmup_ops() const override { return kStopOps; }
  std::string OpName(int position) const override {
    if (position < kStopOps) {
      return "stop-failure runs " + std::to_string(position);
    }
    const Trial& t = trial_ops_[static_cast<size_t>(position - kStopOps)].front();
    return "fault trials " + std::string(ftx_fault::FaultTypeName(t.type));
  }

  void SetUp() override {
    references_.clear();
    for (const char* app : kApps) {
      references_.emplace(app, ftx::RunExperiment(StopSpec(app, ftx_dc::RuntimeMode::kBaseline)));
    }
    // Screen every drawn trial once. One that shows a recorded defect
    // signature on either store joins the known-defect trials instead of an
    // op; one that fails any other way stays in its op and fails it.
    defect_trials_ = {
        {"nvi", ftx_fault::FaultType::kDestinationReg, true, 17825122242462066279ULL},
        {"nvi", ftx_fault::FaultType::kStackBitFlip, false, 8779259447605805426ULL},
    };
    trial_ops_.clear();
    for (const std::vector<Trial>& drawn : drawn_) {
      std::vector<Trial> op;
      for (const Trial& t : drawn) {
        bool known = false;
        for (ftx::StoreKind store : kStores) {
          known = Judge(t, Run(t, store)) == Verdict::kKnownDefect || known;
        }
        (known ? defect_trials_ : op).push_back(t);
      }
      if (!op.empty()) {
        trial_ops_.push_back(std::move(op));
      }
    }
  }

  OpResult RunOp(int64_t index) override {
    const int position = static_cast<int>(index % cycle());
    OpResult op;
    Digest digest;
    if (position < kStopOps) {
      for (int a = 0; a < 2; ++a) {
        const uint64_t seed = ftx::DeriveTrialSeed(options_.seed, kStopSeedBase + 2 * position + a);
        RunStopFailure(kApps[a], seed, &op, &digest);
      }
    } else {
      for (const Trial& trial : trial_ops_[static_cast<size_t>(position - kStopOps)]) {
        RunTrial(trial, &op, &digest);
      }
    }
    op.digest = digest.value();
    return op;
  }

  void CheckKnownDefects(std::vector<std::string>* reproduced,
                         std::vector<std::string>* failures) override {
    for (const Trial& t : defect_trials_) {
      for (ftx::StoreKind store : kStores) {
        switch (Judge(t, Run(t, store))) {
          case Verdict::kKnownDefect:
            reproduced->push_back(TrialName(t, store));
            break;
          case Verdict::kDisagree:
            failures->push_back("known-defect trial " + TrialName(t, store) +
                                ": trace and outcome disagree with no recorded signature");
            break;
          case Verdict::kAgree:  // the defect no longer shows on this store
            break;
        }
      }
    }
  }

 private:
  static constexpr const char* kApps[] = {"nvi", "postgres"};
  static constexpr ftx::StoreKind kStores[] = {ftx::StoreKind::kRio, ftx::StoreKind::kDisk};
  // Draws of every fault type per cycle, and stop-failure ops per cycle:
  // enough that a run's quantiles do not hang on a few seeds.
  static constexpr int kDraws = 6;
  static constexpr int kStopOps = 8;
  static constexpr uint64_t kStopSeedBase = 1u << 20;  // disjoint from trial seeds

  struct Trial {
    std::string app;
    ftx_fault::FaultType type;
    bool os;
    uint64_t seed;
  };

  enum class Verdict { kAgree, kKnownDefect, kDisagree };

  // A crashing trial's trace verdict and recovery outcome must agree. The
  // two recorded defect signatures: an OS fault whose propagation was benign
  // but is reported as a crash, and an application stack-bit-flip whose
  // recovery fails with no Lose-work violation on the trace.
  static Verdict Judge(const Trial& t, const ftx::FaultRunResult& r) {
    if (!r.crashed || r.trace_and_outcome_agree) {
      return Verdict::kAgree;
    }
    const bool known = (t.os && r.benign) ||
                       (!t.os && t.type == ftx_fault::FaultType::kStackBitFlip &&
                        r.recovery_failed && !r.violated_lose_work);
    return known ? Verdict::kKnownDefect : Verdict::kDisagree;
  }

  static std::string TrialName(const Trial& t, ftx::StoreKind store) {
    return std::string(t.os ? "RunOsFault " : "RunApplicationFault ") + t.app + " " +
           std::string(ftx_fault::FaultTypeName(t.type)) + " seed " + std::to_string(t.seed) +
           (store == ftx::StoreKind::kRio ? " (rio)" : " (dc-disk)");
  }

  static ftx::FaultRunResult Run(const Trial& t, ftx::StoreKind store) {
    Span span("faults.trial");
    return t.os ? ftx::RunOsFault(t.app, t.type, t.seed, "cpvs", store)
                : ftx::RunApplicationFault(t.app, t.type, t.seed, "cpvs", store);
  }

  ftx::RunSpec StopSpec(const std::string& app, ftx_dc::RuntimeMode mode) const {
    ftx::RunSpec spec;
    spec.workload = app;
    spec.scale = 600;  // the fault studies' run size
    spec.seed = options_.seed;
    spec.interactive = false;
    spec.protocol = "cpvs";
    spec.store = ftx::StoreKind::kDisk;
    spec.mode = mode;
    return spec;
  }

  void RunTrial(const Trial& t, OpResult* op, Digest* digest) {
    for (ftx::StoreKind store : kStores) {
      const ftx::FaultRunResult r = Run(t, store);
      digest->Add(r.crashed).Add(r.benign).Add(r.violated_lose_work).Add(r.recovery_failed).Add(
          r.trace_and_outcome_agree);
      auto& c = op->counts;
      c["faults.trials"] += 1;
      c["faults.crashed"] += r.crashed;
      c["faults.lose_work_violations"] += r.violated_lose_work;
      c["faults.failed_recoveries"] += r.recovery_failed;
      if (Judge(t, r) != Verdict::kAgree) {
        op->Fail("trace and outcome disagree: " + TrialName(t, store));
      }
    }
  }

  void RunStopFailure(const std::string& app, uint64_t seed, OpResult* op, Digest* digest) {
    const ftx::RunOutput& reference = references_.at(app);
    ftx::Rng rng(seed);
    const int64_t end = reference.result.end_time.nanos();
    const int64_t at = rng.NextInRange(end / 5, std::max(end / 5 + 1, end * 4 / 5));
    DriveComputation(
        op, digest,
        [&] {
          auto c = ftx::BuildComputation(StopSpec(app, ftx_dc::RuntimeMode::kRecoverable));
          c->ScheduleStopFailure(0, ftx::TimePoint() + ftx::Nanoseconds(at),
                                 ftx::Milliseconds(5));
          return c;
        },
        [&](Computation& c, const ftx::ComputationResult& result) {
          if (result.total_rollbacks < 1) {
            op->Fail("stop failure: process never recovered");
          }
          {
            Span span("statemachine.lose_work_check");
            const ftx_sm::LoseWorkResult lose_work = ftx_sm::CheckLoseWorkOperational(c.trace(), 0);
            if (lose_work.applicable && lose_work.violated) {
              op->Fail("stop failure: Lose-work violated without a fault");
            }
          }
          Span span("recovery.consistency_check");
          const ftx_rec::ConsistencyResult consistency =
              ftx_rec::CheckConsistentRecovery(reference.outputs, c.recorder(), 1);
          if (!consistency.consistent) {
            op->Fail("stop failure: inconsistent recovery: " + consistency.diagnostic);
          }
        });
  }

  std::vector<std::vector<Trial>> drawn_;      // every drawn trial, in op order
  std::vector<std::vector<Trial>> trial_ops_;  // the drawn trials set-up kept as ops
  std::vector<Trial> defect_trials_;           // run by CheckKnownDefects
  std::map<std::string, ftx::RunOutput> references_;
};

// ------------------------------------------------------------- crash_states

// One op: a serial ExploreCommitPath call on one Fig. 8 app. The scale and
// commit-window depth per app are chosen so every call costs about the
// same; each call must report no violation and only consistent replays.
class CrashStates final : public Workload {
 public:
  explicit CrashStates(const WorkloadOptions& options) : Workload(options) {}

  // Each app with four workload seeds: the torture's cost and memory depend
  // on the app's inputs, so a run spans several draws.
  int cycle() const override { return 16; }
  std::string OpName(int position) const override {
    return std::string("ExploreCommitPath ") + kShapes[position % 4].app + " draw " +
           std::to_string(position / 4);
  }

  void SetUp() override {}

  OpResult RunOp(int64_t index) override {
    const int position = static_cast<int>(index % cycle());
    const Shape& shape = kShapes[position % 4];
    ftx_torture::TortureSpec spec;
    spec.workload = shape.app;
    spec.scale = options_.small ? shape.small_scale : shape.scale;
    const uint64_t draw = static_cast<uint64_t>(position / 4);
    spec.seed = draw == 0 ? options_.seed : ftx::DeriveTrialSeed(options_.seed, draw);
    spec.protocol = "cpvs";
    spec.max_commit_windows = options_.small ? 1 : shape.windows;
    OpResult op;
    ftx_torture::TortureReport report;
    {
      Span span("torture.explore");
      report = ftx_torture::ExploreCommitPath(spec, /*pool=*/nullptr);
    }
    if (!report.ok()) {
      op.Fail("torture: " + std::to_string(report.violations) + " violations" +
              (report.violation_diagnostics.empty() ? "" : ": " + report.violation_diagnostics[0]));
    }
    if (report.replays_consistent != report.replays) {
      op.Fail("torture: inconsistent replay");
    }
    if (report.crash_states <= 0) {
      op.Fail("torture: no crash state explored");
    }
    Digest digest;
    digest.Add(report.commits)
        .Add(report.journal_ops)
        .Add(report.explored_ops)
        .Add(report.crash_states)
        .Add(report.survivor_committed)
        .Add(report.survivor_inflight)
        .Add(report.survivor_none)
        .Add(report.replays)
        .Add(report.replays_consistent)
        .Add(report.violations);
    op.digest = digest.value();
    op.counts["torture.crash_states"] = static_cast<double>(report.crash_states);
    op.counts["torture.replays"] = static_cast<double>(report.replays);
    return op;
  }

 private:
  struct Shape {
    const char* app;
    int scale;
    int windows;
    int small_scale;
  };
  static constexpr Shape kShapes[] = {
      {"nvi", 800, 30, 100},
      {"xpilot", 150, 70, 20},
      {"treadmarks", 2, 2, 1},
      {"magic", 4, 1, 2},
  };
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadOptions& options) {
  if (name == "fleet_2pc") {
    return std::make_unique<Fleet2pc>(options);
  }
  if (name == "fig8_commit") {
    return std::make_unique<Fig8Commit>(options);
  }
  if (name == "fault_trials") {
    return std::make_unique<FaultTrials>(options);
  }
  if (name == "crash_states") {
    return std::make_unique<CrashStates>(options);
  }
  return nullptr;
}

}  // namespace perfbench
