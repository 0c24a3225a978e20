// Discount Checking runtime: one instance per process.
//
// The runtime is the reproduction of the paper's Discount Checking library
// (§3) plus its DC-disk variant:
//
//  * Application state lives in a Vista segment; write barriers log
//    before-images; commit = copy the register file, atomically discard the
//    undo log, reset page protections (cost model: fixed + per-dirty-page).
//  * Kernel state is preserved by intercepting syscalls, capturing their
//    parameters, and reconstructing kernel state by replay during recovery.
//  * DC-disk writes a redo record (dirty pages + metadata) to a modeled disk
//    and recovers by replaying the redo chain. Every record goes through a
//    group-commit window (src/storage/commit_pipeline.h); with batching off
//    each window holds one record and is synced at its own commit.
//  * Non-deterministic user input and receives can be logged to render them
//    deterministic (the -LOG protocols); recovery replays the log.
//
// The runtime intercepts every application event through ProcessEnv,
// consults the process's Save-work protocol for commit/log decisions,
// appends the event to the computation-wide trace, and charges simulated
// time. It also implements rollback + reexecution for failures.

#ifndef FTX_SRC_CHECKPOINT_RUNTIME_H_
#define FTX_SRC_CHECKPOINT_RUNTIME_H_

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/checkpoint/app.h"
#include "src/obs/causal/critical_path.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"
#include "src/protocol/coordination.h"
#include "src/protocol/protocol.h"
#include "src/recovery/output_recorder.h"
#include "src/sim/kernel.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/statemachine/trace.h"
#include "src/storage/redo_log.h"
#include "src/storage/stable_store.h"
#include "src/vista/heap.h"
#include "src/vista/segment.h"

namespace ftx_causal {
class CausalAudit;
}  // namespace ftx_causal
namespace ftx_store {
class CommitPipeline;
}  // namespace ftx_store

namespace ftx_dc {

// Cost model knobs (see DESIGN.md §5 for calibration rationale).
struct RuntimeCosts {
  // Per intercepted event: syscall-interposition overhead.
  ftx::Duration event_intercept = ftx::Microseconds(1);
  // First touch of a page since the last commit: COW trap + before-image
  // copy (charged at commit, per dirty page, equivalent in total).
  ftx::Duration page_trap = ftx::Microseconds(10);
  // Re-protecting one page at commit.
  ftx::Duration page_reprotect = ftx::Microseconds(2);
  // Persisting one ND log record (Rio memory speed).
  ftx::Duration nd_log_record = ftx::Microseconds(3);
  // Basic syscall service time.
  ftx::Duration syscall_service = ftx::Microseconds(2);
  // Rollback handling (signal, log scan) at recovery, plus per-page restore.
  ftx::Duration recovery_fixed = ftx::Milliseconds(1);
  ftx::Duration recovery_per_page = ftx::Microseconds(3);
};

// Both modes run every application event down the same path; the baseline
// one differs only where Discount Checking does work: PreEvent consults no
// protocol and charges nothing, PostEvent records no trace and retains
// nothing for recovery, DoCommit only retires the undo log, and Compute
// skips the protocol.
enum class RuntimeMode {
  kBaseline,     // no interception cost, no commits: the unrecoverable version
  kRecoverable,  // full Discount Checking
};

struct RuntimeStats {
  int64_t commits = 0;
  int64_t coordinated_commits = 0;  // commits performed as a 2PC participant
  ftx::Duration commit_time;
  int64_t pages_committed = 0;
  int64_t bytes_persisted = 0;
  int64_t events = 0;
  int64_t nd_events = 0;
  int64_t visible_events = 0;
  int64_t sends = 0;
  int64_t receives = 0;
  int64_t logged_events = 0;
  int64_t rollbacks = 0;
  ftx::Duration recovery_time;
};

// Per-process dependency set for a Runtime: everything it needs from the
// surrounding computation.
//
// sim/network/kernel/recorder are required for every runtime; trace and
// store are additionally required for recoverable modes, and a recoverable
// DC-disk runtime (redo_log set) needs its commit_pipeline. The Runtime
// constructor enforces all of this and names the missing field. Everything
// else is optional.
struct Environment {
  ftx_sim::Simulator* sim = nullptr;
  ftx_sim::Network* network = nullptr;
  ftx_sim::KernelSim* kernel = nullptr;
  ftx_sm::Trace* trace = nullptr;
  ftx_rec::OutputRecorder* recorder = nullptr;
  ftx_store::StableStore* store = nullptr;
  ftx_store::RedoLog* redo_log = nullptr;
  // Group-commit staging pipeline over redo_log (required with it): every
  // DC-disk commit stages its record here, and a whole window is persisted
  // under one sync pair (flushed before anything externally visible
  // escapes — the Save-work invariant is untouched).
  ftx_store::CommitPipeline* commit_pipeline = nullptr;
  // Initiates a coordinated commit round over the given participant scope.
  std::function<void(ftx_proto::CoordinationScope)> coordinated_commit;
  // Atomic group id of the most recent coordinated round (2PC bookkeeping).
  std::function<int64_t()> latest_atomic_group;
  ftx_obs::Registry* metrics = nullptr;    // optional
  ftx_obs::Tracer* tracer = nullptr;       // optional
  ftx_causal::CausalAudit* audit = nullptr;  // optional
};

class Runtime : public ProcessEnv {
 public:
  Runtime(int pid, int num_processes, App* app, std::unique_ptr<ftx_proto::Protocol> protocol,
          Environment env, RuntimeMode mode, RuntimeCosts costs = {});

  // --- lifecycle (driven by the Computation runner) ---

  // Runs App::Init and commits checkpoint #0.
  void Initialize();

  // Runs one App::Step inside cost accounting; returns the outcome and the
  // simulated time the step consumed (events + pending overheads).
  StepOutcome RunStep(ftx::Duration* cost_out);

  // Stop failure: the process ceases execution (no state corruption).
  void Kill();

  // Rolls back to the last committed state and resumes execution. For Rio
  // the segment's undo log restores state; for DC-disk the segment is
  // rebuilt from the redo chain. Kernel state is reconstructed by syscall
  // replay. Returns the simulated recovery latency.
  ftx::Duration Recover();

  // Total loss of committed state (an OS crash with a volatile store): the
  // process restarts from its initial state, its input script from the
  // beginning. Returns the restart latency.
  ftx::Duration RestartFromScratch();

  // Local commit; exposed for 2PC participation (the coordinator commits
  // other processes through this). Returns the commit's simulated cost,
  // which is also added to pending overhead and charged at this process's
  // next step.
  ftx::Duration CommitNow(bool coordinated, int64_t atomic_group = -1);

  // --- 2PC coordination hooks (used by the Computation runner) ---

  // Appends a coordination-protocol message event (prepare/ack) to the
  // trace. These events make the happens-before edges of the coordinated
  // commit explicit, which is what lets remote commits cover remote ND
  // events under the Save-work checker.
  void AppendCoordinationEvent(ftx_sm::EventKind kind, int64_t message_id);

  // Adds simulated time to the currently-running step (the coordinator
  // charges the whole 2PC round to the process that triggered it).
  void ChargeToStep(ftx::Duration cost);

  bool alive() const { return alive_; }
  bool done() const { return done_; }
  bool crashed() const { return crashed_; }
  const std::string& crash_reason() const { return crash_reason_; }
  const RuntimeStats& stats() const { return stats_; }
  // Phase decomposition of the most recent Recover()/RestartFromScratch(),
  // in simulated nanoseconds as actually charged: the phases sum to the
  // returned recovery cost exactly (zeroed until one runs).
  const ftx_causal::RecoveryPhases& last_recovery() const { return last_recovery_; }
  ftx_proto::Protocol& protocol() { return *protocol_; }
  App& app() { return *app_; }

  // Scripted user input (the workload's keystrokes/commands).
  void SetInputScript(std::vector<ftx::Bytes> script);

  // --- ProcessEnv ---
  int pid() const override { return pid_; }
  int num_processes() const override { return num_processes_; }
  ftx::TimePoint Now() const override { return env_.sim->Now(); }
  ftx_vista::Segment& segment() override { return *segment_; }
  ftx_vista::SegmentHeap& heap() override { return *heap_; }
  ftx::TimePoint GetTimeOfDay() override;
  void DeliverSignal() override;
  std::optional<ftx::Bytes> ReadUserInput() override;
  void Print(ftx::Bytes payload) override;
  void Send(int dst, ftx::Bytes payload) override;
  std::optional<ftx_sim::Message> TryReceive() override;
  const ftx_sim::Message* PeekMessage() override;
  void Compute(ftx::Duration work) override;
  ftx::Result<int> Open(const std::string& path, bool writable) override;
  ftx::Status Close(int fd) override;
  ftx::Result<int64_t> WriteFile(int fd, int64_t bytes) override;
  ftx::Status Bind(uint16_t port) override;
  void Crash(const std::string& reason) override;
  void MarkFaultActivation() override;

 public:
  // Processes this one has sent to or received from since its last commit;
  // drives Coordinated Checkpointing's participant closure.
  const ftx_proto::CommunicationRecord& communicated() const { return communicated_; }

 private:
  struct NdLogRecord {
    enum class Kind : uint8_t { kUserInput, kReceive, kTimeOfDay, kEmptyPoll, kSignal };
    Kind kind = Kind::kUserInput;
    ftx::Bytes payload;          // input bytes
    ftx_sim::Message message;  // for receives
    ftx::TimePoint time_value;  // for gettimeofday

    int64_t CostBytes() const {
      switch (kind) {
        case Kind::kUserInput:
          return static_cast<int64_t>(payload.size()) + 16;
        case Kind::kReceive:
          return static_cast<int64_t>(message.payload.size()) + 32;
        case Kind::kTimeOfDay:
          return 16;
        case Kind::kEmptyPoll:
        case Kind::kSignal:
          return 8;
      }
      return 8;
    }
  };

  // A commit that has been made but not yet reported: what the runtime
  // still owes the observers (audit breakdown, kCommit trace event,
  // dc.commit_ns observation, span) once the commit is durable. A Rio commit
  // is reported as soon as it is made; a DC-disk commit when its
  // group-commit window flushes. The redo record itself waits in
  // env_.commit_pipeline.
  struct UnreportedCommit {
    bool coordinated = false;
    int64_t atomic_group = -1;
    int64_t pages = 0;
    int64_t payload_bytes = 0;
    ftx::Duration fixed_cost;
    ftx::Duration before_image_cost;  // the share a pipelined implementation
                                      // hides under earlier records' persist
    ftx::Duration reprotect_cost;
    ftx::TimePoint begin;  // simulated instant the commit was made

    ftx::Duration CaptureCost() const { return fixed_cost + before_image_cost + reprotect_cost; }
  };

  // Auxiliary (non-segment) state that must travel with commits.
  struct CommittedMeta {
    uint64_t registers[4] = {0, 0, 0, 0};  // synthetic register file image
    int64_t step_count = 0;
    size_t kernel_records = 0;
    size_t input_cursor = 0;
    size_t nd_consumed = 0;
  };

  // Every intercepted event runs PreEvent, then its action, then PostEvent.
  // PreEvent is the protocol consultation before the action: performs any
  // commit-before (coordinated or local) and charges interception cost.
  // A baseline process gets the empty decision at no cost.
  ftx_proto::CommitDecision PreEvent(ftx_proto::AppEvent event);

  // Counts the event, then records it in the trace and arms a commit-after,
  // once the event's action is done. A baseline process instead releases
  // what it has received: it keeps no recovery buffer.
  void PostEvent(ftx_proto::AppEvent event, const ftx_proto::CommitDecision& decision,
                 int64_t message_id, bool logged, const char* label);

  // Recovery replay of one logged ND event: when the next unconsumed ND-log
  // record is of `kind`, consumes it, counts and traces the event as a
  // logged one, and returns the record whose result the call hands back.
  // Returns nullptr (the event runs live) otherwise.
  const NdLogRecord* ReplayNd(NdLogRecord::Kind kind);

  // Appends an ND-log record, charging either a synchronous stable-store
  // append or (log_async) deferring the write into the pending batch.
  void AppendNdLog(NdLogRecord record, bool log_async);

  void AppendTraceEvent(ftx_proto::AppEvent event, int64_t message_id, bool logged,
                        const char* label);
  void Charge(ftx::Duration d) { step_cost_ += d; }
  bool InNdReplay() const { return nd_consumed_ < nd_log_.size(); }

  // Performs a deferred commit-after, if one is pending. Called at the next
  // intercepted event and at the end of each step. Deferring "commit
  // immediately after a non-deterministic event" to just before the next
  // event still upholds Save-work (the commit stays between the ND event
  // and everything downstream) while guaranteeing the application has
  // folded the event's result into its segment — the state-machine
  // equivalent of Discount Checking capturing registers and stack at the
  // true commit instant.
  void FlushPendingCommit();

  // Makes a commit and returns its simulated cost; the caller charges it.
  // Rio commits are reported at once. A DC-disk commit stages its redo
  // record into the open group-commit window and is reported when that
  // window flushes: here, when the policy closes the window (always, with
  // batching off) or the commit is coordinated, and otherwise at the next
  // output commit or clean shutdown.
  ftx::Duration DoCommit(bool coordinated, int64_t atomic_group = -1);

  // Persists the open group-commit window — one pair of sync I/Os for every
  // staged record — and reports its commits. Returns the window's simulated
  // cost after the pipeline overlap credit; zero when nothing is staged.
  // `unaccrued` is cost the caller has incurred but not yet charged (it
  // places the window on the timeline).
  ftx::Duration FlushCommitWindow(ftx::Duration unaccrued = ftx::Duration());

  // The one place a commit is reported. `commits` became durable together
  // at `end` under one `persist` charge, which they share equally. Stages
  // each commit's audit costs, appends its kCommit trace event and observes
  // dc.commit_ns, then records one span and releases the retained messages
  // the commits cover.
  void ReportCommits(std::span<const UnreportedCommit> commits, ftx::Duration persist,
                     ftx::TimePoint end);

  // Crash/kill/restart path: staged records never became durable and were
  // never reported committed — forget them (all-or-prefix semantics).
  void DropStagedCommits();

  // Cost this process has accrued but the clock has not yet advanced past:
  // the running step's, or the pending overhead between steps.
  ftx::Duration Accrued() const { return in_step_ ? step_cost_ : pending_overhead_; }

  // Registers "p<pid>.*" probes over stats_ and creates the owned
  // instruments below. Called from the constructor when env_.metrics is
  // set.
  void BindMetrics();

  int pid_;
  int num_processes_;
  App* app_;
  std::unique_ptr<ftx_proto::Protocol> protocol_;
  Environment env_;
  RuntimeMode mode_;
  RuntimeCosts costs_;

  std::unique_ptr<ftx_vista::Segment> segment_;
  std::unique_ptr<ftx_vista::SegmentHeap> heap_;

  bool alive_ = true;
  bool done_ = false;
  bool crashed_ = false;
  bool in_step_ = false;
  std::string crash_reason_;

  std::vector<ftx::Bytes> input_script_;
  size_t input_cursor_ = 0;

  // ND log (the -LOG protocols and the full loggers): survives failures up
  // to the flushed prefix; replayed on recovery. Asynchronously-written
  // records (Optimistic Logging) are lost by a crash until flushed.
  std::vector<NdLogRecord> nd_log_;
  size_t nd_consumed_ = 0;
  size_t flushed_log_records_ = 0;   // durable prefix of nd_log_
  int64_t unflushed_log_bytes_ = 0;  // cost of the pending async batch
  ftx_proto::CommunicationRecord communicated_;

  int64_t step_count_ = 0;
  bool pending_commit_ = false;
  CommittedMeta committed_;
  // Commits whose redo records wait in env_.commit_pipeline's open window,
  // in stage order.
  std::vector<UnreportedCommit> staged_;

  ftx::Duration step_cost_;
  ftx::Duration pending_overhead_;  // costs charged outside a step (2PC)

  RuntimeStats stats_;
  ftx_causal::RecoveryPhases last_recovery_;

  // Owned instruments (null when no registry is attached). The histograms
  // are computation-wide ("dc.commit_ns" / "dc.recovery_ns"), shared across
  // processes via the registry's get-or-create semantics.
  ftx_obs::Counter* crash_counter_ = nullptr;
  ftx_obs::Counter* fault_counter_ = nullptr;
  ftx_obs::Counter* flush_counter_ = nullptr;
  ftx_obs::Histogram* commit_hist_ = nullptr;
  ftx_obs::Histogram* recovery_hist_ = nullptr;
};

}  // namespace ftx_dc

#endif  // FTX_SRC_CHECKPOINT_RUNTIME_H_
