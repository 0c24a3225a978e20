#include "src/checkpoint/runtime.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"
#include "src/obs/causal/audit.h"
#include "src/obs/prof/prof.h"
#include "src/storage/commit_pipeline.h"

namespace ftx_dc {
namespace {

ftx_sm::EventKind ToTraceKind(ftx_proto::AppEvent event) {
  switch (event) {
    case ftx_proto::AppEvent::kInternal:
      return ftx_sm::EventKind::kInternal;
    case ftx_proto::AppEvent::kTransientNd:
    case ftx_proto::AppEvent::kSignal:
      return ftx_sm::EventKind::kTransientNd;
    case ftx_proto::AppEvent::kFixedNd:
    case ftx_proto::AppEvent::kUserInput:
      return ftx_sm::EventKind::kFixedNd;
    case ftx_proto::AppEvent::kReceive:
      return ftx_sm::EventKind::kReceive;
    case ftx_proto::AppEvent::kSend:
      return ftx_sm::EventKind::kSend;
    case ftx_proto::AppEvent::kVisible:
      return ftx_sm::EventKind::kVisible;
  }
  return ftx_sm::EventKind::kInternal;
}

}  // namespace

Runtime::Runtime(int pid, int num_processes, App* app,
                 std::unique_ptr<ftx_proto::Protocol> protocol, Environment env,
                 RuntimeMode mode, RuntimeCosts costs)
    : pid_(pid),
      num_processes_(num_processes),
      app_(app),
      protocol_(std::move(protocol)),
      env_(std::move(env)),
      mode_(mode),
      costs_(costs) {
  FTX_CHECK(app != nullptr);
  FTX_CHECK_MSG(env_.sim != nullptr, "Runtime: missing required dependency 'sim'");
  FTX_CHECK_MSG(env_.network != nullptr, "Runtime: missing required dependency 'network'");
  FTX_CHECK_MSG(env_.kernel != nullptr, "Runtime: missing required dependency 'kernel'");
  FTX_CHECK_MSG(env_.recorder != nullptr, "Runtime: missing required dependency 'recorder'");
  if (mode_ == RuntimeMode::kRecoverable) {
    FTX_CHECK_MSG(protocol_ != nullptr, "Runtime: recoverable mode requires a protocol");
    FTX_CHECK_MSG(env_.trace != nullptr,
                  "Runtime: recoverable mode requires dependency 'trace'");
    FTX_CHECK_MSG(env_.store != nullptr,
                  "Runtime: recoverable mode requires dependency 'store'");
    FTX_CHECK_MSG(env_.redo_log == nullptr || env_.commit_pipeline != nullptr,
                  "Runtime: DC-disk requires dependency 'commit_pipeline'");
  } else {
    // A baseline process records no trace: there is no recovery to replay
    // it and no commit to check against it.
    env_.trace = nullptr;
  }
  segment_ = std::make_unique<ftx_vista::Segment>(app->SegmentBytes());
  if (app->HeapBytes() > 0) {
    heap_ = std::make_unique<ftx_vista::SegmentHeap>(segment_.get(), app->HeapOffset(),
                                                     app->HeapBytes());
    heap_->Format();
  }
  if (env_.metrics != nullptr) {
    BindMetrics();
  }
}

void Runtime::BindMetrics() {
  ftx_obs::Registry* r = env_.metrics;
  const std::string p = "p" + std::to_string(pid_) + ".";
  // Probes read the very fields stats() exposes: the registry view and the
  // legacy struct are the same memory.
  r->RegisterCounterProbe(p + "dc.commits", [this]() { return stats_.commits; });
  r->RegisterCounterProbe(p + "dc.coordinated_commits",
                          [this]() { return stats_.coordinated_commits; });
  r->RegisterCounterProbe(p + "dc.commit_ns", [this]() { return stats_.commit_time.nanos(); });
  r->RegisterCounterProbe(p + "dc.pages_committed", [this]() { return stats_.pages_committed; });
  r->RegisterCounterProbe(p + "dc.bytes_persisted", [this]() { return stats_.bytes_persisted; });
  r->RegisterCounterProbe(p + "dc.events", [this]() { return stats_.events; });
  r->RegisterCounterProbe(p + "dc.nd_events", [this]() { return stats_.nd_events; });
  r->RegisterCounterProbe(p + "dc.visible_events", [this]() { return stats_.visible_events; });
  r->RegisterCounterProbe(p + "dc.sends", [this]() { return stats_.sends; });
  r->RegisterCounterProbe(p + "dc.receives", [this]() { return stats_.receives; });
  r->RegisterCounterProbe(p + "dc.logged_events", [this]() { return stats_.logged_events; });
  r->RegisterCounterProbe(p + "dc.rollbacks", [this]() { return stats_.rollbacks; });
  r->RegisterCounterProbe(p + "dc.recovery_ns", [this]() { return stats_.recovery_time.nanos(); });
  crash_counter_ = r->GetCounter(p + "dc.crash_events");
  fault_counter_ = r->GetCounter(p + "faults.activations");
  flush_counter_ = r->GetCounter(p + "dc.ndlog_flushes");
  commit_hist_ = r->GetHistogram("dc.commit_ns");
  recovery_hist_ = r->GetHistogram("dc.recovery_ns");
}

void Runtime::SetInputScript(std::vector<ftx::Bytes> script) {
  input_script_ = std::move(script);
}

void Runtime::Initialize() {
  in_step_ = true;
  step_cost_ = ftx::Duration();
  app_->Init(*this);
  in_step_ = false;
  step_cost_ = ftx::Duration();
  // Checkpoint #0: "the initial state of any application is always
  // committed" — durably: it never waits in an open group-commit window.
  // Its cost is excluded from overhead accounting (both the recoverable and
  // baseline versions start from a settled initial state).
  FlushCommitWindow(DoCommit(/*coordinated=*/false));
  step_cost_ = ftx::Duration();
}

StepOutcome Runtime::RunStep(ftx::Duration* cost_out) {
  FTX_CHECK(alive_);
  FTX_CHECK(!done_);
  ftx::TimePoint step_begin = Now();
  step_cost_ = pending_overhead_;
  pending_overhead_ = ftx::Duration();
  in_step_ = true;
  ++step_count_;
  StepOutcome outcome = app_->Step(*this);
  if (alive_) {
    FlushPendingCommit();
    if (outcome.status == StepOutcome::Status::kDone) {
      // Clean shutdown: the final commits must not ride an open window.
      Charge(FlushCommitWindow());
    }
  }
  in_step_ = false;
  if (outcome.status == StepOutcome::Status::kDone) {
    done_ = true;
  }
  *cost_out = step_cost_;
  if (env_.tracer != nullptr) {
    env_.tracer->Span(pid_, ftx_obs::TraceLane::kStep, "app", "step", step_begin,
                       step_begin + step_cost_);
  }
  return outcome;
}

void Runtime::Kill() {
  if (env_.tracer != nullptr) {
    env_.tracer->Instant(pid_, ftx_obs::TraceLane::kRecovery, "fault", "stop-failure", Now());
  }
  // Staged group-commit records die with the process: they were never
  // durable and never reported committed.
  DropStagedCommits();
  alive_ = false;
}

void Runtime::FlushPendingCommit() {
  if (pending_commit_) {
    pending_commit_ = false;
    Charge(DoCommit(/*coordinated=*/false));
  }
}

ftx_proto::CommitDecision Runtime::PreEvent(ftx_proto::AppEvent event) {
  if (mode_ == RuntimeMode::kBaseline) {
    return {};  // no protocol to consult and no interception to pay for
  }
  FlushPendingCommit();
  const ftx_proto::CommitDecision decision = protocol_->Decide(event);
  if (env_.audit != nullptr) {
    env_.audit->OnProtocolDecision(pid_, event, decision);
  }
  if (decision.flush_log_before && unflushed_log_bytes_ > 0) {
    // Optimistic Logging's output commit: wait for every outstanding log
    // record to reach stable storage — one batched sequential append.
    ftx::Duration flush_cost = env_.store->LogAppendCost(unflushed_log_bytes_);
    if (env_.tracer != nullptr) {
      ftx::TimePoint base = Now() + step_cost_;
      env_.tracer->Span(pid_, ftx_obs::TraceLane::kStorage, "dc", "ndlog.flush", base,
                         base + flush_cost);
    }
    if (flush_counter_ != nullptr) {
      flush_counter_->Increment();
    }
    Charge(flush_cost);
    unflushed_log_bytes_ = 0;
    flushed_log_records_ = nd_log_.size();
  }
  if (decision.commit_before) {
    if (decision.coordinated && env_.coordinated_commit && num_processes_ > 1) {
      // The coordinator callback runs the 2PC round: participants commit,
      // acks flow back, and this process commits — all recorded in the
      // trace and charged to this step.
      env_.coordinated_commit(decision.scope);
    } else {
      Charge(DoCommit(/*coordinated=*/false));
    }
  }
  if (event == ftx_proto::AppEvent::kVisible || event == ftx_proto::AppEvent::kSend) {
    // Output commit: anything about to escape the process (visible output,
    // a message another process may act on) must find every staged
    // group-commit window durable first.
    Charge(FlushCommitWindow());
  }
  Charge(costs_.event_intercept);
  return decision;
}

void Runtime::PostEvent(ftx_proto::AppEvent event, const ftx_proto::CommitDecision& decision,
                        int64_t message_id, bool logged, const char* label) {
  ++stats_.events;
  if (ftx_proto::IsNdEvent(event)) {
    ++stats_.nd_events;
  }
  if (mode_ == RuntimeMode::kBaseline) {
    // No recovery can need what a baseline process received or whom it
    // talked to, so nothing is retained for one.
    env_.network->ReleaseAllDelivered(pid_);
    communicated_.Clear();
    return;
  }
  AppendTraceEvent(event, message_id, logged, label);
  if (decision.commit_after) {
    pending_commit_ = true;  // performed at the next event / step boundary
  }
}

void Runtime::AppendTraceEvent(ftx_proto::AppEvent event, int64_t message_id, bool logged,
                               const char* label) {
  if (env_.trace == nullptr) {
    return;
  }
  int64_t atomic_group = -1;
  if (event == ftx_proto::AppEvent::kVisible && env_.latest_atomic_group) {
    atomic_group = env_.latest_atomic_group();
  }
  env_.trace->Append(pid_, ToTraceKind(event), message_id, logged,
                      label != nullptr ? label : "", atomic_group);
}

void Runtime::AppendNdLog(NdLogRecord record, bool log_async) {
  int64_t bytes = record.CostBytes();
  nd_log_.push_back(std::move(record));
  ++nd_consumed_;  // live events are consumed as they are logged
  ++stats_.logged_events;
  Charge(costs_.nd_log_record);
  if (log_async) {
    unflushed_log_bytes_ += bytes;
  } else {
    Charge(env_.store->LogAppendCost(bytes));
    flushed_log_records_ = nd_log_.size();
  }
}

ftx::Duration Runtime::DoCommit(bool coordinated, int64_t atomic_group) {
  if (mode_ == RuntimeMode::kBaseline) {
    segment_->Commit();  // retire the undo log; nothing is persisted
    return ftx::Duration();
  }
  FTX_PROF_SCOPE("commit");
  UnreportedCommit commit;
  commit.coordinated = coordinated;
  commit.atomic_group = atomic_group;
  // Volatile (recomputable) ranges are excluded from what a commit
  // persists; their pages still pay the COW trap but not the persist path.
  const auto trapped = static_cast<int64_t>(segment_->dirty_page_count());
  commit.pages = static_cast<int64_t>(segment_->persisted_dirty_page_count());
  commit.fixed_cost = env_.store->CommitFixedCost();
  commit.before_image_cost = costs_.page_trap * trapped;
  commit.reprotect_cost = costs_.page_reprotect * commit.pages;
  commit.begin = Now() + Accrued();
  ftx::Duration cost = commit.CaptureCost();

  // Capture the post-commit resume point: the synthetic register file plus
  // the kernel / input / ND-log cursors recovery must restore.
  CommittedMeta meta;
  meta.registers[0] = static_cast<uint64_t>(step_count_);
  meta.registers[1] = static_cast<uint64_t>(env_.sim->Now().nanos());
  meta.step_count = step_count_;
  meta.kernel_records = env_.kernel->RecordCount(pid_);
  meta.input_cursor = input_cursor_;
  meta.nd_consumed = nd_consumed_;

  bool must_flush = false;
  if (env_.redo_log != nullptr) {
    // DC-disk: a redo record of the dirty pages + metadata. The segment's
    // visitor hands page spans straight to record serialization — the only
    // copy is the one the persist itself requires. The serialize phase
    // includes the incremental CRC AppendPage computes over each page.
    ftx_store::RedoRecord record;
    {
      FTX_PROF_SCOPE("commit.serialize_crc");
      record.ReservePages(commit.pages, segment_->page_size());
      segment_->ForEachPersistedDirtyPage(
          [&record](int64_t offset, const uint8_t* image, size_t size) {
            record.AppendPage(offset, image, size);
          });
      ftx::AppendValue(&record.metadata, meta);
    }
    commit.payload_bytes = record.PayloadBytes() + 64;
    // The record joins the open window; nothing is reported committed
    // until the window's sync pair lands, so Save-work is untouched.
    FTX_PROF_SCOPE("commit.stage");
    must_flush = env_.commit_pipeline->Stage(std::move(record));
  } else {
    // Rio: data is already in the persistent segment; commit atomically
    // discards the undo log.
    commit.payload_bytes = segment_->undo_bytes();
  }
  committed_ = meta;
  {
    // Host-time equivalent of the reprotect_cost charge: retire the undo
    // log and clear the dirty bitmaps.
    FTX_PROF_SCOPE("commit.reprotect");
    segment_->Commit();
  }
  communicated_.Clear();  // dependencies up to here ride this commit
  ++stats_.commits;
  if (coordinated) {
    ++stats_.coordinated_commits;
  }
  stats_.commit_time += cost;
  stats_.pages_committed += commit.pages;
  protocol_->OnCommitted();

  if (env_.redo_log == nullptr) {
    // Charge the (memory-speed) cost of retiring the undo log; the commit
    // is durable now.
    const ftx::Duration persist = env_.store->PersistCost(commit.payload_bytes);
    stats_.commit_time += persist;
    stats_.bytes_persisted += commit.payload_bytes;
    cost += persist;
    ReportCommits({&commit, 1}, persist, commit.begin + cost);
    return cost;
  }
  staged_.push_back(commit);
  if (must_flush || coordinated) {
    // Coordinated rounds externalize through protocol messages, so a 2PC
    // commit must be durable before the round reports completion.
    cost += FlushCommitWindow(cost);
  }
  return cost;
}

ftx::Duration Runtime::FlushCommitWindow(ftx::Duration unaccrued) {
  if (staged_.empty()) {
    return ftx::Duration();
  }
  FTX_PROF_SCOPE("commit.window_flush");
  const auto records = static_cast<int64_t>(staged_.size());
  FTX_CHECK_EQ(records, env_.commit_pipeline->staged_records());
  int64_t window_bytes = 0;
  for (const UnreportedCommit& commit : staged_) {
    window_bytes += commit.payload_bytes;
  }
  {
    FTX_PROF_SCOPE("commit.persist");
    env_.commit_pipeline->Flush();
  }
  // One pair of sync I/Os for the whole window: only the transfer grows
  // with the payload.
  const ftx::Duration window_cost = env_.store->PersistCost(window_bytes);
  // Overlap credit: a pipelined implementation captures + CRCs record N+1
  // while record N's window I/O is in flight. The before-image cost of
  // records 2..N was already charged at their stage time; hand it back
  // here, capped at the window share the earlier records' I/O occupies (a
  // singleton window gets no credit — there is nothing to overlap with).
  ftx::Duration credit;
  for (size_t i = 1; i < staged_.size(); ++i) {
    credit += staged_[i].before_image_cost;
  }
  const ftx::Duration cap = ftx::Nanoseconds(window_cost.nanos() * (records - 1) / records);
  if (credit > cap) {
    credit = cap;
  }
  const ftx::Duration cost = window_cost - credit;
  stats_.commit_time += cost;
  stats_.bytes_persisted += window_bytes;

  ReportCommits(staged_, cost, Now() + Accrued() + unaccrued + cost);
  staged_.clear();
  return cost;
}

void Runtime::ReportCommits(std::span<const UnreportedCommit> commits, ftx::Duration persist,
                            ftx::TimePoint end) {
  const auto n = static_cast<int64_t>(commits.size());
  for (int64_t i = 0; i < n; ++i) {
    const UnreportedCommit& commit = commits[static_cast<size_t>(i)];
    // This commit's share of the persist charge; the shares sum to it
    // exactly, so per-commit costs add up to dc.commit_ns.
    const ftx::Duration share =
        ftx::Nanoseconds(persist.nanos() / n + (i < persist.nanos() % n ? 1 : 0));
    if (env_.audit != nullptr) {
      // Stage the component breakdown so the audit ledger can attach it to
      // the kCommit trace event appended just below. Purely observational:
      // every quantity here was already computed for the charge.
      ftx_causal::CommitCosts cc;
      cc.fixed_ns = commit.fixed_cost.nanos();
      cc.before_image_ns = commit.before_image_cost.nanos();
      cc.reprotect_ns = commit.reprotect_cost.nanos();
      cc.persist_ns = share.nanos();
      cc.pages = commit.pages;
      cc.payload_bytes = commit.payload_bytes;
      cc.begin_ns = commit.begin.nanos();
      cc.end_ns = end.nanos();
      env_.audit->StageCommitCosts(pid_, cc);
    }
    if (env_.trace != nullptr) {
      env_.trace->Append(pid_, ftx_sm::EventKind::kCommit, -1, false, "", commit.atomic_group);
    }
    if (commit_hist_ != nullptr) {
      commit_hist_->Observe((commit.CaptureCost() + share).nanos());
    }
  }
  if (env_.tracer != nullptr) {
    // The commits occupy the simulated interval from the first one's
    // instant to the sync that made them durable (the clock itself only
    // advances between events).
    std::string name = commits.size() > 1
                           ? "commit(window x" + std::to_string(commits.size()) + ")"
                           : (commits.front().coordinated ? "commit(2pc)" : "commit");
    env_.tracer->Span(pid_, ftx_obs::TraceLane::kStorage, "dc", std::move(name),
                       commits.front().begin, end);
  }
  env_.network->ReleaseAllDelivered(pid_);
}

void Runtime::DropStagedCommits() {
  if (env_.commit_pipeline != nullptr) {
    env_.commit_pipeline->Drop();
  }
  staged_.clear();
}

void Runtime::AppendCoordinationEvent(ftx_sm::EventKind kind, int64_t message_id) {
  if (env_.trace != nullptr) {
    // Coordination receives are recovery-system events, not application
    // non-determinism: the recovery system regenerates its own protocol
    // messages deterministically, so they are recorded as logged.
    bool logged = kind == ftx_sm::EventKind::kReceive;
    env_.trace->Append(pid_, kind, message_id, logged, "2pc");
  }
}

void Runtime::ChargeToStep(ftx::Duration cost) {
  if (in_step_) {
    Charge(cost);
  } else {
    pending_overhead_ += cost;
  }
}

ftx::Duration Runtime::CommitNow(bool coordinated, int64_t atomic_group) {
  ftx::Duration cost = DoCommit(coordinated, atomic_group);
  pending_overhead_ += cost;
  return cost;
}

ftx::Duration Runtime::Recover() {
  FTX_CHECK(!alive_);
  FTX_PROF_SCOPE("recover");
  DropStagedCommits();  // belt-and-braces; Kill() already dropped them
  ++stats_.rollbacks;
  ftx::Duration cost = costs_.recovery_fixed;
  // The breakdown mirrors the charges below, bucket by bucket; every
  // nanosecond added to `cost` lands in exactly one bucket so the phases
  // tile the returned latency.
  last_recovery_ = ftx_causal::RecoveryPhases{};
  last_recovery_.log_scan_ns = costs_.recovery_fixed.nanos();

  if (env_.redo_log != nullptr) {
    // DC-disk: the volatile segment is gone; rebuild it by replaying the
    // redo chain from disk. Charge a read per record plus transfer.
    segment_->ResetToZero();
    const ftx_store::DiskParameters* disk_params = nullptr;
    auto* disk_store = dynamic_cast<ftx_store::DiskStore*>(env_.store);
    if (disk_store != nullptr) {
      disk_params = &disk_store->disk()->parameters();
    }
    {
      FTX_PROF_SCOPE("recover.log_scan");
      for (const ftx_store::RedoRecord& record : env_.redo_log->records()) {
        {
          FTX_PROF_SCOPE("recover.crc_validate");
          FTX_CHECK_MSG(record.ValidatePages(), "redo record failed CRC validation");
        }
        FTX_PROF_SCOPE("recover.page_install");
        bool well_formed =
            record.ForEachPage([this](int64_t offset, const uint8_t* image, size_t size) {
              segment_->InstallPage(offset, image, size);
            });
        FTX_CHECK_MSG(well_formed, "redo record page payload malformed");
        if (disk_params != nullptr) {
          cost += disk_params->half_rotation;
          cost += ftx::Nanoseconds(disk_params->per_byte.nanos() * record.PayloadBytes());
          last_recovery_.log_scan_ns += disk_params->half_rotation.nanos();
          last_recovery_.page_install_ns += disk_params->per_byte.nanos() * record.PayloadBytes();
        }
      }
    }
    {
      FTX_PROF_SCOPE("recover.reprotect");
      segment_->Commit();
    }
    // Restore the capture point from the latest record's metadata.
    const ftx_store::RedoRecord* latest = env_.redo_log->Latest();
    if (latest != nullptr) {
      FTX_PROF_SCOPE("recover.meta_restore");
      size_t offset = 0;
      CommittedMeta meta;
      FTX_CHECK(ftx::ReadValue(latest->metadata, &offset, &meta));
      committed_ = meta;
    }
  } else {
    // Rio: the segment and undo log survived; roll back in place.
    const ftx::Duration undo =
        costs_.recovery_per_page * static_cast<int64_t>(segment_->dirty_page_count());
    cost += undo;
    last_recovery_.undo_rollback_ns = undo.nanos();
    FTX_PROF_SCOPE("recover.undo_rollback");
    segment_->Abort();
  }

  step_count_ = committed_.step_count;
  input_cursor_ = committed_.input_cursor;
  nd_consumed_ = committed_.nd_consumed;
  communicated_.Clear();
  // Asynchronously-written log records that never reached stable storage
  // are lost with the crash; reexecution runs those events live.
  size_t survivors = std::max(flushed_log_records_, nd_consumed_);
  if (nd_log_.size() > survivors) {
    nd_log_.resize(survivors);
  }
  unflushed_log_bytes_ = 0;
  {
    FTX_PROF_SCOPE("recover.kernel_replay");
    FTX_CHECK(env_.kernel->ReconstructFor(pid_, committed_.kernel_records).ok());
  }
  env_.network->RequeueRetained(pid_);

  // Volatile ranges were not part of the committed state: zero them and let
  // the application recompute (possibly avoiding re-corruption, §2.6).
  {
    FTX_PROF_SCOPE("recover.volatile_zero");
    segment_->ZeroVolatileRanges();
  }

  alive_ = true;
  crashed_ = false;
  crash_reason_.clear();
  pending_commit_ = false;  // cancelled by the rollback
  protocol_->OnCommitted();

  // Application rebuild of recomputable state, charged to the recovery
  // latency.
  ftx::Duration saved_step_cost = step_cost_;
  step_cost_ = ftx::Duration();
  bool was_in_step = in_step_;
  in_step_ = true;
  {
    FTX_PROF_SCOPE("recover.app_rebuild");
    app_->OnRecovered(*this);
  }
  in_step_ = was_in_step;
  cost += step_cost_;
  last_recovery_.rebuild_ns = step_cost_.nanos();
  step_cost_ = saved_step_cost;

  stats_.recovery_time += cost;
  if (recovery_hist_ != nullptr) {
    recovery_hist_->Observe(cost.nanos());
  }
  if (env_.tracer != nullptr) {
    env_.tracer->Span(pid_, ftx_obs::TraceLane::kRecovery, "dc", "recover", Now(), Now() + cost);
  }
  FTX_LOG(kInfo, "p%d recovered to step %lld (cost %s)", pid_,
          static_cast<long long>(step_count_), cost.ToString().c_str());
  return cost;
}

ftx::Duration Runtime::RestartFromScratch() {
  FTX_CHECK(!alive_);
  DropStagedCommits();
  ++stats_.rollbacks;
  segment_->ResetToZero();
  if (heap_ != nullptr) {
    heap_->Format();
  }
  FTX_CHECK(env_.kernel->ReconstructFor(pid_, 0).ok());
  env_.network->ReleaseAllDelivered(pid_);
  input_cursor_ = 0;
  step_count_ = 0;
  nd_log_.clear();
  nd_consumed_ = 0;
  flushed_log_records_ = 0;
  unflushed_log_bytes_ = 0;
  communicated_.Clear();
  committed_ = CommittedMeta{};
  pending_commit_ = false;
  pending_overhead_ = ftx::Duration();
  alive_ = true;
  crashed_ = false;
  crash_reason_.clear();
  if (protocol_ != nullptr) {
    protocol_->OnCommitted();
  }
  Initialize();
  ftx::Duration cost = costs_.recovery_fixed;
  last_recovery_ = ftx_causal::RecoveryPhases{};
  last_recovery_.log_scan_ns = cost.nanos();
  stats_.recovery_time += cost;
  if (recovery_hist_ != nullptr) {
    recovery_hist_->Observe(cost.nanos());
  }
  if (env_.tracer != nullptr) {
    env_.tracer->Span(pid_, ftx_obs::TraceLane::kRecovery, "dc", "restart", Now(), Now() + cost);
  }
  FTX_LOG(kInfo, "p%d restarted from scratch (all committed work lost)", pid_);
  return cost;
}

// --- ProcessEnv ---

const Runtime::NdLogRecord* Runtime::ReplayNd(NdLogRecord::Kind kind) {
  if (!InNdReplay() || nd_log_[nd_consumed_].kind != kind) {
    return nullptr;
  }
  FTX_PROF_SCOPE("recover.nd_replay");
  const NdLogRecord& record = nd_log_[nd_consumed_++];
  ++stats_.events;
  ++stats_.nd_events;
  ftx_proto::AppEvent event = ftx_proto::AppEvent::kTransientNd;
  int64_t message_id = -1;
  const char* label = "";
  switch (kind) {
    case NdLogRecord::Kind::kTimeOfDay:
      label = "time-replay";
      break;
    case NdLogRecord::Kind::kEmptyPoll:
      label = "select-replay";
      break;
    case NdLogRecord::Kind::kSignal:
      event = ftx_proto::AppEvent::kSignal;
      label = "signal-replay";
      break;
    case NdLogRecord::Kind::kUserInput:
      event = ftx_proto::AppEvent::kUserInput;
      label = "input-replay";
      ++input_cursor_;
      break;
    case NdLogRecord::Kind::kReceive:
      event = ftx_proto::AppEvent::kReceive;
      label = "recv-replay";
      message_id = record.message.id;
      ++stats_.receives;
      break;
  }
  AppendTraceEvent(event, message_id, /*logged=*/true, label);
  return &record;
}

ftx::TimePoint Runtime::GetTimeOfDay() {
  // Replay: a logged clock read is deterministic (full-logging protocols).
  if (const NdLogRecord* replayed = ReplayNd(NdLogRecord::Kind::kTimeOfDay)) {
    return replayed->time_value;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kTransientNd);
  Charge(costs_.syscall_service);
  ftx::TimePoint result = env_.kernel->GetTimeOfDay(pid_);
  if (d.log_event) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kTimeOfDay;
    record.time_value = result;
    AppendNdLog(std::move(record), d.log_async);
  }
  PostEvent(ftx_proto::AppEvent::kTransientNd, d, -1, d.log_event, "gettimeofday");
  return result;
}

void Runtime::DeliverSignal() {
  // Replay: a logged delivery point replays trivially (no result to carry).
  if (ReplayNd(NdLogRecord::Kind::kSignal) != nullptr) {
    return;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kSignal);
  if (d.log_event) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kSignal;
    AppendNdLog(std::move(record), d.log_async);
  }
  PostEvent(ftx_proto::AppEvent::kSignal, d, -1, d.log_event, "signal");
}

std::optional<ftx::Bytes> Runtime::ReadUserInput() {
  // Recovery replay: a logged input is returned from the ND log and is
  // deterministic.
  if (const NdLogRecord* replayed = ReplayNd(NdLogRecord::Kind::kUserInput)) {
    return replayed->payload;
  }
  if (input_cursor_ >= input_script_.size()) {
    return std::nullopt;
  }
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kUserInput);
  Charge(costs_.syscall_service);
  ftx::Bytes payload = input_script_[input_cursor_++];
  bool logged = d.log_event;
  if (logged) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kUserInput;
    record.payload = payload;
    AppendNdLog(std::move(record), d.log_async);
  }
  PostEvent(ftx_proto::AppEvent::kUserInput, d, -1, logged, "input");
  return payload;
}

void Runtime::Print(ftx::Bytes payload) {
  ++stats_.visible_events;
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kVisible);
  Charge(costs_.syscall_service);
  env_.recorder->Record(pid_, Now(), std::move(payload));
  PostEvent(ftx_proto::AppEvent::kVisible, d, -1, false, "visible");
}

void Runtime::Send(int dst, ftx::Bytes payload) {
  ++stats_.sends;
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kSend);
  Charge(costs_.syscall_service);
  communicated_.Note(dst);
  int64_t message_id = env_.network->Send(pid_, dst, std::move(payload));
  PostEvent(ftx_proto::AppEvent::kSend, d, message_id, false, "send");
}

std::optional<ftx_sim::Message> Runtime::TryReceive() {
  // Recovery replay of logged receives and empty polls: bypass the network.
  if (const NdLogRecord* replayed = ReplayNd(NdLogRecord::Kind::kReceive)) {
    return replayed->message;
  }
  if (ReplayNd(NdLogRecord::Kind::kEmptyPoll) != nullptr) {
    return std::nullopt;
  }
  std::optional<ftx_sim::Message> msg = env_.network->Deliver(pid_);
  if (!msg.has_value()) {
    // A poll that finds nothing: whether the message had arrived yet is
    // scheduling-dependent, i.e. a transient ND event (select).
    ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kTransientNd);
    if (d.log_event) {
      NdLogRecord record;
      record.kind = NdLogRecord::Kind::kEmptyPoll;
      AppendNdLog(std::move(record), d.log_async);
    }
    PostEvent(ftx_proto::AppEvent::kTransientNd, d, -1, d.log_event, "select-empty");
    return std::nullopt;
  }
  ++stats_.receives;
  communicated_.Note(msg->src);
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kReceive);
  Charge(costs_.syscall_service);
  bool logged = d.log_event;
  if (logged) {
    NdLogRecord record;
    record.kind = NdLogRecord::Kind::kReceive;
    record.message = *msg;
    AppendNdLog(std::move(record), d.log_async);
    // The log now owns redelivery of this message.
    env_.network->DropNewestRetained(pid_, msg->id);
  }
  PostEvent(ftx_proto::AppEvent::kReceive, d, msg->id, logged, "recv");
  return msg;
}

const ftx_sim::Message* Runtime::PeekMessage() {
  // During ND-log replay, the logged receive is what the next consuming
  // TryReceive returns; present it for inspection.
  if (InNdReplay()) {
    const NdLogRecord& record = nd_log_[nd_consumed_];
    if (record.kind == NdLogRecord::Kind::kReceive) {
      return &record.message;
    }
    if (record.kind == NdLogRecord::Kind::kEmptyPoll) {
      return nullptr;  // the logged poll found nothing; replay agrees
    }
  }
  return env_.network->PeekNext(pid_);
}

void Runtime::Compute(ftx::Duration work) {
  Charge(work);
  ++stats_.events;
  if (mode_ == RuntimeMode::kBaseline) {
    return;
  }
  FlushPendingCommit();
  // Deterministic computation: consulted for completeness (commit-all counts
  // it) but not traced — internal events cannot affect either invariant.
  ftx_proto::CommitDecision d = protocol_->Decide(ftx_proto::AppEvent::kInternal);
  if (d.commit_after) {
    pending_commit_ = true;
  } else if (d.commit_before) {
    Charge(DoCommit(/*coordinated=*/false));
  }
}

ftx::Result<int> Runtime::Open(const std::string& path, bool writable) {
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kFixedNd);
  Charge(costs_.syscall_service);
  ftx::Result<int> result = env_.kernel->Open(pid_, path, writable);
  PostEvent(ftx_proto::AppEvent::kFixedNd, d, -1, false, "open");
  return result;
}

ftx::Status Runtime::Close(int fd) {
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kInternal);
  Charge(costs_.syscall_service);
  ftx::Status status = env_.kernel->Close(pid_, fd);
  PostEvent(ftx_proto::AppEvent::kInternal, d, -1, false, "close");
  return status;
}

ftx::Result<int64_t> Runtime::WriteFile(int fd, int64_t bytes) {
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kFixedNd);
  Charge(costs_.syscall_service);
  ftx::Result<int64_t> result = env_.kernel->Write(pid_, fd, bytes);
  PostEvent(ftx_proto::AppEvent::kFixedNd, d, -1, false, "write");
  return result;
}

ftx::Status Runtime::Bind(uint16_t port) {
  ftx_proto::CommitDecision d = PreEvent(ftx_proto::AppEvent::kInternal);
  Charge(costs_.syscall_service);
  ftx::Status status = env_.kernel->Bind(pid_, port);
  PostEvent(ftx_proto::AppEvent::kInternal, d, -1, false, "bind");
  return status;
}

void Runtime::Crash(const std::string& reason) {
  FTX_LOG(kInfo, "p%d crash: %s", pid_, reason.c_str());
  if (crash_counter_ != nullptr) {
    crash_counter_->Increment();
  }
  if (env_.tracer != nullptr) {
    env_.tracer->Instant(pid_, ftx_obs::TraceLane::kRecovery, "fault", "crash: " + reason, Now());
  }
  if (env_.trace != nullptr) {
    env_.trace->Append(pid_, ftx_sm::EventKind::kCrash, -1, false, reason);
  }
  alive_ = false;
  crashed_ = true;
  crash_reason_ = reason;
}

void Runtime::MarkFaultActivation() {
  if (fault_counter_ != nullptr) {
    fault_counter_->Increment();
  }
  if (env_.tracer != nullptr) {
    env_.tracer->Instant(pid_, ftx_obs::TraceLane::kRecovery, "fault", "fault-activation", Now());
  }
  if (env_.trace == nullptr) {
    return;
  }
  // The activation of a bug is itself an (internal) event the process
  // executed; record it explicitly so the Lose-work window has a precise
  // start.
  ftx_sm::EventRef ref =
      env_.trace->Append(pid_, ftx_sm::EventKind::kInternal, -1, false, "fault-activation");
  env_.trace->MarkFaultActivation(ref);
}

}  // namespace ftx_dc
