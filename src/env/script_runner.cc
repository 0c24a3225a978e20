#include "src/env/script_runner.h"

#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/env/sim_env.h"
#include "src/env/thread_env.h"
#include "src/protocol/coordination.h"
#include "src/protocol/protocol.h"
#include "src/protocol/script_replay.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/statemachine/event.h"

namespace ftx::env {
namespace {

std::string Format(const char* fmt, ...) {
  char buf[192];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

// Fixed-size payload derived from the script message id, so both backends
// move identical bytes and per-message transit time is constant (which keeps
// simulated arrival order equal to send order).
ftx::Bytes PayloadFor(int64_t message_id) {
  ftx::Bytes payload;
  ftx::AppendValue(&payload, message_id);
  ftx::AppendValue(&payload, static_cast<uint64_t>(message_id) * 0x9e3779b97f4a7c15ULL);
  return payload;
}

constexpr uint32_t kCommitMagic = 0x46435231;  // "FCR1"

// Commit record framing on the stable medium: magic, pid, per-process
// sequence, CRC of the preceding fields. Fixed-size, so a durable log is a
// whole number of records and recovery counting is a scan.
void EncodeCommitRecord(ftx::Bytes* out, int pid, int64_t sequence) {
  const size_t base = out->size();
  ftx::AppendValue(out, kCommitMagic);
  ftx::AppendValue(out, static_cast<int32_t>(pid));
  ftx::AppendValue(out, sequence);
  ftx::AppendValue(out, ftx::Crc32(out->data() + base, out->size() - base));
}

constexpr size_t kCommitRecordBytes = 4 + 4 + 8 + 4;

// Number of intact records for `pid` in a durable image; -1 on a framing or
// CRC violation (durable state a commit never produced).
int64_t CountCommitRecords(const ftx::Bytes& durable, int pid) {
  if (durable.size() % kCommitRecordBytes != 0) return -1;
  int64_t count = 0;
  size_t offset = 0;
  while (offset < durable.size()) {
    uint32_t magic = 0;
    int32_t rec_pid = 0;
    int64_t sequence = 0;
    uint32_t crc = 0;
    size_t cursor = offset;
    if (!ftx::ReadValue(durable, &cursor, &magic) || !ftx::ReadValue(durable, &cursor, &rec_pid) ||
        !ftx::ReadValue(durable, &cursor, &sequence) || !ftx::ReadValue(durable, &cursor, &crc)) {
      return -1;
    }
    if (magic != kCommitMagic || rec_pid != pid || sequence != count ||
        crc != ftx::Crc32(durable.data() + offset, kCommitRecordBytes - 4)) {
      return -1;
    }
    ++count;
    offset = cursor;
  }
  return count;
}

// Drives one script through a backend's Clock/Transport/StableMedium set.
// All protocol semantics (decision order, 2PC participant selection,
// communication tracking) mirror ftx_proto::ScriptReplay so the failure-free
// commit count can be cross-checked against the pure replay.
class ScriptExecutor {
 public:
  ScriptExecutor(const std::vector<ftx_sm::ScriptedEvent>& script, const ScriptRunOptions& options,
                 Clock* clock, Transport* transport, std::vector<StableMedium*> media,
                 std::vector<KillSwitch*> kills, std::function<void()> quiesce)
      : script_(script),
        num_processes_(options.num_processes),
        batch_records_(options.batch_records),
        clock_(clock),
        transport_(transport),
        media_(std::move(media)),
        kills_(std::move(kills)),
        quiesce_(std::move(quiesce)),
        communicated_(static_cast<size_t>(options.num_processes)),
        committed_count_(static_cast<size_t>(options.num_processes), 0),
        staged_(static_cast<size_t>(options.num_processes), 0),
        delivered_(static_cast<size_t>(options.num_processes)) {
    FTX_CHECK_GE(batch_records_, 1);
    FTX_CHECK_GT(num_processes_, 0);
    FTX_CHECK_EQ(media_.size(), static_cast<size_t>(num_processes_));
    FTX_CHECK_EQ(kills_.size(), static_cast<size_t>(num_processes_));
    for (int p = 0; p < num_processes_; ++p) {
      protocols_.push_back(ftx_proto::MakeProtocolByName(options.protocol));
    }
    // The script records a message's receiver only at its receive event;
    // resolve send destinations up front.
    for (const auto& ev : script_) {
      if (ev.kind == ftx_sm::EventKind::kReceive && ev.message_id >= 0) {
        receiver_of_[ev.message_id] = ev.process;
      }
    }
  }

  // Must be called once per script index, in ascending order (the threads
  // driver enforces this with a turn barrier; internal state needs no
  // further locking because turns serialize all access).
  void ExecuteEvent(size_t index) {
    const ftx_sm::ScriptedEvent& ev = script_[index];
    const int p = ev.process;
    if (ev.kind == ftx_sm::EventKind::kCrash) {
      CrashAndRecover(p);
      return;
    }
    ftx_proto::CommitDecision d =
        protocols_[static_cast<size_t>(p)]->Decide(ftx_proto::ToAppEvent(ev.kind));
    const bool logged = ev.logged || d.log_event;
    if (logged && ftx_sm::IsNonDeterministic(ev.kind)) {
      ++log_.logged_events;
    }
    if (d.commit_before) {
      if (d.coordinated && num_processes_ > 1) {
        CoordinatedCommit(p, d.scope);
      } else {
        Commit(p, -1);
      }
    }
    TrackCommunication(ev);
    if (batch_records_ > 1 &&
        (ev.kind == ftx_sm::EventKind::kSend || ev.kind == ftx_sm::EventKind::kVisible)) {
      // Output commit: the staged window must be durable before any bytes
      // escape the process (a message or visible output).
      SyncWindow(p);
    }
    switch (ev.kind) {
      case ftx_sm::EventKind::kSend: {
        // A send whose receive never appears in the script has no scripted
        // destination; transmitting it anyway would strand the message ahead
        // of scripted traffic in some inbox and shift every later delivery
        // there. It stays un-transmitted, so the fabric carries exactly the
        // flows the script will consume.
        auto receiver = receiver_of_.find(ev.message_id);
        if (receiver != receiver_of_.end()) {
          const int64_t tid =
              transport_->Send(p, receiver->second, PayloadFor(ev.message_id));
          transport_id_[ev.message_id] = tid;
        }
        break;
      }
      case ftx_sm::EventKind::kReceive: {
        quiesce_();  // sim backend: let scheduled deliveries land
        std::optional<Message> msg = transport_->Deliver(p);
        auto it = transport_id_.find(ev.message_id);
        const int64_t want = it != transport_id_.end() ? it->second : -1;
        if (!msg.has_value() || msg->id != want || msg->payload != PayloadFor(ev.message_id)) {
          ++log_.transport_mismatches;
        } else if (logged) {
          // The ND log owns redelivery of a logged receive.
          transport_->DropNewestRetained(p, msg->id);
        } else {
          delivered_[static_cast<size_t>(p)].push_back(*msg);
        }
        break;
      }
      default:
        clock_->Charge(ftx::Microseconds(1));
        break;
    }
    log_.lines.push_back(Format("e%zu p%d %s msg=%lld log=%d cb=%d ca=%d", index, p,
                                std::string(ftx_sm::EventKindName(ev.kind)).c_str(),
                                static_cast<long long>(ev.message_id), logged ? 1 : 0,
                                d.commit_before ? 1 : 0, d.commit_after ? 1 : 0));
    if (d.commit_after) {
      Commit(p, -1);
    }
  }

  // End of script: every open window syncs (ascending pid order — both
  // drivers call this single-threaded after the last scripted event).
  void FinishWindows() {
    for (int p = 0; p < num_processes_; ++p) {
      SyncWindow(p);
    }
  }

  DecisionLog TakeLog() { return std::move(log_); }

 private:
  void TrackCommunication(const ftx_sm::ScriptedEvent& ev) {
    if (ev.kind == ftx_sm::EventKind::kSend && ev.message_id >= 0) {
      sender_of_[ev.message_id] = ev.process;
    }
    if (ev.kind == ftx_sm::EventKind::kReceive && ev.message_id >= 0) {
      auto it = sender_of_.find(ev.message_id);
      if (it != sender_of_.end()) {
        communicated_[static_cast<size_t>(ev.process)].Note(it->second);
        communicated_[static_cast<size_t>(it->second)].Note(ev.process);
      }
    }
  }

  // Appends the commit record; returns false if the kill switch fired in the
  // torn window between buffering and syncing (the record never became
  // durable).
  bool CommitThroughMedium(int p) {
    ftx::Bytes record;
    EncodeCommitRecord(&record, p, committed_count_[static_cast<size_t>(p)]);
    media_[static_cast<size_t>(p)]->Append(record.data(), record.size());
    if (kills_[static_cast<size_t>(p)] != nullptr &&
        kills_[static_cast<size_t>(p)]->armed.load()) {
      return false;
    }
    media_[static_cast<size_t>(p)]->Sync();
    return true;
  }

  void Commit(int p, int64_t atomic_group) {
    if (batch_records_ > 1) {
      StageCommit(p, atomic_group);
      return;
    }
    FTX_CHECK(CommitThroughMedium(p));  // the kill switch is armed only by CrashAndRecover
    ++committed_count_[static_cast<size_t>(p)];
    ++log_.window_syncs;
    transport_->ReleaseAllDelivered(p);
    delivered_[static_cast<size_t>(p)].clear();
    protocols_[static_cast<size_t>(p)]->OnCommitted();
    communicated_[static_cast<size_t>(p)].Clear();
    ++log_.commits;
    log_.lines.push_back(Format("commit p%d g=%lld n=%lld", p,
                                static_cast<long long>(atomic_group),
                                static_cast<long long>(committed_count_[static_cast<size_t>(p)])));
  }

  // Group-commit path: the record is appended to the medium but NOT synced —
  // it joins the open window. The protocol observes the commit immediately
  // (the process continues from it), but durability arrives only with the
  // window's sync; a crash first drops the whole staged suffix.
  void StageCommit(int p, int64_t atomic_group) {
    ftx::Bytes record;
    EncodeCommitRecord(&record, p, committed_count_[static_cast<size_t>(p)]);
    media_[static_cast<size_t>(p)]->Append(record.data(), record.size());
    ++committed_count_[static_cast<size_t>(p)];
    ++staged_[static_cast<size_t>(p)];
    protocols_[static_cast<size_t>(p)]->OnCommitted();
    communicated_[static_cast<size_t>(p)].Clear();
    ++log_.commits;
    log_.lines.push_back(Format("commit p%d g=%lld n=%lld", p,
                                static_cast<long long>(atomic_group),
                                static_cast<long long>(committed_count_[static_cast<size_t>(p)])));
    // Coordinated rounds externalize through protocol messages: their
    // commits must be durable when the round completes, so they never wait
    // in an open window.
    if (atomic_group >= 0 || staged_[static_cast<size_t>(p)] >= batch_records_) {
      SyncWindow(p);
    }
  }

  // Makes the open window durable: one Sync for every staged record, then
  // the deferred commit reporting (retained-message release).
  void SyncWindow(int p) {
    const int64_t staged = staged_[static_cast<size_t>(p)];
    if (staged == 0) {
      return;
    }
    media_[static_cast<size_t>(p)]->Sync();
    ++log_.window_syncs;
    staged_[static_cast<size_t>(p)] = 0;
    transport_->ReleaseAllDelivered(p);
    delivered_[static_cast<size_t>(p)].clear();
    log_.lines.push_back(Format("sync p%d w=%lld n=%lld", p, static_cast<long long>(staged),
                                static_cast<long long>(committed_count_[static_cast<size_t>(p)])));
  }

  // Mirrors ScriptReplay's round (same participant selection, prepare/ack
  // bracketing, initiator last).
  void CoordinatedCommit(int initiator, ftx_proto::CoordinationScope scope) {
    ++log_.coordinated_rounds;
    const int64_t group = next_group_++;
    ftx_proto::ParticipantQuery query;
    query.num_processes = num_processes_;
    query.has_uncommitted_nd = [this](int pid) {
      return protocols_[static_cast<size_t>(pid)]->HasUncommittedNd();
    };
    query.communicated = [this](int pid) -> const ftx_proto::CommunicationRecord& {
      return communicated_[static_cast<size_t>(pid)];
    };
    for (int pid : ftx_proto::CoordinationParticipants(initiator, scope, query)) {
      const int64_t prepare = next_coord_message_++;
      log_.lines.push_back(Format("2pc-prep p%d->p%d m=%lld", initiator, pid,
                                  static_cast<long long>(prepare)));
      Commit(pid, group);
      const int64_t ack = next_coord_message_++;
      log_.lines.push_back(
          Format("2pc-ack p%d->p%d m=%lld", pid, initiator, static_cast<long long>(ack)));
    }
    Commit(initiator, group);
  }

  void CrashAndRecover(int p) {
    // The failure arrives while a commit is in flight: the record reaches
    // the medium's buffer, the kill fires before the sync, the process dies
    // and its unsynced bytes die with it.
    if (kills_[static_cast<size_t>(p)] != nullptr) {
      kills_[static_cast<size_t>(p)]->armed.store(true);
    }
    const bool survived = CommitThroughMedium(p);
    FTX_CHECK(!survived || kills_[static_cast<size_t>(p)] == nullptr);
    media_[static_cast<size_t>(p)]->CrashDropBuffered();
    if (kills_[static_cast<size_t>(p)] != nullptr) {
      kills_[static_cast<size_t>(p)]->armed.store(false);
    }

    // Staged group-commit records (appended, never synced) died with the
    // buffer: the commit count rolls back to the durable prefix — the
    // all-or-prefix survivor semantics of a batched window.
    committed_count_[static_cast<size_t>(p)] -= staged_[static_cast<size_t>(p)];
    staged_[static_cast<size_t>(p)] = 0;

    // Recovery, phase 1: the durable log must contain exactly the committed
    // records — nothing torn, nothing lost.
    ftx::Bytes durable;
    media_[static_cast<size_t>(p)]->ReadDurable(&durable);
    const int64_t records = CountCommitRecords(durable, p);
    if (records != committed_count_[static_cast<size_t>(p)]) {
      ++log_.durable_mismatches;
    }

    // Phase 2: redoable receives — every uncommitted delivery must come back
    // in original order with identical id and payload.
    transport_->RequeueRetained(p);
    int64_t redelivered = 0;
    for (const Message& expected : delivered_[static_cast<size_t>(p)]) {
      std::optional<Message> msg = transport_->Deliver(p);
      if (!msg.has_value() || msg->id != expected.id || msg->payload != expected.payload) {
        ++log_.transport_mismatches;
      } else {
        ++redelivered;
      }
    }

    // Rollback: the protocol and communication state return to the last
    // committed point (the decision sequence does not re-execute from
    // there; see the header).
    protocols_[static_cast<size_t>(p)]->OnCommitted();
    communicated_[static_cast<size_t>(p)].Clear();
    ++log_.rollbacks;
    log_.lines.push_back(Format("rollback p%d durable=%lld redelivered=%lld", p,
                                static_cast<long long>(records),
                                static_cast<long long>(redelivered)));
  }

  const std::vector<ftx_sm::ScriptedEvent>& script_;
  const int num_processes_;
  const int64_t batch_records_;
  Clock* clock_;
  Transport* transport_;
  std::vector<StableMedium*> media_;
  std::vector<KillSwitch*> kills_;
  std::function<void()> quiesce_;

  std::vector<std::unique_ptr<ftx_proto::Protocol>> protocols_;
  std::vector<ftx_proto::CommunicationRecord> communicated_;
  std::vector<int64_t> committed_count_;
  std::vector<int64_t> staged_;  // open-window records per process (batched)
  // Unlogged deliveries since each process's last commit (what a rollback
  // must see redelivered).
  std::vector<std::vector<Message>> delivered_;
  std::map<int64_t, int> sender_of_;
  std::map<int64_t, int> receiver_of_;
  std::map<int64_t, int64_t> transport_id_;  // script message id -> transport id
  int64_t next_coord_message_ = 1LL << 40;
  int64_t next_group_ = 1;
  DecisionLog log_;
};

// Grants script indices to process threads strictly in order.
class TurnKeeper {
 public:
  void WaitFor(size_t index) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return next_ == index; });
  }
  void Advance() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++next_;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t next_ = 0;
};

}  // namespace

std::string DecisionLog::Canonical() const {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

uint32_t DecisionLog::Crc() const {
  const std::string text = Canonical();
  return ftx::Crc32(text.data(), text.size());
}

std::vector<ftx_sm::ScriptedEvent> InjectCrashes(std::vector<ftx_sm::ScriptedEvent> script,
                                                 int num_crashes, uint64_t seed,
                                                 int num_processes) {
  ftx::Rng rng(seed);
  if (script.empty()) return script;
  for (int i = 0; i < num_crashes; ++i) {
    ftx_sm::ScriptedEvent crash;
    crash.process =
        static_cast<ftx_sm::ProcessId>(rng.NextBounded(static_cast<uint64_t>(num_processes)));
    crash.kind = ftx_sm::EventKind::kCrash;
    const size_t position = 1 + static_cast<size_t>(rng.NextBounded(script.size()));
    script.insert(script.begin() + static_cast<ptrdiff_t>(position), crash);
  }
  return script;
}

DecisionLog RunScriptOnSim(const std::vector<ftx_sm::ScriptedEvent>& script,
                           const ScriptRunOptions& options) {
  ftx_sim::Simulator sim(options.sim_seed);
  // Zero jitter + fixed-size payloads: arrival order equals send order, the
  // same guarantee ChannelTransport gives, so the comparison isolates the
  // backend substrate rather than fabric scheduling.
  ftx_sim::NetworkOptions net_options;
  net_options.max_jitter = ftx::Duration();
  ftx_sim::Network network(&sim, options.num_processes, net_options);
  SimClock clock(&sim);
  SimTransport transport(&network);

  std::vector<std::unique_ptr<MemMedium>> media;
  std::vector<std::unique_ptr<KillSwitch>> kills;
  std::vector<StableMedium*> media_ptrs;
  std::vector<KillSwitch*> kill_ptrs;
  for (int p = 0; p < options.num_processes; ++p) {
    media.push_back(std::make_unique<MemMedium>());
    kills.push_back(std::make_unique<KillSwitch>());
    media_ptrs.push_back(media.back().get());
    kill_ptrs.push_back(kills.back().get());
  }

  ScriptExecutor executor(script, options, &clock, &transport, media_ptrs, kill_ptrs,
                          [&sim] { sim.RunUntilIdle(); });
  for (size_t i = 0; i < script.size(); ++i) {
    executor.ExecuteEvent(i);
    // Each scripted event occupies its own sim tick. Two sends at the same
    // timestamp would trip Network's per-channel FIFO collision bump (+1ns),
    // which can push a message past a later cross-channel send — an arrival
    // order the synchronous ChannelTransport can never produce.
    sim.ScheduleAfter(ftx::Microseconds(1), [] {});
    sim.RunUntilIdle();
  }
  executor.FinishWindows();
  return executor.TakeLog();
}

DecisionLog RunScriptOnThreads(const std::vector<ftx_sm::ScriptedEvent>& script,
                               const ScriptRunOptions& options) {
  RealClock clock;
  ChannelTransport transport(options.num_processes, &clock);

  std::vector<std::unique_ptr<FileMedium>> media;
  std::vector<std::unique_ptr<KillSwitch>> kills;
  std::vector<StableMedium*> media_ptrs;
  std::vector<KillSwitch*> kill_ptrs;
  for (int p = 0; p < options.num_processes; ++p) {
    media.push_back(std::make_unique<FileMedium>("ftx-equiv-p" + std::to_string(p)));
    kills.push_back(std::make_unique<KillSwitch>());
    media_ptrs.push_back(media.back().get());
    kill_ptrs.push_back(kills.back().get());
  }

  ScriptExecutor executor(script, options, &clock, &transport, media_ptrs, kill_ptrs, [] {});
  TurnKeeper turns;
  std::vector<std::thread> workers;
  for (int pid = 0; pid < options.num_processes; ++pid) {
    workers.emplace_back([&, pid] {
      for (size_t i = 0; i < script.size(); ++i) {
        if (script[i].process != pid) continue;
        turns.WaitFor(i);
        executor.ExecuteEvent(i);
        turns.Advance();
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  executor.FinishWindows();
  return executor.TakeLog();
}

}  // namespace ftx::env
