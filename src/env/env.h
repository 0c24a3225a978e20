// Backend-agnostic execution environment seam.
//
// The Discount Checking runtime (ftx_dc::Runtime) and the Save-work drivers
// were written against the discrete-event simulator directly; this header
// extracts the three capabilities they actually consume — a clock, a message
// transport with recovery-buffer semantics, and a durable append medium —
// into small virtual interfaces so the same runtime can execute on different
// substrates:
//
//   env::sim      adapters over ftx_sim (src/env/sim_env.h). Pure forwarding:
//                 every simulated quantity, golden output, torture state and
//                 causal-audit report stays byte-identical. The simulator
//                 remains the deterministic oracle.
//   env::threads  real std::thread processes (src/env/thread_env.h): an
//                 in-process channel transport, wall-clock time, a
//                 file-backed stable medium whose unsynced writes genuinely
//                 die with the process (kill-flag crash injection).
//
// Interface contracts (what every backend must guarantee):
//
//   Clock         Now() is monotone non-decreasing. Charge(d) accounts d of
//                 execution cost (sim: no-op — cost is charged by scheduling;
//                 threads: accumulates into Now). NextNoise(bound) is the
//                 backend's perturbation source for transient-ND events.
//   Transport     FIFO per (src, dst); Send returns a transport-assigned id
//                 that is strictly increasing in global send order. Delivered
//                 messages are RETAINED per receiver until ReleaseAllDelivered
//                 (commit) and re-queued in original order by RequeueRetained
//                 (rollback) — the paper's redoable-receive property (§2.1).
//                 DropNewestRetained forgets the newest retained message (a
//                 logged receive is replayed from the ND log, not the buffer).
//   StableMedium  Append buffers bytes volatilely; only Sync makes the bytes
//                 durable. CrashDropBuffered models process/OS death: every
//                 byte appended since the last Sync is lost. ReadDurable
//                 returns exactly the synced prefix.
//
// Environment aggregates the per-process dependency set the runtime needs;
// the Runtime constructor checks every required field and names any that
// is missing.

#ifndef FTX_SRC_ENV_ENV_H_
#define FTX_SRC_ENV_ENV_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/sim_time.h"

namespace ftx_sim {
class KernelSim;
}  // namespace ftx_sim
namespace ftx_sm {
class Trace;
}  // namespace ftx_sm
namespace ftx_rec {
class OutputRecorder;
}  // namespace ftx_rec
namespace ftx_store {
class StableStore;
class RedoLog;
class CommitPipeline;
}  // namespace ftx_store
namespace ftx_obs {
class Registry;
class Tracer;
}  // namespace ftx_obs
namespace ftx_causal {
class CausalAudit;
}  // namespace ftx_causal
namespace ftx_proto {
enum class CoordinationScope;
}  // namespace ftx_proto

namespace ftx::env {

// A message in flight or delivered. Formerly ftx_sim::Message; the sim
// namespace keeps an alias so existing applications compile unchanged.
struct Message {
  int64_t id = -1;
  int src = -1;
  int dst = -1;
  ftx::Bytes payload;
  ftx::TimePoint sent_at;
  ftx::TimePoint delivered_at;
};

// Time source + execution-cost accounting.
class Clock {
 public:
  virtual ~Clock() = default;

  // Current time. Monotone non-decreasing.
  virtual ftx::TimePoint Now() const = 0;

  // Accounts `work` of execution cost. The sim backend ignores this (cost is
  // charged by scheduling the next step later); the threads backend folds it
  // into Now so charged virtual work is visible in timestamps.
  virtual void Charge(ftx::Duration work) = 0;

  // Perturbation source for transient-ND events (gettimeofday noise).
  // Uniform in [0, bound). The sim backend draws from the simulator's RNG
  // stream so replacing direct rng use is byte-identical.
  virtual uint64_t NextNoise(uint64_t bound) = 0;
};

// Message fabric with the recovery-buffer semantics recovery depends on.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int num_processes() const = 0;

  // Queues a message for delivery; returns its id (strictly increasing in
  // global send order).
  virtual int64_t Send(int src, int dst, ftx::Bytes payload) = 0;

  // True if a message is waiting in dst's inbox right now.
  virtual bool HasPending(int dst) const = 0;

  // Pops the next message for dst (a receive event); the message moves to
  // dst's recovery buffer. nullopt if the inbox is empty.
  virtual std::optional<Message> Deliver(int dst) = 0;

  // MSG_PEEK: next message for dst without consuming it, or nullptr.
  virtual const Message* PeekNext(int dst) const = 0;

  // dst committed: every message it has consumed is covered by the commit,
  // so all retained copies are discarded.
  virtual void ReleaseAllDelivered(int dst) = 0;

  // A just-delivered message was captured in dst's ND log; it must not ALSO
  // be redelivered from the recovery buffer on rollback. `message_id` must
  // be the newest retained message.
  virtual void DropNewestRetained(int dst, int64_t message_id) = 0;

  // dst rolled back: retained messages return to the *front* of its inbox in
  // original delivery order so reexecution re-receives them.
  virtual void RequeueRetained(int dst) = 0;

  // Invoked whenever a message lands in dst's inbox (blocked receivers wake
  // on it). One callback per process.
  virtual void SetArrivalCallback(int dst, std::function<void()> callback) = 0;
};

// Durable append medium with an explicit volatile/durable boundary.
class StableMedium {
 public:
  virtual ~StableMedium() = default;

  virtual std::string_view name() const = 0;

  // Buffers bytes. NOT durable until Sync.
  virtual void Append(const void* data, size_t size) = 0;

  // Makes every buffered byte durable.
  virtual void Sync() = 0;

  // Crash model: the process (or OS) died — all bytes appended since the
  // last Sync are lost.
  virtual void CrashDropBuffered() = 0;

  // Bytes that would survive a crash right now.
  virtual int64_t durable_bytes() const = 0;

  // Reads back exactly the durable prefix (what recovery sees).
  virtual void ReadDurable(ftx::Bytes* out) const = 0;

  // Discards all state, durable included (test reset / reformat).
  virtual void Reset() = 0;
};

// Crash injection flag shared between a process and its killer. When armed,
// the commit path dies between buffering a record and syncing it — the
// classic torn-commit window. Both backends honor it so crash handling is
// one code path; under env::threads the killer is genuinely another thread.
struct KillSwitch {
  std::atomic<bool> armed{false};
};

// Per-process dependency set for ftx_dc::Runtime.
//
// clock/transport/kernel/recorder are required for every runtime; trace and
// store are additionally required for recoverable modes, and a recoverable
// DC-disk runtime (redo_log set) needs its commit_pipeline. The Runtime
// constructor enforces all of this and names the missing field. Everything
// else is optional.
struct Environment {
  Clock* clock = nullptr;
  Transport* transport = nullptr;
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

}  // namespace ftx::env

#endif  // FTX_SRC_ENV_ENV_H_
