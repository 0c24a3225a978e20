// env::threads — a real-execution backend for the ftx::env seam.
//
// Processes are std::threads, time is the host's steady clock, messages move
// through an in-process channel transport (mutex + condition variable), and
// the stable medium is a host temp file whose unsynced appends are genuinely
// lost when the process is killed: Append only buffers in memory; Sync
// write(2)s + fsync(2)s; a kill between the two drops the buffer, exactly
// the torn-commit window the paper's recovery protocols must tolerate.
//
// What this backend guarantees (and what it does not):
//   - ChannelTransport preserves FIFO per (src, dst) and, because sends
//     enqueue synchronously, global arrival order equals global send order.
//     Recovery-buffer semantics (retain / release / requeue / drop-newest)
//     are identical to ftx_sim::Network.
//   - RealClock is monotone and folds Charge()d virtual work into Now, so
//     charged costs remain visible in timestamps; NextNoise draws from a
//     seeded local stream (wall-clock noise is not reproducible, seeded
//     noise is).
//   - No global determinism: thread interleaving is the host scheduler's.
//     Deterministic cross-backend comparison comes from driving a scripted
//     event order (src/env/script_runner.h), with the simulator as oracle.

#ifndef FTX_SRC_ENV_THREAD_ENV_H_
#define FTX_SRC_ENV_THREAD_ENV_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/env/env.h"

namespace ftx::env {

// Wall-clock time (steady_clock) plus accumulated Charge()d work, anchored
// at 0 when constructed so timestamps look like the simulator's.
class RealClock final : public Clock {
 public:
  explicit RealClock(uint64_t noise_seed = 0x5eedc10c);

  ftx::TimePoint Now() const override;
  void Charge(ftx::Duration work) override;
  uint64_t NextNoise(uint64_t bound) override;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  int64_t charged_ns_ = 0;
  ftx::Rng rng_;
};

// In-process channel fabric. Thread-safe; delivery is immediate (a Send
// enqueues into dst's inbox before returning), so global arrival order is
// global send order. Recovery-buffer semantics mirror ftx_sim::Network.
class ChannelTransport final : public Transport {
 public:
  ChannelTransport(int num_processes, Clock* clock = nullptr);

  int num_processes() const override;
  int64_t Send(int src, int dst, ftx::Bytes payload) override;
  bool HasPending(int dst) const override;
  std::optional<Message> Deliver(int dst) override;
  const Message* PeekNext(int dst) const override;
  void ReleaseAllDelivered(int dst) override;
  void DropNewestRetained(int dst, int64_t message_id) override;
  void RequeueRetained(int dst) override;
  void SetArrivalCallback(int dst, std::function<void()> callback) override;

  int64_t total_messages() const;

 private:
  mutable std::mutex mu_;
  Clock* clock_;
  int64_t next_message_id_ = 0;
  std::vector<std::deque<Message>> inbox_;
  std::vector<std::deque<Message>> recovery_buffer_;
  std::vector<std::function<void()>> arrival_callback_;
};

// Stable medium backed by a host temp file. Append buffers in memory; Sync
// writes + fsyncs; CrashDropBuffered loses the buffer. durable_bytes() and
// ReadDurable() consult only what actually reached the file.
class FileMedium final : public StableMedium {
 public:
  // Creates (mkstemp) a file under $TMPDIR (default /tmp) named after
  // `tag`. The file is removed on destruction.
  explicit FileMedium(const std::string& tag = "ftx-medium");
  ~FileMedium() override;

  FileMedium(const FileMedium&) = delete;
  FileMedium& operator=(const FileMedium&) = delete;

  std::string_view name() const override { return "file"; }
  void Append(const void* data, size_t size) override;
  void Sync() override;
  void CrashDropBuffered() override;
  int64_t durable_bytes() const override;
  void ReadDurable(ftx::Bytes* out) const override;
  void Reset() override;

  const std::string& path() const { return path_; }
  int64_t buffered_bytes() const;

 private:
  mutable std::mutex mu_;
  std::string path_;
  int fd_ = -1;
  ftx::Bytes buffered_;
  int64_t durable_bytes_ = 0;
};

}  // namespace ftx::env

#endif  // FTX_SRC_ENV_THREAD_ENV_H_
