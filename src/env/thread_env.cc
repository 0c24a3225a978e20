#include "src/env/thread_env.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/common/check.h"

namespace ftx::env {

// --- RealClock ---

RealClock::RealClock(uint64_t noise_seed)
    : origin_(std::chrono::steady_clock::now()), rng_(noise_seed) {}

ftx::TimePoint RealClock::Now() const {
  const auto elapsed = std::chrono::steady_clock::now() - origin_;
  const int64_t wall_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  std::lock_guard<std::mutex> lock(mu_);
  return ftx::TimePoint{wall_ns + charged_ns_};
}

void RealClock::Charge(ftx::Duration work) {
  if (work.nanos() <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  charged_ns_ += work.nanos();
}

uint64_t RealClock::NextNoise(uint64_t bound) {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextBounded(bound);
}

// --- ChannelTransport ---

ChannelTransport::ChannelTransport(int num_processes, Clock* clock)
    : clock_(clock),
      inbox_(static_cast<size_t>(num_processes)),
      recovery_buffer_(static_cast<size_t>(num_processes)),
      arrival_callback_(static_cast<size_t>(num_processes)) {
  FTX_CHECK(num_processes > 0);
}

int ChannelTransport::num_processes() const { return static_cast<int>(inbox_.size()); }

int64_t ChannelTransport::Send(int src, int dst, ftx::Bytes payload) {
  std::function<void()> callback;
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    FTX_CHECK(dst >= 0 && dst < static_cast<int>(inbox_.size()));
    id = next_message_id_++;
    Message msg;
    msg.id = id;
    msg.src = src;
    msg.dst = dst;
    msg.payload = std::move(payload);
    if (clock_ != nullptr) {
      msg.sent_at = clock_->Now();
      msg.delivered_at = msg.sent_at;
    }
    inbox_[static_cast<size_t>(dst)].push_back(std::move(msg));
    callback = arrival_callback_[static_cast<size_t>(dst)];
  }
  if (callback) callback();
  return id;
}

bool ChannelTransport::HasPending(int dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  return !inbox_[static_cast<size_t>(dst)].empty();
}

std::optional<Message> ChannelTransport::Deliver(int dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& inbox = inbox_[static_cast<size_t>(dst)];
  if (inbox.empty()) return std::nullopt;
  Message msg = std::move(inbox.front());
  inbox.pop_front();
  if (clock_ != nullptr) msg.delivered_at = clock_->Now();
  recovery_buffer_[static_cast<size_t>(dst)].push_back(msg);
  return msg;
}

const Message* ChannelTransport::PeekNext(int dst) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto& inbox = inbox_[static_cast<size_t>(dst)];
  if (inbox.empty()) return nullptr;
  // Safe to hand out: deques do not relocate the front element until it is
  // popped, and the seam's contract is "valid until the next transport call
  // for dst" (same as ftx_sim::Network).
  return &inbox.front();
}

void ChannelTransport::ReleaseAllDelivered(int dst) {
  std::lock_guard<std::mutex> lock(mu_);
  recovery_buffer_[static_cast<size_t>(dst)].clear();
}

void ChannelTransport::DropNewestRetained(int dst, int64_t message_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& retained = recovery_buffer_[static_cast<size_t>(dst)];
  FTX_CHECK(!retained.empty());
  FTX_CHECK(retained.back().id == message_id);
  retained.pop_back();
}

void ChannelTransport::RequeueRetained(int dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& retained = recovery_buffer_[static_cast<size_t>(dst)];
  auto& inbox = inbox_[static_cast<size_t>(dst)];
  // Original delivery order, ahead of anything that arrived since.
  for (auto it = retained.rbegin(); it != retained.rend(); ++it) {
    inbox.push_front(*it);
  }
  retained.clear();
}

void ChannelTransport::SetArrivalCallback(int dst, std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(mu_);
  arrival_callback_[static_cast<size_t>(dst)] = std::move(callback);
}

int64_t ChannelTransport::total_messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_message_id_;
}

// --- FileMedium ---

FileMedium::FileMedium(const std::string& tag) {
  const char* tmpdir = std::getenv("TMPDIR");
  std::string templ = std::string(tmpdir != nullptr ? tmpdir : "/tmp") + "/" + tag + ".XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  fd_ = ::mkstemp(buf.data());
  FTX_CHECK_MSG(fd_ >= 0, "FileMedium: mkstemp('%s') failed", templ.c_str());
  path_.assign(buf.data());
}

FileMedium::~FileMedium() {
  if (fd_ >= 0) ::close(fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

void FileMedium::Append(const void* data, size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto* bytes = static_cast<const uint8_t*>(data);
  buffered_.insert(buffered_.end(), bytes, bytes + size);
}

void FileMedium::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t written = 0;
  while (written < buffered_.size()) {
    const ssize_t n = ::pwrite(fd_, buffered_.data() + written, buffered_.size() - written,
                               static_cast<off_t>(durable_bytes_) + static_cast<off_t>(written));
    FTX_CHECK_MSG(n > 0, "FileMedium: pwrite(%s) failed", path_.c_str());
    written += static_cast<size_t>(n);
  }
  FTX_CHECK(::fsync(fd_) == 0);
  durable_bytes_ += static_cast<int64_t>(buffered_.size());
  buffered_.clear();
}

void FileMedium::CrashDropBuffered() {
  std::lock_guard<std::mutex> lock(mu_);
  buffered_.clear();
}

int64_t FileMedium::durable_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_bytes_;
}

void FileMedium::ReadDurable(ftx::Bytes* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->assign(static_cast<size_t>(durable_bytes_), 0);
  size_t done = 0;
  while (done < out->size()) {
    const ssize_t n =
        ::pread(fd_, out->data() + done, out->size() - done, static_cast<off_t>(done));
    FTX_CHECK_MSG(n > 0, "FileMedium: pread(%s) failed", path_.c_str());
    done += static_cast<size_t>(n);
  }
}

void FileMedium::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  buffered_.clear();
  durable_bytes_ = 0;
  FTX_CHECK(::ftruncate(fd_, 0) == 0);
}

int64_t FileMedium::buffered_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(buffered_.size());
}

}  // namespace ftx::env
