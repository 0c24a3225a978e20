// Visible-output recording.
//
// Consistent recovery is defined entirely in terms of the sequence of
// visible events the user observes (§2.3). The recorder captures every
// visible event a computation emits — across failures and recoveries — so
// the checker can compare a failed-and-recovered run against a failure-free
// one.

#ifndef FTX_SRC_RECOVERY_OUTPUT_RECORDER_H_
#define FTX_SRC_RECOVERY_OUTPUT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/sim_time.h"

namespace ftx_rec {

struct VisibleEvent {
  int process = -1;
  ftx::TimePoint time;
  ftx::Bytes payload;
};

class OutputRecorder {
 public:
  void Record(int process, ftx::TimePoint time, ftx::Bytes payload);

  const std::vector<VisibleEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

  // Payload-only projection for one process (user-observed stream order).
  std::vector<ftx::Bytes> PayloadsOf(int process) const;

 private:
  std::vector<VisibleEvent> events_;
};

}  // namespace ftx_rec

#endif  // FTX_SRC_RECOVERY_OUTPUT_RECORDER_H_
