// Simulated-timeline tracer with Chrome trace_event export.
//
// Records spans (begin/end pairs) and instants stamped with ftx::SimTime,
// one logical track per (process, lane). A lane is a synthetic "thread"
// that groups one class of activity — steps, commits, recovery, 2PC — so
// that spans within a lane never overlap and the exported B/E events are
// balanced by construction. Exported files follow the Chrome trace_event
// JSON Array/Object format and open directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
//
// Because all experiments run on a discrete-event simulator, span begin/end
// times are supplied by the caller: a commit that "costs" 40 ms occupies
// [Now()+accrued, Now()+accrued+cost) on the simulated timeline even though
// the simulator clock only advances between callbacks.
//
// The tracer is disabled by default; recording while disabled is a cheap
// no-op so instrumentation can stay unconditional on hot paths.

#ifndef FTX_SRC_OBS_TRACE_EVENT_H_
#define FTX_SRC_OBS_TRACE_EVENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/obs/json.h"

namespace ftx_obs {

// Synthetic thread ids: one track per activity class per process.
enum class TraceLane : int {
  kStep = 0,      // application steps
  kStorage = 1,   // commits, ND-log flushes, redo appends
  kRecovery = 2,  // crashes, rollbacks, recovery, restarts
  kCoordination = 3,  // 2PC rounds
};

const char* TraceLaneName(TraceLane lane);

struct TraceEvent {
  char phase = 'i';  // 'B', 'E', 'i' (instant), 's'/'f' (flow), 'C' (counter)
  int pid = 0;
  TraceLane lane = TraceLane::kStep;
  const char* category = "";
  std::string name;
  int64_t ts_ns = 0;
  int64_t seq = 0;  // recording order; tie-break for equal timestamps
  // Flow binding id for 's'/'f' phases; -1 otherwise. A flow start and its
  // finish pair up on (category, name, flow_id).
  int64_t flow_id = -1;
  // Counter series for 'C' phases (name -> sampled value), empty otherwise.
  std::vector<std::pair<std::string, double>> counter_values{};
};

class Tracer {
 public:
  void SetEnabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Records a [begin, end) span on the process's lane. Zero-length spans
  // are recorded with begin == end and stay balanced in the export.
  void Span(int pid, TraceLane lane, const char* category, std::string name,
            ftx::TimePoint begin, ftx::TimePoint end);

  // Records a point event.
  void Instant(int pid, TraceLane lane, const char* category, std::string name, ftx::TimePoint at);

  // Records one end of a flow arrow (Perfetto draws start -> finish). The
  // two ends pair on (category, name, flow_id); flow_id must be >= 0. The
  // finish is emitted with "bp":"e" so the arrow binds to the enclosing
  // slice (or the instant point) at each end.
  void FlowStart(int pid, TraceLane lane, const char* category, std::string name,
                 ftx::TimePoint at, int64_t flow_id);
  void FlowFinish(int pid, TraceLane lane, const char* category, std::string name,
                  ftx::TimePoint at, int64_t flow_id);

  // Records a 'C' counter sample: one stacked counter track per (pid, name)
  // with one series per (series name, value) pair.
  void CounterSample(int pid, const char* category, std::string name, ftx::TimePoint at,
                     std::vector<std::pair<std::string, double>> values);

  size_t size() const { return events_.size(); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

  // Chrome trace_event JSON Object Format: {"traceEvents": [...],
  // "displayTimeUnit": "ms"}. Events are sorted by (timestamp, recording
  // order), timestamps are emitted in microseconds (fractional), and
  // thread-name metadata is included for every lane in use.
  Json ToChromeTrace() const;
  std::string ToChromeTraceJson() const { return ToChromeTrace().Dump(1); }
  ftx::Status WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  int64_t next_seq_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace ftx_obs

#endif  // FTX_SRC_OBS_TRACE_EVENT_H_
