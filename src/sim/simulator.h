// Deterministic discrete-event simulator.
//
// All experiments run on simulated time: callbacks ordered by (time, seq),
// where seq is a single global schedule counter. Ties break by that counter
// — insertion order — so a run is a pure function of the seed, the property
// every recovery experiment relies on for reproducing executions before and
// after injected failures. Every event, whichever process it belongs to,
// lives in one (time, seq) heap.

#ifndef FTX_SRC_SIM_SIMULATOR_H_
#define FTX_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/obs/metrics.h"

namespace ftx_sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  ftx::TimePoint Now() const { return now_; }
  ftx::Rng& rng() { return rng_; }

  // Pre-event hook: invoked in RunOne with the event time AFTER the next
  // event is picked but BEFORE the clock advances and the callback runs. At
  // that instant the simulation state is exactly the state after all events
  // at earlier times — the hook is how the tsdb samples cadence boundaries
  // lazily (O(boundary crossings), not O(events)). The hook must only READ
  // state: it runs outside simulated time and must never schedule events,
  // touch the RNG, or mutate anything the simulation observes — the
  // telemetry-neutrality goldens pin this. Unset (the default) costs one
  // branch per event.
  void SetEventHook(std::function<void(ftx::TimePoint)> hook) { event_hook_ = std::move(hook); }

  // Exposes the simulator's activity counters and clock through a metrics
  // registry ("sim.events_executed", "sim.events_scheduled", "sim.now_s").
  // The simulator must outlive the registry's snapshots.
  void BindMetrics(ftx_obs::Registry* registry);

  // Schedules fn to run at absolute time t (>= Now()).
  void ScheduleAt(ftx::TimePoint t, std::function<void()> fn);
  void ScheduleAfter(ftx::Duration d, std::function<void()> fn);

  // Executes the next pending callback — the least (time, seq) — advancing
  // the clock to its time. Returns false when the queue is empty.
  bool RunOne();

  // Runs callbacks until the queue is empty or the next callback is
  // scheduled after `deadline` (the clock is then left at the last executed
  // event's time).
  void RunUntil(ftx::TimePoint deadline);

  // Runs until the queue drains. `max_events` guards against runaway loops
  // in tests; exceeding it aborts.
  void RunUntilIdle(int64_t max_events = 100000000);

  int64_t events_executed() const { return events_executed_; }
  bool HasPending() const { return !queue_.empty(); }

 private:
  struct Scheduled {
    ftx::TimePoint time;
    int64_t seq;  // global schedule id — the same-time tiebreak
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  ftx::TimePoint now_;
  int64_t next_seq_ = 0;
  int64_t events_executed_ = 0;
  std::function<void(ftx::TimePoint)> event_hook_;
  std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue_;
  ftx::Rng rng_;
};

}  // namespace ftx_sim

#endif  // FTX_SRC_SIM_SIMULATOR_H_
