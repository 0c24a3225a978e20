#include "src/sim/simulator.h"

#include <utility>

#include "src/common/check.h"
#include "src/common/log.h"

namespace ftx_sim {

Simulator::Simulator(uint64_t seed) : rng_(seed) {
  // While this simulator lives, log lines carry its simulated clock.
  ftx::SetLogSimTimeSource(this, [](const void* owner) {
    return static_cast<const Simulator*>(owner)->Now().nanos();
  });
}

Simulator::~Simulator() { ftx::ClearLogSimTimeSource(this); }

void Simulator::BindMetrics(ftx_obs::Registry* registry) {
  registry->RegisterCounterProbe("sim.events_executed", [this]() { return events_executed_; });
  registry->RegisterCounterProbe("sim.events_scheduled", [this]() { return next_seq_; });
  registry->RegisterGaugeProbe("sim.now_s", [this]() { return now_.seconds(); });
}

void Simulator::ScheduleAt(ftx::TimePoint t, std::function<void()> fn) {
  FTX_CHECK_MSG(t >= now_, "scheduling into the past: %s < %s", t.ToString().c_str(),
                now_.ToString().c_str());
  queue_.push(Scheduled{t, next_seq_++, std::move(fn)});
}

void Simulator::ScheduleAfter(ftx::Duration d, std::function<void()> fn) {
  FTX_CHECK_GE(d.nanos(), 0);
  ScheduleAt(now_ + d, std::move(fn));
}

bool Simulator::RunOne() {
  if (queue_.empty()) {
    return false;
  }
  if (event_hook_) {
    // Observation point: state after all earlier events, before this one.
    event_hook_(queue_.top().time);
  }
  // priority_queue::top is const; the callback is moved out via const_cast,
  // which is safe because the element is popped immediately after.
  auto& top = const_cast<Scheduled&>(queue_.top());
  now_ = top.time;
  std::function<void()> fn = std::move(top.fn);
  queue_.pop();
  ++events_executed_;
  fn();
  return true;
}

void Simulator::RunUntil(ftx::TimePoint deadline) {
  while (!queue_.empty() && queue_.top().time <= deadline) {
    RunOne();
  }
}

void Simulator::RunUntilIdle(int64_t max_events) {
  int64_t executed = 0;
  while (RunOne()) {
    FTX_CHECK_MSG(++executed <= max_events, "simulator exceeded %lld events; runaway loop?",
                  static_cast<long long>(max_events));
  }
}

}  // namespace ftx_sim
