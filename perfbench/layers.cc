#include "layers.h"

#include <chrono>
#include <fstream>
#include <string_view>
#include <utility>

#include "src/obs/json.h"

namespace perfbench {
namespace {

SpanLog* g_span_log = nullptr;

// Forwards every call to the runtime's ProcessEnv, timing the ones that do
// runtime work. Accessors (pid, clock, segment, heap) pass straight through.
class TimedEnv final : public ftx_dc::ProcessEnv {
 public:
  void Bind(ftx_dc::ProcessEnv* inner) { inner_ = inner; }

  int pid() const override { return inner_->pid(); }
  int num_processes() const override { return inner_->num_processes(); }
  ftx::TimePoint Now() const override { return inner_->Now(); }
  ftx_vista::Segment& segment() override { return inner_->segment(); }
  ftx_vista::SegmentHeap& heap() override { return inner_->heap(); }

  ftx::TimePoint GetTimeOfDay() override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->GetTimeOfDay();
  }
  void DeliverSignal() override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    inner_->DeliverSignal();
  }
  std::optional<ftx::Bytes> ReadUserInput() override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->ReadUserInput();
  }
  void Print(ftx::Bytes payload) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    inner_->Print(std::move(payload));
  }
  void Send(int dst, ftx::Bytes payload) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    inner_->Send(dst, std::move(payload));
  }
  std::optional<ftx_sim::Message> TryReceive() override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->TryReceive();
  }
  const ftx_sim::Message* PeekMessage() override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->PeekMessage();
  }
  void Compute(ftx::Duration work) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    inner_->Compute(work);
  }
  ftx::Result<int> Open(const std::string& path, bool writable) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->Open(path, writable);
  }
  ftx::Status Close(int fd) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->Close(fd);
  }
  ftx::Result<int64_t> WriteFile(int fd, int64_t bytes) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->WriteFile(fd, bytes);
  }
  ftx::Status Bind(uint16_t port) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    return inner_->Bind(port);
  }
  void Crash(const std::string& reason) override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    inner_->Crash(reason);
  }
  void MarkFaultActivation() override {
    FTX_PROF_SCOPE("checkpoint.env_call");
    inner_->MarkFaultActivation();
  }

 private:
  ftx_dc::ProcessEnv* inner_ = nullptr;
};

// Host-only App decorator: every entry point runs the wrapped app against
// a TimedEnv inside an apps.step scope.
class TimedApp final : public ftx_dc::App {
 public:
  explicit TimedApp(std::unique_ptr<ftx_dc::App> inner) : inner_(std::move(inner)) {}

  ftx_dc::App& inner() { return *inner_; }

  std::string_view name() const override { return inner_->name(); }
  size_t SegmentBytes() const override { return inner_->SegmentBytes(); }
  int64_t HeapOffset() const override { return inner_->HeapOffset(); }
  int64_t HeapBytes() const override { return inner_->HeapBytes(); }
  ftx_dc::FaultSurface fault_surface() const override { return inner_->fault_surface(); }

  void Init(ftx_dc::ProcessEnv& env) override {
    FTX_PROF_SCOPE("apps.step");
    inner_->Init(Bound(env));
  }
  ftx_dc::StepOutcome Step(ftx_dc::ProcessEnv& env) override {
    FTX_PROF_SCOPE("apps.step");
    return inner_->Step(Bound(env));
  }
  void OnRecovered(ftx_dc::ProcessEnv& env) override {
    FTX_PROF_SCOPE("apps.step");
    inner_->OnRecovered(Bound(env));
  }
  ftx::Status CheckIntegrity(ftx_dc::ProcessEnv& env) override {
    FTX_PROF_SCOPE("apps.step");
    return inner_->CheckIntegrity(Bound(env));
  }

 private:
  ftx_dc::ProcessEnv& Bound(ftx_dc::ProcessEnv& env) {
    env_.Bind(&env);
    return env_;
  }

  std::unique_ptr<ftx_dc::App> inner_;
  TimedEnv env_;
};

// Which per-layer metric each scope's time feeds. Scopes not listed still
// count towards their layer's self time (LayerSelfTimes) and the tiling.
struct LeafMetric {
  const char* leaf;
  const char* metric;
  bool self;  // self time (children excluded) instead of total
};

constexpr LeafMetric kLeafMetrics[] = {
    {"core.build", "core.build_ns", false},
    {"core.run", "core.run_ns", false},
    {"core.run", "core.run_other_ns", true},
    {"core.check", "core.check_ns", false},
    {"statemachine.lose_work_check", "statemachine.lose_work_check_ns", false},
    {"checkpoint.env_call", "checkpoint.env_call_ns", true},
    {"commit", "checkpoint.commit_ns", false},
    {"recover", "checkpoint.recover_ns", false},
    {"barrier.first_touch", "vista.barrier_ns", false},
    {"commit.serialize_crc", "storage.serialize_crc_ns", false},
    {"commit.persist", "storage.persist_ns", false},
    {"commit.window_flush", "storage.window_flush_ns", false},
    {"recover.log_scan", "storage.log_scan_ns", false},
    {"recover.crc_validate", "storage.crc_validate_ns", false},
    {"recover.page_install", "storage.page_install_ns", false},
    {"logimage.decode", "storage.logimage_decode_ns", false},
    {"logimage.slot_select", "storage.slot_select_ns", false},
    {"apps.step", "apps.step_ns", true},
    {"recovery.consistency_check", "recovery.consistency_check_ns", false},
    {"obs.snapshot", "obs.snapshot_ns", false},
    {"obs.critical_path", "obs.critical_path_ns", false},
    {"faults.trial", "faults.trial_ns", false},
    {"torture.explore", "torture.explore_ns", false},
    {"torture.image_check", "torture.image_check_ns", false},
    {"torture.survivor_replay", "torture.survivor_replay_ns", false},
};

std::string_view LeafOf(std::string_view stack) {
  const size_t cut = stack.rfind(';');
  return cut == std::string_view::npos ? stack : stack.substr(cut + 1);
}

// The layer a scope's self time belongs to.
std::string LayerOf(std::string_view leaf) {
  if (leaf == "op") {
    return "bench";
  }
  if (leaf == "commit.serialize_crc" || leaf == "commit.persist" || leaf == "commit.stage" ||
      leaf == "commit.window_flush" || leaf == "recover.log_scan" ||
      leaf == "recover.crc_validate" || leaf == "recover.page_install" ||
      leaf.substr(0, 9) == "logimage.") {
    return "storage";
  }
  if (leaf == "barrier.first_touch") {
    return "vista";
  }
  if (leaf == "commit" || leaf.substr(0, 7) == "commit." || leaf == "recover" ||
      leaf.substr(0, 8) == "recover." || leaf == "checkpoint.env_call") {
    return "checkpoint";
  }
  const size_t dot = leaf.find('.');
  return std::string(dot == std::string_view::npos ? leaf : leaf.substr(0, dot));
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::SetActive(SpanLog* log) { g_span_log = log; }

int SpanLog::Open(const char* name) {
  SpanRecord record;
  record.parent = open_.empty() ? -1 : open_.back();
  record.name = name;
  record.op = op_;
  record.start_ns = NowNs();
  records_.push_back(record);
  open_.push_back(static_cast<int>(records_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int id) {
  records_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

bool SpanLog::WriteJson(const std::string& path) const {
  ftx_obs::Json spans = ftx_obs::Json::Array();
  for (size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    ftx_obs::Json span = ftx_obs::Json::Object();
    span.Set("id", static_cast<int64_t>(i))
        .Set("parent", r.parent)
        .Set("name", r.name)
        .Set("op", r.op)
        .Set("start_ns", r.start_ns)
        .Set("end_ns", r.end_ns);
    spans.Push(std::move(span));
  }
  std::ofstream file(path);
  file << spans.Dump(1) << "\n";
  return static_cast<bool>(file);
}

Span::Span(const char* name) : scope_(name) {
  if (g_span_log != nullptr) {
    record_ = g_span_log->Open(name);
  }
}

Span::~Span() {
  if (record_ >= 0 && g_span_log != nullptr) {
    g_span_log->Close(record_);
  }
}

std::vector<std::unique_ptr<ftx_dc::App>> WrapApps(std::vector<std::unique_ptr<ftx_dc::App>> apps,
                                                   bool trace) {
  if (trace) {
    for (auto& app : apps) {
      app = std::make_unique<TimedApp>(std::move(app));
    }
  }
  return apps;
}

ftx_dc::App& Unwrap(ftx_dc::App& app) {
  if (auto* timed = dynamic_cast<TimedApp*>(&app)) {
    return timed->inner();
  }
  return app;
}

std::map<std::string, double> LayerTimes(const ftx_prof::Profile& profile) {
  std::map<std::string, double> out;
  for (const LeafMetric& m : kLeafMetrics) {
    out[m.metric] = 0.0;
  }
  out["vista.barrier_count"] = 0.0;
  out["apps.steps"] = 0.0;
  for (const ftx_prof::ProfileEntry& entry : profile.entries) {
    const std::string_view leaf = LeafOf(entry.stack);
    for (const LeafMetric& m : kLeafMetrics) {
      if (leaf == m.leaf) {
        out[m.metric] += static_cast<double>(m.self ? entry.self_ns : entry.total_ns);
      }
    }
    if (leaf == "barrier.first_touch") {
      out["vista.barrier_count"] += static_cast<double>(entry.count);
    } else if (leaf == "apps.step") {
      out["apps.steps"] += static_cast<double>(entry.count);
    }
  }
  return out;
}

std::map<std::string, double> LayerSelfTimes(const ftx_prof::Profile& profile) {
  std::map<std::string, double> out;
  for (const ftx_prof::ProfileEntry& entry : profile.entries) {
    out[LayerOf(LeafOf(entry.stack))] += static_cast<double>(entry.self_ns);
  }
  return out;
}

}  // namespace perfbench
