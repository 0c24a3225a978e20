// Tracing for the per-layer run. Everything here is host-only: it times the
// benchmark's calls into each layer and the app's calls into the runtime, and
// never changes a simulated quantity (the traced run must reproduce the
// plain run's digest).
//
// Spans are ftx_prof scopes, so they nest with the scopes the program
// already has (commit*, recover*, barrier.first_touch, logimage.*,
// torture.*) in one call tree per op. The coarse benchmark-level spans are
// also kept in memory as a span log and written out when the run ends.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/checkpoint/app.h"
#include "src/obs/prof/prof.h"

namespace perfbench {

int64_t NowNs();

// One coarse span: a benchmark call into a layer.
struct SpanRecord {
  int parent = -1;  // index of the enclosing span, -1 for an op root
  const char* name = "";
  int64_t op = -1;  // op index the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// The span log of a traced run. Installed for the traced phase only.
class SpanLog {
 public:
  static void SetActive(SpanLog* log);

  int Open(const char* name);
  void Close(int id);
  void set_op(int64_t op) { op_ = op; }

  // Writes the records as a JSON array of
  // {"id","parent","name","op","start_ns","end_ns"}.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<SpanRecord> records_;
  std::vector<int> open_;
  int64_t op_ = -1;
};

// RAII span around a benchmark call into a layer: an ftx_prof scope (a no-op
// unless a profiler is active) plus a span-log record when a log is active.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ftx_prof::Scope scope_;
  int record_ = -1;
};

// Wraps each app in a host-only decorator that times Step (apps.step) and,
// through a forwarding ProcessEnv, the app's calls into the runtime
// (checkpoint.env_call). Returns the apps unchanged unless `trace` is set.
std::vector<std::unique_ptr<ftx_dc::App>> WrapApps(std::vector<std::unique_ptr<ftx_dc::App>> apps,
                                                   bool trace);
// The app a decorator wraps (the app itself when it is not wrapped).
ftx_dc::App& Unwrap(ftx_dc::App& app);

// The layer quantities of one op's call tree, in raw ns (and counts), keyed
// by per-layer metric name; see layers.cc for the mapping.
std::map<std::string, double> LayerTimes(const ftx_prof::Profile& profile);

// Self time of every profile entry, summed per layer ("bench" is the op
// root's own time: the part of the op no layer covers). The values add up
// to the op root's total.
std::map<std::string, double> LayerSelfTimes(const ftx_prof::Profile& profile);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
