// The benchmark's four workloads. Each is a fixed cycle of ops that the
// benchmark runs closed-loop, one op after the other on one thread, through
// the public entry points the benches use. Every op checks its own output
// and folds the simulated statistics it produced into a digest.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct OpResult {
  bool ok = true;
  std::string failure;  // first failed check, empty when ok
  // FNV-1a over the op's simulated statistics (commits, sim events, end
  // times, redo bytes, the paper's numerators). Same seed, same digest.
  uint64_t digest = 0;
  // Simulated events and raw host time of the Computation::Run calls the
  // benchmark makes itself (zero where the op's runs are inside a library
  // entry point that does not expose them).
  double sim_events = 0.0;
  double run_raw_ns = 0.0;
  // Per-layer counts of this op (metric name -> count).
  std::map<std::string, double> counts;

  void Fail(const std::string& why) {
    if (ok) {
      failure = why;
    }
    ok = false;
  }
};

struct WorkloadOptions {
  uint64_t seed = 1;
  bool small = false;  // the self-test size
  bool trace = false;  // wrap apps in the host-only timing decorator
};

class Workload {
 public:
  explicit Workload(const WorkloadOptions& options) : options_(options) {}
  virtual ~Workload() = default;

  // The traced phase wraps apps in the timing decorator; the plain phase
  // does not. Simulated results must not differ.
  void set_trace(bool trace) { options_.trace = trace; }

  // Ops per cycle; op i runs cycle position i % cycle().
  virtual int cycle() const = 0;
  // References, calibration runs and anything else the ops need. May run
  // more than once (set-up is repeated to take its median).
  virtual void SetUp() = 0;
  virtual OpResult RunOp(int64_t index) = 0;
  // Ops the set-up runs as its warm-up (positions 0, 1, ...).
  virtual int warmup_ops() const { return 1; }
  // Name of the op at a cycle position, for failure reports.
  virtual std::string OpName(int position) const = 0;
  // Runs once per run, after the timed phases and outside every timed
  // interval: the trials that reproduce a defect of the program recorded in
  // perfbench/baseline.json ("known_defects"). Appends one line per trial
  // that still shows its recorded signature to `reproduced`, and one per
  // trial that fails any other way to `failures`.
  virtual void CheckKnownDefects(std::vector<std::string>* /*reproduced*/,
                                 std::vector<std::string>* /*failures*/) {}

 protected:
  WorkloadOptions options_;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, const WorkloadOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
