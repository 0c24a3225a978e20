// Drift calibration: every host time the benchmark reports is
//
//     calibrated = raw × R0 / R(t)
//
// where R(t) is the mean of the two reference slices on either side of the
// measured interval and R0 is the slice's median on the reference host when
// the baseline was taken (pinned in perfbench/baseline.json, never
// re-measured inside a run). A host that is slower right now makes the slice
// and the op slower by about the same factor, so the ratio cancels. On a
// quiet reference host R(t) == R0 and calibrated == raw.

#ifndef PERFBENCH_CALIB_H_
#define PERFBENCH_CALIB_H_

#include <cstddef>
#include <vector>

namespace perfbench {

inline double Calibrate(double raw, double r0, double slice_before, double slice_after) {
  return raw * r0 / (0.5 * (slice_before + slice_after));
}

// A raw interval and the indices of the slices that bracket it (after = -1
// until the next slice runs).
struct Interval {
  double raw_ns = 0.0;
  int before = -1;
  int after = -1;
};

// The slices of one run, in order, and the intervals they bracket.
class SliceLog {
 public:
  explicit SliceLog(double r0_ns) : r0_ns_(r0_ns) {}

  // Records a slice's raw time; closes every interval still open.
  void AddSlice(double slice_ns) {
    slices_.push_back(slice_ns);
    const int index = static_cast<int>(slices_.size()) - 1;
    for (size_t i = first_open_; i < intervals_.size(); ++i) {
      intervals_[i].after = index;
    }
    first_open_ = intervals_.size();
  }

  // Opens an interval measured since the latest slice; returns its id.
  int AddInterval(double raw_ns) {
    intervals_.push_back(Interval{raw_ns, static_cast<int>(slices_.size()) - 1, -1});
    return static_cast<int>(intervals_.size()) - 1;
  }

  bool closed(int id) const { return intervals_[static_cast<size_t>(id)].after >= 0; }
  double raw(int id) const { return intervals_[static_cast<size_t>(id)].raw_ns; }
  // raw × R0 / R(t) for a closed interval.
  double calibrated(int id) const { return raw(id) * factor(id); }
  // R0 / R(t) for a closed interval: the factor that turns its raw time, or
  // any raw part of it, into calibrated time.
  double factor(int id) const {
    const Interval& iv = intervals_[static_cast<size_t>(id)];
    return Calibrate(1.0, r0_ns_, slices_[static_cast<size_t>(iv.before)],
                     slices_[static_cast<size_t>(iv.after)]);
  }

  double r0_ns() const { return r0_ns_; }
  const std::vector<double>& slices() const { return slices_; }

 private:
  double r0_ns_;
  std::vector<double> slices_;
  std::vector<Interval> intervals_;
  size_t first_open_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIB_H_
