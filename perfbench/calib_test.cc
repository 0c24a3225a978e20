// Unit test of the drift-calibration arithmetic (calib.h). Exits 0 when
// every check holds; prints the failing check and exits 1 otherwise.

#include <cmath>
#include <cstdio>

#include "calib.h"

namespace {

int g_failures = 0;

void ExpectNear(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::fmax(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++g_failures;
  }
}

}  // namespace

int main() {
  using perfbench::Calibrate;
  using perfbench::SliceLog;

  // A quiet reference host: the slices read R0, so calibrated == raw.
  ExpectNear(Calibrate(120.0, 25.0, 25.0, 25.0), 120.0, "quiet host");
  // The host runs at half speed: slices and op both take twice as long.
  ExpectNear(Calibrate(240.0, 25.0, 50.0, 50.0), 120.0, "uniformly slow host");
  // The bracketing slices differ: R(t) is their mean, (40 + 60) / 2 = 50.
  ExpectNear(Calibrate(200.0, 25.0, 40.0, 60.0), 100.0, "bracketing slices differ");
  ExpectNear(Calibrate(200.0, 25.0, 60.0, 40.0), 100.0, "bracketing order does not matter");

  // SliceLog: every interval opened between two slices is closed by the
  // second one, and uses the mean of exactly those two.
  SliceLog log(/*r0_ns=*/10.0);
  log.AddSlice(10.0);
  const int a = log.AddInterval(30.0);
  const int b = log.AddInterval(50.0);
  if (log.closed(a) || log.closed(b)) {
    std::printf("FAIL intervals closed before the next slice\n");
    ++g_failures;
  }
  log.AddSlice(30.0);  // R(t) = (10 + 30) / 2 = 20
  const int c = log.AddInterval(40.0);
  log.AddSlice(10.0);  // R(t) = (30 + 10) / 2 = 20
  const int d = log.AddInterval(8.0);
  log.AddSlice(6.0);  // R(t) = (10 + 6) / 2 = 8
  if (!log.closed(a) || !log.closed(b) || !log.closed(c) || !log.closed(d)) {
    std::printf("FAIL intervals left open\n");
    ++g_failures;
  }
  ExpectNear(log.calibrated(a), 15.0, "interval a");
  ExpectNear(log.calibrated(b), 25.0, "interval b");
  ExpectNear(log.calibrated(c), 20.0, "interval c");
  ExpectNear(log.calibrated(d), 10.0, "interval d");
  ExpectNear(log.factor(d), 10.0 / 8.0, "factor d");
  ExpectNear(log.raw(c), 40.0, "raw c");

  // The guard's identity: two back-to-back slices measured as one interval
  // read 2x whatever R0 is, because the ratio is raw / R(t).
  SliceLog guard(/*r0_ns=*/7.0);
  guard.AddSlice(21.0);
  const int g = guard.AddInterval(21.0 + 21.0);
  guard.AddSlice(21.0);
  ExpectNear(guard.calibrated(g) / guard.r0_ns(), 2.0, "guard ratio");

  if (g_failures == 0) {
    std::printf("calib_test: all checks passed\n");
  }
  return g_failures == 0 ? 0 : 1;
}
