// Fig. 8(a): nvi under five Save-work protocols.
//
// Paper reference points (7,900-keystroke interactive run, 100 ms/key):
//   cand       7958 ckpts   DC 1%   DC-disk 43%
//   cand-log      5 ckpts   DC 0%   DC-disk 13%
//   cpvs       7939 ckpts   DC 1%   DC-disk 44%
//   cbndvs     7552 ckpts   DC 1%   DC-disk 42%
//   cbndvs-log    3 ckpts   DC 0%   DC-disk 12%
// Expected shape: CAND ≈ CPVS ≈ CBNDVS ≈ one commit per keystroke; logging
// collapses commits to single digits; Rio overhead ~1%, disk ~40%+ without
// logging and ~12% with.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv, {.batch = true});
  int scale = ftx_bench::ResolveScale("nvi", options);

  ftx_bench::Suite suite("fig8_nvi", options);
  suite.SetMeta("workload", "nvi");
  suite.SetMeta("scale", scale);
  suite.SetMeta("seed", 11);

  suite.Text(ftx_bench::Fig8Header("Fig 8(a)", "nvi", scale, /*fps_mode=*/false));
  for (const char* protocol : {"cand", "cand-log", "cpvs", "cbndvs", "cbndvs-log"}) {
    ftx_bench::AddFig8Row(suite, "nvi", protocol, scale, /*seed=*/11, /*fps_mode=*/false);
  }
  return suite.Run();
}
