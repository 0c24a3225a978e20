// Fig. 8(b): magic under five Save-work protocols.
//
// Paper reference points (~190 commands at 1 s intervals):
//   cand        903 ckpts   DC 2%   DC-disk 89%
//   cand-log    432 ckpts   DC 2%   DC-disk 71%
//   cpvs        190 ckpts   DC 2%   DC-disk 28%
//   cbndvs      185 ckpts   DC 2%   DC-disk 27%
//   cbndvs-log  185 ckpts   DC 2%   DC-disk 31%
// Expected shape: CAND commits several times per command (magic's ND
// events outnumber its visibles); logging halves CAND but cannot help
// CBNDVS (unloggable timeofday/select keep it armed); DC-disk overheads
// are dominated by the large per-command dirty footprint.

#include "bench/bench_util.h"

int main(int argc, char** argv) {
  ftx_bench::BenchOptions options = ftx_bench::ParseBenchOptions(argc, argv, {.batch = true});
  int scale = ftx_bench::ResolveScale("magic", options);

  ftx_bench::Suite suite("fig8_magic", options);
  suite.SetMeta("workload", "magic");
  suite.SetMeta("scale", scale);
  suite.SetMeta("seed", 22);

  suite.Text(ftx_bench::Fig8Header("Fig 8(b)", "magic", scale, /*fps_mode=*/false));
  for (const char* protocol : {"cand", "cand-log", "cpvs", "cbndvs", "cbndvs-log"}) {
    ftx_bench::AddFig8Row(suite, "magic", protocol, scale, /*seed=*/22, /*fps_mode=*/false);
  }
  return suite.Run();
}
