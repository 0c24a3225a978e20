// The reference slice: a fixed kernel the benchmark runs between ops to
// measure how fast the host is right now.
//
// The slice never calls the program. It builds strings, inserts them into a
// hash map, does dependent random reads over a working set larger than L2
// and mixes integers — a blend fitted so that a host that slows the program
// down slows the slice down by about the same factor. All of its
// memory comes from an arena allocated once, so a slice allocates nothing
// from the heap and its cost does not depend on what the program left there.

#ifndef PERFBENCH_SLICE_H_
#define PERFBENCH_SLICE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace perfbench {

class RefSlice {
 public:
  RefSlice();

  // Runs one slice and returns its wall time in ns. Aborts the process when
  // the slice's checksum differs from the pinned value (the kernel did not
  // do the work it is timed for).
  int64_t Run();

 private:
  uint64_t Kernel();

  std::vector<uint32_t> chain_;            // one random cycle, larger than L2
  std::unique_ptr<std::byte[]> map_arena_;  // backs the hash map and strings
  size_t map_arena_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SLICE_H_
