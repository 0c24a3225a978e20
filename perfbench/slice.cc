#include "slice.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory_resource>
#include <string>
#include <unordered_map>

namespace perfbench {
namespace {

// The blend and its proportions were fitted on the reference host: time
// series of program ops (fleet runs, Fig. 8 runs, fault trials, crash-state
// exploration) and of candidate kernels were recorded side by side for
// several minutes while the host's speed drifted, and this blend made the
// windowed medians of op / slice steadiest across all four. By time, about
// three quarters goes to building strings into a hash map, a fifth to
// dependent reads that miss L2, and the rest to integer mixing.
constexpr int kMapRounds = 6;
constexpr int kKeys = 7'000;
// 2^21 chain entries = 8 MiB: larger than any L2 the benchmark runs on, so
// these dependent reads miss to L3 or memory.
constexpr uint32_t kChainEntries = 1u << 21;
constexpr int kChainReads = 36'000;
constexpr int kMixRounds = 430'000;
constexpr size_t kMapArenaBytes = 4u << 20;

// What the kernel computes; every slice must reproduce it.
constexpr uint64_t kExpectedChecksum = 8044523016099792768ULL;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// Sattolo's algorithm: a single cycle through every entry, so the reads
// visit the whole chain in an order the prefetcher cannot follow.
void FillCycle(std::vector<uint32_t>* chain) {
  const uint32_t n = static_cast<uint32_t>(chain->size());
  for (uint32_t i = 0; i < n; ++i) {
    (*chain)[i] = i;
  }
  uint64_t state = 0x5eed5eedULL;
  for (uint32_t i = n - 1; i > 0; --i) {
    state = Mix(state + 0x9e3779b97f4a7c15ULL);
    std::swap((*chain)[i], (*chain)[static_cast<uint32_t>(state % i)]);
  }
}

uint64_t Chase(const std::vector<uint32_t>& chain, int reads) {
  uint32_t idx = 0;
  uint64_t sum = 0;
  for (int r = 0; r < reads; ++r) {
    idx = chain[idx];
    sum += idx;
  }
  return sum;
}

}  // namespace

RefSlice::RefSlice() : chain_(kChainEntries), map_arena_bytes_(kMapArenaBytes) {
  map_arena_ = std::make_unique<std::byte[]>(map_arena_bytes_);
  FillCycle(&chain_);
  // Touch the map arena once so its pages are resident before timing.
  for (size_t i = 0; i < map_arena_bytes_; i += 4096) {
    map_arena_[i] = std::byte{0};
  }
}

uint64_t RefSlice::Kernel() {
  uint64_t sum = 0;
  char buf[48];
  for (int round = 0; round < kMapRounds; ++round) {
    // Each round starts from an empty arena: the map's nodes, buckets and
    // strings are bump-allocated from it and dropped together.
    std::pmr::monotonic_buffer_resource arena(map_arena_.get(), map_arena_bytes_,
                                              std::pmr::null_memory_resource());
    std::pmr::unordered_map<std::pmr::string, uint64_t> map(&arena);
    map.reserve(kKeys);
    auto key = [&](int i) {
      const int n = std::snprintf(buf, sizeof(buf), "slice-key-%llu-%d",
                                  static_cast<unsigned long long>(Mix(i + round) % 1000003), i);
      return std::pmr::string(buf, static_cast<size_t>(n), &arena);
    };
    for (int i = 0; i < kKeys; ++i) {
      map.emplace(key(i), static_cast<uint64_t>(i));
    }
    for (int i = kKeys - 1; i >= 0; --i) {
      auto it = map.find(key(i));
      sum = sum * 31 + (it == map.end() ? 0 : it->second);
    }
  }
  sum += Chase(chain_, kChainReads);
  for (int i = 0; i < kMixRounds; ++i) {
    sum = Mix(sum + static_cast<uint64_t>(i));
  }
  return sum;
}

int64_t RefSlice::Run() {
  const auto start = std::chrono::steady_clock::now();
  const uint64_t checksum = Kernel();
  const auto end = std::chrono::steady_clock::now();
  if (checksum != kExpectedChecksum) {
    std::fprintf(stderr, "perfbench: reference slice checksum %llu != %llu\n",
                 static_cast<unsigned long long>(checksum),
                 static_cast<unsigned long long>(kExpectedChecksum));
    std::exit(3);
  }
  return std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
}


}  // namespace perfbench
