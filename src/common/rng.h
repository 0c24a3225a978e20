// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the simulator — workload generation, fault
// injection sites, network jitter — flows through Rng so that every
// experiment is reproducible from a single 64-bit seed. The generator is
// xoshiro256** seeded via SplitMix64, which is the recommended seeding
// procedure for the xoshiro family.

#ifndef FTX_SRC_COMMON_RNG_H_
#define FTX_SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ftx {

// SplitMix64 step: advances *state and returns the next output. Exposed so
// tests can derive independent child seeds the same way Rng does.
uint64_t SplitMix64Next(uint64_t* state);

// Seed of trial `trial_index` in a sharded experiment: the (trial_index+1)-th
// output of the SplitMix64 stream seeded with `base_seed`, computed in O(1)
// by jumping the stream's additive state. Every (base_seed, trial_index)
// pair maps to the same seed on every thread count and schedule, which is
// what makes --jobs 1 and --jobs N runs bit-identical.
uint64_t DeriveTrialSeed(uint64_t base_seed, uint64_t trial_index);

// xoshiro256** 1.0. Not thread-safe; each simulated entity owns its own Rng.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform over [0, 2^64).
  uint64_t NextU64();

  // Uniform over [0, bound). bound must be nonzero. Uses rejection sampling
  // to avoid modulo bias.
  uint64_t NextBounded(uint64_t bound);

  // Uniform over [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // Returns true with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  // Exponentially distributed double with the given mean (> 0).
  double NextExponential(double mean);

  // Derives an independent child generator; children with distinct tags are
  // decorrelated from each other and from the parent.
  Rng Fork(uint64_t tag);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace ftx

#endif  // FTX_SRC_COMMON_RNG_H_
