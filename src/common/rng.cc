#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"

namespace ftx {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t DeriveTrialSeed(uint64_t base_seed, uint64_t trial_index) {
  // SplitMix64's state advances by a fixed odd gamma per step, so the state
  // feeding output #(trial_index+1) is reachable directly; one finalizer call
  // then gives that output with full avalanche between neighbouring trials.
  uint64_t state = base_seed + trial_index * 0x9e3779b97f4a7c15ULL;
  return SplitMix64Next(&state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64Next(&sm);
  }
  // xoshiro must not start from the all-zero state; SplitMix64 makes that
  // astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  FTX_CHECK_GT(bound, 0u);
  // Rejection sampling: draw until the value falls in the largest multiple
  // of `bound` that fits in 64 bits.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t Rng::NextInRange(int64_t lo, int64_t hi) {
  FTX_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<int64_t>(NextU64());
  }
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextDouble() {
  // 53 high bits → double in [0,1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

double Rng::NextExponential(double mean) {
  FTX_CHECK_GT(mean, 0.0);
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

Rng Rng::Fork(uint64_t tag) {
  // Mix the parent's stream with the tag through SplitMix64 so children with
  // different tags are decorrelated.
  uint64_t mix = NextU64() ^ (tag * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
  return Rng(SplitMix64Next(&mix));
}

}  // namespace ftx
