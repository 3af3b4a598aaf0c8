#ifndef TELEKIT_COMMON_RNG_H_
#define TELEKIT_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace telekit {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. Every stochastic component in TeleKit takes an Rng& so that
/// all experiments are reproducible bit-for-bit from a fixed seed.
class Rng {
 public:
  /// Seeds the generator; identical seeds produce identical streams.
  explicit Rng(uint64_t seed = 42) { Reseed(seed); }

  /// Re-seeds in place, restarting the stream.
  void Reseed(uint64_t seed);

  /// Uniform random 64-bit value.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Standard normal (Box-Muller); mean 0, stddev 1.
  double Normal();

  /// Normal with given mean and stddev.
  double Normal(double mean, double stddev);

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  /// Uniform integer in [lo, hi). Requires lo < hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Dropout's mask: mask[i] = Bernoulli(p) ? 0 : keep for i = 0..n-1 in
  /// turn (keep > 0). The same draws and the same stream afterwards as
  /// that loop, with the generator state kept in registers.
  void DropoutMask(double p, float keep, float* mask, size_t n);

  /// Advances the stream past n draws, as n calls of NextU64 would.
  void Discard(size_t n);

  /// Index sampled from (unnormalized, non-negative) weights.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(static_cast<int64_t>(i)));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// k distinct indices sampled without replacement from [0, n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Forks an independent generator whose stream is a deterministic
  /// function of this generator's state. Use for parallel substreams.
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace telekit

#endif  // TELEKIT_COMMON_RNG_H_
