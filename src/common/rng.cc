#include "common/rng.h"

#include <bit>
#include <cmath>

namespace telekit {

namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::Reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
  has_cached_normal_ = false;
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller with a guard against log(0).
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

int64_t Rng::UniformInt(int64_t n) {
  TELEKIT_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t r = NextU64();
  while (r >= limit) r = NextU64();
  return static_cast<int64_t>(r % un);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  TELEKIT_CHECK_LT(lo, hi);
  return lo + UniformInt(hi - lo);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

void Rng::DropoutMask(double p, float keep, float* mask, size_t n) {
  // Bernoulli's test is Uniform() < p with Uniform() = u * 2^-53 for the
  // top 53 bits u of a draw. Scaling by 2^53 is exact, so the test is
  // u < p * 2^53, which for an integer u is u < ceil(p * 2^53).
  const uint64_t threshold = static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
  const uint32_t keep_bits = std::bit_cast<uint32_t>(keep);
  uint64_t s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
  for (size_t i = 0; i < n; ++i) {
    const uint64_t result = Rotl(s1 * 5, 7) * 9;
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
    // keep where the unit survives, +0 where it drops, without a branch.
    const uint32_t kept = 0u - static_cast<uint32_t>(result >> 11 >= threshold);
    mask[i] = std::bit_cast<float>(keep_bits & kept);
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

void Rng::Discard(size_t n) {
  uint64_t s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
  for (size_t i = 0; i < n; ++i) {
    const uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = Rotl(s3, 45);
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    TELEKIT_CHECK_GE(w, 0.0);
    total += w;
  }
  TELEKIT_CHECK_GT(total, 0.0) << "Categorical needs a positive weight";
  double r = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point edge: return last index.
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  TELEKIT_CHECK_LE(k, n);
  std::vector<size_t> indices(n);
  for (size_t i = 0; i < n; ++i) indices[i] = i;
  // Partial Fisher-Yates: the first k slots are the sample.
  for (size_t i = 0; i < k; ++i) {
    const size_t j =
        i + static_cast<size_t>(UniformInt(static_cast<int64_t>(n - i)));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace telekit
