// Deterministic, fast pseudo-random generation. Every stochastic component in
// the library takes an explicit seed so experiments are reproducible.
#ifndef USP_UTIL_RNG_H_
#define USP_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace usp {

/// xoshiro256** seeded via splitmix64. Not cryptographic; chosen for speed and
/// reproducibility across platforms (no reliance on std:: distributions whose
/// output is implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value. Inline, with Uniform: per-element draws (e.g.
  /// Dropout masks) then cost no call.
  uint64_t Next() {
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

  /// Uniform double in [0, 1): the 53 high bits of Next().
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform float in [lo, hi).
  float UniformFloat(float lo, float hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (cached pair).
  double Gaussian();

  /// Fills `out` with iid N(mean, stddev) floats.
  void FillGaussian(float* out, size_t count, float mean = 0.0f,
                    float stddev = 1.0f);

  /// Fisher-Yates shuffle of an index vector.
  void Shuffle(std::vector<uint32_t>* values);

  /// k distinct indices sampled uniformly from [0, n). Requires k <= n.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

  /// Derives an independent child generator (for per-thread streams).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace usp

#endif  // USP_UTIL_RNG_H_
