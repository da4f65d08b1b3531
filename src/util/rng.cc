#include "util/rng.h"

#include <cmath>

#include "util/status.h"

namespace usp {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

float Rng::UniformFloat(float lo, float hi) {
  return lo + static_cast<float>(Uniform()) * (hi - lo);
}

uint64_t Rng::UniformInt(uint64_t n) {
  USP_CHECK(n > 0);
  // Lemire-style rejection-free for our purposes (bias < 2^-64 * n).
  return static_cast<uint64_t>(Uniform() * static_cast<double>(n)) % n;
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

void Rng::FillGaussian(float* out, size_t count, float mean, float stddev) {
  for (size_t i = 0; i < count; ++i) {
    out[i] = mean + stddev * static_cast<float>(Gaussian());
  }
}

void Rng::Shuffle(std::vector<uint32_t>* values) {
  for (size_t i = values->size(); i > 1; --i) {
    const size_t j = UniformInt(i);
    std::swap((*values)[i - 1], (*values)[j]);
  }
}

std::vector<uint32_t> Rng::SampleWithoutReplacement(uint32_t n, uint32_t k) {
  USP_CHECK(k <= n);
  // Partial Fisher-Yates over an index array; O(n) memory, O(n + k) time.
  std::vector<uint32_t> idx(n);
  for (uint32_t i = 0; i < n; ++i) idx[i] = i;
  for (uint32_t i = 0; i < k; ++i) {
    const uint32_t j = i + static_cast<uint32_t>(UniformInt(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xA5A5A5A5DEADBEEFULL); }

}  // namespace usp
