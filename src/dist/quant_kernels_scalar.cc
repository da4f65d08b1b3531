// Portable quantized kernel set. Every scan kernel is an exact integer sum,
// so this set is bitwise identical to quant_kernels_avx2.cc by construction —
// there is no floating-point lane structure to mirror, only the same
// wraparound arithmetic (uint16 accumulation for pq4, uint32 for sq8). The
// LUT quantizer applies exactly rounded operations per entry, which the AVX2
// set repeats lane by lane.
#include "dist/quant_kernels.h"

#include <algorithm>

namespace usp {
namespace {

void Pq4ScanScalar(const uint8_t* blocks, const uint8_t* luts, size_t m,
                   size_t num_blocks, uint16_t* out) {
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocks + b * m * 16;
    uint16_t* scores = out + b * kPq4BlockSize;
    for (size_t t = 0; t < kPq4BlockSize; ++t) scores[t] = 0;
    for (size_t s = 0; s < m; ++s) {
      const uint8_t* packed = block + s * 16;
      const uint8_t* lut = luts + s * 16;
      for (size_t j = 0; j < 16; ++j) {
        scores[j] = static_cast<uint16_t>(scores[j] + lut[packed[j] & 0x0F]);
        scores[j + 16] =
            static_cast<uint16_t>(scores[j + 16] + lut[packed[j] >> 4]);
      }
    }
  }
}

float RowMin(const float* row, size_t k) {
  float lo = row[0];
  for (size_t c = 1; c < k; ++c) lo = std::min(lo, row[c]);
  return lo;
}

void QuantizeLutScalar(const float* table, size_t m, size_t k, uint8_t* lut,
                       float* bias, float* delta) {
  std::fill(lut, lut + m * 16, uint8_t{0});
  // Pass 1: per-row minima (summed into the bias) and the widest range (one
  // shared step keeps the kernel's uint16 sum a plain addition).
  float sum = 0.0f, max_range = 0.0f;
  for (size_t s = 0; s < m; ++s) {
    const float* row = table + s * k;
    float hi = row[0];
    for (size_t c = 1; c < k; ++c) hi = std::max(hi, row[c]);
    const float lo = RowMin(row, k);
    sum += lo;
    max_range = std::max(max_range, hi - lo);
  }
  *bias = sum;
  *delta = max_range / 255.0f;
  if (*delta <= 0.0f) {
    *delta = 0.0f;  // constant table: every entry quantizes to 0
    return;
  }
  // Pass 2: quantize entries against their row minimum. The scaled entries
  // are non-negative, and for those floor(double(x) + 0.5) equals
  // std::lround(x): the sum is exact in double unless x < 2^-30, where both
  // give 0, and halves round up in both. Truncating the non-negative sum to
  // an integer is its floor.
  for (size_t s = 0; s < m; ++s) {
    const float* row = table + s * k;
    const float lo = RowMin(row, k);
    for (size_t c = 0; c < k; ++c) {
      const float scaled = (row[c] - lo) / *delta;
      const int32_t rounded =
          static_cast<int32_t>(static_cast<double>(scaled) + 0.5);
      lut[s * 16 + c] = static_cast<uint8_t>(std::min(rounded, 255));
    }
  }
}

uint32_t Sq8L2Scalar(const uint8_t* x, const uint8_t* y, size_t d) {
  uint32_t total = 0;
  for (size_t i = 0; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(x[i]) - static_cast<int32_t>(y[i]);
    total += static_cast<uint32_t>(diff * diff);
  }
  return total;
}

uint32_t Sq8DotScalar(const uint8_t* x, const uint8_t* y, size_t d) {
  uint32_t total = 0;
  for (size_t i = 0; i < d; ++i) {
    total += static_cast<uint32_t>(x[i]) * static_cast<uint32_t>(y[i]);
  }
  return total;
}

void Sq8ScanL2Scalar(const uint8_t* query, const uint8_t* rows, size_t count,
                     size_t d, uint32_t* out) {
  for (size_t r = 0; r < count; ++r) out[r] = Sq8L2Scalar(query, rows + r * d, d);
}

void Sq8ScanDotScalar(const uint8_t* query, const uint8_t* rows, size_t count,
                      size_t d, uint32_t* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = Sq8DotScalar(query, rows + r * d, d);
  }
}

}  // namespace

const QuantKernels& ScalarQuantKernels() {
  static const QuantKernels kernels = {
      "scalar",      Pq4ScanScalar,   QuantizeLutScalar, Sq8L2Scalar,
      Sq8DotScalar,  Sq8ScanL2Scalar, Sq8ScanDotScalar,
  };
  return kernels;
}

}  // namespace usp
