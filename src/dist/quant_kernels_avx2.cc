// AVX2 quantized kernel set. Compiled via per-function target attributes so
// the rest of the library keeps its baseline ISA; GetQuantKernels() only
// hands this set out after __builtin_cpu_supports confirms avx2 at runtime.
//
// pq4_scan is the fast-scan core: per subspace, one _mm256_shuffle_epi8
// resolves all 32 codes of a block against the 16-entry uint8 LUT held in a
// register (low nibbles in lane 0, high nibbles in lane 1), and two uint16
// accumulators (even/odd byte positions) absorb the scores. quantize_lut maps
// a subspace's 16 table entries at once with the scalar set's exactly
// rounded operations, so its bytes match that set's. The sq8 kernels
// widen uint8 operands to 16 bits and pair-sum products with
// _mm256_madd_epi16. All sums are exact integers, so the scalar set in
// quant_kernels_scalar.cc is bitwise identical by construction.
#include "dist/quant_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace usp {
namespace {

__attribute__((target("avx2"))) inline uint32_t ReduceU32(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_srli_si128(s, 8));
  s = _mm_add_epi32(s, _mm_srli_si128(s, 4));
  return static_cast<uint32_t>(_mm_cvtsi128_si32(s));
}

__attribute__((target("avx2"))) void Pq4ScanAvx2(const uint8_t* blocks,
                                                 const uint8_t* luts, size_t m,
                                                 size_t num_blocks,
                                                 uint16_t* out) {
  const __m128i nibble_mask = _mm_set1_epi8(0x0F);
  const __m256i byte_mask = _mm256_set1_epi16(0x00FF);
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block = blocks + b * m * 16;
    // Even/odd byte-position accumulators: acc_even holds vectors
    // {0,2,..,14 | 16,18,..,30} as uint16, acc_odd the odd vectors.
    __m256i acc_even = _mm256_setzero_si256();
    __m256i acc_odd = _mm256_setzero_si256();
    for (size_t s = 0; s < m; ++s) {
      const __m128i packed = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(block + s * 16));
      const __m128i lo = _mm_and_si128(packed, nibble_mask);
      const __m128i hi =
          _mm_and_si128(_mm_srli_epi16(packed, 4), nibble_mask);
      const __m256i codes =
          _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
      const __m256i lut = _mm256_broadcastsi128_si256(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(luts + s * 16)));
      const __m256i scores = _mm256_shuffle_epi8(lut, codes);
      acc_even =
          _mm256_add_epi16(acc_even, _mm256_and_si256(scores, byte_mask));
      acc_odd = _mm256_add_epi16(acc_odd, _mm256_srli_epi16(scores, 8));
    }
    // De-interleave back to vector order: unpack gives
    // {v0..v7 | v16..v23} and {v8..v15 | v24..v31}.
    const __m256i lo16 = _mm256_unpacklo_epi16(acc_even, acc_odd);
    const __m256i hi16 = _mm256_unpackhi_epi16(acc_even, acc_odd);
    uint16_t* scores = out + b * kPq4BlockSize;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(scores),
                        _mm256_permute2x128_si256(lo16, hi16, 0x20));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(scores + 16),
                        _mm256_permute2x128_si256(lo16, hi16, 0x31));
  }
}

// Row s of the table as two 8-lane vectors (c < 8, 8 <= c < 16); lanes past
// k repeat row[0], so they never move a minimum or a maximum.
struct LutRow {
  __m256 lo, hi;
};

__attribute__((target("avx2"))) inline LutRow LoadLutRow(const float* row,
                                                          size_t k) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i live_lo =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(k)), lane);
  const __m256i live_hi = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(static_cast<int>(k) - 8), lane);
  const __m256 first = _mm256_broadcast_ss(row);
  LutRow r;
  r.lo = _mm256_blendv_ps(first, _mm256_maskload_ps(row, live_lo),
                          _mm256_castsi256_ps(live_lo));
  r.hi = _mm256_blendv_ps(first, _mm256_maskload_ps(row + 8, live_hi),
                          _mm256_castsi256_ps(live_hi));
  return r;
}

// The minimum (kMax: maximum) of the 16 lanes of a row. Only the sign of a
// zero can depend on the order of the comparisons, and it reaches neither a
// LUT byte nor the bias (which adds each minimum to a +0 start).
template <bool kMax>
__attribute__((target("avx2"))) inline float Extreme(const LutRow& r) {
  const __m256 v = kMax ? _mm256_max_ps(r.lo, r.hi) : _mm256_min_ps(r.lo, r.hi);
  __m128 x = _mm256_castps256_ps128(v);
  const __m128 upper = _mm256_extractf128_ps(v, 1);
  x = kMax ? _mm_max_ps(x, upper) : _mm_min_ps(x, upper);
  const __m128 half = _mm_movehl_ps(x, x);
  x = kMax ? _mm_max_ps(x, half) : _mm_min_ps(x, half);
  const __m128 odd = _mm_shuffle_ps(x, x, 0x55);
  x = kMax ? _mm_max_ps(x, odd) : _mm_min_ps(x, odd);
  return _mm_cvtss_f32(x);
}

// floor(double(x) + 0.5) of four non-negative floats, as int32.
__attribute__((target("avx2"))) inline __m128i RoundHalfUp(__m128 x) {
  return _mm256_cvttpd_epi32(
      _mm256_add_pd(_mm256_cvtps_pd(x), _mm256_set1_pd(0.5)));
}

// The scalar set's arithmetic, one row (16 entries) per step: the same
// exactly rounded subtract, divide, widen, add and truncate, then a
// saturating pack that is the min with 255.
__attribute__((target("avx2"))) void QuantizeLutAvx2(const float* table,
                                                     size_t m, size_t k,
                                                     uint8_t* lut, float* bias,
                                                     float* delta) {
  float sum = 0.0f, max_range = 0.0f;
  for (size_t s = 0; s < m; ++s) {
    const LutRow r = LoadLutRow(table + s * k, k);
    const float lo = Extreme<false>(r);
    sum += lo;
    max_range = std::max(max_range, Extreme<true>(r) - lo);
  }
  *bias = sum;
  *delta = max_range / 255.0f;
  if (*delta <= 0.0f) {
    *delta = 0.0f;
    std::fill(lut, lut + m * 16, uint8_t{0});
    return;
  }
  const __m256 step = _mm256_set1_ps(*delta);
  const __m128i live = _mm_cmpgt_epi8(
      _mm_set1_epi8(static_cast<char>(k)),
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  for (size_t s = 0; s < m; ++s) {
    const LutRow r = LoadLutRow(table + s * k, k);
    const __m256 lo = _mm256_set1_ps(Extreme<false>(r));
    const __m256 a = _mm256_div_ps(_mm256_sub_ps(r.lo, lo), step);
    const __m256 b = _mm256_div_ps(_mm256_sub_ps(r.hi, lo), step);
    const __m128i words_a =
        _mm_packus_epi32(RoundHalfUp(_mm256_castps256_ps128(a)),
                         RoundHalfUp(_mm256_extractf128_ps(a, 1)));
    const __m128i words_b =
        _mm_packus_epi32(RoundHalfUp(_mm256_castps256_ps128(b)),
                         RoundHalfUp(_mm256_extractf128_ps(b, 1)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(lut + s * 16),
        _mm_and_si128(_mm_packus_epi16(words_a, words_b), live));
  }
}

__attribute__((target("avx2"))) uint32_t Sq8L2Avx2(const uint8_t* x,
                                                   const uint8_t* y,
                                                   size_t d) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    // |x - y| per byte: saturating subtract both directions, OR.
    const __m256i diff = _mm256_or_si256(_mm256_subs_epu8(vx, vy),
                                         _mm256_subs_epu8(vy, vx));
    const __m256i lo = _mm256_unpacklo_epi8(diff, zero);
    const __m256i hi = _mm256_unpackhi_epi8(diff, zero);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(lo, lo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(hi, hi));
  }
  uint32_t total = ReduceU32(acc);
  for (; i < d; ++i) {
    const int32_t diff = static_cast<int32_t>(x[i]) - static_cast<int32_t>(y[i]);
    total += static_cast<uint32_t>(diff * diff);
  }
  return total;
}

__attribute__((target("avx2"))) uint32_t Sq8DotAvx2(const uint8_t* x,
                                                    const uint8_t* y,
                                                    size_t d) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vy =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(y + i));
    const __m256i xlo = _mm256_unpacklo_epi8(vx, zero);
    const __m256i xhi = _mm256_unpackhi_epi8(vx, zero);
    const __m256i ylo = _mm256_unpacklo_epi8(vy, zero);
    const __m256i yhi = _mm256_unpackhi_epi8(vy, zero);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xlo, ylo));
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(xhi, yhi));
  }
  uint32_t total = ReduceU32(acc);
  for (; i < d; ++i) {
    total += static_cast<uint32_t>(x[i]) * static_cast<uint32_t>(y[i]);
  }
  return total;
}

__attribute__((target("avx2"))) inline void PrefetchCodeRow(const uint8_t* row,
                                                            size_t d) {
  __builtin_prefetch(row);
  if (d > 64) __builtin_prefetch(row + 64);
}

__attribute__((target("avx2"))) void Sq8ScanL2Avx2(const uint8_t* query,
                                                   const uint8_t* rows,
                                                   size_t count, size_t d,
                                                   uint32_t* out) {
  for (size_t r = 0; r < count; ++r) {
    if (r + 1 < count) PrefetchCodeRow(rows + (r + 1) * d, d);
    out[r] = Sq8L2Avx2(query, rows + r * d, d);
  }
}

__attribute__((target("avx2"))) void Sq8ScanDotAvx2(const uint8_t* query,
                                                    const uint8_t* rows,
                                                    size_t count, size_t d,
                                                    uint32_t* out) {
  for (size_t r = 0; r < count; ++r) {
    if (r + 1 < count) PrefetchCodeRow(rows + (r + 1) * d, d);
    out[r] = Sq8DotAvx2(query, rows + r * d, d);
  }
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }

}  // namespace

const QuantKernels* Avx2QuantKernelsOrNull() {
  static const QuantKernels kernels = {
      "avx2",      Pq4ScanAvx2,   QuantizeLutAvx2, Sq8L2Avx2,
      Sq8DotAvx2,  Sq8ScanL2Avx2, Sq8ScanDotAvx2,
  };
  static const bool supported = CpuHasAvx2();
  return supported ? &kernels : nullptr;
}

}  // namespace usp

#else  // non-x86: the scalar set is the only implementation.

namespace usp {
const QuantKernels* Avx2QuantKernelsOrNull() { return nullptr; }
}  // namespace usp

#endif
