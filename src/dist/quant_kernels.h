// Quantized-domain distance kernels: the compressed counterparts of
// dist/distance_kernels.h. Two families share one dispatch table:
//
//   - pq4:  ScaNN/FAISS-style "fast scan" over 4-bit PQ codes. Codes are
//     packed in blocks of 32 vectors (quant/fastscan.h layout); the per-query
//     float ADC table is quantized to uint8 (16 entries per subspace) and the
//     AVX2 kernel scores 32 codes per subspace pass with one
//     _mm256_shuffle_epi8 table lookup — the register-resident LUT idiom that
//     makes PQ scanning compute-bound instead of memory-bound.
//     The LUT itself comes from `quantize_lut`, which maps the float table
//     to bytes with exactly rounded IEEE operations only (subtract, divide,
//     float -> double, add 0.5, truncate), so the AVX2 set, which runs a
//     subspace's 16 entries at once, writes the scalar set's bytes.
//   - sq8:  int8 scalar-quantized vectors (quant/sq8_index.h). L2 runs on
//     byte absolute differences widened to 16 bits and pair-summed with
//     madd_epi16 (the maddubs-family widening-multiply idiom); dot widens
//     both operands. Both are exact integer sums.
//
// Selection follows the DistanceKernels contract exactly: one set is chosen
// at process startup by runtime CPU detection, and USP_FORCE_SCALAR=1 pins
// the scalar set.
//
// Bit-compatibility contract: every scan kernel here computes an exact
// integer quantity (uint16 sums with wraparound for pq4, uint32 sums for
// sq8), so the scalar mirrors are bitwise identical to the AVX2 kernels by
// construction — no floating-point lane structure to replicate; and
// quantize_lut uses only exactly rounded operations, applied per entry in
// both sets. tests/fastscan_test.cc enforces this across code counts
// covering every SIMD tail and against an std::lround reference of the LUT.
#ifndef USP_DIST_QUANT_KERNELS_H_
#define USP_DIST_QUANT_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace usp {

/// Codes per packed pq4 block (quant/fastscan.h packs two 4-bit codes per
/// byte, 16 bytes per subspace per block).
inline constexpr size_t kPq4BlockSize = 32;

/// Function table for one quantized kernel implementation set. All pointers
/// are non-null.
struct QuantKernels {
  const char* name;  ///< "scalar" or "avx2"

  /// Fast-scan ADC over packed 4-bit PQ codes. `blocks` holds `num_blocks`
  /// consecutive blocks, each of m * 16 bytes: subspace s of block b lives at
  /// blocks[(b * m + s) * 16], byte j packing code(vec j) in the low nibble
  /// and code(vec j + 16) in the high nibble. `luts` is the quantized ADC
  /// table, 16 uint8 entries per subspace (m * 16 bytes total). Writes
  /// num_blocks * 32 uint16 sums: out[b * 32 + t] = sum over s of
  /// luts[s * 16 + code(vec t of block b, s)], with uint16 wraparound (the
  /// LUT quantizer in quant/fastscan.h bounds sums below 2^16 for m <= 257).
  void (*pq4_scan)(const uint8_t* blocks, const uint8_t* luts, size_t m,
                   size_t num_blocks, uint16_t* out);

  /// Quantizes an (m x k) float ADC table (layout table[s * k + c],
  /// 1 <= k <= 16) into the pq4 LUT: *bias = the sum over s, in order from
  /// +0, of row s's minimum; *delta = the widest row range / 255 (0 when
  /// every row is constant); lut[s * 16 + c] = min(floor(double((T[s][c] -
  /// min_s) / delta) + 0.5), 255) for c < k and 0 for the rest of the m * 16
  /// bytes (all 0 when *delta is 0).
  void (*quantize_lut)(const float* table, size_t m, size_t k, uint8_t* lut,
                       float* bias, float* delta);

  /// Sum over d of (x[i] - y[i])^2 on uint8 codes (exact uint32).
  uint32_t (*sq8_l2)(const uint8_t* x, const uint8_t* y, size_t d);

  /// Sum over d of x[i] * y[i] on uint8 codes (exact uint32).
  uint32_t (*sq8_dot)(const uint8_t* x, const uint8_t* y, size_t d);

  /// out[r] = sq8_l2(query, rows + r * d) for r in [0, count).
  void (*sq8_scan_l2)(const uint8_t* query, const uint8_t* rows, size_t count,
                      size_t d, uint32_t* out);

  /// out[r] = sq8_dot(query, rows + r * d) for r in [0, count).
  void (*sq8_scan_dot)(const uint8_t* query, const uint8_t* rows, size_t count,
                       size_t d, uint32_t* out);
};

/// The portable fallback set (always available).
const QuantKernels& ScalarQuantKernels();

/// The AVX2 set, or nullptr when not compiled in or the CPU lacks AVX2.
/// Exposed for tests and benchmarks.
const QuantKernels* Avx2QuantKernelsOrNull();

/// Selection policy: the AVX2 set when available and not `force_scalar`,
/// else the scalar set. Exposed so tests can exercise both branches without
/// re-launching the process.
const QuantKernels& SelectQuantKernels(bool force_scalar);

/// The process-wide quantized kernel set, resolved once on first use from CPU
/// detection and the USP_FORCE_SCALAR environment variable.
const QuantKernels& GetQuantKernels();

}  // namespace usp

#endif  // USP_DIST_QUANT_KERNELS_H_
