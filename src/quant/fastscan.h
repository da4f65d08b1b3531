// 4-bit PQ fast-scan support: the packed code layout and per-query LUT
// quantization feeding the pq4_scan kernel (dist/quant_kernels.h).
//
// Layout. Codes are grouped in blocks of 32 vectors. Within a block, each
// subspace s contributes 16 consecutive bytes; byte j packs the 4-bit code of
// vector j in the low nibble and of vector j + 16 in the high nibble, so one
// 16-byte load holds a full block-subspace and one _mm256_shuffle_epi8
// resolves all 32 codes against the register-resident LUT. A group of n
// vectors occupies ceil(n / 32) blocks of 16 * M bytes; tail slots are padded
// with code 0 and their scores ignored by the caller.
//
// LUT quantization. The float ADC table (M x K squared distances or negated
// dot products) is mapped to uint8 per query: bias = sum over s of the
// subspace minimum, delta = the largest subspace range / 255, entry =
// round((T[s][c] - min_s) / delta). The kernel's uint16 sum then recovers the
// float score as bias + delta * sum, with absolute error at most
// M * delta / 2 (each entry rounds within delta / 2) — the bound pinned by
// tests/fastscan_test.cc.
#ifndef USP_QUANT_FASTSCAN_H_
#define USP_QUANT_FASTSCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace usp {

/// Codes of one group of vectors packed for pq4_scan. `data` holds
/// num_blocks() blocks of 16 * num_subspaces bytes each.
struct PackedCodes {
  size_t num_vectors = 0;    ///< logical count (before padding)
  size_t num_subspaces = 0;  ///< M
  std::vector<uint8_t> data;

  size_t num_blocks() const { return data.size() / (16 * num_subspaces); }
};

/// Number of packed bytes a group of `n` vectors occupies at `m` subspaces.
size_t PackedCodesBytes(size_t n, size_t m);

/// Packs (n x m) one-byte-per-subspace codes (each < 16) into the fast-scan
/// block layout. Pad slots encode code 0.
PackedCodes PackCodes4(const uint8_t* codes, size_t n, size_t m);

/// Packs the codes of `ids` (in the given order) — the bucket-grouped form:
/// each bucket packs its members contiguously so a probe scans whole blocks.
PackedCodes PackCodes4(const uint8_t* codes, const std::vector<uint32_t>& ids,
                       size_t m);

/// Reads back the m 4-bit codes of packed vector `i` (for round-trip tests
/// and Decode paths).
void UnpackCode4(const uint8_t* packed, size_t num_subspaces, size_t i,
                 uint8_t* out);

/// A float ADC table quantized to uint8 for the shuffle kernel.
struct QuantizedLut {
  std::vector<uint8_t> lut;  ///< m * 16 entries (unused slots when k < 16)
  float bias = 0.0f;         ///< sum of per-subspace minima
  float delta = 0.0f;        ///< uniform step; 0 when the table is constant
  /// Score recovered from a kernel sum.
  float Score(uint16_t sum) const {
    return bias + delta * static_cast<float>(sum);
  }
};

/// Quantizes an (m x k) float ADC table (layout table[s * k + c], k <= 16)
/// through the dispatched QuantKernels::quantize_lut (same bytes in both
/// kernel sets). The first form reuses `out`'s storage.
void QuantizeAdcTable(const float* table, size_t m, size_t k,
                      QuantizedLut* out);
QuantizedLut QuantizeAdcTable(const float* table, size_t m, size_t k);

/// Scores every vector of `packed` against the quantized LUT through the
/// dispatched pq4_scan kernel: out[i] = lut.Score(sum_i) for
/// i in [0, num_vectors). `out` must hold num_vectors floats.
void ScorePacked(const PackedCodes& packed, const QuantizedLut& lut,
                 float* out);

}  // namespace usp

#endif  // USP_QUANT_FASTSCAN_H_
