#include "quant/fastscan.h"

#include <algorithm>

#include "dist/quant_kernels.h"
#include "util/status.h"

namespace usp {

size_t PackedCodesBytes(size_t n, size_t m) {
  const size_t blocks = (n + kPq4BlockSize - 1) / kPq4BlockSize;
  return blocks * 16 * m;
}

namespace {

// Writes the m codes of vector `code_row` into packed slot `slot`.
inline void PackOne(const uint8_t* code_row, size_t m, size_t slot,
                    std::vector<uint8_t>* data) {
  const size_t block = slot / kPq4BlockSize;
  const size_t lane = slot % kPq4BlockSize;
  uint8_t* base = data->data() + block * m * 16;
  for (size_t s = 0; s < m; ++s) {
    const uint8_t code = code_row[s];
    USP_CHECK(code < 16);
    uint8_t& byte = base[s * 16 + (lane & 15)];
    if (lane < 16) {
      byte = static_cast<uint8_t>((byte & 0xF0) | code);
    } else {
      byte = static_cast<uint8_t>((byte & 0x0F) | (code << 4));
    }
  }
}

}  // namespace

PackedCodes PackCodes4(const uint8_t* codes, size_t n, size_t m) {
  PackedCodes packed;
  packed.num_vectors = n;
  packed.num_subspaces = m;
  packed.data.assign(PackedCodesBytes(n, m), 0);
  for (size_t i = 0; i < n; ++i) PackOne(codes + i * m, m, i, &packed.data);
  return packed;
}

PackedCodes PackCodes4(const uint8_t* codes, const std::vector<uint32_t>& ids,
                       size_t m) {
  PackedCodes packed;
  packed.num_vectors = ids.size();
  packed.num_subspaces = m;
  packed.data.assign(PackedCodesBytes(ids.size(), m), 0);
  for (size_t i = 0; i < ids.size(); ++i) {
    PackOne(codes + static_cast<size_t>(ids[i]) * m, m, i, &packed.data);
  }
  return packed;
}

void UnpackCode4(const uint8_t* packed, size_t num_subspaces, size_t i,
                 uint8_t* out) {
  const size_t block = i / kPq4BlockSize;
  const size_t lane = i % kPq4BlockSize;
  const uint8_t* base = packed + block * num_subspaces * 16;
  for (size_t s = 0; s < num_subspaces; ++s) {
    const uint8_t byte = base[s * 16 + (lane & 15)];
    out[s] = lane < 16 ? (byte & 0x0F) : (byte >> 4);
  }
}

void QuantizeAdcTable(const float* table, size_t m, size_t k,
                      QuantizedLut* out) {
  USP_CHECK(k >= 1 && k <= 16);
  out->lut.resize(m * 16);
  GetQuantKernels().quantize_lut(table, m, k, out->lut.data(), &out->bias,
                                 &out->delta);
}

QuantizedLut QuantizeAdcTable(const float* table, size_t m, size_t k) {
  QuantizedLut q;
  QuantizeAdcTable(table, m, k, &q);
  return q;
}

void ScorePacked(const PackedCodes& packed, const QuantizedLut& lut,
                 float* out) {
  const size_t blocks = packed.num_blocks();
  std::vector<uint16_t> sums(blocks * kPq4BlockSize);
  GetQuantKernels().pq4_scan(packed.data.data(), lut.lut.data(),
                             packed.num_subspaces, blocks, sums.data());
  for (size_t i = 0; i < packed.num_vectors; ++i) out[i] = lut.Score(sums[i]);
}

}  // namespace usp
