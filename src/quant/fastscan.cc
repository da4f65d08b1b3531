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

QuantizedLut QuantizeAdcTable(const float* table, size_t m, size_t k) {
  USP_CHECK(k >= 1 && k <= 16);
  QuantizedLut q;
  q.lut.assign(m * 16, 0);
  // Pass 1: per-subspace minima (folded into the bias) and the widest range
  // (one shared step keeps the kernel's uint16 sum a plain addition).
  std::vector<float> lows(m);
  float max_range = 0.0f;
  for (size_t s = 0; s < m; ++s) {
    const float* row = table + s * k;
    float lo = row[0], hi = row[0];
    for (size_t c = 1; c < k; ++c) {
      lo = std::min(lo, row[c]);
      hi = std::max(hi, row[c]);
    }
    lows[s] = lo;
    q.bias += lo;
    max_range = std::max(max_range, hi - lo);
  }
  q.delta = max_range / 255.0f;
  if (q.delta <= 0.0f) {
    q.delta = 0.0f;  // constant table: every entry quantizes to 0
    return q;
  }
  // Pass 2: quantize entries against their subspace minimum. The scaled
  // entries are non-negative, and for those floor(double(x) + 0.5) equals
  // std::lround(x): the sum is exact in double unless x < 2^-30, where both
  // give 0, and halves round up in both. Truncating the non-negative sum to
  // an integer is its floor.
  for (size_t s = 0; s < m; ++s) {
    const float* row = table + s * k;
    for (size_t c = 0; c < k; ++c) {
      const float scaled = (row[c] - lows[s]) / q.delta;
      const int64_t rounded =
          static_cast<int64_t>(static_cast<double>(scaled) + 0.5);
      q.lut[s * 16 + c] =
          static_cast<uint8_t>(std::min<int64_t>(rounded, 255));
    }
  }
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
