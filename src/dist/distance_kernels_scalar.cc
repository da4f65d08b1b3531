// Portable kernel set. squared_l2/dot deliberately mirror the AVX2 lane
// structure (eight fused-multiply-add accumulators, element i -> lane i % 8,
// fixed reduction tree) so the scalar and vector sets agree bit-for-bit; see
// the contract in distance_kernels.h before changing any arithmetic here.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "dist/distance_kernels.h"

namespace usp {
namespace {

constexpr size_t kLanes = 8;
constexpr size_t kPrefetchAhead = 4;  // gather lookahead, in rows

// Reduction tree shared by both kernel sets:
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
inline float ReduceLanes(const float* acc) {
  const float even = (acc[0] + acc[4]) + (acc[2] + acc[6]);
  const float odd = (acc[1] + acc[5]) + (acc[3] + acc[7]);
  return even + odd;
}

float SquaredL2Scalar(const float* x, const float* y, size_t d) {
  float acc[kLanes] = {0.0f};
  size_t i = 0;
  for (; i + kLanes <= d; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) {
      const float diff = x[i + j] - y[i + j];
      acc[j] = std::fmaf(diff, diff, acc[j]);
    }
  }
  for (size_t j = 0; i < d; ++i, ++j) {
    const float diff = x[i] - y[i];
    acc[j] = std::fmaf(diff, diff, acc[j]);
  }
  return ReduceLanes(acc);
}

float DotScalar(const float* x, const float* y, size_t d) {
  float acc[kLanes] = {0.0f};
  size_t i = 0;
  for (; i + kLanes <= d; i += kLanes) {
    for (size_t j = 0; j < kLanes; ++j) {
      acc[j] = std::fmaf(x[i + j], y[i + j], acc[j]);
    }
  }
  for (size_t j = 0; i < d; ++i, ++j) {
    acc[j] = std::fmaf(x[i], y[i], acc[j]);
  }
  return ReduceLanes(acc);
}

void ScoreBlockL2Scalar(const float* query, const float* rows, size_t count,
                        size_t d, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = SquaredL2Scalar(query, rows + r * d, d);
  }
}

void ScoreBlockDotScalar(const float* query, const float* rows, size_t count,
                         size_t d, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotScalar(query, rows + r * d, d);
  }
}

void ScoreIdsL2Scalar(const float* query, const float* base, size_t d,
                      const uint32_t* ids, size_t count, float* out) {
  for (size_t i = 0; i < count; ++i) {
    if (i + kPrefetchAhead < count) {
      __builtin_prefetch(base + static_cast<size_t>(ids[i + kPrefetchAhead]) * d);
    }
    out[i] = SquaredL2Scalar(query, base + static_cast<size_t>(ids[i]) * d, d);
  }
}

void ScoreIdsDotScalar(const float* query, const float* base, size_t d,
                       const uint32_t* ids, size_t count, float* out) {
  for (size_t i = 0; i < count; ++i) {
    if (i + kPrefetchAhead < count) {
      __builtin_prefetch(base + static_cast<size_t>(ids[i + kPrefetchAhead]) * d);
    }
    out[i] = DotScalar(query, base + static_cast<size_t>(ids[i]) * d, d);
  }
}

// The 1-vs-1 arithmetic per codeword, reading its values from the dim-major
// layout.
void AdcTableScalar(const float* query, const AdcCodebooks& books,
                    AdcTableKind kind, float* out) {
  const bool l2 = kind == AdcTableKind::kSquaredL2;
  const bool negate = kind == AdcTableKind::kNegatedDot;
  for (size_t s = 0; s < books.m; ++s) {
    const size_t off = books.offsets[s];
    const size_t sd = books.offsets[s + 1] - off;
    const float* q = query + off;
    const float* cols = books.codewords + off * books.stride;
    float* row = out + s * books.k;
    for (size_t c = 0; c < books.k; ++c) {
      float value = 0.0f;
      if (c < books.rows[s]) {
        float acc[kLanes] = {0.0f};
        for (size_t i = 0; i < sd; ++i) {
          const float x = cols[i * books.stride + c];
          const float diff = q[i] - x;
          acc[i % kLanes] = l2 ? std::fmaf(diff, diff, acc[i % kLanes])
                               : std::fmaf(q[i], x, acc[i % kLanes]);
        }
        value = ReduceLanes(acc);
      }
      row[c] = negate ? -value : value;
    }
  }
}

// Each output row is zeroed, then takes one axpy per p in order.
void GemmScalar(const float* a, size_t a_row, size_t a_col, const float* b,
                size_t n, size_t k, size_t m, float* c) {
  for (size_t i = 0; i < n; ++i) {
    float* ci = c + i * m;
    std::memset(ci, 0, m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float alpha = a[i * a_row + p * a_col];
      const float* bp = b + p * m;
      for (size_t j = 0; j < m; ++j) ci[j] += alpha * bp[j];
    }
  }
}

}  // namespace

const DistanceKernels& ScalarKernels() {
  static const DistanceKernels kernels = {
      "scalar",         SquaredL2Scalar,  DotScalar,
      ScoreBlockL2Scalar, ScoreBlockDotScalar, ScoreIdsL2Scalar,
      ScoreIdsDotScalar, AdcTableScalar, GemmScalar,
  };
  return kernels;
}

}  // namespace usp
