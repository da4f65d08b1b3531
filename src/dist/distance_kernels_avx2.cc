// AVX2 + FMA kernel set. Compiled via per-function target attributes so the
// rest of the library keeps its baseline ISA; GetDistanceKernels() only hands
// this set out after __builtin_cpu_supports confirms avx2 and fma at runtime.
//
// Arithmetic contract (mirrored by distance_kernels_scalar.cc — keep in
// sync): one 8-lane FMA accumulator, element i -> lane i % 8, masked tail
// load contributing zero to the untouched lanes, reduction tree
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
#include "dist/distance_kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace usp {
namespace {

constexpr size_t kPrefetchAhead = 4;  // gather lookahead, in rows

// First `8 - offset` lanes active when loaded from kMaskTable + offset.
alignas(32) constexpr int32_t kMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                0,  0,  0,  0,  0,  0,  0,  0};

__attribute__((target("avx2,fma"))) inline __m256i TailMask(size_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - rem));
}

__attribute__((target("avx2,fma"))) inline float Reduce8(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);          // [l0+l4, l1+l5, l2+l6, l3+l7]
  const __m128 half = _mm_movehl_ps(s, s);
  s = _mm_add_ps(s, half);                // [even, odd, ..]
  const __m128 odd = _mm_shuffle_ps(s, s, 0x55);
  return _mm_cvtss_f32(_mm_add_ss(s, odd));
}

// One element step of the 1-vs-1 arithmetic: acc += (q - x)^2 for squared
// L2, acc += q * x for the dot product.
template <bool kL2>
__attribute__((target("avx2,fma"))) inline __m256 Step(__m256 q, __m256 x,
                                                        __m256 acc) {
  if constexpr (kL2) {
    const __m256 diff = _mm256_sub_ps(q, x);
    return _mm256_fmadd_ps(diff, diff, acc);
  } else {
    return _mm256_fmadd_ps(q, x, acc);
  }
}

// squared_l2 (kL2) or dot of `query` against one row.
template <bool kL2>
__attribute__((target("avx2,fma"))) float OneRow(const float* query,
                                                 const float* x, size_t d) {
  __m256 acc = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc = Step<kL2>(_mm256_loadu_ps(query + i), _mm256_loadu_ps(x + i), acc);
  }
  const size_t rem = d - i;
  if (rem > 0) {
    const __m256i mask = TailMask(rem);
    acc = Step<kL2>(_mm256_maskload_ps(query + i, mask),
                    _mm256_maskload_ps(x + i, mask), acc);
  }
  return Reduce8(acc);
}

// out[0..4) = OneRow<kL2> of `query` against rows x0..x3, four rows in
// flight: one accumulator per row, so the rows' FMA chains (and, for
// gathered rows, their cache misses) overlap instead of each waiting on the
// previous row's reduction. Every row still sees exactly the 1-vs-1
// arithmetic (same lanes, masked tail and Reduce8), so each out[r] is
// bit-identical to it. The one four-row body behind both the block and the
// gather kernels.
template <bool kL2>
__attribute__((target("avx2,fma"))) inline void FourRows(
    const float* query, const float* x0, const float* x1, const float* x2,
    const float* x3, size_t d, float* out) {
  __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
  __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    const __m256 q = _mm256_loadu_ps(query + i);
    a0 = Step<kL2>(q, _mm256_loadu_ps(x0 + i), a0);
    a1 = Step<kL2>(q, _mm256_loadu_ps(x1 + i), a1);
    a2 = Step<kL2>(q, _mm256_loadu_ps(x2 + i), a2);
    a3 = Step<kL2>(q, _mm256_loadu_ps(x3 + i), a3);
  }
  const size_t rem = d - i;
  if (rem > 0) {
    const __m256i mask = TailMask(rem);
    const __m256 q = _mm256_maskload_ps(query + i, mask);
    a0 = Step<kL2>(q, _mm256_maskload_ps(x0 + i, mask), a0);
    a1 = Step<kL2>(q, _mm256_maskload_ps(x1 + i, mask), a1);
    a2 = Step<kL2>(q, _mm256_maskload_ps(x2 + i, mask), a2);
    a3 = Step<kL2>(q, _mm256_maskload_ps(x3 + i, mask), a3);
  }
  out[0] = Reduce8(a0);
  out[1] = Reduce8(a1);
  out[2] = Reduce8(a2);
  out[3] = Reduce8(a3);
}

template <bool kL2>
__attribute__((target("avx2,fma"))) void ScoreBlock(const float* query,
                                                    const float* rows,
                                                    size_t count, size_t d,
                                                    float* out) {
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const float* x = rows + r * d;
    FourRows<kL2>(query, x, x + d, x + 2 * d, x + 3 * d, d, out + r);
  }
  for (; r < count; ++r) out[r] = OneRow<kL2>(query, rows + r * d, d);
}

__attribute__((target("avx2,fma"))) inline void PrefetchRow(const float* row,
                                                            size_t d) {
  const size_t bytes = d * sizeof(float);
  __builtin_prefetch(row);
  if (bytes > 64) __builtin_prefetch(reinterpret_cast<const char*>(row) + 64);
}

// Gathered rows go through the block kernel's four-row body, prefetching
// the rows kPrefetchAhead ids ahead.
template <bool kL2>
__attribute__((target("avx2,fma"))) void ScoreIds(const float* query,
                                                  const float* base, size_t d,
                                                  const uint32_t* ids,
                                                  size_t count, float* out) {
  const auto row = [&](size_t i) {
    return base + static_cast<size_t>(ids[i]) * d;
  };
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const size_t ahead_end = std::min(count, i + 4 + kPrefetchAhead);
    for (size_t j = i + kPrefetchAhead; j < ahead_end; ++j) {
      PrefetchRow(row(j), d);
    }
    FourRows<kL2>(query, row(i), row(i + 1), row(i + 2), row(i + 3), d,
                  out + i);
  }
  for (; i < count; ++i) out[i] = OneRow<kL2>(query, row(i), d);
}

// One element of a subspace against eight codewords: the query's value at
// `q` broadcast, the codewords' values at `x`.
template <bool kL2>
__attribute__((target("avx2,fma"))) inline __m256 AdcStep(const float* q,
                                                          const float* x,
                                                          __m256 acc) {
  return Step<kL2>(_mm256_broadcast_ss(q), _mm256_loadu_ps(x), acc);
}

// One subspace row of the ADC table, eight codewords (SIMD lanes) at a time:
// a[j] holds lane j of the 1-vs-1 arithmetic for every codeword in flight,
// fed by the subvector's elements i with i % 8 == j in order, and the
// reduction tree of Reduce8 runs across the eight accumulators. Slots from
// `rows` on are zeroed, then `sign` flips the sign bits. Inlined into
// AdcTableAvx2: a call per subspace costs as much as the row.
template <bool kL2>
__attribute__((target("avx2,fma"), always_inline)) inline void AdcRow(
    const float* query, const float* cols, size_t sd, size_t stride,
    size_t rows, size_t k, __m256 sign, float* out) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (size_t c = 0; c < k; c += 8) {
    __m256 a[8];
#pragma GCC unroll 8
    for (int j = 0; j < 8; ++j) a[j] = _mm256_setzero_ps();
    const float* x = cols + c;
    size_t i = 0;
    for (; i + 8 <= sd; i += 8) {
#pragma GCC unroll 8
      for (int j = 0; j < 8; ++j) {
        a[j] = AdcStep<kL2>(query + i + j, x + (i + j) * stride, a[j]);
      }
    }
    switch (sd - i) {  // the last sd % 8 elements, one lane each
      case 7: a[6] = AdcStep<kL2>(query + i + 6, x + (i + 6) * stride, a[6]);
        [[fallthrough]];
      case 6: a[5] = AdcStep<kL2>(query + i + 5, x + (i + 5) * stride, a[5]);
        [[fallthrough]];
      case 5: a[4] = AdcStep<kL2>(query + i + 4, x + (i + 4) * stride, a[4]);
        [[fallthrough]];
      case 4: a[3] = AdcStep<kL2>(query + i + 3, x + (i + 3) * stride, a[3]);
        [[fallthrough]];
      case 3: a[2] = AdcStep<kL2>(query + i + 2, x + (i + 2) * stride, a[2]);
        [[fallthrough]];
      case 2: a[1] = AdcStep<kL2>(query + i + 1, x + (i + 1) * stride, a[1]);
        [[fallthrough]];
      case 1: a[0] = AdcStep<kL2>(query + i, x + i * stride, a[0]);
        [[fallthrough]];
      default: break;
    }
    const __m256 even = _mm256_add_ps(_mm256_add_ps(a[0], a[4]),
                                      _mm256_add_ps(a[2], a[6]));
    const __m256 odd = _mm256_add_ps(_mm256_add_ps(a[1], a[5]),
                                     _mm256_add_ps(a[3], a[7]));
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(rows - std::min(rows, c))), lane);
    const __m256 v = _mm256_xor_ps(
        _mm256_and_ps(_mm256_add_ps(even, odd), _mm256_castsi256_ps(live)),
        sign);
    if (c + 8 <= k) {
      _mm256_storeu_ps(out + c, v);
    } else {
      _mm256_maskstore_ps(out + c, TailMask(k - c), v);
    }
  }
}

__attribute__((target("avx2,fma"))) void AdcTableAvx2(
    const float* query, const AdcCodebooks& books, AdcTableKind kind,
    float* out) {
  const __m256 sign = _mm256_set1_ps(kind == AdcTableKind::kNegatedDot ? -0.0f
                                                                       : 0.0f);
  for (size_t s = 0; s < books.m; ++s) {
    const size_t off = books.offsets[s];
    const size_t sd = books.offsets[s + 1] - off;
    const float* cols = books.codewords + off * books.stride;
    float* row = out + s * books.k;
    if (kind == AdcTableKind::kSquaredL2) {
      AdcRow<true>(query + off, cols, sd, books.stride, books.rows[s], books.k,
                   sign, row);
    } else {
      AdcRow<false>(query + off, cols, sd, books.stride, books.rows[s],
                    books.k, sign, row);
    }
  }
}

// One register tile of the GEMM entry: rows [0, R) of `a` against columns
// [0, 8 * V) of `b` (the last vector masked to `tail` when kTail), with one
// accumulator per row and vector held across the whole k loop. Every
// element starts at +0 and takes fma(a(r, p), b(p, j), acc) for p in order.
template <int R, int V, bool kTail>
__attribute__((target("avx2,fma"))) inline void GemmTile(
    const float* a, size_t a_row, size_t a_col, const float* b, size_t k,
    size_t m, __m256i tail, float* c) {
  __m256 acc[R][V];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (size_t p = 0; p < k; ++p) {
    const float* bp = b + p * m;
    __m256 bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      bv[v] = kTail && v == V - 1 ? _mm256_maskload_ps(bp + 8 * v, tail)
                                  : _mm256_loadu_ps(bp + 8 * v);
    }
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 ar = _mm256_broadcast_ss(a + r * a_row + p * a_col);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(ar, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      float* out = c + r * m + 8 * v;
      if (kTail && v == V - 1) {
        _mm256_maskstore_ps(out, tail, acc[r][v]);
      } else {
        _mm256_storeu_ps(out, acc[r][v]);
      }
    }
  }
}

// Columns [j, m) of an R-row band: strips of V vectors, then at most one
// strip at each narrower power of two, then a masked strip for the last
// m % 8 columns.
template <int R, int V>
__attribute__((target("avx2,fma"))) inline void GemmStrips(
    const float* a, size_t a_row, size_t a_col, const float* b, size_t k,
    size_t m, size_t j, float* c) {
  const __m256i none = _mm256_setzero_si256();
  for (; j + 8 * V <= m; j += 8 * V) {
    GemmTile<R, V, false>(a, a_row, a_col, b + j, k, m, none, c + j);
  }
  if constexpr (V > 1) {
    GemmStrips<R, V / 2>(a, a_row, a_col, b, k, m, j, c);
  } else if (j < m) {
    GemmTile<R, 1, true>(a, a_row, a_col, b + j, k, m, TailMask(m - j),
                         c + j);
  }
}

// Four-row bands of two-vector strips (eight accumulators); a remainder of
// three rows runs two-vector strips, two rows four-vector strips and one
// row eight-vector strips, so short row counts (one serving query per
// model) still keep several FMA chains in flight.
__attribute__((target("avx2,fma"))) void GemmAvx2(const float* a,
                                                  size_t a_row, size_t a_col,
                                                  const float* b, size_t n,
                                                  size_t k, size_t m,
                                                  float* c) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    GemmStrips<4, 2>(a + i * a_row, a_row, a_col, b, k, m, 0, c + i * m);
  }
  const float* ai = a + i * a_row;
  float* ci = c + i * m;
  switch (n - i) {
    case 3:
      GemmStrips<3, 2>(ai, a_row, a_col, b, k, m, 0, ci);
      break;
    case 2:
      GemmStrips<2, 4>(ai, a_row, a_col, b, k, m, 0, ci);
      break;
    case 1:
      GemmStrips<1, 8>(ai, a_row, a_col, b, k, m, 0, ci);
      break;
    default:
      break;
  }
}

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

}  // namespace

const DistanceKernels* Avx2KernelsOrNull() {
  static const DistanceKernels kernels = {
      "avx2",           OneRow<true>,     OneRow<false>,
      ScoreBlock<true>, ScoreBlock<false>, ScoreIds<true>,
      ScoreIds<false>,  AdcTableAvx2,     GemmAvx2,
  };
  static const bool supported = CpuHasAvx2Fma();
  return supported ? &kernels : nullptr;
}

}  // namespace usp

#else  // non-x86: the scalar set is the only implementation.

namespace usp {
const DistanceKernels* Avx2KernelsOrNull() { return nullptr; }
}  // namespace usp

#endif
