// Low-level distance kernels behind every search path: 1-vs-1 distances,
// batched 1-vs-many scoring over contiguous rows (centroid/codebook scans),
// gather-by-id scoring (candidate rerank), and the row kernel of every dense
// GEMM (tensor/ops.h: training and bin scoring). One implementation set is
// selected ONCE at process startup by runtime CPU detection:
//
//   - "avx2":   AVX2 + FMA vector kernels (x86-64 with both features)
//   - "scalar": portable fallback
//
// Set USP_FORCE_SCALAR=1 in the environment to pin the scalar set.
//
// Bit-compatibility contract: the scalar `squared_l2` and `dot` mirror the
// AVX2 arithmetic exactly — eight independent fused-multiply-add lanes
// (element i feeds lane i % 8) reduced by the fixed tree
// ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)) — so both sets produce bitwise
// identical results for identical inputs. `score_block_*` / `score_ids_*`
// apply the matching 1-vs-1 arithmetic per row and inherit the guarantee.
// The AVX2 `score_block_*` and `score_ids_*` share one four-row body: four
// rows in flight (contiguous, or gathered by id), one accumulator per row,
// so the rows' FMA chains and the gathered rows' cache misses overlap; a
// remainder of fewer than four rows finishes one at a time. Each row's
// arithmetic — lanes, masked tail, reduction tree — is unchanged, so out[r]
// still equals the 1-vs-1 kernel bit for bit. tests/dist_test.cc enforces
// this for both kernel pairs across dims covering every SIMD tail and row
// counts covering every remainder of the four-row loop.
//
// `adc_table` builds a product quantizer's whole per-query lookup table in
// one call. It runs every subspace's codewords eight at a time, one codeword
// per SIMD lane, from the dim-major layout of AdcCodebooks: eight
// accumulators stand for the eight lanes of the 1-vs-1 kernels (the
// subvector's element i feeds accumulator i % 8), and the same tree reduces
// them, lane-wise across codewords. Every entry therefore equals its
// subspace's score_block_l2 or score_block_dot row bit for bit, in both sets,
// with no horizontal reduction per codeword; the negation of an IP/cosine
// table is a sign flip on the way out.
//
// `gemm` computes whole output rows. Each element starts at +0 and takes the
// products for p = 0, 1, ..., k-1 in order, one step each: the sequence of the
// memset-plus-axpy loop (c_i += a_ip * b_p, one call per p) that the entry
// replaced, so its outputs keep that loop's bits. The scalar set is that loop
// as written (a multiply and an add per step, unless the whole build targets an
// FMA machine and the compiler fuses them). The AVX2 set adds each product with
// one fused multiply-add, as the old vector axpy did (GCC contracted its scalar
// tail into an FMA too, so tail columns match), but keeps a register tile in
// accumulators across the whole k loop instead of loading and storing the
// output row once per p: 4 rows x 16 columns (eight accumulators), and for a
// remainder of 3, 2 or 1 rows 3 x 16, 2 x 32 or 1 x 64, so a single query still
// has several FMA chains in flight; narrower strips and one masked strip finish
// the last columns. The two sets round differently, so GEMM carries no
// cross-set bit promise; tests/dist_test.cc pins each set against its axpy
// loop bit for bit.
#ifndef USP_DIST_DISTANCE_KERNELS_H_
#define USP_DIST_DISTANCE_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace usp {

/// Which per-query ADC lookup table DistanceKernels::adc_table builds.
enum class AdcTableKind : uint8_t {
  kSquaredL2,   ///< squared distances of subvector and codeword
  kDot,         ///< their inner products
  kNegatedDot,  ///< the inner products negated (IP/cosine ADC ranking)
};

/// A product quantizer's codebooks laid out for DistanceKernels::adc_table.
/// Subspace s covers the query dims [offsets[s], offsets[s + 1]) and has
/// rows[s] <= k codewords. The layout is dim-major: the value of codeword c
/// at query dim j (a dim of subspace s) is codewords[j * stride + c], where
/// stride is k rounded up to a multiple of 8 and the slots from rows[s] on
/// hold 0.
struct AdcCodebooks {
  const float* codewords = nullptr;
  const size_t* offsets = nullptr;  ///< m + 1 subspace boundaries
  const size_t* rows = nullptr;     ///< m codeword counts
  size_t m = 0;
  size_t k = 0;       ///< table row length (the codebook size)
  size_t stride = 0;  ///< k rounded up to a multiple of 8
};

/// Function table for one kernel implementation set. All pointers are
/// non-null. `d` is the vector dimensionality; rows are dense row-major.
struct DistanceKernels {
  const char* name;  ///< "scalar" or "avx2"

  /// ||x - y||^2.
  float (*squared_l2)(const float* x, const float* y, size_t d);

  /// <x, y>.
  float (*dot)(const float* x, const float* y, size_t d);

  /// out[r] = ||query - rows[r*d .. r*d+d)||^2 for r in [0, count).
  void (*score_block_l2)(const float* query, const float* rows, size_t count,
                         size_t d, float* out);

  /// out[r] = <query, rows[r*d ..]> for r in [0, count).
  void (*score_block_dot)(const float* query, const float* rows, size_t count,
                          size_t d, float* out);

  /// out[i] = ||query - base[ids[i]*d ..]||^2, software-prefetching the
  /// gathered rows a few ids ahead; bit-identical to squared_l2 per row in
  /// any id order (the AVX2 set scores four gathered rows at a time).
  void (*score_ids_l2)(const float* query, const float* base, size_t d,
                       const uint32_t* ids, size_t count, float* out);

  /// out[i] = <query, base[ids[i]*d ..]>, prefetched gather; bit-identical
  /// to dot per row.
  void (*score_ids_dot)(const float* query, const float* base, size_t d,
                        const uint32_t* ids, size_t count, float* out);

  /// The (m x k) ADC lookup table of one query: for every subspace s and
  /// codeword c < rows[s], out[s * k + c] is score_block_l2 (kSquaredL2) or
  /// score_block_dot (kDot) of the query's subvector s against codeword c,
  /// bit for bit; the rest of each row is +0. kNegatedDot flips the sign of
  /// every kDot entry, the padding included (it becomes -0).
  void (*adc_table)(const float* query, const AdcCodebooks& books,
                    AdcTableKind kind, float* out);

  /// n rows of a matrix product: c[i*m + j] = sum over p < k of
  /// a[i*a_row + p*a_col] * b[p*m + j], for i < n and j < m; `b` is a dense
  /// (k x m) block and `c` a dense (n x m) block that aliases neither input.
  /// Strides (k, 1) read `a` as the (n x k) left operand of A*B; strides
  /// (1, lda) read it as the transpose of a (k x lda) matrix, for A^T*B. See
  /// the file comment for the per-element arithmetic.
  void (*gemm)(const float* a, size_t a_row, size_t a_col, const float* b,
               size_t n, size_t k, size_t m, float* c);
};

/// The portable fallback set (always available).
const DistanceKernels& ScalarKernels();

/// The AVX2+FMA set, or nullptr when not compiled in or the CPU lacks
/// AVX2/FMA. Exposed for tests and benchmarks.
const DistanceKernels* Avx2KernelsOrNull();

/// Selection policy: the AVX2 set when available and not `force_scalar`,
/// else the scalar set. Exposed so tests can exercise both branches without
/// re-launching the process.
const DistanceKernels& SelectKernels(bool force_scalar);

/// The process-wide kernel set, resolved once on first use from CPU
/// detection and the USP_FORCE_SCALAR environment variable.
const DistanceKernels& GetDistanceKernels();

}  // namespace usp

#endif  // USP_DIST_DISTANCE_KERNELS_H_
