// Parallel kernels on Matrix: GEMM, distances, row softmax, column top-k.
// These are the hot paths for both training (nn/) and search (knn/, quant/).
#ifndef USP_TENSOR_OPS_H_
#define USP_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace usp {

/// C = A * B. A is (n x k), B is (k x m), C is (n x m). Parallel over row
/// chunks, each run by the kernel set's register-tiled `gemm` entry
/// (dist/distance_kernels.h). The A operand is a view so query
/// batches (including zero-copy single-query wraps and mmap'd storage) feed
/// the scoring paths without staging through an owned Matrix.
void Gemm(MatrixView a, const Matrix& b, Matrix* c);

/// C = A * B^T. A is (n x k), B is (m x k), C is (n x m). This layout (both
/// operands row-major over the shared dimension) is the fast path for distance
/// computations and linear layers.
void GemmTransposedB(MatrixView a, const Matrix& b, Matrix* c);

/// C = A^T * B. A is (k x n), B is (k x m), C is (n x m). Used by backprop for
/// weight gradients.
void GemmTransposedA(const Matrix& a, const Matrix& b, Matrix* c);

/// out[i] = ||row i||^2.
void RowSquaredNorms(MatrixView m, std::vector<float>* out);

/// Scales every row to unit L2 norm in place (zero rows stay zero). Used for
/// cosine-metric preprocessing and spectral embeddings.
void NormalizeRows(Matrix* m);

/// dist(i, j) = ||a_i - b_j||^2, computed as |a|^2 + |b|^2 - 2 a.b via GEMM.
/// Clamped at 0 to guard against floating-point cancellation.
void PairwiseSquaredDistances(MatrixView a, const Matrix& b, Matrix* dist);

/// Exact squared Euclidean distance between two d-vectors. Thin wrapper over
/// the dispatched kernel set (src/dist/); hot loops should hoist
/// GetDistanceKernels() and call the kernels directly.
float SquaredDistance(const float* x, const float* y, size_t d);

/// Dot product of two d-vectors (dispatched kernel wrapper, see above).
float Dot(const float* x, const float* y, size_t d);

/// In-place numerically stable softmax applied to each row.
void SoftmaxRows(Matrix* m);

/// Writes log-softmax of each row of `in` into `out` (may alias `in`).
void LogSoftmaxRows(const Matrix& in, Matrix* out);

/// argmax of each row.
std::vector<uint32_t> ArgmaxRows(const Matrix& m);

/// Boolean mask (same shape as `m`) marking, per column, the `k` largest
/// entries. Ties are broken by lower row index. This is the window `w` of
/// Eq. 12 in the paper; the balance-loss gradient flows only through marked
/// entries.
std::vector<uint8_t> ColumnTopKMask(const Matrix& m, size_t k);

/// Sum of the masked entries (the paper's sum over the window `w`, Eq. 13).
double MaskedSum(const Matrix& m, const std::vector<uint8_t>& mask);

/// y += alpha * x, elementwise over matrices of identical shape.
void Axpy(float alpha, const Matrix& x, Matrix* y);

/// Mean of all entries.
double Mean(const Matrix& m);

}  // namespace usp

#endif  // USP_TENSOR_OPS_H_
