#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "dist/distance_kernels.h"
#include "util/thread_pool.h"

namespace usp {

namespace {
constexpr size_t kRowGrain = 16;  // min rows per parallel chunk
}  // namespace

void Gemm(MatrixView a, const Matrix& b, Matrix* c) {
  USP_CHECK(a.cols() == b.rows());
  USP_CHECK(c->rows() == a.rows() && c->cols() == b.cols());
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  const DistanceKernels& kd = GetDistanceKernels();
  ParallelFor(n, kRowGrain, [&](size_t begin, size_t end, size_t) {
    kd.gemm(a.Row(begin), k, 1, b.data(), end - begin, k, m, c->Row(begin));
  });
}

void GemmTransposedB(MatrixView a, const Matrix& b, Matrix* c) {
  USP_CHECK(a.cols() == b.cols());
  USP_CHECK(c->rows() == a.rows() && c->cols() == b.rows());
  const size_t n = a.rows(), k = a.cols(), m = b.rows();
  const DistanceKernels& kd = GetDistanceKernels();
  ParallelFor(n, kRowGrain, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      kd.score_block_dot(a.Row(i), b.data(), m, k, c->Row(i));
    }
  });
}

void GemmTransposedA(const Matrix& a, const Matrix& b, Matrix* c) {
  USP_CHECK(a.rows() == b.rows());
  USP_CHECK(c->rows() == a.cols() && c->cols() == b.cols());
  const size_t k = a.rows(), n = a.cols(), m = b.cols();
  const DistanceKernels& kd = GetDistanceKernels();
  if (k == 0) {  // an empty A may have no storage to offset into
    c->Fill(0.0f);
    return;
  }
  // Parallelize over output rows (columns of A): each worker owns disjoint
  // rows of C, so no synchronization is needed. Row i of C reads column i of
  // A, so the kernel walks A with strides (1, n).
  ParallelFor(n, kRowGrain, [&](size_t begin, size_t end, size_t) {
    kd.gemm(a.data() + begin, 1, n, b.data(), end - begin, k, m,
            c->Row(begin));
  });
}

void RowSquaredNorms(MatrixView m, std::vector<float>* out) {
  out->resize(m.rows());
  const DistanceKernels& kd = GetDistanceKernels();
  ParallelFor(m.rows(), 64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      (*out)[i] = kd.dot(m.Row(i), m.Row(i), m.cols());
    }
  });
}

void NormalizeRows(Matrix* m) {
  const size_t d = m->cols();
  const DistanceKernels& kd = GetDistanceKernels();
  ParallelFor(m->rows(), 64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      float* row = m->Row(i);
      const float norm = std::sqrt(kd.dot(row, row, d));
      if (norm > 0.0f) {
        const float inv = 1.0f / norm;
        for (size_t j = 0; j < d; ++j) row[j] *= inv;
      }
    }
  });
}

void PairwiseSquaredDistances(MatrixView a, const Matrix& b, Matrix* dist) {
  USP_CHECK(a.cols() == b.cols());
  USP_CHECK(dist->rows() == a.rows() && dist->cols() == b.rows());
  std::vector<float> a_norms, b_norms;
  RowSquaredNorms(a, &a_norms);
  RowSquaredNorms(b, &b_norms);
  GemmTransposedB(a, b, dist);
  ParallelFor(a.rows(), kRowGrain, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      float* row = dist->Row(i);
      const float an = a_norms[i];
      for (size_t j = 0; j < b.rows(); ++j) {
        row[j] = std::max(0.0f, an + b_norms[j] - 2.0f * row[j]);
      }
    }
  });
}

float SquaredDistance(const float* x, const float* y, size_t d) {
  return GetDistanceKernels().squared_l2(x, y, d);
}

float Dot(const float* x, const float* y, size_t d) {
  return GetDistanceKernels().dot(x, y, d);
}

void SoftmaxRows(Matrix* m) {
  ParallelFor(m->rows(), 64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      float* row = m->Row(i);
      const size_t c = m->cols();
      float mx = row[0];
      for (size_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
      float sum = 0.0f;
      for (size_t j = 0; j < c; ++j) {
        row[j] = std::exp(row[j] - mx);
        sum += row[j];
      }
      const float inv = 1.0f / sum;
      for (size_t j = 0; j < c; ++j) row[j] *= inv;
    }
  });
}

void LogSoftmaxRows(const Matrix& in, Matrix* out) {
  USP_CHECK(in.rows() == out->rows() && in.cols() == out->cols());
  ParallelFor(in.rows(), 64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      const float* src = in.Row(i);
      float* dst = out->Row(i);
      const size_t c = in.cols();
      float mx = src[0];
      for (size_t j = 1; j < c; ++j) mx = std::max(mx, src[j]);
      float sum = 0.0f;
      for (size_t j = 0; j < c; ++j) sum += std::exp(src[j] - mx);
      const float log_sum = std::log(sum) + mx;
      for (size_t j = 0; j < c; ++j) dst[j] = src[j] - log_sum;
    }
  });
}

std::vector<uint32_t> ArgmaxRows(const Matrix& m) {
  std::vector<uint32_t> out(m.rows());
  ParallelFor(m.rows(), 64, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      const float* row = m.Row(i);
      uint32_t best = 0;
      for (size_t j = 1; j < m.cols(); ++j) {
        if (row[j] > row[best]) best = static_cast<uint32_t>(j);
      }
      out[i] = best;
    }
  });
  return out;
}

std::vector<uint8_t> ColumnTopKMask(const Matrix& m, size_t k) {
  const size_t rows = m.rows(), cols = m.cols();
  std::vector<uint8_t> mask(rows * cols, 0);
  k = std::min(k, rows);
  if (k == 0) return mask;
  ParallelFor(cols, 1, [&](size_t begin, size_t end, size_t) {
    std::vector<uint32_t> order(rows);
    for (size_t j = begin; j < end; ++j) {
      std::iota(order.begin(), order.end(), 0u);
      std::nth_element(order.begin(), order.begin() + (k - 1), order.end(),
                       [&](uint32_t a, uint32_t b) {
                         const float va = m(a, j), vb = m(b, j);
                         if (va != vb) return va > vb;
                         return a < b;  // deterministic tie-break
                       });
      for (size_t r = 0; r < k; ++r) mask[order[r] * cols + j] = 1;
    }
  });
  return mask;
}

double MaskedSum(const Matrix& m, const std::vector<uint8_t>& mask) {
  USP_CHECK(mask.size() == m.size());
  double total = 0.0;
  const float* data = m.data();
  for (size_t i = 0; i < m.size(); ++i) {
    if (mask[i]) total += data[i];
  }
  return total;
}

void Axpy(float alpha, const Matrix& x, Matrix* y) {
  USP_CHECK(x.rows() == y->rows() && x.cols() == y->cols());
  float* yd = y->data();
  const float* xd = x.data();
  for (size_t i = 0; i < x.size(); ++i) yd[i] += alpha * xd[i];
}

double Mean(const Matrix& m) {
  if (m.size() == 0) return 0.0;
  double sum = std::accumulate(m.data(), m.data() + m.size(), 0.0);
  return sum / static_cast<double>(m.size());
}

}  // namespace usp
