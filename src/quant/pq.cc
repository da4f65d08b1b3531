#include "quant/pq.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "baselines/kmeans.h"
#include "dist/distance_kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace usp {

ProductQuantizer::ProductQuantizer(PqConfig config)
    : config_(std::move(config)) {
  USP_CHECK(config_.num_subspaces >= 1);
  USP_CHECK(config_.codebook_size >= 1 && config_.codebook_size <= 256);
}

ProductQuantizer::ProductQuantizer(PqConfig config, size_t dims,
                                   std::vector<size_t> offsets,
                                   std::vector<Matrix> codebooks)
    : ProductQuantizer(std::move(config)) {
  dims_ = dims;
  subspace_offsets_ = std::move(offsets);
  codebooks_ = std::move(codebooks);
  USP_CHECK(subspace_offsets_.size() == config_.num_subspaces + 1);
  USP_CHECK(codebooks_.size() == config_.num_subspaces);
  USP_CHECK(subspace_offsets_.front() == 0 &&
            subspace_offsets_.back() == dims_);
  for (size_t s = 0; s < codebooks_.size(); ++s) {
    USP_CHECK(codebooks_[s].cols() == SubspaceDim(s));
  }
  LayOutCodebooks();
}

void ProductQuantizer::LayOutCodebooks() {
  const size_t k = config_.codebook_size;
  adc_stride_ = (k + 7) / 8 * 8;
  adc_codewords_.assign(dims_ * adc_stride_, 0.0f);
  adc_rows_.resize(codebooks_.size());
  for (size_t s = 0; s < codebooks_.size(); ++s) {
    const Matrix& cb = codebooks_[s];
    USP_CHECK(cb.rows() <= k);
    adc_rows_[s] = cb.rows();
    float* cols = adc_codewords_.data() + SubspaceBegin(s) * adc_stride_;
    for (size_t c = 0; c < cb.rows(); ++c) {
      for (size_t i = 0; i < cb.cols(); ++i) {
        cols[i * adc_stride_ + c] = cb.Row(c)[i];
      }
    }
  }
}

void ProductQuantizer::Train(const Matrix& data) {
  dims_ = data.cols();
  const size_t m = config_.num_subspaces;
  USP_CHECK(dims_ >= m);
  // Spread dimensions as evenly as possible over subspaces.
  subspace_offsets_.assign(m + 1, 0);
  for (size_t s = 0; s < m; ++s) {
    subspace_offsets_[s + 1] =
        subspace_offsets_[s] + dims_ / m + (s < dims_ % m ? 1 : 0);
  }

  codebooks_.clear();
  codebooks_.reserve(m);
  const size_t n = data.rows();
  for (size_t s = 0; s < m; ++s) {
    const size_t sd = SubspaceDim(s), off = SubspaceBegin(s);
    Matrix sub(n, sd);
    for (size_t i = 0; i < n; ++i) {
      std::memcpy(sub.Row(i), data.Row(i) + off, sd * sizeof(float));
    }
    KMeansConfig kc;
    kc.num_clusters = std::min(config_.codebook_size, n);
    kc.max_iterations = config_.kmeans_iterations;
    kc.seed = config_.seed + 101 * s;
    KMeansResult km = RunKMeans(sub, kc);

    if (config_.anisotropic_eta > 1.0f) {
      // Anisotropic refinement: Lloyd iterations whose assignment minimizes
      //   eta * (r . xhat)^2 + (||r||^2 - (r . xhat)^2),
      // i.e. residuals parallel to the point direction cost eta times more
      // (they perturb inner-product scores); update step is the plain mean of
      // the re-assigned points.
      const float eta = config_.anisotropic_eta;
      const DistanceKernels& kd = GetDistanceKernels();
      std::vector<uint32_t> assign(n, 0);
      for (size_t iter = 0; iter < 4; ++iter) {
        ParallelFor(n, 128, [&](size_t begin, size_t end, size_t) {
          std::vector<float> r(sd);
          for (size_t i = begin; i < end; ++i) {
            const float* x = sub.Row(i);
            const float x_norm2 = kd.dot(x, x, sd);
            float best = std::numeric_limits<float>::max();
            uint32_t best_c = 0;
            for (size_t c = 0; c < km.centroids.rows(); ++c) {
              const float* cw = km.centroids.Row(c);
              float r2 = 0.0f, r_dot_x = 0.0f;
              for (size_t j = 0; j < sd; ++j) {
                const float rj = x[j] - cw[j];
                r2 += rj * rj;
                r_dot_x += rj * x[j];
              }
              const float par =
                  x_norm2 > 1e-12f ? r_dot_x * r_dot_x / x_norm2 : 0.0f;
              const float cost = eta * par + (r2 - par);
              if (cost < best) {
                best = cost;
                best_c = static_cast<uint32_t>(c);
              }
            }
            assign[i] = best_c;
          }
        });
        // Mean update.
        Matrix sums(km.centroids.rows(), sd);
        std::vector<size_t> counts(km.centroids.rows(), 0);
        for (size_t i = 0; i < n; ++i) {
          ++counts[assign[i]];
          const float* x = sub.Row(i);
          float* dst = sums.Row(assign[i]);
          for (size_t j = 0; j < sd; ++j) dst[j] += x[j];
        }
        for (size_t c = 0; c < km.centroids.rows(); ++c) {
          if (counts[c] == 0) continue;
          const float inv = 1.0f / static_cast<float>(counts[c]);
          float* dst = km.centroids.Row(c);
          const float* src = sums.Row(c);
          for (size_t j = 0; j < sd; ++j) dst[j] = src[j] * inv;
        }
      }
    }
    codebooks_.push_back(std::move(km.centroids));
  }
  LayOutCodebooks();
}

std::vector<uint8_t> ProductQuantizer::Encode(const Matrix& points) const {
  USP_CHECK(points.cols() == dims_);
  const size_t n = points.rows(), m = config_.num_subspaces;
  std::vector<uint8_t> codes(n * m, 0);
  const DistanceKernels& kd = GetDistanceKernels();
  ParallelFor(n, 128, [&](size_t begin, size_t end, size_t) {
    std::vector<float> dist(config_.codebook_size);
    for (size_t i = begin; i < end; ++i) {
      const float* x = points.Row(i);
      for (size_t s = 0; s < m; ++s) {
        const size_t sd = SubspaceDim(s), off = SubspaceBegin(s);
        const Matrix& cb = codebooks_[s];
        kd.score_block_l2(x + off, cb.data(), cb.rows(), sd, dist.data());
        float best = std::numeric_limits<float>::max();
        uint8_t best_c = 0;
        for (size_t c = 0; c < cb.rows(); ++c) {
          if (dist[c] < best) {
            best = dist[c];
            best_c = static_cast<uint8_t>(c);
          }
        }
        codes[i * m + s] = best_c;
      }
    }
  });
  return codes;
}

std::vector<float> ProductQuantizer::BuildAdcTable(const float* query) const {
  std::vector<float> table(config_.num_subspaces * config_.codebook_size);
  BuildTable(query, AdcTableKind::kSquaredL2, table.data());
  return table;
}

std::vector<float> ProductQuantizer::BuildDotTable(const float* query) const {
  std::vector<float> table(config_.num_subspaces * config_.codebook_size);
  BuildTable(query, AdcTableKind::kDot, table.data());
  return table;
}

void ProductQuantizer::BuildTable(const float* query, AdcTableKind kind,
                                  float* out) const {
  AdcCodebooks books;
  books.codewords = adc_codewords_.data();
  books.offsets = subspace_offsets_.data();
  books.rows = adc_rows_.data();
  books.m = config_.num_subspaces;
  books.k = config_.codebook_size;
  books.stride = adc_stride_;
  GetDistanceKernels().adc_table(query, books, kind, out);
}

float ProductQuantizer::AdcDistance(const std::vector<float>& table,
                                    const uint8_t* code) const {
  const size_t m = config_.num_subspaces, k = config_.codebook_size;
  float total = 0.0f;
  for (size_t s = 0; s < m; ++s) total += table[s * k + code[s]];
  return total;
}

void ProductQuantizer::AdcDistances(const std::vector<float>& table,
                                    const uint8_t* codes, const uint32_t* ids,
                                    size_t count, float* out) const {
  const size_t m = config_.num_subspaces, k = config_.codebook_size;
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const uint8_t* c0 = codes + size_t{ids[i]} * m;
    const uint8_t* c1 = codes + size_t{ids[i + 1]} * m;
    const uint8_t* c2 = codes + size_t{ids[i + 2]} * m;
    const uint8_t* c3 = codes + size_t{ids[i + 3]} * m;
    float t0 = 0.0f, t1 = 0.0f, t2 = 0.0f, t3 = 0.0f;
    const float* row = table.data();
    for (size_t s = 0; s < m; ++s, row += k) {
      t0 += row[c0[s]];
      t1 += row[c1[s]];
      t2 += row[c2[s]];
      t3 += row[c3[s]];
    }
    out[i] = t0;
    out[i + 1] = t1;
    out[i + 2] = t2;
    out[i + 3] = t3;
  }
  for (; i < count; ++i) {
    out[i] = AdcDistance(table, codes + size_t{ids[i]} * m);
  }
}

void ProductQuantizer::Decode(const uint8_t* code, float* out) const {
  for (size_t s = 0; s < config_.num_subspaces; ++s) {
    const size_t sd = SubspaceDim(s), off = SubspaceBegin(s);
    std::memcpy(out + off, codebooks_[s].Row(code[s]), sd * sizeof(float));
  }
}

double ProductQuantizer::ReconstructionError(const Matrix& points) const {
  const std::vector<uint8_t> codes = Encode(points);
  std::vector<float> reconstructed(dims_);
  double total = 0.0;
  for (size_t i = 0; i < points.rows(); ++i) {
    Decode(codes.data() + i * config_.num_subspaces, reconstructed.data());
    total += SquaredDistance(points.Row(i), reconstructed.data(), dims_);
  }
  return total / static_cast<double>(points.rows());
}

}  // namespace usp
