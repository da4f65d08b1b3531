#include "baselines/kmeans.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "dist/distance_kernels.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace usp {

Matrix KMeansPlusPlusInit(MatrixView data, size_t k, Rng* rng) {
  const size_t n = data.rows(), d = data.cols();
  Matrix centroids(k, d);
  const DistanceKernels& kd = GetDistanceKernels();
  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  std::vector<float> prev_dist(n);
  size_t first = rng->UniformInt(n);
  std::memcpy(centroids.Row(0), data.Row(first), d * sizeof(float));
  for (size_t c = 1; c < k; ++c) {
    // 1-vs-many block scan of the whole dataset against the latest center.
    kd.score_block_l2(centroids.Row(c - 1), data.data(), n, d,
                      prev_dist.data());
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      min_dist[i] = std::min(min_dist[i], prev_dist[i]);
      total += min_dist[i];
    }
    size_t chosen = 0;
    if (total > 0.0) {
      double target = rng->Uniform() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_dist[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng->UniformInt(n);
    }
    std::memcpy(centroids.Row(c), data.Row(chosen), d * sizeof(float));
  }
  return centroids;
}

namespace {

// Assignment step shared by the streaming paths: nearest centroid per chunk
// row via the 1-vs-many block kernel, deterministic strict-< argmin (lowest
// index wins ties) — the exact loop of RunKMeans' assignment phase.
void AssignChunk(MatrixView chunk, const Matrix& centroids, uint32_t* assign,
                 float* point_dist) {
  const size_t m = chunk.rows(), d = chunk.cols(), k = centroids.rows();
  const DistanceKernels& kd = GetDistanceKernels();
  ParallelFor(m, 64, [&](size_t begin, size_t end, size_t) {
    std::vector<float> dist(k);
    for (size_t i = begin; i < end; ++i) {
      kd.score_block_l2(chunk.Row(i), centroids.data(), k, d, dist.data());
      float best = std::numeric_limits<float>::max();
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        if (dist[c] < best) {
          best = dist[c];
          best_c = static_cast<uint32_t>(c);
        }
      }
      assign[i] = best_c;
      point_dist[i] = best;
    }
  });
}

}  // namespace

KMeansResult RunKMeans(const Matrix& data, const KMeansConfig& config) {
  const size_t n = data.rows(), d = data.cols();
  const size_t k = std::min(config.num_clusters, n);
  USP_CHECK(k >= 1);
  Rng rng(config.seed);

  KMeansResult result;
  result.centroids = KMeansPlusPlusInit(data, k, &rng);
  result.assignments.assign(n, 0);
  std::vector<float> point_dist(n, 0.0f);
  double prev_inertia = std::numeric_limits<double>::max();

  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step (parallel): 1-vs-many scan over the contiguous
    // centroid rows, then a deterministic argmin (strict < keeps the lowest
    // index on ties, matching the historical per-centroid loop).
    AssignChunk(data, result.centroids, result.assignments.data(),
                point_dist.data());
    double inertia = 0.0;
    for (size_t i = 0; i < n; ++i) inertia += point_dist[i];
    result.inertia = inertia;

    // Update step.
    Matrix sums(k, d);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t c = result.assignments[i];
      ++counts[c];
      const float* x = data.Row(i);
      float* s = sums.Row(c);
      for (size_t j = 0; j < d; ++j) s[j] += x[j];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Reseed an empty cluster from the worst-served point.
        size_t farthest = 0;
        for (size_t i = 1; i < n; ++i) {
          if (point_dist[i] > point_dist[farthest]) farthest = i;
        }
        std::memcpy(result.centroids.Row(c), data.Row(farthest),
                    d * sizeof(float));
        point_dist[farthest] = 0.0f;
        continue;
      }
      const float inv = 1.0f / static_cast<float>(counts[c]);
      float* dst = result.centroids.Row(c);
      const float* s = sums.Row(c);
      for (size_t j = 0; j < d; ++j) dst[j] = s[j] * inv;
    }

    if (prev_inertia < std::numeric_limits<double>::max() &&
        prev_inertia - inertia <= config.tolerance * prev_inertia) {
      break;
    }
    prev_inertia = inertia;
  }
  return result;
}

StatusOr<MiniBatchKMeansResult> RunMiniBatchKMeans(
    ChunkStream* data, MatrixView seeding_sample,
    const MiniBatchKMeansConfig& config) {
  const size_t d = data->dim();
  if (config.chunk_rows == 0) {
    return Status::InvalidArgument("MiniBatchKMeansConfig::chunk_rows must be > 0");
  }
  if (config.epochs == 0) {
    return Status::InvalidArgument("MiniBatchKMeansConfig::epochs must be > 0");
  }
  if (config.num_clusters == 0) {
    return Status::InvalidArgument(
        "MiniBatchKMeansConfig::num_clusters must be > 0");
  }
  if (seeding_sample.rows() == 0 || seeding_sample.cols() != d) {
    return Status::InvalidArgument(
        "seeding sample must be non-empty and match the stream dimension");
  }
  const size_t k = std::min(config.num_clusters, seeding_sample.rows());
  USP_CHECK(k >= 1);
  Rng rng(config.seed);

  MiniBatchKMeansResult result;
  result.centroids = KMeansPlusPlusInit(seeding_sample, k, &rng);

  Matrix sums(k, d);
  std::vector<size_t> chunk_counts(k, 0);
  std::vector<uint64_t> counts(k, 0);  ///< points absorbed this epoch
  std::vector<uint32_t> assign;
  std::vector<float> point_dist;
  double prev_inertia = std::numeric_limits<double>::max();

  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    result.epochs_run = epoch + 1;
    Status status = data->Reset();
    if (!status.ok()) return status;
    // Counts restart each epoch: the first chunk of every epoch fully adopts
    // its chunk means (learning rate 1), later chunks blend in with weight
    // proportional to their share of the epoch's points. With one chunk
    // spanning the whole stream this update IS a Lloyd iteration, bit for
    // bit — same kernels, same accumulation order, same reseed rule.
    std::fill(counts.begin(), counts.end(), 0);
    double inertia = 0.0;
    for (;;) {
      StatusOr<MatrixView> chunk_or = data->NextChunk(config.chunk_rows);
      if (!chunk_or.ok()) return chunk_or.status();
      const MatrixView chunk = chunk_or.value();
      const size_t m = chunk.rows();
      if (m == 0) break;
      if (assign.size() < m) {
        assign.resize(m);
        point_dist.resize(m);
      }
      AssignChunk(chunk, result.centroids, assign.data(), point_dist.data());
      for (size_t i = 0; i < m; ++i) inertia += point_dist[i];

      sums.Fill(0.0f);
      std::fill(chunk_counts.begin(), chunk_counts.end(), 0);
      for (size_t i = 0; i < m; ++i) {
        const uint32_t c = assign[i];
        ++chunk_counts[c];
        const float* x = chunk.Row(i);
        float* s = sums.Row(c);
        for (size_t j = 0; j < d; ++j) s[j] += x[j];
      }
      for (size_t c = 0; c < k; ++c) {
        if (chunk_counts[c] == 0) {
          if (counts[c] == 0) {
            // A center no chunk has fed this epoch: reseed from the current
            // chunk's worst-served point (RunKMeans' farthest-point rule).
            size_t farthest = 0;
            for (size_t i = 1; i < m; ++i) {
              if (point_dist[i] > point_dist[farthest]) farthest = i;
            }
            std::memcpy(result.centroids.Row(c), chunk.Row(farthest),
                        d * sizeof(float));
            point_dist[farthest] = 0.0f;
          }
          continue;
        }
        const float inv = 1.0f / static_cast<float>(chunk_counts[c]);
        float* dst = result.centroids.Row(c);
        const float* s = sums.Row(c);
        if (counts[c] == 0) {
          // First feed of the epoch: adopt the chunk mean outright, with
          // RunKMeans' exact arithmetic (sum * (1/count)).
          for (size_t j = 0; j < d; ++j) dst[j] = s[j] * inv;
        } else {
          const float lr =
              static_cast<float>(chunk_counts[c]) /
              static_cast<float>(counts[c] + chunk_counts[c]);
          for (size_t j = 0; j < d; ++j) dst[j] += lr * (s[j] * inv - dst[j]);
        }
        counts[c] += chunk_counts[c];
      }
    }
    result.inertia = inertia;
    if (prev_inertia < std::numeric_limits<double>::max() &&
        prev_inertia - inertia <= config.tolerance * prev_inertia) {
      break;
    }
    prev_inertia = inertia;
  }
  return result;
}

StatusOr<double> StreamInertia(ChunkStream* data, const Matrix& centroids,
                               size_t chunk_rows) {
  if (chunk_rows == 0) {
    return Status::InvalidArgument("chunk_rows must be > 0");
  }
  Status status = data->Reset();
  if (!status.ok()) return status;
  std::vector<uint32_t> assign;
  std::vector<float> point_dist;
  double inertia = 0.0;
  for (;;) {
    StatusOr<MatrixView> chunk_or = data->NextChunk(chunk_rows);
    if (!chunk_or.ok()) return chunk_or.status();
    const MatrixView chunk = chunk_or.value();
    if (chunk.rows() == 0) break;
    if (assign.size() < chunk.rows()) {
      assign.resize(chunk.rows());
      point_dist.resize(chunk.rows());
    }
    AssignChunk(chunk, centroids, assign.data(), point_dist.data());
    for (size_t i = 0; i < chunk.rows(); ++i) inertia += point_dist[i];
  }
  return inertia;
}

KMeansPartitioner::KMeansPartitioner(const Matrix& data,
                                     const KMeansConfig& config) {
  centroids_ = std::move(RunKMeans(data, config).centroids);
}

KMeansPartitioner::KMeansPartitioner(Matrix centroids, Metric metric)
    : centroids_(std::move(centroids)), metric_(metric) {
  if (metric_ == Metric::kCosine) NormalizeRows(&centroids_);
}

KMeansPartitioner KMeansPartitioner::FromTrainedCentroids(Matrix centroids,
                                                          Metric metric) {
  KMeansPartitioner partitioner(std::move(centroids), Metric::kSquaredL2);
  partitioner.metric_ = metric;
  return partitioner;
}

Matrix KMeansPartitioner::ScoreBins(MatrixView points) const {
  Matrix scores(points.rows(), centroids_.rows());
  switch (metric_) {
    case Metric::kSquaredL2: {
      PairwiseSquaredDistances(points, centroids_, &scores);
      for (size_t i = 0; i < scores.size(); ++i) {
        scores.data()[i] = -scores.data()[i];
      }
      break;
    }
    case Metric::kInnerProduct:
      GemmTransposedB(points, centroids_, &scores);
      break;
    case Metric::kCosine: {
      // Cosine similarity against the unit centroids; normalizing the points
      // makes scores scale-free (ranking would survive without it, but
      // AssignBins/argmax comparisons stay well-conditioned this way).
      Matrix normalized = points.Clone();
      NormalizeRows(&normalized);
      GemmTransposedB(normalized, centroids_, &scores);
      break;
    }
  }
  return scores;
}

}  // namespace usp
