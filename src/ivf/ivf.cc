#include "ivf/ivf.h"

#include <utility>

#include "tensor/ops.h"

namespace usp {

/// A trained IVF coarse quantizer and each base row's list: the first step
/// of both IVF types.
struct IvfCoarse {
  std::unique_ptr<KMeansPartitioner> quantizer;
  std::vector<uint32_t> assignments;
  /// The unit-normalized base under kCosine, which the lists are clustered
  /// on (IVF-PQ trains its codebooks on it too); empty otherwise.
  Matrix normalized;
};

namespace {

// The coarse quantizer a saved index stored, wrapped as it was.
std::unique_ptr<KMeansPartitioner> LoadedCoarse(Matrix centroids,
                                                Metric metric) {
  return std::make_unique<KMeansPartitioner>(
      KMeansPartitioner::FromTrainedCentroids(std::move(centroids), metric));
}

// Aborts on an invalid IVF-PQ config; returns it otherwise.
const IvfConfig& CheckedPqConfig(const IvfConfig& config) {
  // Fail loudly rather than silently serving a malformed config; fallible
  // callers (config files, loaders) should run ValidateConfig first.
  USP_CHECK(IvfPqIndex::ValidateConfig(config).ok());
  return config;
}

ScannIndexConfig ScannConfig(const IvfConfig& config) {
  ScannIndexConfig sc;
  sc.rerank_budget = config.rerank_budget;
  return sc;
}

ProductQuantizer TrainPq(const Matrix& rows, const PqConfig& config) {
  ProductQuantizer pq(config);
  pq.Train(rows);
  return pq;
}

// Trains the coarse quantizer of an IVF index over `base` under
// config.metric (see IvfConfig for the scheme).
IvfCoarse TrainIvfCoarse(const Matrix& base, const IvfConfig& config) {
  KMeansConfig kc;
  kc.num_clusters = config.nlist;
  kc.max_iterations = config.kmeans_iterations;
  kc.seed = config.seed;
  IvfCoarse coarse;
  if (config.metric == Metric::kCosine) {
    // Spherical coarse quantizer: k-means on unit-normalized data.
    coarse.normalized = base.Clone();
    NormalizeRows(&coarse.normalized);
  }
  const Matrix& rows =
      config.metric == Metric::kCosine ? coarse.normalized : base;
  KMeansResult km = RunKMeans(rows, kc);
  coarse.quantizer = std::make_unique<KMeansPartitioner>(
      std::move(km.centroids), config.metric);
  if (config.metric == Metric::kInnerProduct) {
    // Standard IVF-IP: lists hold L2-nearest-centroid residents while queries
    // probe lists by centroid inner product.
    coarse.assignments = std::move(km.assignments);
  } else {
    // A point's home list is its query-side rank-1 list: argmax of the same
    // scores (negated L2, or cosine similarity to the unit centroids) that
    // rank probe lists at query time.
    coarse.assignments = coarse.quantizer->AssignBins(rows);
  }
  return coarse;
}

}  // namespace

IvfFlatIndex::IvfFlatIndex(const Matrix* base, const IvfConfig& config)
    : IvfFlatIndex(MatrixView(*base), config,
                   TrainIvfCoarse(*base, config)) {}

IvfFlatIndex::IvfFlatIndex(MatrixView base, const IvfConfig& config,
                           Matrix centroids, std::vector<uint32_t> assignments)
    : IvfFlatIndex(base, config,
                   IvfCoarse{LoadedCoarse(std::move(centroids), config.metric),
                             std::move(assignments), Matrix()}) {}

IvfFlatIndex::IvfFlatIndex(MatrixView base, const IvfConfig& config,
                           IvfCoarse coarse)
    : PartitionIndex(base, coarse.quantizer.get(),
                     std::move(coarse.assignments), config.metric),
      config_(config),
      coarse_(std::move(coarse.quantizer)) {}

Status IvfPqIndex::ValidateConfig(const IvfConfig& config) {
  if (config.nlist == 0) {
    return Status::InvalidArgument("IvfConfig::nlist must be >= 1");
  }
  if (config.pq.num_subspaces == 0) {
    return Status::InvalidArgument("PqConfig::num_subspaces must be >= 1");
  }
  if (config.pq.codebook_size == 0 || config.pq.codebook_size > 256) {
    return Status::InvalidArgument(
        "PqConfig::codebook_size must be in [1, 256] (codes are one byte)");
  }
  return Status::Ok();
}

IvfPqIndex::IvfPqIndex(const Matrix* base, const IvfConfig& config)
    : IvfPqIndex(base, config, TrainIvfCoarse(*base, CheckedPqConfig(config))) {}

IvfPqIndex::IvfPqIndex(const Matrix* base, const IvfConfig& config,
                       IvfCoarse coarse)
    // Codebooks train on the rows the lists cluster: the normalized base
    // under cosine, whose normalized clone ScannIndex encodes.
    : ScannIndex(base, coarse.quantizer.get(),
                 TrainPq(coarse.normalized.empty() ? *base : coarse.normalized,
                         config.pq),
                 ScannConfig(config), config.metric, &coarse.assignments),
      ivf_config_(config),
      coarse_(std::move(coarse.quantizer)) {}

IvfPqIndex::IvfPqIndex(MatrixView base, const IvfConfig& config,
                       Matrix centroids, ProductQuantizer quantizer,
                       const uint8_t* codes,
                       const std::vector<uint32_t>& assignments,
                       const uint8_t* packed)
    : IvfPqIndex(base, CheckedPqConfig(config),
                 LoadedCoarse(std::move(centroids), config.metric),
                 std::move(quantizer), codes, assignments, packed) {}

IvfPqIndex::IvfPqIndex(MatrixView base, const IvfConfig& config,
                       std::unique_ptr<KMeansPartitioner> coarse,
                       ProductQuantizer quantizer, const uint8_t* codes,
                       const std::vector<uint32_t>& assignments,
                       const uint8_t* packed)
    : ScannIndex(base, coarse.get(), std::move(quantizer), ScannConfig(config),
                 codes, assignments, config.metric, packed),
      ivf_config_(config),
      coarse_(std::move(coarse)) {}

}  // namespace usp
