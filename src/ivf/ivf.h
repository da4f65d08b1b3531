// FAISS-style inverted-file indexes (the "FAISS" baseline of Fig. 7):
// IVF-Flat (k-means coarse quantizer + exact scan of probed lists) and
// IVF-PQ (same coarse quantizer, ADC scan + exact re-rank inside the lists).
#ifndef USP_IVF_IVF_H_
#define USP_IVF_IVF_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/kmeans.h"
#include "core/partition_index.h"
#include "dist/metric.h"
#include "index/index.h"
#include "quant/pq.h"
#include "quant/scann_index.h"

namespace usp {

/// IVF hyperparameters.
struct IvfConfig {
  size_t nlist = 64;             ///< coarse clusters (inverted lists)
  size_t kmeans_iterations = 20;
  uint64_t seed = 1;
  /// Search metric: kSquaredL2 reproduces the historical behavior exactly.
  /// kInnerProduct keeps L2 list residency (standard IVF-IP) but probes
  /// lists by centroid dot product and reranks by negated inner product.
  /// kCosine trains the coarse quantizer on unit-normalized data (spherical
  /// k-means) and probes/reranks by cosine distance. IVF-PQ follows the same
  /// scheme and ranks its ADC stage by dot-product tables for IP/cosine
  /// (cosine PQ-encodes the normalized base) — see the metric x index table
  /// in docs/ARCHITECTURE.md.
  Metric metric = Metric::kSquaredL2;
  // IVF-PQ only:
  PqConfig pq;
  size_t rerank_budget = 100;
};

/// A coarse quantizer and each base row's list (ivf/ivf.cc).
struct IvfCoarse;

/// IVF-Flat: probe nprobe nearest centroids, scan their lists exactly. A
/// PartitionIndex over its own k-means coarse quantizer: k-NN and radius
/// search, planning and filter pushdown are the base's, with budget =
/// nprobe.
class IvfFlatIndex : public PartitionIndex {
 public:
  IvfFlatIndex(const Matrix* base, const IvfConfig& config);

  /// Rehydrates from deserialized state: `centroids` and `assignments` must
  /// be exactly what a previous index exposed through coarse_quantizer() and
  /// assignments().
  IvfFlatIndex(MatrixView base, const IvfConfig& config, Matrix centroids,
               std::vector<uint32_t> assignments);

  IndexType type() const override { return IndexType::kIvfFlat; }

  const KMeansPartitioner& coarse_quantizer() const { return *coarse_; }
  const IvfConfig& config() const { return config_; }

 private:
  IvfFlatIndex(MatrixView base, const IvfConfig& config, IvfCoarse coarse);

  IvfConfig config_;
  std::unique_ptr<KMeansPartitioner> coarse_;
};

/// IVF-PQ: probe nprobe lists, score with ADC, exact re-rank of the best. A
/// ScannIndex over its own k-means coarse quantizer, with budget = nprobe.
class IvfPqIndex : public ScannIndex {
 public:
  /// Constructing with an invalid config (see ValidateConfig) aborts before
  /// any training; call ValidateConfig first when the config comes from
  /// user input or a file.
  IvfPqIndex(const Matrix* base, const IvfConfig& config);

  /// Rehydrates from deserialized state; `codes` points at external (possibly
  /// mmap'd) storage that must outlive the index. `packed`, when non-null,
  /// points at the saved fast-scan blocks (kPqPackedCodes section, same
  /// lifetime rules); when null and codebook_size <= 16 they are rebuilt.
  IvfPqIndex(MatrixView base, const IvfConfig& config, Matrix centroids,
             ProductQuantizer quantizer, const uint8_t* codes,
             const std::vector<uint32_t>& assignments,
             const uint8_t* packed = nullptr);

  /// Rejects malformed shape parameters (nlist, PQ subspaces/codebook size),
  /// so misconfiguration surfaces as a Status at config/load time instead of
  /// an abort deep in construction. All three metrics are accepted: L2 runs
  /// the historical squared-distance ADC tables bit-identically, IP/cosine
  /// rank the ADC stage by dot-product tables (quant/scann_index.h).
  static Status ValidateConfig(const IvfConfig& config);

  IndexType type() const override { return IndexType::kIvfPq; }

  const KMeansPartitioner& coarse_quantizer() const { return *coarse_; }
  /// The IVF config (config() is the ScannIndex search config).
  const IvfConfig& ivf_config() const { return ivf_config_; }

 private:
  IvfPqIndex(const Matrix* base, const IvfConfig& config, IvfCoarse coarse);
  IvfPqIndex(MatrixView base, const IvfConfig& config,
             std::unique_ptr<KMeansPartitioner> coarse,
             ProductQuantizer quantizer, const uint8_t* codes,
             const std::vector<uint32_t>& assignments, const uint8_t* packed);

  IvfConfig ivf_config_;
  std::unique_ptr<KMeansPartitioner> coarse_;
};

}  // namespace usp

#endif  // USP_IVF_IVF_H_
