// Ensembling (Sec. 4.4.1): trains e models sequentially, each reweighting the
// quality cost towards points the previous partitions placed badly (Alg. 3,
// AdaBoost-style), and answers queries with the most confident model's
// candidate set (Alg. 4).
#ifndef USP_CORE_ENSEMBLE_H_
#define USP_CORE_ENSEMBLE_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/partition_index.h"
#include "core/partitioner.h"
#include "index/index.h"
#include "knn/brute_force.h"

namespace usp {

/// How the ensemble combines per-model candidate sets at query time.
enum class EnsembleCombine {
  kBestConfidence,  ///< Alg. 4: candidate set of the most confident model
  kUnion,           ///< union of all models' candidate sets (extension)
};

/// Ensemble hyperparameters.
struct UspEnsembleConfig {
  UspTrainConfig model;          ///< per-model config (seed is varied per model)
  size_t num_models = 3;         ///< e
  /// Additive floor applied to the raw misplaced-neighbor count before the
  /// multiplicative update of Alg. 3b. Without it, any point whose neighbors
  /// are all co-located gets weight exactly 0 forever, which starves later
  /// models of most of the dataset; the paper does not specify a remedy.
  float weight_floor = 0.1f;
  EnsembleCombine combine = EnsembleCombine::kBestConfidence;
};

/// A trained ensemble of USP partitions over one dataset.
class UspEnsemble : public Index {
 public:
  explicit UspEnsemble(UspEnsembleConfig config);

  /// Rehydrates a trained ensemble from deserialized state over external
  /// (possibly mmap'd) base storage. `indexes[j]` must be built over the same
  /// base view with `models[j]` as its scorer.
  UspEnsemble(UspEnsembleConfig config, MatrixView base,
              std::vector<std::unique_ptr<UspPartitioner>> models,
              std::vector<std::unique_ptr<PartitionIndex>> indexes,
              std::vector<float> weights);

  /// Trains all e models sequentially per Algorithm 3. Keeps a view of
  /// `data` for query-time candidate collection; it must outlive the
  /// ensemble.
  void Train(const Matrix& data, const KnnResult& knn_matrix);

  /// Algorithm 4: probe `options.budget` bins in the chosen model(s),
  /// re-rank by exact distance. An options.filter drops disallowed merged
  /// candidates before the rerank (selector pushdown). `options.num_threads`
  /// caps the per-query search sharding (0 = pool default, 1 = serial; model
  /// scoring still uses the pool's GEMM); results are identical at every
  /// setting. A budget that covers every bin of every model makes the
  /// candidate set the whole base, so the request runs FlatScan
  /// (knn/brute_force.h) instead, bit-identical and without model scoring.
  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override;

  /// Radius search: collect candidates exactly as SearchBatch does (the most
  /// confident model's probed bins, or the all-model union), then
  /// range-filter by exact distance: the same Gather stage, through
  /// RadiusCollector. At full budget every model probes every bin, so the
  /// candidate set covers the base: the request runs FlatScan and the
  /// result is bit-identical to BruteForceRadius.
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override;

  size_t dim() const override { return base_.cols(); }
  size_t size() const override { return base_.rows(); }
  Metric metric() const override { return Metric::kSquaredL2; }
  IndexType type() const override { return IndexType::kUspEnsemble; }
  MatrixView base_view() const override { return base_; }

  /// Planner cost input (index/query_planner.h): summed per-model candidate
  /// volume capped at n (the merge deduplicates overlapping probes).
  size_t EstimateCandidates(size_t budget) const override;

  size_t num_models() const { return models_.size(); }
  const UspPartitioner& model(size_t i) const { return *models_[i]; }
  const PartitionIndex& index(size_t i) const { return *indexes_[i]; }
  const UspEnsembleConfig& config() const { return config_; }

  /// Final per-point weights after training (diagnostics + tests).
  const std::vector<float>& final_weights() const { return weights_; }

  /// Total learnable parameters across the ensemble.
  size_t ParameterCount() const;

 private:
  /// bins_probed of a request whose `budget` covers every bin of every model
  /// (the chosen model's bin count, or the sum under kUnion), which then
  /// runs the flat scan; nullopt when some model probes only part of its
  /// bins or the models' bin counts differ.
  std::optional<uint32_t> FullScanBins(size_t budget) const;

  /// The candidate source of SearchBatch and RadiusSearchBatch at a partial
  /// `budget` (Gather, knn/brute_force.h): every model
  /// scores `queries` once, then query q probes the `budget` best bins of
  /// the most confident model (Alg. 4) or, under kUnion, of every model.
  CandidateSource Candidates(MatrixView queries, size_t budget) const;

  UspEnsembleConfig config_;
  MatrixView base_;
  std::optional<DistanceComputer> dist_;  ///< exact rerank (squared L2)
  std::vector<std::unique_ptr<UspPartitioner>> models_;
  std::vector<std::unique_ptr<PartitionIndex>> indexes_;
  std::vector<float> weights_;
};

}  // namespace usp

#endif  // USP_CORE_ENSEMBLE_H_
