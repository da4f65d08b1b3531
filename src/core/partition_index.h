// Algorithm 2 of the paper: the online phase. Wraps any BinScorer and a base
// dataset into an ANN index: probe the m' highest-scored bins, gather their
// points through the lookup table built in the offline phase, and re-rank the
// candidate set by exact distance.
#ifndef USP_CORE_PARTITION_INDEX_H_
#define USP_CORE_PARTITION_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/bin_scorer.h"
#include "dist/distance_computer.h"
#include "dist/metric.h"
#include "index/index.h"
#include "tensor/matrix.h"

namespace usp {

/// Immutable ANN index: bin lookup table (Alg. 1 step 3) + multi-probe search
/// (Alg. 2). Holds a view of the base matrix (heap or mmap'd storage) and a
/// pointer to the scorer; both must outlive the index.
class PartitionIndex : public Index {
 public:
  /// Builds the lookup table by assigning every base point to its argmax bin.
  /// `metric` selects the exact-distance metric of the final rerank stage
  /// (dist/metric.h); the default keeps the historical squared-L2 behavior
  /// bit-compatible. Bin-scoring semantics stay whatever the scorer encodes,
  /// so a metric-consistent index pairs this with a matching scorer (e.g.
  /// KMeansPartitioner built with the same metric).
  PartitionIndex(const Matrix* base, const BinScorer* scorer,
                 Metric metric = Metric::kSquaredL2);

  /// Builds from precomputed assignments (used by ensembles, IVF residency,
  /// and tests).
  PartitionIndex(const Matrix* base, const BinScorer* scorer,
                 std::vector<uint32_t> assignments,
                 Metric metric = Metric::kSquaredL2);

  /// Rehydrates from deserialized state over external (possibly mmap'd)
  /// storage; assignments must be the ones the index was saved with.
  PartitionIndex(MatrixView base, const BinScorer* scorer,
                 std::vector<uint32_t> assignments, Metric metric);

  /// Scores all queries once; reuse across different probe counts.
  Matrix ScoreQueries(MatrixView queries) const;

  /// k-NN search probing the `options.budget` best bins per query. An
  /// options.filter drops disallowed candidates before the exact rerank
  /// (selector pushdown: at full budget the result is brute force over the
  /// allowed subset). The per-query probe/rerank stage is sharded over the
  /// global thread pool; `options.num_threads` caps that sharding (0 = pool
  /// default, 1 = that stage runs serially on the calling thread). The
  /// bin-scoring stage (ScoreQueries) always uses the pool's data-parallel
  /// GEMM regardless of the cap. Results are bit-identical at every thread
  /// count: each query's work is independent and writes only its own output
  /// rows. A budget that covers every bin skips bin scoring and the per-query
  /// gather for FlatScan (knn/brute_force.h), which scores the rows in id
  /// order and returns the gather path's rows bit for bit.
  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override;

  /// Radius search: gather candidates from the `options.budget` best bins,
  /// then range-filter them by exact distance (Gather, knn/brute_force.h,
  /// which keeps them through RadiusCollector). At full budget every bin is
  /// probed, so the request runs FlatScan and the result is bit-identical to
  /// BruteForceRadius over the allowed base.
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override;

  /// Same but with externally computed scores (one scoring, many sweeps).
  /// This is the raw pushdown path: no planning. A partial budget runs
  /// Gather (knn/brute_force.h) over CollectCandidates.
  BatchSearchResult SearchBatchWithScores(MatrixView queries,
                                          const Matrix& scores,
                                          const SearchOptions& options) const;

  /// Collects the candidate ids for one query given its bin scores: the
  /// members of the `num_probes` best bins in RankBins order.
  void CollectCandidates(const float* scores, size_t num_probes,
                         std::vector<uint32_t>* candidates) const;

  /// Planner cost input (index/query_planner.h): balanced-bin candidate
  /// volume, ceil(n * min(budget, bins) / bins).
  size_t EstimateCandidates(size_t budget) const override;

  size_t num_bins() const { return buckets_.size(); }
  size_t dim() const override { return base_.cols(); }
  size_t size() const override { return base_.rows(); }
  Metric metric() const override { return dist_.metric(); }
  IndexType type() const override { return IndexType::kPartition; }
  MatrixView base_view() const override { return base_; }
  MatrixView base() const { return base_; }
  const BinScorer* scorer() const { return scorer_; }
  /// The exact-distance computer of the rerank stages (index metric).
  const DistanceComputer& dist() const { return dist_; }
  const std::vector<std::vector<uint32_t>>& buckets() const { return buckets_; }
  const std::vector<uint32_t>& assignments() const { return assignments_; }

 private:
  MatrixView base_;
  const BinScorer* scorer_;
  DistanceComputer dist_;  ///< exact rerank under the index metric
  std::vector<uint32_t> assignments_;
  std::vector<std::vector<uint32_t>> buckets_;  ///< the paper's lookup table
};

/// Alg. 2's probe order: fills `order` with the bin ids 0 .. num_bins - 1,
/// the first `probes` of them ranked by descending score (ties by bin id).
/// The partition-based types all probe in this order.
void RankBins(const float* scores, size_t num_bins, size_t probes,
              std::vector<uint32_t>* order);

/// Fraction of true neighbors recovered (Eq. 1): |returned ∩ truth| / k,
/// averaged over queries. `truth_row(q)` must hold >= k entries.
double KnnAccuracy(const BatchSearchResult& result,
                   const std::vector<uint32_t>& truth, size_t truth_k);

}  // namespace usp

#endif  // USP_CORE_PARTITION_INDEX_H_
