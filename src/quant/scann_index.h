// ScaNN-style two-stage index (Sec. 5.4.3): optional space partition for
// candidate generation, anisotropic-PQ ADC scoring inside the candidate set,
// and exact re-ranking of the top scores. Swapping the partitioner between
// nullptr (vanilla ScaNN: full ADC scan), K-means, and USP reproduces the
// "ScaNN / K-means + ScaNN / USP + ScaNN" rows of Fig. 7.
//
// The ADC stage takes one of two paths, chosen per request from what the
// index and the request allow:
//   - fast-scan: 4-bit packed codes + quantized uint8 LUTs scored 32 codes
//     per _mm256_shuffle_epi8 pass (dist/quant_kernels.h, quant/fastscan.h),
//     whenever it applies: codebook_size <= 16 and an unfiltered request.
//   - float:     walk of the float ADC table, four codes at a time
//     (ProductQuantizer::AdcDistances, bit-identical to the per-code walk),
//     for wider codebooks and for filtered requests, which prune candidates
//     below block granularity and keep its bit-identity contracts.
// Both paths feed the same exact re-rank (ShortlistKnn, knn/brute_force.h,
// which writes through TopKCollector), so at full budget with
// rerank_budget >= the candidate count the results are exact either way.
// The partition is a PartitionIndex of the partitioner and the base: the
// ADC stage probes its buckets, and radius search is its RadiusSearchBatch
// (the partition's Gather or FlatScan).
//
// Metrics: squared L2 (the historical default), inner product (ADC ranks by
// negated dot-product tables), and cosine (codes encode the unit-normalized
// base; ADC ranks by negated dot against the normalized query). Exact rerank
// always runs under the index metric through DistanceComputer.
#ifndef USP_QUANT_SCANN_INDEX_H_
#define USP_QUANT_SCANN_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/bin_scorer.h"
#include "core/partition_index.h"
#include "dist/distance_computer.h"
#include "index/index.h"
#include "quant/pq.h"

namespace usp {

/// Search knobs of the ScaNN-like pipeline.
struct ScannIndexConfig {
  size_t rerank_budget = 100;  ///< exact-distance re-ranks per query
};

/// Immutable index. Base matrix and partitioner must outlive the index.
class ScannIndex : public Index {
 public:
  /// `partitioner == nullptr` means exhaustive ADC scan (vanilla ScaNN).
  /// Encodes the base with `quantizer` (the unit-normalized base under
  /// kCosine — train the quantizer on normalized data in that case) and
  /// builds the partition's residency bins. `assignments`, when non-null,
  /// overrides the partitioner's own AssignBins (IVF-IP keeps L2 list
  /// residency while the partitioner scores probes by dot product).
  ScannIndex(const Matrix* base, const BinScorer* partitioner,
             ProductQuantizer quantizer, ScannIndexConfig config,
             Metric metric = Metric::kSquaredL2,
             const std::vector<uint32_t>* assignments = nullptr);

  /// Rehydrates from deserialized state: `codes` points at the (n x M) PQ
  /// code bytes (external storage, e.g. an mmap'd container section, which
  /// must outlive the index) and `assignments` are the saved residency bins
  /// (empty when the index has no partition). `packed`, when non-null, points
  /// at the bucket-grouped fast-scan blocks (kPqPackedCodes section, same
  /// lifetime rules as `codes`); when null and codebook_size <= 16 the blocks
  /// are rebuilt from `codes`.
  ScannIndex(MatrixView base, const BinScorer* partitioner,
             ProductQuantizer quantizer, ScannIndexConfig config,
             const uint8_t* codes, const std::vector<uint32_t>& assignments,
             Metric metric = Metric::kSquaredL2,
             const uint8_t* packed = nullptr);

  /// k-NN search: probe the `options.budget` best bins (RankBins order over
  /// the partition's buckets), ADC-score their points, then exact-rerank the
  /// shortlist: the max(k, rerank_budget) smallest (ADC score, id) pairs.
  /// ShortlistKnn (knn/brute_force.h) runs the shortlist and the rerank;
  /// this index supplies the scorer. The per-query table is built in one
  /// pass (ProductQuantizer::BuildTable) and, for fast-scan, quantized once.
  /// The Shortlist (knn/top_k.h) takes one block per probed bucket's pq4
  /// sums (selected on the sums, so only the kept pairs are scored as
  /// floats), or the float path's whole candidate list. Every table, LUT and
  /// select buffer is per-worker scratch. An options.filter is pushed down
  /// (KeepMembers) before the ADC stage, so disallowed rows cost no table
  /// lookups and never occupy shortlist slots — with all bins probed and
  /// rerank_budget >= the allowed count, the result is exact brute force over
  /// the allowed subset. `options.num_threads` caps the per-query search
  /// sharding (0 = thread-pool default, 1 = serial; partition scoring still
  /// uses the pool's GEMM); results are identical at every setting.
  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override;

  /// Radius search by *exact* distance. The ADC stage is skipped — a range
  /// cut needs true distances, and approximating it with table scores would
  /// break the brute-force bit-identity contract — so rerank_budget does not
  /// apply to radius requests; options.budget (probed bins) is the only knob.
  /// With a partition this is the partition's RadiusSearchBatch, which
  /// probes in SearchBatch's order (RankBins); without one, the candidates
  /// are the whole base and the request runs FlatScan.
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override;

  size_t dim() const override { return base_.cols(); }
  size_t size() const override { return base_.rows(); }
  Metric metric() const override { return dist().metric(); }
  IndexType type() const override { return IndexType::kScann; }
  MatrixView base_view() const override { return base_; }

  /// Planner cost input (index/query_planner.h): the partition's
  /// balanced-bin candidate volume; the whole base for a partition-free
  /// exhaustive scan.
  size_t EstimateCandidates(size_t budget) const override {
    return partition_ != nullptr ? partition_->EstimateCandidates(budget)
                                 : size();
  }

  const ProductQuantizer& quantizer() const { return quantizer_; }
  /// The partition probed for candidates; nullptr for vanilla ScaNN.
  const PartitionIndex* partition() const { return partition_.get(); }
  /// True when the fast-scan blocks are built (codebook_size <= 16);
  /// unfiltered requests then score through the pq4 shuffle kernel.
  bool has_fast_scan() const { return packed_ != nullptr; }

  // Serialization accessors.
  const ScannIndexConfig& config() const { return config_; }
  MatrixView base() const { return base_; }
  const BinScorer* partitioner() const {
    return partition_ != nullptr ? partition_->scorer() : nullptr;
  }
  const uint8_t* codes() const { return codes_; }
  /// Bucket-grouped fast-scan blocks (nullptr when has_fast_scan() is
  /// false); PackedBytes() is their size.
  const uint8_t* packed_codes() const { return packed_; }
  size_t PackedBytes() const;

 private:
  /// The exact rerank's computer under the index metric: the partition's,
  /// or the partition-free index's own.
  const DistanceComputer& dist() const {
    return partition_ != nullptr ? partition_->dist() : *flat_dist_;
  }
  void SetUpFastScan(const uint8_t* packed);
  /// Float ADC table whose per-code sum ranks candidates under the index
  /// metric, written to `table`: squared-L2 subdistances for L2, negated dot
  /// products for IP/cosine, built in one pass (ProductQuantizer::BuildTable).
  /// `prepared_query` must come from dist().PrepareQuery.
  void BuildMetricTable(const float* prepared_query,
                        std::vector<float>* table) const;

  MatrixView base_;
  std::unique_ptr<PartitionIndex> partition_;  ///< null when partition-free
  std::optional<DistanceComputer> flat_dist_;  ///< only when partition-free
  ProductQuantizer quantizer_;
  ScannIndexConfig config_;
  std::vector<uint8_t> owned_codes_;  ///< empty when codes are external
  const uint8_t* codes_ = nullptr;    ///< (n x M) PQ codes
  std::vector<uint8_t> owned_packed_;  ///< empty when packed is external
  const uint8_t* packed_ = nullptr;    ///< fast-scan blocks; null = float only
  /// Per bucket, the first block of its packed group (one trailing entry
  /// with the total block count); {0, total} when partition-free.
  std::vector<size_t> bucket_block_offsets_;
};

}  // namespace usp

#endif  // USP_QUANT_SCANN_INDEX_H_
