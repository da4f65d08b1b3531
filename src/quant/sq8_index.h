// SQ8: int8 scalar quantization as a standalone index. Every dimension gets
// an affine code range (per-dimension min/max over the base, 255 steps);
// vectors compress 4x to one byte per dimension, and the whole code matrix is
// scanned with the int8 kernels of dist/quant_kernels.h (widening
// madd_epi16 sums — exact integers, so the scalar mirror is bit-identical).
//
// Search is a two-stage exhaustive scan: the quantized code-space distance
// ranks every row (L2: sum of squared code differences; IP/cosine: negated
// code dot product), the best max(k, rerank_budget) (proxy, id) pairs form a
// shortlist, and exact fp32 re-rank under the index metric produces the
// final neighbors. The scan is this index's scorer for the shortlist stage
// (ShortlistKnn, knn/brute_force.h), which ScaNN and IVF-PQ share: a
// Shortlist (knn/top_k.h) takes one block per scanned chunk of rows, keeps
// the set a TopK heap would in O(rerank_budget) memory however many rows the
// scan streams past it, and keeps arrival order, so the shortlist of the
// id-ordered scan arrives sorted and the rerank skips its sort. The
// code-space proxy equals the true metric up to per-dimension scale
// weighting, so with rerank_budget >= size() the result is exact brute force
// regardless of quantization; tests/sq8_test.cc pins that and the recall
// floor at practical budgets. Radius search is exact: a flat scan of the
// fp32 base (FlatScan, through RadiusCollector), since a range cut needs
// true distances.
//
// Under kCosine the codes quantize the unit-normalized base (queries are
// normalized by DistanceComputer::PrepareQuery before encoding), matching
// the convention of the other metric-aware index types.
#ifndef USP_QUANT_SQ8_INDEX_H_
#define USP_QUANT_SQ8_INDEX_H_

#include <cstdint>
#include <vector>

#include "dist/distance_computer.h"
#include "index/index.h"
#include "tensor/matrix.h"

namespace usp {

/// Streaming fit of SQ8's per-dimension code ranges: Add row blocks in
/// order, then read `mins` and Scales() ((max - min) / 255 per dimension, 0
/// for a flat one). Sq8Index and the out-of-core builder
/// (serve/out_of_core_builder.h) both train with it, so their ranges agree
/// bit for bit.
struct Sq8RangeFit {
  std::vector<float> mins;  ///< empty until the first row
  std::vector<float> maxs;

  void Add(MatrixView rows);
  std::vector<float> Scales() const;
};

/// Quantizes one vector (already metric-prepared, i.e. normalized under
/// kCosine) into `dim` code bytes under per-dimension `mins`/`scales`,
/// clamping to [0, 255].
void EncodeSq8(const float* x, const float* mins, const float* scales,
               size_t dim, uint8_t* out);

/// Sq8Index knobs.
struct Sq8IndexConfig {
  Metric metric = Metric::kSquaredL2;
  /// Exact-distance re-ranks per query; >= size() makes results exact.
  size_t rerank_budget = 100;
};

/// Immutable int8 scalar-quantized index. The base matrix must outlive the
/// index (exact rerank gathers fp32 rows from it).
class Sq8Index : public Index {
 public:
  /// Trains the per-dimension ranges on `base` and encodes it.
  explicit Sq8Index(const Matrix* base, Sq8IndexConfig config = {});

  /// Rehydrates from deserialized state: `mins`/`scales` are the per-dim
  /// affine parameters and `codes` the (n x dim) uint8 code matrix (external
  /// storage, e.g. an mmap'd container section, which must outlive the
  /// index).
  Sq8Index(MatrixView base, Sq8IndexConfig config, std::vector<float> mins,
           std::vector<float> scales, const uint8_t* codes);

  /// k-NN search: quantized-domain scan of every row (options.budget is
  /// irrelevant — the scan is exhaustive), exact re-rank of the best
  /// rerank_budget proxies. An options.filter drops rows before the
  /// quantized scoring (the allowed ids are listed once per request by
  /// KeepMembers), so disallowed rows cost no kernel work; at
  /// rerank_budget >= the allowed count the result is exact brute force over
  /// the allowed subset. `options.num_threads` caps per-query sharding;
  /// results are identical at every setting.
  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override;

  /// Radius search: FlatScan (knn/brute_force.h) over the fp32 base
  /// under the index metric, so every row equals BruteForceRadius's and the
  /// counters, stats included, are the scan's. options.budget is irrelevant,
  /// as for k-NN.
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override;

  size_t dim() const override { return base_.cols(); }
  size_t size() const override { return base_.rows(); }
  Metric metric() const override { return config_.metric; }
  IndexType type() const override { return IndexType::kSq8; }
  MatrixView base_view() const override { return base_; }

  /// Planner cost input: the scan is always exhaustive.
  size_t EstimateCandidates(size_t budget) const override {
    (void)budget;
    return size();
  }

  // Serialization accessors.
  const Sq8IndexConfig& config() const { return config_; }
  const std::vector<float>& mins() const { return mins_; }
  const std::vector<float>& scales() const { return scales_; }
  const uint8_t* codes() const { return codes_; }

  /// Quantizes one vector (already metric-prepared, i.e. normalized under
  /// kCosine) into dim() code bytes, clamping to the trained ranges.
  void EncodeVector(const float* x, uint8_t* out) const {
    EncodeSq8(x, mins_.data(), scales_.data(), base_.cols(), out);
  }

  /// Reconstructs the range midpoint of a code (tests / diagnostics).
  void DecodeVector(const uint8_t* code, float* out) const;

 private:
  MatrixView base_;
  Sq8IndexConfig config_;
  DistanceComputer dist_;  ///< exact rerank under config_.metric
  std::vector<float> mins_;    ///< per-dim range start
  std::vector<float> scales_;  ///< per-dim step: (max - min) / 255, 0 if flat
  std::vector<uint8_t> owned_codes_;  ///< empty when codes are external
  const uint8_t* codes_ = nullptr;    ///< (n x dim) uint8 codes
};

}  // namespace usp

#endif  // USP_QUANT_SQ8_INDEX_H_
