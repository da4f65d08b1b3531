#include "core/partition_index.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "index/query_planner.h"
#include "knn/brute_force.h"

namespace usp {

PartitionIndex::PartitionIndex(const Matrix* base, const BinScorer* scorer,
                               Metric metric)
    : PartitionIndex(MatrixView(*base), scorer, scorer->AssignBins(*base),
                     metric) {}

PartitionIndex::PartitionIndex(const Matrix* base, const BinScorer* scorer,
                               std::vector<uint32_t> assignments, Metric metric)
    : PartitionIndex(MatrixView(*base), scorer, std::move(assignments),
                     metric) {}

PartitionIndex::PartitionIndex(MatrixView base, const BinScorer* scorer,
                               std::vector<uint32_t> assignments, Metric metric)
    : base_(base),
      scorer_(scorer),
      dist_(base, metric),
      assignments_(std::move(assignments)) {
  USP_CHECK(assignments_.size() == base_.rows());
  buckets_.resize(scorer_->num_bins());
  for (size_t i = 0; i < assignments_.size(); ++i) {
    USP_CHECK(assignments_[i] < buckets_.size());
    buckets_[assignments_[i]].push_back(static_cast<uint32_t>(i));
  }
}

Matrix PartitionIndex::ScoreQueries(MatrixView queries) const {
  return scorer_->ScoreBins(queries);
}

void RankBins(const float* scores, size_t num_bins, size_t probes,
              std::vector<uint32_t>* order) {
  order->resize(num_bins);
  std::iota(order->begin(), order->end(), 0u);
  std::partial_sort(order->begin(), order->begin() + probes, order->end(),
                    [&](uint32_t a, uint32_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
}

void PartitionIndex::CollectCandidates(const float* scores, size_t num_probes,
                                       std::vector<uint32_t>* candidates) const {
  candidates->clear();
  num_probes = std::min(num_probes, buckets_.size());
  std::vector<uint32_t> bin_order;
  RankBins(scores, buckets_.size(), num_probes, &bin_order);
  for (size_t p = 0; p < num_probes; ++p) {
    const auto& bucket = buckets_[bin_order[p]];
    candidates->insert(candidates->end(), bucket.begin(), bucket.end());
  }
}

BatchSearchResult PartitionIndex::SearchBatch(
    const SearchRequest& request) const {
  // Planner hook: a filtered request may reroute to an allowed-set scan or
  // post-filter before any bin scoring happens (index/query_planner.h).
  // SearchBatchWithScores below is the raw pushdown path — callers that
  // precompute scores (eval sweeps) opt out of planning by construction.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  // Probes that cover every bin score every row: a flat scan in id order
  // needs no bin scores and gives the gather path's rows bit for bit.
  if (request.options.budget >= buckets_.size()) {
    return FlatScan(dist_, request, static_cast<uint32_t>(num_bins()));
  }
  return SearchBatchWithScores(request.queries, ScoreQueries(request.queries),
                               request.options);
}

RadiusResult PartitionIndex::RadiusSearchBatch(
    const RadiusRequest& request) const {
  const size_t probes = std::min(request.options.budget, buckets_.size());
  if (probes == buckets_.size()) {
    return FlatScan(dist_, request, static_cast<uint32_t>(probes));
  }
  const Matrix scores = ScoreQueries(request.queries);
  return Gather(dist_, request, [&](size_t q, std::vector<uint32_t>* ids) {
    CollectCandidates(scores.Row(q), probes, ids);
    return static_cast<uint32_t>(probes);
  });
}

size_t PartitionIndex::EstimateCandidates(size_t budget) const {
  if (buckets_.empty()) return size();
  const size_t probes = std::min(std::max<size_t>(budget, 1), buckets_.size());
  return (size() * probes + buckets_.size() - 1) / buckets_.size();
}

BatchSearchResult PartitionIndex::SearchBatchWithScores(
    MatrixView queries, const Matrix& scores,
    const SearchOptions& options) const {
  USP_CHECK(scores.rows() == queries.rows());
  USP_CHECK(scores.cols() == buckets_.size());
  const size_t probes = std::min(options.budget, buckets_.size());
  const SearchRequest request{queries, options};
  if (probes == buckets_.size()) {
    return FlatScan(dist_, request, static_cast<uint32_t>(probes));
  }
  return Gather(dist_, request, [&](size_t q, std::vector<uint32_t>* ids) {
    CollectCandidates(scores.Row(q), probes, ids);
    return static_cast<uint32_t>(probes);
  });
}

double KnnAccuracy(const BatchSearchResult& result,
                   const std::vector<uint32_t>& truth, size_t truth_k) {
  USP_CHECK(result.k <= truth_k);
  const size_t nq = result.candidate_counts.size();
  USP_CHECK(truth.size() >= nq * truth_k);
  size_t hits = 0;
  for (size_t q = 0; q < nq; ++q) {
    std::unordered_set<uint32_t> expected(truth.begin() + q * truth_k,
                                          truth.begin() + q * truth_k +
                                              result.k);
    const uint32_t* got = result.Row(q);
    for (size_t j = 0; j < result.k; ++j) {
      if (expected.count(got[j]) > 0) ++hits;
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(nq * result.k);
}

}  // namespace usp
