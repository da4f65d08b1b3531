// Exact k-nearest-neighbor and radius search by blocked brute force, and
// the stages every search but HNSW's walk ends with. Produces ground truth
// for every experiment and the k'-NN matrix of the paper's offline phase
// (Sec. 4.2.1). One collector per query shape (TopKCollector,
// RadiusCollector) decides what a query keeps and writes its row and
// counters; the full-budget flat scan, the partial-budget gather, the
// shortlist-then-rerank stage, HNSW's walk and the serving fan-out merge all
// write through them.
#ifndef USP_KNN_BRUTE_FORCE_H_
#define USP_KNN_BRUTE_FORCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "dist/distance_computer.h"
#include "dist/metric.h"
#include "index/id_selector.h"
#include "index/index.h"
#include "knn/top_k.h"
#include "tensor/matrix.h"

namespace usp {

/// Exact k-NN result for a batch of queries: row i holds the ids (and
/// distances) of query i's neighbors, ascending by distance. Distances are in
/// the metric's minimized form (squared L2, negated inner product, or cosine
/// distance — see dist/metric.h).
struct KnnResult {
  size_t k = 0;
  std::vector<uint32_t> indices;   // (num_queries x k), row-major
  std::vector<float> distances;    // matching minimized-form distances

  const uint32_t* Row(size_t q) const { return indices.data() + q * k; }
};

/// Finds the exact k nearest base points (squared Euclidean) for every query.
/// Blocked GEMM formulation: distances are computed tile-by-tile so memory
/// stays bounded at O(block^2) regardless of dataset size. Both operands are
/// non-owning views (a Matrix converts implicitly), so the mutable write
/// segment of the serving layer and mmap'd storage are scanned zero-copy.
/// `num_threads` caps the per-query sharding (0 = pool default, 1 = serial;
/// the row-norm precomputation uses the pool's data-parallel loop either
/// way, matching the scoring-stage convention of the index types); results
/// are identical at every setting.
KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        size_t num_threads = 0);

/// Same, under an arbitrary metric. kSquaredL2 takes the blocked norm-trick
/// path above; other metrics scan base blocks through the dispatched
/// ScoreRange kernels.
KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, size_t num_threads = 0);

/// Predicate-filtered exact k-NN: only base rows accepted by `filter` may
/// appear (filter == nullptr behaves like the overload above). The allowed
/// ids are materialized once and gather-scored through the DistanceComputer
/// kernel path (ScoreIds) — for every metric, including kSquaredL2 — so
/// dropped rows are never scored and the distances are bit-identical to the
/// candidate-rerank path of the index types; this makes it the reference the
/// filtered-search acceptance tests pin index results against. When fewer
/// than k rows are allowed, trailing slots are padded with the 0xFFFFFFFFu
/// sentinel (index/index.h kInvalidId) and +inf distance. Every metric but
/// unfiltered kSquaredL2 runs FlatScan below.
KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, const IdSelector* filter,
                        size_t num_threads = 0);

/// The k-NN collector: what a k-NN query keeps and how its row and
/// counters are written, for every k-NN stage below, HNSW's walk and the
/// serving fan-out merge. A query's keeper is a TopK of its min(k, offered)
/// best (distance, id) pairs, and Set writes them into the query's padded
/// k-wide row (index/index.h kInvalidId) with its candidate_counts entry and
/// stats. Set is called concurrently for different queries.
class TopKCollector {
 public:
  using Request = SearchRequest;
  using Result = BatchSearchResult;
  using Keeper = TopK;

  explicit TopKCollector(const SearchRequest& request)
      : k_(request.options.k) {
    result_.Prepare(request.queries.rows(), request.options);
  }

  /// A keeper for a query that is offered at most `offered` pairs.
  TopK Keep(size_t offered) const { return TopK(std::min(k_, offered)); }

  /// Writes the first k of `row` (ascending) and `counters` for query q.
  void Set(size_t q, const std::vector<Neighbor>& row,
           const QueryCounters& counters) {
    result_.SetRow(q, row);
    SetCounters(q, counters, &result_);
  }

  BatchSearchResult Take() { return std::move(result_); }

 private:
  size_t k_;
  BatchSearchResult result_;
};

/// The radius collector, RadiusRequest's counterpart of TopKCollector: a
/// query's keeper keeps every pair with distance <= radius (a NaN distance
/// is not within any radius) and sorts them by (distance, id), and Take
/// assembles the rows into the CSR arrays of a RadiusResult.
class RadiusCollector {
 public:
  using Request = RadiusRequest;
  using Result = RadiusResult;

  class Keeper {
   public:
    explicit Keeper(float radius) : radius_(radius) {}
    void Push(float distance, uint32_t id) {
      if (distance <= radius_) hits_.push_back(Neighbor{distance, id});
    }
    std::vector<Neighbor> TakeSorted() {
      std::sort(hits_.begin(), hits_.end());
      return std::move(hits_);
    }

   private:
    float radius_;
    std::vector<Neighbor> hits_;
  };

  explicit RadiusCollector(const RadiusRequest& request);

  /// A keeper for one query; a radius row holds however many pairs fall
  /// within the radius, so `offered` bounds nothing.
  Keeper Keep(size_t /*offered*/) const { return Keeper(radius_); }

  /// Stores query q's row, sorted by (distance, id), and writes `counters`.
  void Set(size_t q, std::vector<Neighbor> row,
           const QueryCounters& counters) {
    rows_[q] = std::move(row);
    SetCounters(q, counters, &result_);
  }

  RadiusResult Take();

 private:
  float radius_;
  RadiusResult result_;
  std::vector<std::vector<Neighbor>> rows_;
};

/// The full-budget stage of both query shapes: an exact search by a
/// query-tiled flat scan of dist.base(). Every row, or under
/// request.options.filter every allowed row, is scored in id order through
/// ScoreRange (ScoreIds for the allowed ids), one L1-sized block of rows
/// (32 KiB: 64 rows at d = 128) at a time against every query of a
/// ParallelFor chunk of 8, so each row is read from memory once per chunk,
/// and offered to the request's collector.
///
/// This is the full-budget path of the partition types. When a request's
/// probes cover every bin, the gather stage fed every id scores the same
/// rows in the same order through the same per-row kernels, so the rows are
/// bit-identical; the scan skips bin scoring and the per-query id list, sort
/// and gather. candidate_counts and stats report the rows scored,
/// filtered_out the rows the filter dropped, and bins_probed `bins_probed`.
/// options.budget and options.plan are not consulted (callers plan first).
BatchSearchResult FlatScan(const DistanceComputer& dist,
                           const SearchRequest& request,
                           uint32_t bins_probed);
RadiusResult FlatScan(const DistanceComputer& dist,
                      const RadiusRequest& request, uint32_t bins_probed);

/// The candidate generation of a partial-budget search (Alg. 2's C(q)):
/// appends query q's candidate ids to the empty `ids` (repeats and any order
/// allowed) and returns the number of bins it probed. Called once per query,
/// concurrently for different queries.
using CandidateSource =
    std::function<uint32_t(size_t q, std::vector<uint32_t>* ids)>;

/// The gather stage of a partial-budget request of either shape, whatever
/// picked the candidates: per query, `source` fills C(q), which is sorted,
/// deduplicated, filtered by request.options.filter (pushdown) and scored in
/// id order as in RerankCandidatesScored, and the request's collector keeps
/// the top k or the pairs within the radius, over per-worker id, score and
/// prepared-query buffers. Rows, candidate_counts and stats (scored and
/// filtered_out post-dedupe, bins_probed from the source) are written per
/// query, sharded over ParallelFor chunks of 8 queries under
/// options.num_threads. Rows are bit-identical to FlatScan when every
/// query's source returns every id. options.budget and options.plan are not
/// consulted (callers plan first and pass the budget to their source).
BatchSearchResult Gather(const DistanceComputer& dist,
                         const SearchRequest& request,
                         const CandidateSource& source);
RadiusResult Gather(const DistanceComputer& dist,
                    const RadiusRequest& request,
                    const CandidateSource& source);

/// The approximate scoring of a code-scoring index (ADC over PQ codes, SQ8's
/// code-space scan): pushes the scores of query q's candidates into
/// `shortlist`, one block per scored group (a probed bucket, a chunk of a
/// scan), and returns q's counters: the candidates it scored, the bins it
/// probed and the ids the filter dropped before scoring. `prepared` is q's
/// vector from DistanceComputer::PrepareQuery. One scorer serves one worker's
/// queries in turn, so its tables and buffers are that worker's scratch.
using ShortlistScorer = std::function<QueryCounters(
    size_t q, const float* prepared, Shortlist* shortlist)>;

/// The shortlist-then-rerank stage of the code-scoring indexes (ScaNN and
/// IVF-PQ, SQ8), whatever scores the codes: per query, a Shortlist of
/// max(k, rerank_budget) pairs takes what the scorer pushes, and its ids are
/// reranked by exact distance under `dist`, in arrival order, so the ids of
/// one probed bucket or one id-ordered scan arrive ascending and skip the
/// rerank's sort. Each query is prepared once, for the scorer and the
/// rerank. `make_scorer` runs once per ParallelFor chunk of 4 queries
/// (under options.num_threads). The rerank is unfiltered: the scorer pushes
/// options.filter down before it scores. Rows are written per query through
/// TopKCollector, with the scorer's counters; options.budget and
/// options.plan are not consulted (callers plan first and hand the budget to
/// their scorer).
BatchSearchResult ShortlistKnn(
    const DistanceComputer& dist, const SearchRequest& request,
    size_t rerank_budget, const std::function<ShortlistScorer()>& make_scorer);

/// Exact radius (range) search: for every query, all base rows whose
/// minimized-form distance is <= radius (inclusive), as a CSR RadiusResult
/// with rows sorted by ascending (distance, id). This is the reference every
/// Index::RadiusSearchBatch implementation is pinned against at full budget
/// (tests/radius_search_test.cc): unfiltered scans go through ScoreRange and
/// filtered scans materialize the allowed ids once and gather-score them
/// through ScoreIds — the same per-row kernels as the index types' range
/// filter — so bit-identity holds for offsets, ids, AND distances. (The L2
/// norm-trick tiles of BruteForceKnn round differently and are deliberately
/// not used here.) candidate_counts reports rows scored per query (the
/// allowed count under a filter). Runs FlatScan.
RadiusResult BruteForceRadius(MatrixView base, MatrixView queries,
                              float radius, Metric metric,
                              const IdSelector* filter = nullptr,
                              size_t num_threads = 0);

/// k'-NN matrix of the dataset against itself with self-matches excluded
/// (row i never contains i). This is Fig. 2 of the paper.
KnnResult BuildKnnMatrix(const Matrix& data, size_t k);

/// The counters of RerankCandidatesScored and RangeFilterCandidates, by the
/// name callers outside the library still use.
using RerankCounts = QueryCounters;

/// Re-ranks a candidate list by exact distance under `dist`'s metric and
/// returns the top k candidates as (distance, id) pairs, ascending by
/// distance (ties by id). Duplicate ids in `candidates` (e.g. from
/// overlapping ensemble probes) are deduplicated before scoring, so the
/// result never repeats an id, and the survivors are scored in ascending id
/// order. The dedupe is SortUniqueIds (knn/top_k.h): a strictly increasing
/// list, which is what one probed bucket yields (every budget-1
/// PartitionIndex or UspEnsemble query), skips the sort. When `filter` is
/// set, candidates it rejects are dropped *before* scoring (selector
/// pushdown: disallowed rows cost no distance work and can never displace
/// allowed ones); `counts`, when non-null, receives the scored/filtered
/// tallies. Scoring goes through the batched gather-by-id kernels
/// (prefetched, four rows in flight). Gather and ShortlistKnn run its
/// body, without the copy of `candidates` and over per-worker buffers, for
/// every partition-based and code-scoring index; the scores feed
/// cross-segment merging in the serving layer.
std::vector<Neighbor> RerankCandidatesScored(
    const DistanceComputer& dist, const float* query,
    const std::vector<uint32_t>& candidates, size_t k,
    const IdSelector* filter = nullptr, QueryCounters* counts = nullptr);

/// The radius counterpart of RerankCandidatesScored, with the same front
/// half (dedupe, pushdown, ScoreIds scoring): sorts and deduplicates
/// `candidates` in place and drops the selector's rejects from it, then
/// returns what RadiusCollector's keeper keeps: the hits with distance <=
/// radius sorted by ascending (distance, id). Because ScoreIds applies the
/// same per-row kernel as the brute-force reference, a candidate set that
/// covers the allowed base makes the output bit-identical to
/// BruteForceRadius; the index types then run FlatScan instead
/// (tests/flat_scan_test.cc pins the two against each other).
std::vector<Neighbor> RangeFilterCandidates(const DistanceComputer& dist,
                                            const float* query,
                                            std::vector<uint32_t>* candidates,
                                            float radius,
                                            const IdSelector* filter = nullptr,
                                            QueryCounters* counts = nullptr);

/// Restricts a global k-NN matrix to a subset of points, renumbering to local
/// ids (position in `subset_ids`). A point's filtered list keeps its global
/// neighbors that fall inside the subset; short lists are padded by cycling
/// the kept neighbors (or the point itself when none survive), so the result
/// has the same fixed k as `global`. Used by hierarchical training, where
/// most of a point's neighbors share its bin by construction.
KnnResult FilterKnnToSubset(const KnnResult& global,
                            const std::vector<uint32_t>& subset_ids);

}  // namespace usp

#endif  // USP_KNN_BRUTE_FORCE_H_
