// Exact k-nearest-neighbor search by blocked brute force. Produces ground
// truth for every experiment and the k'-NN matrix of the paper's offline
// phase (Sec. 4.2.1).
#ifndef USP_KNN_BRUTE_FORCE_H_
#define USP_KNN_BRUTE_FORCE_H_

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
/// unfiltered kSquaredL2 runs FlatScanKnn below.
KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, const IdSelector* filter,
                        size_t num_threads = 0);

/// Exact k-NN by a query-tiled flat scan of dist.base(): every row, or under
/// request.options.filter every allowed row, is scored in id order through
/// ScoreRange (ScoreIds for the allowed ids), one L1-sized block of rows
/// (32 KiB: 64 rows at d = 128) at a time against every query of a
/// ParallelFor chunk, so each row is read from memory once per chunk.
///
/// This is the full-budget path of the partition types. When a request's
/// probes cover every bin, the gather stage (RerankCandidatesScored fed
/// every id) scores the same rows in the same order through the same
/// per-row kernels, so the rows are bit-identical; the scan skips bin
/// scoring and the per-query id list, sort and gather. candidate_counts and
/// stats report the rows scored, filtered_out the rows the filter dropped,
/// and bins_probed `bins_probed`. options.budget and options.plan are not
/// consulted (callers plan first).
BatchSearchResult FlatScanKnn(const DistanceComputer& dist,
                              const SearchRequest& request,
                              uint32_t bins_probed);

/// Radius counterpart of FlatScanKnn: bit-identical to RangeFilterCandidates
/// fed every id, with the same counters.
RadiusResult FlatScanRadius(const DistanceComputer& dist,
                            const RadiusRequest& request,
                            uint32_t bins_probed);

/// The candidate generation of a partial-budget search (Alg. 2's C(q)):
/// appends query q's candidate ids to the empty `ids` (repeats and any order
/// allowed) and returns the number of bins it probed. Called once per query,
/// concurrently for different queries.
using CandidateSource =
    std::function<uint32_t(size_t q, std::vector<uint32_t>* ids)>;

/// The gather stage of a partial-budget k-NN request, whatever picked the
/// candidates: per query, `source` fills C(q) and RerankCandidatesScored's
/// body returns its k best under request.options.filter (pushdown), over
/// per-worker id, score and prepared-query buffers. Rows,
/// candidate_counts and stats (scored and filtered_out post-dedupe,
/// bins_probed from the source) are written per query, sharded over
/// ParallelFor chunks of 8 queries under options.num_threads. Rows are
/// bit-identical to FlatScanKnn when every query's source returns every id.
/// options.budget and options.plan are not consulted (callers plan first and
/// pass the budget to their source).
BatchSearchResult GatherKnn(const DistanceComputer& dist,
                            const SearchRequest& request,
                            const CandidateSource& source);

/// Radius counterpart of GatherKnn: RangeFilterCandidates over each query's
/// candidates, with the same counters.
RadiusResult GatherRadius(const DistanceComputer& dist,
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
/// options.filter down before it scores. Rows are written per query and the
/// counters are the scorer's; options.budget and options.plan are not
/// consulted (callers plan first and hand the budget to their scorer).
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
/// allowed count under a filter). Runs FlatScanRadius.
RadiusResult BruteForceRadius(MatrixView base, MatrixView queries,
                              float radius, Metric metric,
                              const IdSelector* filter = nullptr,
                              size_t num_threads = 0);

/// k'-NN matrix of the dataset against itself with self-matches excluded
/// (row i never contains i). This is Fig. 2 of the paper.
KnnResult BuildKnnMatrix(const Matrix& data, size_t k);

/// Work counters of RerankCandidatesScored and RangeFilterCandidates (both
/// post-dedupe). `scored` is the |C(q)| that lands in candidate_counts:
/// candidates that passed the selector and were exact-scored.
struct RerankCounts {
  uint32_t scored = 0;
  uint32_t filtered_out = 0;  ///< candidates the selector dropped unscored
};

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
/// (prefetched, four rows in flight). GatherKnn and ShortlistKnn run its
/// body, without the copy of `candidates` and over per-worker buffers, for
/// every partition-based and code-scoring index; the scores feed
/// cross-segment merging in the serving layer.
std::vector<Neighbor> RerankCandidatesScored(
    const DistanceComputer& dist, const float* query,
    const std::vector<uint32_t>& candidates, size_t k,
    const IdSelector* filter = nullptr, RerankCounts* counts = nullptr);

/// The radius counterpart of RerankCandidatesScored, with the same front
/// half (dedupe, pushdown, ScoreIds scoring): sorts and deduplicates
/// `candidates` in place and drops the selector's rejects from it, then
/// returns the hits with distance <= radius sorted by ascending (distance,
/// id). Because ScoreIds applies the same per-row kernel as the brute-force
/// reference, a candidate set that covers the allowed base makes the output
/// bit-identical to BruteForceRadius; the index types then run
/// FlatScanRadius instead (tests/flat_scan_test.cc pins the two against
/// each other).
std::vector<Neighbor> RangeFilterCandidates(const DistanceComputer& dist,
                                            const float* query,
                                            std::vector<uint32_t>* candidates,
                                            float radius,
                                            const IdSelector* filter = nullptr,
                                            RerankCounts* counts = nullptr);

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
