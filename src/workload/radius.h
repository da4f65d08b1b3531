// Radius (range) search: the second query shape of the workload subsystem.
// A RadiusRequest asks, for each query, for *every* indexed point whose
// minimized-form metric distance (dist/metric.h: squared L2, negated inner
// product, cosine distance) is <= radius — the semantics of sklearn's
// radius_neighbors, with results sorted by ascending distance per row.
//
// Results are variable length, so RadiusResult is CSR-shaped: row q spans
// [offsets[q], offsets[q+1]) of the flat ids/distances arrays; an empty row
// has offsets[q] == offsets[q+1]. Every Index implements
// RadiusSearchBatch(request) (index/index.h); at full budget the result is
// bit-identical — offsets, ids, AND distances — to the filtered brute-force
// reference BruteForceRadius (knn/brute_force.h), the same acceptance
// contract filtered k-NN search pins (tests/radius_search_test.cc).
//
// This header also hosts the helpers the index types share.
// RangeFilterCandidates is the gather stage of a partial-budget request:
// sort/dedupe/pushdown of the probed candidates, exact ScoreIds scoring and
// the radius cut. A request whose probes cover every bin skips it for
// FlatScanRadius (knn/brute_force.h), which scores the base rows in id
// order and gives the same rows bit for bit. CollectRadiusChunks and
// CollectRadiusRows are the parallel drivers that assemble the CSR result.
#ifndef USP_WORKLOAD_RADIUS_H_
#define USP_WORKLOAD_RADIUS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "dist/distance_computer.h"
#include "index/id_selector.h"
#include "knn/top_k.h"
#include "tensor/matrix.h"

namespace usp {

/// Optional per-query instrumentation (SearchOptions::stats /
/// RadiusOptions::stats), sized one entry per query. Lets callers close the
/// recall/latency loop per query instead of batch-averaging through
/// MeanCandidates(). Defined here (not index/index.h, which includes this
/// header) because RadiusResult embeds it by value.
struct SearchStats {
  /// Candidates actually scored by exact/ADC distance, post-filter — the
  /// per-query |C(q)| of Eq. 4. Matches candidate_counts entry for entry.
  std::vector<uint32_t> candidates_scored;

  /// Bins/lists probed (partition-based types; summed across models for
  /// ensembles and across segments for DynamicIndex; 0 for partition-free
  /// scans and HNSW).
  std::vector<uint32_t> bins_probed;

  /// Candidates dropped by the selector before scoring (for HNSW: visited
  /// base-layer nodes the selector kept out of the result set; for
  /// DynamicIndex: also tombstoned hits dropped at the merge).
  std::vector<uint32_t> filtered_out;

  /// HNSW only: base-layer nodes visited during graph traversal (0
  /// elsewhere). candidates_scored additionally includes the upper-layer
  /// greedy-descent evaluations, so it can exceed this count.
  std::vector<uint32_t> nodes_visited;

  /// Sizes every counter to `num_queries` zeroed entries.
  void Allocate(size_t num_queries);
};

/// Per-query radius-search knobs. The default budget is *full effort* —
/// unlike top-k search, a range query's natural contract is exactness
/// ("everything within r"), so callers opt into approximation by lowering
/// the budget rather than opting into exactness by raising it.
struct RadiusOptions {
  /// Search effort: probed bins for the partition-based types, base-layer
  /// beam width for HNSW, forwarded to every segment/shard by the serving
  /// types. The default probes everything, making the result exact.
  size_t budget = std::numeric_limits<size_t>::max();

  /// Caps the per-query sharding over the global thread pool (0 = pool
  /// default, 1 = serial). Results are bit-identical at every setting.
  size_t num_threads = 0;

  /// Optional membership predicate over the queried index's id space,
  /// applied before scoring (selector pushdown) exactly as in k-NN search.
  /// Non-owning; must outlive the call. nullptr means unfiltered.
  const IdSelector* filter = nullptr;

  /// When true, the result carries a SearchStats block (index/index.h).
  bool stats = false;
};

/// A batch of range queries: all points within `radius` (inclusive) of each
/// query row, in the index metric's minimized form.
struct RadiusRequest {
  MatrixView queries;
  float radius = 0.0f;
  RadiusOptions options;
};

/// CSR-shaped range-search output: row q spans [offsets[q], offsets[q+1]) of
/// `ids`/`distances`, sorted by ascending (distance, id). No padding
/// sentinel exists here — an empty row is simply a zero-length span, pinned
/// by tests/radius_search_test.cc (EmptyRowOffsetContract).
struct RadiusResult {
  std::vector<size_t> offsets;   ///< num_queries + 1 entries; offsets[0] == 0
  std::vector<uint32_t> ids;     ///< flat hit ids, row-major by query
  std::vector<float> distances;  ///< parallel to ids; minimized form

  /// Candidates exact-scored per query (post-filter), the radius analogue of
  /// BatchSearchResult::candidate_counts.
  std::vector<uint32_t> candidate_counts;

  /// Per-query instrumentation; engaged only when RadiusOptions::stats.
  std::optional<SearchStats> stats;

  size_t num_queries() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  size_t RowSize(size_t q) const { return offsets[q + 1] - offsets[q]; }
  const uint32_t* RowIds(size_t q) const { return ids.data() + offsets[q]; }
  const float* RowDistances(size_t q) const {
    return distances.data() + offsets[q];
  }
};

/// Work counters of one RangeFilterCandidates call (mirrors RerankCounts).
struct RadiusRowCounts {
  uint32_t scored = 0;        ///< candidates exact-scored (post-filter)
  uint32_t filtered_out = 0;  ///< candidates the selector dropped unscored
};

/// The shared range-filter stage of the candidate-generating index types at
/// a partial budget: sorts and deduplicates `candidates` in place
/// (SortUniqueIds, knn/top_k.h: a strictly increasing list skips the sort),
/// drops selector-rejected ids *before* scoring (pushdown — same contract as
/// RerankCandidatesScored), exact-scores the survivors through
/// dist.ScoreIds, and returns the hits with distance <= radius sorted by
/// ascending (distance, id). Because ScoreIds applies the same per-row
/// kernel as the brute-force reference, a candidate set that covers the
/// allowed base makes the output bit-identical to BruteForceRadius; the
/// index types then run FlatScanRadius instead (tests/flat_scan_test.cc pins
/// the two against each other).
std::vector<Neighbor> RangeFilterCandidates(const DistanceComputer& dist,
                                            const float* query,
                                            std::vector<uint32_t>* candidates,
                                            float radius,
                                            const IdSelector* filter = nullptr,
                                            RadiusRowCounts* counts = nullptr);

/// Body of CollectRadiusChunks: fills (*rows)[q] with query q's hits sorted
/// by (distance, id), and result->candidate_counts[q] (plus the stats
/// entries when engaged), for every q in [q_begin, q_end).
using RadiusChunkFn =
    std::function<void(size_t q_begin, size_t q_end,
                       std::vector<std::vector<Neighbor>>* rows,
                       RadiusResult* result)>;

/// Parallel driver: runs `chunk_fn` over the ParallelFor chunks of
/// [0, num_queries) (sharded over the pool under options.num_threads), then
/// assembles the CSR arrays. candidate_counts and stats are pre-sized before
/// the parallel region; chunk_fn must touch only its own queries' entries.
/// A chunk-level body lets a scan share each block of base rows across the
/// chunk's queries (FlatScanRadius, knn/brute_force.h).
RadiusResult CollectRadiusChunks(size_t num_queries,
                                 const RadiusOptions& options,
                                 const RadiusChunkFn& chunk_fn);

/// Per-query form of CollectRadiusChunks: `row_fn(q, &result)` returns query
/// q's sorted hits and fills its candidate_counts/stats entries.
RadiusResult CollectRadiusRows(
    size_t num_queries, const RadiusOptions& options,
    const std::function<std::vector<Neighbor>(size_t, RadiusResult*)>& row_fn);

}  // namespace usp

#endif  // USP_WORKLOAD_RADIUS_H_
