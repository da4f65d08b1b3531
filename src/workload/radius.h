// Radius (range) search helpers shared by the index types. The query shape
// itself — RadiusRequest, RadiusOptions and the CSR-shaped RadiusResult —
// lives in index/index.h next to SearchRequest; every Index implements
// RadiusSearchBatch(request), and at full budget the result is
// bit-identical — offsets, ids, AND distances — to the filtered brute-force
// reference BruteForceRadius (knn/brute_force.h), the same acceptance
// contract filtered k-NN search pins (tests/radius_search_test.cc).
//
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
#include <vector>

#include "dist/distance_computer.h"
#include "index/id_selector.h"
#include "index/index.h"
#include "knn/top_k.h"

namespace usp {

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
