// Radius (range) search helpers shared by the index types. The query shape
// itself — RadiusRequest, RadiusOptions and the CSR-shaped RadiusResult —
// lives in index/index.h next to SearchRequest; every Index implements
// RadiusSearchBatch(request), and at full budget the result is
// bit-identical — offsets, ids, AND distances — to the filtered brute-force
// reference BruteForceRadius (knn/brute_force.h), the same acceptance
// contract filtered k-NN search pins (tests/radius_search_test.cc).
//
// CollectRadiusChunks and CollectRadiusRows are the parallel drivers that
// assemble the CSR result. The radius collectors run on them: the
// full-budget FlatScanRadius and the partial-budget GatherRadius
// (knn/brute_force.h), plus HNSW's graph walk and the serving fan-out merge.
#ifndef USP_WORKLOAD_RADIUS_H_
#define USP_WORKLOAD_RADIUS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "index/index.h"
#include "knn/top_k.h"

namespace usp {

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
