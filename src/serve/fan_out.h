// The composite search shared by the serving types: one query batch fanned
// out over a list of *parts* — DynamicIndex's sealed segments and write
// segment, ShardedIndex's shards — and merged back into one result over
// stable global ids.
//
// Selector. A caller's filter speaks global ids. Each part gets a lazy local
// view of it: local row i is allowed when its global id passes the filter
// and, when the caller passes a tombstone set, is not deleted. Membership is
// evaluated per candidate the part visits, never by an eager per-part pass.
//
// Dispatch. Parts run one after another on the calling thread when
// num_threads == 1 or only one part holds rows. Otherwise ParallelInvoke
// (util/thread_pool.h) runs them. Each part gets one thread, and the rest of
// the cap is split in proportion to the parts' rows (largest remainders take
// the threads rounding leaves), so a small write segment does not hold
// threads a large sealed segment could use. Equal parts under a cap that is
// a multiple of their count get cap / count each. Every part's rows are
// bit-identical at every thread count, and so is the merge.
//
// Merge. Every part returns exact distances, and one merge serves both
// query shapes: it remaps each part's row to global ids, drops tombstoned
// hits, and offers the rest to the request's collector (knn/brute_force.h),
// a TopK on (distance, global id) for k-NN and the radius cut and sort for
// radius. Only two things differ per shape. One is the sub-request: a k-NN
// part fetches min(rows, k + tombstoned) when unfiltered, its tombstoned
// hits dropped at the merge, and min(rows, k) when filtered, its tombstones
// already checked inside the selector; a radius row holds every in-range
// hit, so it needs no over-fetch. The other is how a part's row is read.
// The merge sums candidate_counts and the SearchStats counters over the
// parts, with dropped tombstones counted as filtered_out. A k-NN request
// with k = 0 searches no part.
//
// Part ids are disjoint and (distance, global id) is a total order, so the
// merged row does not depend on the part order: at full budget it equals
// brute force over the live allowed rows (tests/dynamic_index_test.cc,
// tests/sharded_index_test.cc, tests/radius_search_test.cc).
#ifndef USP_SERVE_FAN_OUT_H_
#define USP_SERVE_FAN_OUT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "dist/distance_computer.h"
#include "dist/metric.h"
#include "index/index.h"
#include "tensor/matrix.h"

namespace usp {

/// Trains an immutable segment index over `base` (which the caller keeps
/// alive next to the returned index). The result must view `base`, index
/// all of its rows, and report `metric`.
using SegmentBuilder =
    std::function<std::unique_ptr<Index>(const Matrix& base, Metric metric)>;

/// Runs `builder` over `base`, or, when it is empty, builds the default
/// IVF-Flat with nlist ~ sqrt(n). Checks the SegmentBuilder contract, and
/// that the result is no DynamicIndex or ShardedIndex: routers do not nest.
std::unique_ptr<Index> BuildSegmentIndex(const SegmentBuilder& builder,
                                         const Matrix& base, Metric metric);

/// One part of a composite search: exactly one of `index` (a sealed segment
/// or a shard) and `flat` (rows scanned by FlatScan, knn/brute_force.h: the
/// write segment) is set.
struct FanOutPart {
  const Index* index = nullptr;
  const DistanceComputer* flat = nullptr;
  const std::vector<uint32_t>* global_ids = nullptr;  ///< local -> global
  size_t tombstoned = 0;  ///< live tombstones among the part's rows
};

/// k-NN or radius search over `parts` (see the file comment). `tombstones`
/// is the set of deleted global ids, or null when every part drops its own
/// deletes. The caller holds the lock that keeps the parts alive;
/// options.plan travels with the k-NN sub-requests, so each part plans its
/// own filtered search.
BatchSearchResult FanOutSearch(const std::vector<FanOutPart>& parts,
                               const std::unordered_set<uint32_t>* tombstones,
                               const SearchRequest& request);
RadiusResult FanOutSearch(const std::vector<FanOutPart>& parts,
                          const std::unordered_set<uint32_t>* tombstones,
                          const RadiusRequest& request);

}  // namespace usp

#endif  // USP_SERVE_FAN_OUT_H_
