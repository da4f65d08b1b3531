// The unified ANN-index interface. Every index type in the repository —
// PartitionIndex, IvfFlatIndex, IvfPqIndex, ScannIndex, Sq8Index, HnswIndex,
// UspEnsemble, DynamicIndex, ShardedIndex — implements Index, so benches,
// examples, and the serving layer program against one vtable and the
// serialization layer (index/serialize.h) can persist and reopen any of them
// behind a single OpenIndex() call.
//
// Queries are expressed as a SearchRequest: a view of the query vectors plus
// SearchOptions carrying k, the effort budget, the thread cap, an optional
// IdSelector filter (predicate-filtered search), and a per-query stats
// switch. The historical positional SearchBatch(queries, k, budget,
// num_threads) survives as a thin convenience shim over the request form.
// Radius queries take the same shape: a RadiusRequest asks, per query, for
// every point within a radius (the semantics of sklearn's
// radius_neighbors), answered as a CSR-shaped RadiusResult.
#ifndef USP_INDEX_INDEX_H_
#define USP_INDEX_INDEX_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "dist/metric.h"
#include "index/id_selector.h"
#include "knn/top_k.h"
#include "tensor/matrix.h"

namespace usp {

/// Sentinel id marking a padded result slot. Rows of BatchSearchResult are
/// always exactly k wide; when a query yields fewer than k neighbors (k >
/// size(), tiny probe budgets, heavy deletes, a selector admitting fewer than
/// k points) the trailing slots hold kInvalidId with +inf distance. Every
/// Index implementation pads this way — real neighbors first (ascending by
/// distance), then an uninterrupted run of kInvalidId slots. Pinned by
/// tests/index_padding_test.cc and tests/filtered_search_test.cc.
inline constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

/// How a filtered request is executed (SearchOptions::plan). kAuto lets the
/// query planner (index/query_planner.h) pick per request from a selectivity
/// probe and a per-index-type cost model; the kForce* modes pin one strategy
/// for benchmarking, debugging, or tests that target a specific path. All
/// strategies return bit-identical results to filtered brute force at full
/// budget; they differ only in cost. Unfiltered requests ignore this field.
enum class PlanMode : uint8_t {
  /// Planner's choice: pushdown, allowed-set scan, or post-filter, whichever
  /// the cost model predicts cheapest for this (index, selectivity, budget).
  kAuto = 0,

  /// Historical behavior: push the selector down into the index's own
  /// traversal (probe/visit as usual, test membership before scoring).
  kForcePushdown = 1,

  /// Brute force over the allowed subset (filtered BruteForceKnn on
  /// base_view) — exact at any budget; the low-selectivity escape hatch.
  kForceAllowedScan = 2,

  /// Unfiltered search with an enlarged k, then drop disallowed rows. Rows
  /// left with fewer than k allowed hits are re-run with real pushdown, so
  /// exactness at full budget is preserved.
  kForcePostFilter = 3,
};

/// Per-query search knobs. Defaults reproduce the historical positional call:
/// no filter, no stats, pool-default threading.
struct SearchOptions {
  /// Neighbors to return per query (result rows are exactly k wide, padded
  /// with kInvalidId).
  size_t k = 10;

  /// Per-query search effort: probed bins for the partition-based types,
  /// ef_search for HNSW, forwarded to every sealed segment by DynamicIndex.
  size_t budget = 1;

  /// Caps the per-query sharding over the global thread pool (0 = pool
  /// default, 1 = serial). Results are bit-identical at every setting.
  size_t num_threads = 0;

  /// Optional membership predicate: only ids with filter->is_member(id) may
  /// be returned. Applied before scoring in every index type (selector
  /// pushdown, docs/ARCHITECTURE.md "Query path"), so at full budget the
  /// result equals brute force restricted to the allowed subset — never a
  /// post-filtered truncation. Non-owning; must outlive the call. nullptr
  /// means unfiltered.
  const IdSelector* filter = nullptr;

  /// When true, the result carries a SearchStats block with per-query
  /// instrumentation (candidates scored, bins probed, filtered-out count,
  /// visited nodes).
  bool stats = false;

  /// Execution strategy for filtered requests; see PlanMode. Ignored when
  /// filter == nullptr.
  PlanMode plan = PlanMode::kAuto;
};

/// A batch of queries plus the options they run under. `queries` is a
/// non-owning view (a Matrix converts implicitly; external storage — an
/// mmap'd section, a caller-owned buffer — is searched zero-copy).
struct SearchRequest {
  MatrixView queries;
  SearchOptions options;
};

/// Optional per-query instrumentation (SearchOptions::stats /
/// RadiusOptions::stats), sized one entry per query. Lets callers close the
/// recall/latency loop per query instead of batch-averaging through
/// MeanCandidates().
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

/// One query's work counters: its candidate_counts entry and its four
/// SearchStats entries.
struct QueryCounters {
  uint32_t scored = 0;         ///< candidate_counts / candidates_scored
  uint32_t bins_probed = 0;
  uint32_t filtered_out = 0;
  uint32_t nodes_visited = 0;  ///< HNSW only
};

/// Writes query q's counters into a BatchSearchResult or RadiusResult: its
/// candidate_counts entry always, the four stats entries when engaged.
template <typename Result>
void SetCounters(size_t q, const QueryCounters& counters, Result* result) {
  result->candidate_counts[q] = counters.scored;
  if (result->stats) {
    result->stats->candidates_scored[q] = counters.scored;
    result->stats->bins_probed[q] = counters.bins_probed;
    result->stats->filtered_out[q] = counters.filtered_out;
    result->stats->nodes_visited[q] = counters.nodes_visited;
  }
}

/// Search output for a batch of queries.
struct BatchSearchResult {
  size_t k = 0;
  std::vector<uint32_t> ids;     ///< (num_queries x k), row-major
  std::vector<float> distances;  ///< parallel to ids; minimized form

  /// |C(q)| per query: the number of candidates *scored* by the exact/ADC
  /// distance stage. Under a filter this is the post-filter count (dropped
  /// candidates are never scored), which keeps MeanCandidates() — the S(R)
  /// of Eq. 4 — meaningful as "exact-distance work per query". HNSW scores
  /// every visited node (navigation needs the distance), so its count is the
  /// visit count regardless of filter. Pinned by
  /// tests/filtered_search_test.cc (CandidateCountsArePostFilter).
  std::vector<uint32_t> candidate_counts;

  /// Per-query instrumentation; engaged only when SearchOptions::stats.
  std::optional<SearchStats> stats;

  const uint32_t* Row(size_t q) const { return ids.data() + q * k; }
  const float* DistanceRow(size_t q) const { return distances.data() + q * k; }

  /// Sizes ids/distances/candidate_counts for `num_queries` rows, every slot
  /// pre-padded (kInvalidId / +inf / 0).
  void AllocatePadded(size_t num_queries);

  /// AllocatePadded + sets k from `options` and engages the stats block when
  /// options.stats: how TopKCollector (knn/brute_force.h) starts a result.
  void Prepare(size_t num_queries, const SearchOptions& options);

  /// Writes the first min(k, sorted.size()) neighbors into row q (ids and
  /// distances); trailing slots keep their padding.
  void SetRow(size_t q, const std::vector<Neighbor>& sorted);

  /// Mean candidate-set size S(R) over the batch (Eq. 4).
  double MeanCandidates() const;
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

  /// When true, the result carries a SearchStats block.
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

/// On-disk type tag of each index implementation. Stored in the container
/// header (docs/FORMAT.md); values are a persistence contract — never reuse
/// or renumber them.
enum class IndexType : uint32_t {
  kPartition = 1,    ///< PartitionIndex (any BinScorer + exact rerank)
  kIvfFlat = 2,      ///< IvfFlatIndex
  kIvfPq = 3,        ///< IvfPqIndex
  kScann = 4,        ///< ScannIndex
  kHnsw = 5,         ///< HnswIndex
  kUspEnsemble = 6,  ///< UspEnsemble
  kDynamic = 7,      ///< DynamicIndex (serve/dynamic_index.h)
  kSq8 = 8,          ///< Sq8Index (quant/sq8_index.h)
  kSharded = 9,      ///< ShardedIndex (serve/sharded_index.h)
};

/// Human-readable name of a type tag ("partition", "ivf_flat", ...);
/// "unknown" for unregistered values.
const char* IndexTypeName(IndexType type);

/// Abstract, immutable (Add-free) ANN index: train or load offline, serve
/// queries online. Implementations override SearchBatch(const SearchRequest&)
/// and add `using Index::SearchBatch;` so the positional convenience shim
/// stays visible on the concrete type.
class Index {
 public:
  virtual ~Index() = default;

  /// Batched k-NN search over a structured request. Result rows hold real
  /// neighbors first (ascending by distance, with matching `distances`), then
  /// kInvalidId padding. With a filter, only allowed ids appear and at full
  /// budget the row is bit-identical to brute force over the allowed subset
  /// (tests/filtered_search_test.cc).
  virtual BatchSearchResult SearchBatch(const SearchRequest& request) const = 0;

  /// Positional convenience shim over the request form — kept so historical
  /// call sites stay source-compatible, and bit-identical to an unfiltered
  /// SearchRequest with the same (k, budget, num_threads) by construction.
  /// New code should build a SearchRequest (it is the only spelling that can
  /// express filters and stats).
  BatchSearchResult SearchBatch(MatrixView queries, size_t k, size_t budget,
                                size_t num_threads = 0) const {
    SearchRequest request;
    request.queries = queries;
    request.options.k = k;
    request.options.budget = budget;
    request.options.num_threads = num_threads;
    return SearchBatch(request);
  }

  /// Batched radius (range) search: for every query, all indexed points with
  /// minimized-form distance <= request.radius (inclusive), as a CSR
  /// RadiusResult with rows sorted by ascending (distance, id). At full
  /// budget (the RadiusOptions default) the result is bit-identical —
  /// offsets, ids, distances — to BruteForceRadius over base_view()
  /// restricted to the filter, including through Dynamic/Sharded fan-out
  /// with tombstones (tests/radius_search_test.cc); lower budgets trade
  /// recall for probing cost exactly as in k-NN search. Every type answers
  /// through its own traversal or one of the shared stages of
  /// knn/brute_force.h, with candidate_counts and, under options.stats, the
  /// stats block of that traversal.
  virtual RadiusResult RadiusSearchBatch(
      const RadiusRequest& request) const = 0;

  /// Positional convenience shim over the request form, mirroring
  /// SearchBatch's shim.
  RadiusResult RadiusSearch(MatrixView queries, float radius,
                            const RadiusOptions& options = {}) const {
    RadiusRequest request;
    request.queries = queries;
    request.radius = radius;
    request.options = options;
    return RadiusSearchBatch(request);
  }

  /// Single-query convenience: returns up to k neighbor ids, ascending by
  /// distance — row 0 of SearchBatch over `query` viewed as a 1-row
  /// MatrixView (zero-copy) on the calling thread, without its padding.
  std::vector<uint32_t> Search(const float* query, size_t k,
                               size_t budget) const;

  virtual size_t dim() const = 0;     ///< base vector dimensionality
  virtual size_t size() const = 0;    ///< number of indexed base vectors
  virtual Metric metric() const = 0;  ///< exact-rerank metric
  virtual IndexType type() const = 0;

  /// Read-only view of the indexed base vectors (row i = base point i) when
  /// the implementation stores them contiguously; an empty view otherwise.
  /// The serving layer's compaction (serve/dynamic_index.h) uses this to
  /// gather live rows out of sealed segments without knowing their type.
  virtual MatrixView base_view() const { return MatrixView(); }

  /// Expected number of candidates an *unfiltered* query generates at
  /// `budget` — the E term of the planner's cost model
  /// (index/query_planner.h). An estimate, not a promise: partition types
  /// assume balanced bins, HNSW bounds its frontier expansion. The default
  /// (the whole base) is the conservative upper bound.
  virtual size_t EstimateCandidates(size_t budget) const {
    (void)budget;
    return size();
  }

  /// The concrete index this object answers queries with. Loaded indexes
  /// (index/serialize.h) are wrappers owning their storage; underlying()
  /// unwraps them so SaveIndex and type introspection see the real object.
  virtual const Index& underlying() const { return *this; }
};

}  // namespace usp

#endif  // USP_INDEX_INDEX_H_
