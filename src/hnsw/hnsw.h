// Hierarchical Navigable Small World graphs (Malkov & Yashunin 2018), the
// graph-based ANN baseline of Fig. 7. Full multi-layer construction with
// greedy descent and ef-bounded best-first search at the base layer.
#ifndef USP_HNSW_HNSW_H_
#define USP_HNSW_HNSW_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/partition_index.h"
#include "index/index.h"
#include "knn/brute_force.h"
#include "tensor/matrix.h"

namespace usp {

/// HNSW hyperparameters.
struct HnswConfig {
  size_t max_neighbors = 16;     ///< M: links per node on upper layers
  size_t ef_construction = 100;  ///< beam width while building
  uint64_t seed = 1;
};

/// In-memory HNSW index over a base matrix (which must outlive the index).
class HnswIndex : public Index {
 public:
  explicit HnswIndex(HnswConfig config);

  /// Rehydrates a built graph from deserialized state over external (possibly
  /// mmap'd) base storage; the graph must come from an index built with the
  /// same config.
  HnswIndex(HnswConfig config, MatrixView base,
            std::vector<std::vector<std::vector<uint32_t>>> links,
            std::vector<int> node_levels, int max_level, uint32_t entry_point);

  /// Inserts all base points (sequentially; deterministic given the seed).
  void Build(const Matrix& base);

  /// Batch search with beam width max(k, `options.budget`, 1)
  /// (= ef_search); the graph must be built or loaded. Each row is the
  /// walk's beam, ascending by distance, written through TopKCollector
  /// (knn/brute_force.h).
  /// `candidate_counts` reports the number of distance evaluations per query,
  /// the analogue of the candidate-set size |C| used to compare against
  /// partition-based methods; HNSW scores every node it visits (navigation
  /// needs the distance), so under a filter the count still reflects visited
  /// nodes — filtering changes what is *returned*, not what is scored.
  ///
  /// Filter semantics are visit-but-don't-return: traversal expands through
  /// disallowed nodes (they keep the graph connected and navigable) but only
  /// allowed nodes enter the result set or tighten its bound. With ef >=
  /// size() the whole connected component is explored, so filtered
  /// full-budget search equals brute force over the allowed subset. The
  /// flip side: whenever the selector admits fewer than ef nodes, the
  /// ef-bound can never engage and the search degrades to a full traversal
  /// of the connected component — O(size()) per query. At very low
  /// selectivity that is the price of exactness here; latency-sensitive
  /// callers should cap ef near the expected allowed count (or prefer a
  /// partition-based index, whose filtered cost shrinks with selectivity).
  ///
  /// `options.num_threads` caps the per-query sharding (0 = pool default,
  /// 1 = serial); results are identical at every setting.
  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override;

  /// Radius search: the usual greedy descent to the base layer, then a
  /// best-first expansion that keeps growing while the frontier holds nodes
  /// within `radius` — the ef beam (`options.budget`) only bounds effort
  /// *outside* the radius, so every node whose distance is within the radius
  /// and reachable through in-range or beam-admitted nodes is found. At full
  /// budget the whole connected component is traversed, making the result
  /// bit-identical to BruteForceRadius (the traversal scores with the same
  /// squared-L2 kernel as ScoreRange). Filter semantics are
  /// visit-but-don't-return, exactly as in SearchBatch. The walk offers the
  /// in-radius nodes to RadiusCollector (knn/brute_force.h), which keeps
  /// those with distance <= radius and sorts them by (distance, id); one
  /// per-query loop (Walk) serves both query shapes.
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override;

  size_t dim() const override { return base_.cols(); }
  size_t size() const override { return node_levels_.size(); }
  Metric metric() const override { return Metric::kSquaredL2; }
  IndexType type() const override { return IndexType::kHnsw; }
  MatrixView base_view() const override { return base_; }

  /// Planner cost input (index/query_planner.h): distance evaluations of an
  /// unfiltered ef=`budget` search, modeled as the beam expanding up to M
  /// neighbors per kept node — min(n, budget * M). The planner
  /// separately models the filtered cliff described above, which this
  /// estimate deliberately excludes.
  size_t EstimateCandidates(size_t budget) const override {
    const size_t beam = std::max<size_t>(budget, 1);
    return std::min(size(), beam * config_.max_neighbors);
  }
  int max_level() const { return max_level_; }

  // Graph state accessors (serialization + diagnostics).
  const HnswConfig& config() const { return config_; }
  MatrixView base() const { return base_; }
  const std::vector<std::vector<std::vector<uint32_t>>>& links() const {
    return links_;
  }
  const std::vector<int>& node_levels() const { return node_levels_; }
  uint32_t entry_point() const { return entry_point_; }

 private:
  struct LayerStats {
    size_t evaluations = 0;   ///< distance computations
    size_t visited = 0;       ///< distinct nodes marked visited
    size_t filtered_out = 0;  ///< visited nodes the selector excluded
  };
  // Greedy descent from the entry point through layers max_level_ down to
  // floor + 1, one closest-neighbor hop at a time; returns the node it ends
  // on. Upper layers only pick the next layer's entry, never a returned
  // neighbor, so no filter applies. `evaluations` (optional) receives the
  // distance computations.
  uint32_t Descend(const float* query, int floor, size_t* evaluations) const;
  // Best-first search on one layer from `entry` with an ef-bounded beam of
  // *allowed* nodes. `filter` (optional) applies the visit-but-don't-return
  // semantics above: disallowed nodes still steer the frontier. Nodes within
  // `radius` always enter the frontier and keep the walk going however
  // small ef is, so a full-budget radius walk traverses the connected
  // component; when `hits` is set, every allowed node the walk admits is
  // offered to it, it keeps those within its radius, and nothing is
  // returned. Otherwise returns the beam ascending by distance. k-NN passes
  // radius = -inf: no distance, NaN included, is <= -inf, so every
  // comparison is the classic ef-bounded one. `stats` (optional) accumulates
  // traversal counters.
  std::vector<Neighbor> SearchLayer(const float* query, uint32_t entry,
                                    size_t ef, int level, float radius,
                                    const IdSelector* filter,
                                    LayerStats* stats,
                                    RadiusCollector::Keeper* hits) const;
  // One query: Descend to the base layer, then SearchLayer there. Returns
  // the beam (k-NN, no radius) or the allowed nodes within `radius`, sorted
  // by (distance, id). Fills the query's counters: every distance computed
  // (descent and walk) as scored, plus the walk's visited and filtered-out
  // nodes.
  std::vector<Neighbor> SearchBase(const float* query, size_t ef,
                                   std::optional<float> radius,
                                   const IdSelector* filter,
                                   QueryCounters* counters) const;
  // Both query shapes: SearchBase for every query of `request`, over
  // ParallelFor chunks of 4 queries, each row and its counters written
  // through the Collector (knn/brute_force.h).
  template <typename Collector>
  typename Collector::Result Walk(const typename Collector::Request& request,
                                  size_t ef,
                                  std::optional<float> radius) const;
  std::vector<uint32_t>& LinksAt(uint32_t node, int level) {
    return links_[node][level];
  }
  const std::vector<uint32_t>& LinksAt(uint32_t node, int level) const {
    return links_[node][level];
  }

  HnswConfig config_;
  MatrixView base_;
  std::vector<std::vector<std::vector<uint32_t>>> links_;  // [node][level]
  std::vector<int> node_levels_;
  int max_level_ = -1;
  uint32_t entry_point_ = 0;
};

}  // namespace usp

#endif  // USP_HNSW_HNSW_H_
