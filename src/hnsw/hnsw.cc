#include "hnsw/hnsw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "dist/distance_kernels.h"
#include "index/query_planner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace usp {

namespace {
// Min-heap on distance for expansion candidates; max-heap for the result set.
struct FartherFirst {
  bool operator()(const std::pair<float, uint32_t>& a,
                  const std::pair<float, uint32_t>& b) const {
    return a.first > b.first;
  }
};
struct CloserFirst {
  bool operator()(const std::pair<float, uint32_t>& a,
                  const std::pair<float, uint32_t>& b) const {
    return a.first < b.first;
  }
};

// The radius of a k-NN walk (HnswIndex::SearchLayer).
constexpr float kNoRadius = -std::numeric_limits<float>::infinity();

// HNSW neighbor-selection heuristic (Alg. 4 of the paper): walk candidates in
// ascending distance from `node`, keeping a candidate only if it is closer to
// `node` than to every already-kept neighbor; this preserves edges across
// sparse regions and keeps the graph connected. Pruned candidates backfill
// remaining slots (keepPrunedConnections).
std::vector<uint32_t> SelectNeighborsHeuristic(
    const Matrix& base, uint32_t node,
    const std::vector<std::pair<float, uint32_t>>& sorted_candidates,
    size_t max_links) {
  const size_t d = base.cols();
  const DistanceKernels& kd = GetDistanceKernels();
  std::vector<uint32_t> kept;
  std::vector<uint32_t> pruned;
  for (const auto& [dist, cand] : sorted_candidates) {
    if (cand == node) continue;
    if (kept.size() >= max_links) break;
    bool diverse = true;
    for (uint32_t existing : kept) {
      if (kd.squared_l2(base.Row(cand), base.Row(existing), d) < dist) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      kept.push_back(cand);
    } else {
      pruned.push_back(cand);
    }
  }
  for (uint32_t cand : pruned) {
    if (kept.size() >= max_links) break;
    kept.push_back(cand);
  }
  return kept;
}
}  // namespace

HnswIndex::HnswIndex(HnswConfig config) : config_(std::move(config)) {
  USP_CHECK(config_.max_neighbors >= 2);
}

HnswIndex::HnswIndex(HnswConfig config, MatrixView base,
                     std::vector<std::vector<std::vector<uint32_t>>> links,
                     std::vector<int> node_levels, int max_level,
                     uint32_t entry_point)
    : config_(std::move(config)),
      base_(base),
      links_(std::move(links)),
      node_levels_(std::move(node_levels)),
      max_level_(max_level),
      entry_point_(entry_point) {
  USP_CHECK(links_.size() == base_.rows());
  USP_CHECK(node_levels_.size() == base_.rows());
  USP_CHECK(max_level_ >= 0 && entry_point_ < base_.rows());
}

uint32_t HnswIndex::Descend(const float* query, int floor,
                            size_t* evaluations) const {
  const size_t d = base_.cols();
  const DistanceKernels& kd = GetDistanceKernels();
  uint32_t current = entry_point_;
  float current_dist = kd.squared_l2(query, base_.Row(current), d);
  size_t evals = 1;
  for (int l = max_level_; l > floor; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nb : LinksAt(current, l)) {
        const float dist = kd.squared_l2(query, base_.Row(nb), d);
        ++evals;
        if (dist < current_dist) {
          current_dist = dist;
          current = nb;
          improved = true;
        }
      }
    }
  }
  if (evaluations != nullptr) *evaluations = evals;
  return current;
}

std::vector<Neighbor> HnswIndex::SearchLayer(
    const float* query, uint32_t entry, size_t ef, int level, float radius,
    const IdSelector* filter, LayerStats* stats,
    RadiusCollector::Keeper* hits) const {
  const size_t d = base_.cols();
  const DistanceKernels& kd = GetDistanceKernels();
  std::vector<uint8_t> visited(base_.rows(), 0);

  std::priority_queue<std::pair<float, uint32_t>,
                      std::vector<std::pair<float, uint32_t>>, FartherFirst>
      frontier;  // closest first
  std::priority_queue<std::pair<float, uint32_t>,
                      std::vector<std::pair<float, uint32_t>>, CloserFirst>
      best;  // farthest of the kept *allowed* set on top

  const float entry_dist = kd.squared_l2(query, base_.Row(entry), d);
  if (stats != nullptr) {
    ++stats->evaluations;
    ++stats->visited;
  }
  visited[entry] = 1;
  frontier.push({entry_dist, entry});
  if (filter == nullptr || filter->is_member(entry)) {
    best.push({entry_dist, entry});
    if (hits != nullptr) hits->Push(entry_dist, entry);
  } else if (stats != nullptr) {
    ++stats->filtered_out;
  }

  // Visit-but-don't-return: the frontier expands through every node (the
  // admission bound uses the worst kept *allowed* distance, so navigation
  // crosses filtered regions), while `best` only ever holds allowed nodes.
  // With no filter and radius = -inf this is arithmetic-for-arithmetic the
  // classic ef-bounded search: `best` is non-empty from the entry push
  // onward, so the size guard below never changes a comparison.
  while (!frontier.empty()) {
    const auto [dist, node] = frontier.top();
    frontier.pop();
    // Stop only once the closest frontier node is both outside the radius
    // and worse than a full beam.
    if (dist > radius && best.size() >= ef && dist > best.top().first) break;
    for (uint32_t nb : LinksAt(node, level)) {
      if (visited[nb]) continue;
      visited[nb] = 1;
      const float nb_dist = kd.squared_l2(query, base_.Row(nb), d);
      const bool allowed = filter == nullptr || filter->is_member(nb);
      if (stats != nullptr) {
        ++stats->evaluations;
        ++stats->visited;
        // Counted at visit time, admission-bound or not, so filtered_out
        // really is "visited nodes the selector excluded".
        if (!allowed) ++stats->filtered_out;
      }
      if (nb_dist <= radius || best.size() < ef ||
          nb_dist < best.top().first) {
        frontier.push({nb_dist, nb});
        if (allowed) {
          if (hits != nullptr) hits->Push(nb_dist, nb);
          best.push({nb_dist, nb});
          if (best.size() > ef) best.pop();
        }
      }
    }
  }
  if (hits != nullptr) return {};

  std::vector<Neighbor> result(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    result[i] = Neighbor{best.top().first, best.top().second};
    best.pop();
  }
  return result;  // ascending by distance
}

std::vector<Neighbor> HnswIndex::SearchBase(const float* query, size_t ef,
                                            std::optional<float> radius,
                                            const IdSelector* filter,
                                            QueryCounters* counters) const {
  size_t descent_evals = 0;
  const uint32_t entry = Descend(query, 0, &descent_evals);
  LayerStats layer;
  std::optional<RadiusCollector::Keeper> hits;
  if (radius) hits.emplace(*radius);
  std::vector<Neighbor> beam =
      SearchLayer(query, entry, ef, 0, radius.value_or(kNoRadius), filter,
                  &layer, hits ? &*hits : nullptr);
  // Every visited node is distance-scored (navigation requires it), so the
  // scored count is descent evals + base-layer evals even under a filter —
  // see the SearchBatch contract in hnsw.h.
  counters->scored = static_cast<uint32_t>(descent_evals + layer.evaluations);
  counters->filtered_out = static_cast<uint32_t>(layer.filtered_out);
  counters->nodes_visited = static_cast<uint32_t>(layer.visited);
  return hits ? hits->TakeSorted() : beam;
}

template <typename Collector>
typename Collector::Result HnswIndex::Walk(
    const typename Collector::Request& request, size_t ef,
    std::optional<float> radius) const {
  USP_CHECK(!base_.empty() && max_level_ >= 0);
  const MatrixView queries = request.queries;
  Collector out(request);
  ParallelFor(queries.rows(), 4, request.options.num_threads,
              [&](size_t begin, size_t end, size_t) {
    for (size_t q = begin; q < end; ++q) {
      QueryCounters counters;
      std::vector<Neighbor> row = SearchBase(queries.Row(q), ef, radius,
                                             request.options.filter, &counters);
      out.Set(q, std::move(row), counters);
    }
  });
  return out.Take();
}

void HnswIndex::Build(const Matrix& base) {
  base_ = MatrixView(base);
  const size_t n = base.rows();
  USP_CHECK(n > 0);
  links_.assign(n, {});
  node_levels_.assign(n, 0);
  max_level_ = -1;

  Rng rng(config_.seed);
  const DistanceKernels& kd = GetDistanceKernels();
  const double level_lambda = 1.0 / std::log(double(config_.max_neighbors));
  const size_t max_links0 = 2 * config_.max_neighbors;

  for (uint32_t i = 0; i < n; ++i) {
    double u = rng.Uniform();
    if (u < 1e-12) u = 1e-12;
    const int level = static_cast<int>(-std::log(u) * level_lambda);
    node_levels_[i] = level;
    links_[i].assign(level + 1, {});

    if (max_level_ < 0) {
      max_level_ = level;
      entry_point_ = i;
      continue;
    }

    // Greedy descent through layers above the node's top level.
    uint32_t current = Descend(base.Row(i), level, /*evaluations=*/nullptr);
    const size_t d = base.cols();

    // Connect on each layer from min(level, max_level_) down to 0.
    for (int l = std::min(level, max_level_); l >= 0; --l) {
      auto nearest = SearchLayer(base.Row(i), current, config_.ef_construction,
                                 l, kNoRadius, /*filter=*/nullptr,
                                 /*stats=*/nullptr, /*hits=*/nullptr);
      const size_t cap = (l == 0) ? max_links0 : config_.max_neighbors;
      std::vector<std::pair<float, uint32_t>> candidates;
      candidates.reserve(nearest.size());
      for (const auto& scored : nearest) {
        candidates.push_back({scored.distance, scored.id});
      }
      auto& my_links = LinksAt(i, l);
      my_links = SelectNeighborsHeuristic(base, i, candidates,
                                          config_.max_neighbors);
      for (const uint32_t nb : my_links) {
        auto& their_links = LinksAt(nb, l);
        their_links.push_back(i);
        if (their_links.size() > cap) {
          // Shrink with the same diversity heuristic (never plain truncation,
          // which disconnects early nodes).
          std::vector<std::pair<float, uint32_t>> theirs;
          theirs.reserve(their_links.size());
          for (uint32_t existing : their_links) {
            theirs.push_back(
                {kd.squared_l2(base.Row(nb), base.Row(existing), d),
                 existing});
          }
          std::sort(theirs.begin(), theirs.end());
          their_links = SelectNeighborsHeuristic(base, nb, theirs, cap);
        }
      }
      if (!nearest.empty()) current = nearest[0].id;
    }

    if (level > max_level_) {
      max_level_ = level;
      entry_point_ = i;
    }
  }
}

BatchSearchResult HnswIndex::SearchBatch(const SearchRequest& request) const {
  // Planner hook (index/query_planner.h): this is the fix for the
  // low-selectivity cliff documented above — when the selector admits fewer
  // nodes than the beam, the planner reroutes to brute force over the
  // allowed set instead of paying the O(n) degraded traversal.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  const SearchOptions& options = request.options;
  return Walk<TopKCollector>(
      request, std::max({options.k, options.budget, size_t{1}}), std::nullopt);
}

RadiusResult HnswIndex::RadiusSearchBatch(const RadiusRequest& request) const {
  return Walk<RadiusCollector>(
      request, std::max<size_t>(request.options.budget, 1), request.radius);
}

}  // namespace usp
