#include "hnsw/hnsw.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "dist/distance_kernels.h"
#include "index/query_planner.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/radius.h"

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

std::vector<HnswIndex::Scored> HnswIndex::SearchLayer(
    const float* query, uint32_t entry, size_t ef, int level,
    const IdSelector* filter, LayerStats* stats) const {
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
  } else if (stats != nullptr) {
    ++stats->filtered_out;
  }

  // Visit-but-don't-return: the frontier expands through every node (the
  // admission bound uses the worst kept *allowed* distance, so navigation
  // crosses filtered regions), while `best` only ever holds allowed nodes.
  // With no filter this is arithmetic-for-arithmetic the classic ef-bounded
  // search: `best` is non-empty from the entry push onward, so the size
  // guard below never changes a comparison.
  while (!frontier.empty()) {
    const auto [dist, node] = frontier.top();
    frontier.pop();
    if (best.size() >= ef && dist > best.top().first) break;
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
      if (best.size() < ef || nb_dist < best.top().first) {
        frontier.push({nb_dist, nb});
        if (allowed) {
          best.push({nb_dist, nb});
          if (best.size() > ef) best.pop();
        }
      }
    }
  }

  std::vector<Scored> result(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    result[i] = {best.top().first, best.top().second};
    best.pop();
  }
  return result;  // ascending by distance
}

std::vector<HnswIndex::Scored> HnswIndex::RadiusLayer(
    const float* query, uint32_t entry, size_t ef, float radius,
    const IdSelector* filter, LayerStats* stats) const {
  const size_t d = base_.cols();
  const DistanceKernels& kd = GetDistanceKernels();
  std::vector<uint8_t> visited(base_.rows(), 0);

  std::priority_queue<std::pair<float, uint32_t>,
                      std::vector<std::pair<float, uint32_t>>, FartherFirst>
      frontier;
  std::priority_queue<std::pair<float, uint32_t>,
                      std::vector<std::pair<float, uint32_t>>, CloserFirst>
      best;  // ef-bounded beam of allowed nodes, as in SearchLayer
  std::vector<Scored> hits;

  const float entry_dist = kd.squared_l2(query, base_.Row(entry), d);
  if (stats != nullptr) {
    ++stats->evaluations;
    ++stats->visited;
  }
  visited[entry] = 1;
  frontier.push({entry_dist, entry});
  if (filter == nullptr || filter->is_member(entry)) {
    best.push({entry_dist, entry});
    if (entry_dist <= radius) hits.push_back({entry_dist, entry});
  } else if (stats != nullptr) {
    ++stats->filtered_out;
  }

  while (!frontier.empty()) {
    const auto [dist, node] = frontier.top();
    frontier.pop();
    // Stop only once the closest frontier node is both outside the radius
    // and worse than a full beam: the radius term keeps in-range regions
    // expanding no matter how small ef is.
    if (dist > radius && best.size() >= ef && dist > best.top().first) break;
    for (uint32_t nb : LinksAt(node, 0)) {
      if (visited[nb]) continue;
      visited[nb] = 1;
      const float nb_dist = kd.squared_l2(query, base_.Row(nb), d);
      const bool allowed = filter == nullptr || filter->is_member(nb);
      if (stats != nullptr) {
        ++stats->evaluations;
        ++stats->visited;
        if (!allowed) ++stats->filtered_out;
      }
      if (nb_dist <= radius || best.size() < ef ||
          nb_dist < best.top().first) {
        frontier.push({nb_dist, nb});
        if (allowed) {
          if (nb_dist <= radius) hits.push_back({nb_dist, nb});
          best.push({nb_dist, nb});
          if (best.size() > ef) best.pop();
        }
      }
    }
  }
  return hits;
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
    uint32_t current = entry_point_;
    const size_t d = base.cols();
    float current_dist = kd.squared_l2(base.Row(i), base.Row(current), d);
    for (int l = max_level_; l > level; --l) {
      bool improved = true;
      while (improved) {
        improved = false;
        for (uint32_t nb : LinksAt(current, l)) {
          const float dist = kd.squared_l2(base.Row(i), base.Row(nb), d);
          if (dist < current_dist) {
            current_dist = dist;
            current = nb;
            improved = true;
          }
        }
      }
    }

    // Connect on each layer from min(level, max_level_) down to 0.
    for (int l = std::min(level, max_level_); l >= 0; --l) {
      auto nearest = SearchLayer(base.Row(i), current, config_.ef_construction,
                                 l, /*filter=*/nullptr, /*stats=*/nullptr);
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

std::vector<uint32_t> HnswIndex::Search(const float* query, size_t k,
                                        size_t budget) const {
  USP_CHECK(!base_.empty() && max_level_ >= 0);
  // Greedy descent to layer 1.
  uint32_t current = entry_point_;
  const size_t d = base_.cols();
  const DistanceKernels& kd = GetDistanceKernels();
  float current_dist = kd.squared_l2(query, base_.Row(current), d);
  for (int l = max_level_; l >= 1; --l) {
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t nb : LinksAt(current, l)) {
        const float dist = kd.squared_l2(query, base_.Row(nb), d);
        if (dist < current_dist) {
          current_dist = dist;
          current = nb;
          improved = true;
        }
      }
    }
  }
  LayerStats layer_stats;
  const auto nearest = SearchLayer(query, current, std::max(k, budget), 0,
                                   /*filter=*/nullptr, &layer_stats);
  std::vector<uint32_t> out;
  out.reserve(std::min(k, nearest.size()));
  for (size_t i = 0; i < nearest.size() && i < k; ++i) {
    out.push_back(nearest[i].id);
  }
  return out;
}

BatchSearchResult HnswIndex::SearchBatch(const SearchRequest& request) const {
  // Planner hook (index/query_planner.h): this is the fix for the
  // low-selectivity cliff documented above — when the selector admits fewer
  // nodes than the beam, the planner reroutes to brute force over the
  // allowed set instead of paying the O(n) degraded traversal.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  const MatrixView queries = request.queries;
  const SearchOptions& options = request.options;
  const size_t k = options.k;
  const size_t nq = queries.rows();
  BatchSearchResult result;
  result.Prepare(nq, options);
  const DistanceKernels& kd = GetDistanceKernels();
  ParallelFor(nq, 4, options.num_threads, [&](size_t begin, size_t end,
                                              size_t) {
    for (size_t q = begin; q < end; ++q) {
      // Greedy descent ignores the filter: upper layers only pick the base
      // layer's entry point, never a returned neighbor.
      size_t evals = 0;
      uint32_t current = entry_point_;
      const size_t d = base_.cols();
      float current_dist =
          kd.squared_l2(queries.Row(q), base_.Row(current), d);
      ++evals;
      for (int l = max_level_; l >= 1; --l) {
        bool improved = true;
        while (improved) {
          improved = false;
          for (uint32_t nb : LinksAt(current, l)) {
            const float dist =
                kd.squared_l2(queries.Row(q), base_.Row(nb), d);
            ++evals;
            if (dist < current_dist) {
              current_dist = dist;
              current = nb;
              improved = true;
            }
          }
        }
      }
      LayerStats layer_stats;
      const auto nearest = SearchLayer(queries.Row(q), current,
                                       std::max(k, options.budget), 0,
                                       options.filter, &layer_stats);
      for (size_t i = 0; i < nearest.size() && i < k; ++i) {
        result.ids[q * k + i] = nearest[i].id;
        result.distances[q * k + i] = nearest[i].distance;
      }
      // Every visited node is distance-scored (navigation requires it), so
      // the scored count is descent evals + base-layer evals even under a
      // filter — see the SearchBatch contract in hnsw.h.
      result.candidate_counts[q] =
          static_cast<uint32_t>(evals + layer_stats.evaluations);
      if (result.stats) {
        result.stats->candidates_scored[q] = result.candidate_counts[q];
        result.stats->filtered_out[q] =
            static_cast<uint32_t>(layer_stats.filtered_out);
        result.stats->nodes_visited[q] =
            static_cast<uint32_t>(layer_stats.visited);
      }
    }
  });
  return result;
}

RadiusResult HnswIndex::RadiusSearchBatch(const RadiusRequest& request) const {
  USP_CHECK(!base_.empty() && max_level_ >= 0);
  const MatrixView queries = request.queries;
  const DistanceKernels& kd = GetDistanceKernels();
  const size_t ef = std::max<size_t>(request.options.budget, 1);
  return CollectRadiusRows(
      queries.rows(), request.options, [&](size_t q, RadiusResult* result) {
        // Greedy descent ignores the filter, exactly as in SearchBatch.
        size_t evals = 0;
        uint32_t current = entry_point_;
        const size_t d = base_.cols();
        float current_dist =
            kd.squared_l2(queries.Row(q), base_.Row(current), d);
        ++evals;
        for (int l = max_level_; l >= 1; --l) {
          bool improved = true;
          while (improved) {
            improved = false;
            for (uint32_t nb : LinksAt(current, l)) {
              const float dist =
                  kd.squared_l2(queries.Row(q), base_.Row(nb), d);
              ++evals;
              if (dist < current_dist) {
                current_dist = dist;
                current = nb;
                improved = true;
              }
            }
          }
        }
        LayerStats layer_stats;
        const auto found =
            RadiusLayer(queries.Row(q), current, ef, request.radius,
                        request.options.filter, &layer_stats);
        std::vector<Neighbor> hits;
        hits.reserve(found.size());
        for (const auto& s : found) hits.push_back(Neighbor{s.distance, s.id});
        std::sort(hits.begin(), hits.end());
        result->candidate_counts[q] =
            static_cast<uint32_t>(evals + layer_stats.evaluations);
        if (result->stats) {
          result->stats->candidates_scored[q] = result->candidate_counts[q];
          result->stats->filtered_out[q] =
              static_cast<uint32_t>(layer_stats.filtered_out);
          result->stats->nodes_visited[q] =
              static_cast<uint32_t>(layer_stats.visited);
        }
        return hits;
      });
}

}  // namespace usp
