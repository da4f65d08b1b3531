#include "workload/radius.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace usp {

std::vector<Neighbor> RangeFilterCandidates(const DistanceComputer& dist,
                                            const float* query,
                                            std::vector<uint32_t>* candidates,
                                            float radius,
                                            const IdSelector* filter,
                                            RadiusRowCounts* counts) {
  std::vector<uint32_t>& ids = *candidates;
  // Overlapping probes (ensembles, multi-bin unions) can repeat ids; dedupe so
  // no point is scored twice or reported twice.
  SortUniqueIds(&ids);

  if (filter != nullptr) {
    const size_t before = ids.size();
    ids.erase(
        std::remove_if(ids.begin(), ids.end(),
                       [&](uint32_t id) { return !filter->is_member(id); }),
        ids.end());
    if (counts != nullptr) {
      counts->filtered_out = static_cast<uint32_t>(before - ids.size());
    }
  }
  if (counts != nullptr) counts->scored = static_cast<uint32_t>(ids.size());

  std::vector<float> scratch;
  const float* prepared = dist.PrepareQuery(query, &scratch);
  std::vector<float> scores(ids.size());
  dist.ScoreIds(prepared, ids.data(), ids.size(), scores.data());

  std::vector<Neighbor> hits;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (scores[i] <= radius) hits.push_back(Neighbor{scores[i], ids[i]});
  }
  std::sort(hits.begin(), hits.end());  // (distance, id) total order
  return hits;
}

RadiusResult CollectRadiusChunks(size_t num_queries,
                                 const RadiusOptions& options,
                                 const RadiusChunkFn& chunk_fn) {
  RadiusResult result;
  result.offsets.assign(num_queries + 1, 0);
  result.candidate_counts.assign(num_queries, 0);
  if (options.stats) {
    result.stats.emplace();
    result.stats->Allocate(num_queries);
  }

  std::vector<std::vector<Neighbor>> rows(num_queries);
  ParallelFor(num_queries, 8, options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
                chunk_fn(q_begin, q_end, &rows, &result);
              });

  size_t total = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    result.offsets[q] = total;
    total += rows[q].size();
  }
  result.offsets[num_queries] = total;
  result.ids.reserve(total);
  result.distances.reserve(total);
  for (const auto& row : rows) {
    for (const Neighbor& n : row) {
      result.ids.push_back(n.id);
      result.distances.push_back(n.distance);
    }
  }
  return result;
}

RadiusResult CollectRadiusRows(
    size_t num_queries, const RadiusOptions& options,
    const std::function<std::vector<Neighbor>(size_t, RadiusResult*)>&
        row_fn) {
  return CollectRadiusChunks(
      num_queries, options,
      [&](size_t q_begin, size_t q_end,
          std::vector<std::vector<Neighbor>>* rows, RadiusResult* result) {
        for (size_t q = q_begin; q < q_end; ++q) (*rows)[q] = row_fn(q, result);
      });
}

}  // namespace usp
