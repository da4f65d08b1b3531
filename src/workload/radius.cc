#include "workload/radius.h"

#include "util/thread_pool.h"

namespace usp {

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
