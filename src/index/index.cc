#include "index/index.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace usp {

void SearchStats::Allocate(size_t num_queries) {
  candidates_scored.assign(num_queries, 0);
  bins_probed.assign(num_queries, 0);
  filtered_out.assign(num_queries, 0);
  nodes_visited.assign(num_queries, 0);
}

void BatchSearchResult::AllocatePadded(size_t num_queries) {
  ids.assign(num_queries * k, kInvalidId);
  distances.assign(num_queries * k,
                   std::numeric_limits<float>::infinity());
  candidate_counts.assign(num_queries, 0);
}

void BatchSearchResult::Prepare(size_t num_queries,
                                const SearchOptions& options) {
  k = options.k;
  AllocatePadded(num_queries);
  if (options.stats) {
    stats.emplace();
    stats->Allocate(num_queries);
  } else {
    stats.reset();
  }
}

void BatchSearchResult::SetRow(size_t q, const std::vector<Neighbor>& sorted) {
  const size_t count = std::min(k, sorted.size());
  for (size_t j = 0; j < count; ++j) {
    ids[q * k + j] = sorted[j].id;
    distances[q * k + j] = sorted[j].distance;
  }
}

double BatchSearchResult::MeanCandidates() const {
  if (candidate_counts.empty()) return 0.0;
  const double sum =
      std::accumulate(candidate_counts.begin(), candidate_counts.end(), 0.0);
  return sum / static_cast<double>(candidate_counts.size());
}

const char* IndexTypeName(IndexType type) {
  switch (type) {
    case IndexType::kPartition:
      return "partition";
    case IndexType::kIvfFlat:
      return "ivf_flat";
    case IndexType::kIvfPq:
      return "ivf_pq";
    case IndexType::kScann:
      return "scann";
    case IndexType::kHnsw:
      return "hnsw";
    case IndexType::kUspEnsemble:
      return "usp_ensemble";
    case IndexType::kDynamic:
      return "dynamic";
    case IndexType::kSq8:
      return "sq8";
    case IndexType::kSharded:
      return "sharded";
  }
  return "unknown";
}

std::vector<uint32_t> Index::Search(const float* query, size_t k,
                                    size_t budget) const {
  // Zero-copy: the caller's buffer is viewed in place, never staged through a
  // heap Matrix.
  const BatchSearchResult result = SearchBatch(
      MatrixView(query, 1, dim()), k, budget, /*num_threads=*/1);
  std::vector<uint32_t> ids;
  ids.reserve(k);
  for (size_t j = 0; j < result.k; ++j) {
    const uint32_t id = result.Row(0)[j];
    if (id == kInvalidId) break;  // padding
    ids.push_back(id);
  }
  return ids;
}

}  // namespace usp
