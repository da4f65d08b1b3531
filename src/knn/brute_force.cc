#include "knn/brute_force.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "dist/distance_kernels.h"
#include "knn/top_k.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace usp {

namespace {
constexpr size_t kBaseBlock = 2048;  // base points per distance tile

KnnResult KnnImpl(MatrixView base, MatrixView queries, size_t k,
                  bool exclude_identity, size_t num_threads = 0) {
  USP_CHECK(base.cols() == queries.cols());
  USP_CHECK(k > 0 && k <= base.rows());
  const size_t nq = queries.rows(), nb = base.rows(), d = base.cols();

  KnnResult result;
  result.k = k;
  result.indices.resize(nq * k);
  result.distances.resize(nq * k);

  std::vector<float> base_norms, query_norms;
  RowSquaredNorms(base, &base_norms);
  RowSquaredNorms(queries, &query_norms);
  const DistanceKernels& kd = GetDistanceKernels();

  ParallelFor(nq, 8, num_threads, [&](size_t q_begin, size_t q_end, size_t) {
    std::vector<TopK> heaps;
    heaps.reserve(q_end - q_begin);
    for (size_t q = q_begin; q < q_end; ++q) heaps.emplace_back(k);
    std::vector<float> dots(kBaseBlock);

    for (size_t b0 = 0; b0 < nb; b0 += kBaseBlock) {
      const size_t b1 = std::min(nb, b0 + kBaseBlock);
      for (size_t q = q_begin; q < q_end; ++q) {
        const float* qv = queries.Row(q);
        const float q_norm = query_norms[q];
        kd.score_block_dot(qv, base.Row(b0), b1 - b0, d, dots.data());
        TopK& heap = heaps[q - q_begin];
        for (size_t b = b0; b < b1; ++b) {
          if (exclude_identity && b == q) continue;
          const float dist =
              std::max(0.0f, q_norm + base_norms[b] - 2.0f * dots[b - b0]);
          heap.Push(dist, static_cast<uint32_t>(b));
        }
      }
    }
    for (size_t q = q_begin; q < q_end; ++q) {
      auto sorted = heaps[q - q_begin].TakeSorted();
      for (size_t j = 0; j < k; ++j) {
        result.indices[q * k + j] = sorted[j].id;
        result.distances[q * k + j] = sorted[j].distance;
      }
    }
  });
  return result;
}

// The rows a flat scan scores, in id order: every base row when `filter` is
// null (`ids` stays empty), else the ids the filter admits.
struct ScanRows {
  std::vector<uint32_t> ids;
  size_t num_rows = 0;
  size_t count = 0;
  bool gathered = false;

  ScanRows(size_t rows, const IdSelector* filter) : num_rows(rows) {
    if (filter == nullptr) {
      count = num_rows;
      return;
    }
    gathered = true;
    ids.resize(num_rows);
    std::iota(ids.begin(), ids.end(), 0u);
    KeepMembers(*filter, &ids);
    count = ids.size();
  }

  // Every query's counters: every scanned row scored, the rest dropped by
  // the filter, `bins_probed` bins probed.
  QueryCounters Counters(uint32_t bins_probed) const {
    QueryCounters counters;
    counters.scored = static_cast<uint32_t>(count);
    counters.bins_probed = bins_probed;
    counters.filtered_out = static_cast<uint32_t>(num_rows - count);
    return counters;
  }
};

// Base-row bytes per block of a flat scan: the block stays in a core's L1
// data cache while every query of the chunk scores it (64 rows at d = 128).
constexpr size_t kScanBlockBytes = 32 << 10;

// Scores every query of [q_begin, q_end) against every row of `rows`, one
// block at a time: each block is scored against the whole chunk of queries
// before the next block, so it is read from memory once per chunk instead of
// once per query. `sink(i, ids, first, scores, count)` receives query
// q_begin + i's scores for one block, in id order: rows ids[0 .. count), or
// first .. first + count when ids is null.
template <typename Sink>
void ScanTile(const DistanceComputer& dist, MatrixView queries,
              size_t q_begin, size_t q_end, const ScanRows& rows,
              Sink&& sink) {
  const size_t tile = q_end - q_begin;
  std::vector<std::vector<float>> scratch(tile);
  std::vector<const float*> prepared(tile);
  for (size_t i = 0; i < tile; ++i) {
    prepared[i] = dist.PrepareQuery(queries.Row(q_begin + i), &scratch[i]);
  }
  const size_t row_bytes =
      sizeof(float) * std::max<size_t>(1, dist.base().cols());
  const size_t block = std::max<size_t>(1, kScanBlockBytes / row_bytes);
  std::vector<float> scores(block);
  for (size_t b0 = 0; b0 < rows.count; b0 += block) {
    const size_t count = std::min(rows.count - b0, block);
    const uint32_t* ids = rows.gathered ? rows.ids.data() + b0 : nullptr;
    for (size_t i = 0; i < tile; ++i) {
      if (ids != nullptr) {
        dist.ScoreIds(prepared[i], ids, count, scores.data());
      } else {
        dist.ScoreRange(prepared[i], static_cast<uint32_t>(b0), count,
                        scores.data());
      }
      sink(i, ids, b0, scores.data(), count);
    }
  }
}

// Generic-metric brute force: FlatScan over a computer built for this
// call. Padding (fewer allowed rows than k) is only reachable with a filter:
// unfiltered callers check k <= rows.
KnnResult KnnImplMetric(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, const IdSelector* filter,
                        size_t num_threads) {
  USP_CHECK(base.cols() == queries.cols());
  USP_CHECK(k > 0);
  USP_CHECK(filter != nullptr || k <= base.rows());
  SearchRequest request;
  request.queries = queries;
  request.options.k = k;
  request.options.num_threads = num_threads;
  request.options.filter = filter;
  BatchSearchResult scan =
      FlatScan(DistanceComputer(base, metric), request, /*bins_probed=*/0);
  KnnResult result;
  result.k = k;
  result.indices = std::move(scan.ids);
  result.distances = std::move(scan.distances);
  return result;
}

// The front half of RerankCandidatesScored and RangeFilterCandidates: sorts
// and dedupes `ids` in place (overlapping probes can repeat ids; no point is
// scored or reported twice), drops the ids `filter` rejects, and scores the
// survivors, in id order, into `scores` against `prepared` (from
// dist.PrepareQuery). Returns the scored and filtered-out counts.
QueryCounters ScoreCandidates(const DistanceComputer& dist,
                              const float* prepared,
                              std::vector<uint32_t>* ids,
                              const IdSelector* filter,
                              std::vector<float>* scores) {
  SortUniqueIds(ids);
  QueryCounters counts;
  if (filter != nullptr) {
    counts.filtered_out = static_cast<uint32_t>(KeepMembers(*filter, ids));
  }
  counts.scored = static_cast<uint32_t>(ids->size());
  scores->resize(ids->size());
  dist.ScoreIds(prepared, ids->data(), ids->size(), scores->data());
  return counts;
}

// Offers the scored ids to `keep`, in id order, and returns what it keeps.
template <typename Keeper>
std::vector<Neighbor> KeepScored(Keeper keep, const std::vector<uint32_t>& ids,
                                 const std::vector<float>& scores) {
  for (size_t i = 0; i < ids.size(); ++i) keep.Push(scores[i], ids[i]);
  return keep.TakeSorted();
}

// The buffers of an exact rerank: the candidate ids, their scores and the
// prepared query. The stages keep one per worker.
struct RerankScratch {
  std::vector<uint32_t> ids;
  std::vector<float> scores;
  std::vector<float> query;
};

// FlatScan (knn/brute_force.h) through a collector of either shape.
template <typename Collector>
typename Collector::Result ScanAll(const DistanceComputer& dist,
                                   const typename Collector::Request& request,
                                   uint32_t bins_probed) {
  const MatrixView queries = request.queries;
  const ScanRows rows(dist.base().rows(), request.options.filter);
  const QueryCounters counters = rows.Counters(bins_probed);
  Collector out(request);
  ParallelFor(queries.rows(), 8, request.options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
    std::vector<typename Collector::Keeper> keepers;
    keepers.reserve(q_end - q_begin);
    for (size_t q = q_begin; q < q_end; ++q) {
      keepers.push_back(out.Keep(rows.count));
    }
    ScanTile(dist, queries, q_begin, q_end, rows,
             [&](size_t i, const uint32_t* ids, size_t first,
                 const float* scores, size_t count) {
               typename Collector::Keeper& keep = keepers[i];
               for (size_t j = 0; j < count; ++j) {
                 keep.Push(scores[j], ids != nullptr
                                          ? ids[j]
                                          : static_cast<uint32_t>(first + j));
               }
             });
    for (size_t q = q_begin; q < q_end; ++q) {
      out.Set(q, keepers[q - q_begin].TakeSorted(), counters);
    }
  });
  return out.Take();
}

// Gather (knn/brute_force.h) through a collector of either shape.
template <typename Collector>
typename Collector::Result GatherAll(const DistanceComputer& dist,
                                     const typename Collector::Request& request,
                                     const CandidateSource& source) {
  const MatrixView queries = request.queries;
  Collector out(request);
  ParallelFor(queries.rows(), 8, request.options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
    RerankScratch scratch;
    for (size_t q = q_begin; q < q_end; ++q) {
      scratch.ids.clear();
      const uint32_t bins = source(q, &scratch.ids);
      const float* prepared = dist.PrepareQuery(queries.Row(q), &scratch.query);
      QueryCounters counters =
          ScoreCandidates(dist, prepared, &scratch.ids, request.options.filter,
                          &scratch.scores);
      counters.bins_probed = bins;
      out.Set(q,
              KeepScored(out.Keep(scratch.ids.size()), scratch.ids,
                         scratch.scores),
              counters);
    }
  });
  return out.Take();
}
}  // namespace

KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        size_t num_threads) {
  return KnnImpl(base, queries, k, /*exclude_identity=*/false, num_threads);
}

KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, size_t num_threads) {
  if (metric == Metric::kSquaredL2) {
    return KnnImpl(base, queries, k, /*exclude_identity=*/false, num_threads);
  }
  return KnnImplMetric(base, queries, k, metric, /*filter=*/nullptr,
                       num_threads);
}

KnnResult BruteForceKnn(MatrixView base, MatrixView queries, size_t k,
                        Metric metric, const IdSelector* filter,
                        size_t num_threads) {
  if (filter == nullptr) return BruteForceKnn(base, queries, k, metric,
                                              num_threads);
  // Filtered scans take the kernel path even for L2: the norm-trick tiles
  // produce different float rounding than ScoreIds, and the filtered contract
  // is bit-identity with the index types' rerank stage.
  return KnnImplMetric(base, queries, k, metric, filter, num_threads);
}

RadiusCollector::RadiusCollector(const RadiusRequest& request)
    : radius_(request.radius), rows_(request.queries.rows()) {
  const size_t num_queries = request.queries.rows();
  result_.offsets.assign(num_queries + 1, 0);
  result_.candidate_counts.assign(num_queries, 0);
  if (request.options.stats) {
    result_.stats.emplace();
    result_.stats->Allocate(num_queries);
  }
}

RadiusResult RadiusCollector::Take() {
  size_t total = 0;
  for (size_t q = 0; q < rows_.size(); ++q) {
    result_.offsets[q] = total;
    total += rows_[q].size();
  }
  result_.offsets[rows_.size()] = total;
  result_.ids.reserve(total);
  result_.distances.reserve(total);
  for (const std::vector<Neighbor>& row : rows_) {
    for (const Neighbor& n : row) {
      result_.ids.push_back(n.id);
      result_.distances.push_back(n.distance);
    }
  }
  return std::move(result_);
}

BatchSearchResult FlatScan(const DistanceComputer& dist,
                           const SearchRequest& request,
                           uint32_t bins_probed) {
  return ScanAll<TopKCollector>(dist, request, bins_probed);
}

RadiusResult FlatScan(const DistanceComputer& dist,
                      const RadiusRequest& request, uint32_t bins_probed) {
  return ScanAll<RadiusCollector>(dist, request, bins_probed);
}

BatchSearchResult Gather(const DistanceComputer& dist,
                         const SearchRequest& request,
                         const CandidateSource& source) {
  return GatherAll<TopKCollector>(dist, request, source);
}

RadiusResult Gather(const DistanceComputer& dist,
                    const RadiusRequest& request,
                    const CandidateSource& source) {
  return GatherAll<RadiusCollector>(dist, request, source);
}

BatchSearchResult ShortlistKnn(
    const DistanceComputer& dist, const SearchRequest& request,
    size_t rerank_budget, const std::function<ShortlistScorer()>& make_scorer) {
  const MatrixView queries = request.queries;
  const SearchOptions& options = request.options;
  TopKCollector out(request);
  ParallelFor(queries.rows(), 4, options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
    const ShortlistScorer score = make_scorer();
    RerankScratch scratch;
    Shortlist shortlist;
    for (size_t q = q_begin; q < q_end; ++q) {
      const float* prepared = dist.PrepareQuery(queries.Row(q), &scratch.query);
      shortlist.Reset(std::max(options.k, rerank_budget));
      const QueryCounters counters = score(q, prepared, &shortlist);
      scratch.ids.clear();
      for (const Neighbor& pair : shortlist.Take()) {
        scratch.ids.push_back(pair.id);
      }
      ScoreCandidates(dist, prepared, &scratch.ids, /*filter=*/nullptr,
                      &scratch.scores);
      out.Set(q,
              KeepScored(out.Keep(scratch.ids.size()), scratch.ids,
                         scratch.scores),
              counters);
    }
  });
  return out.Take();
}

RadiusResult BruteForceRadius(MatrixView base, MatrixView queries,
                              float radius, Metric metric,
                              const IdSelector* filter, size_t num_threads) {
  USP_CHECK(base.cols() == queries.cols());
  RadiusRequest request;
  request.queries = queries;
  request.radius = radius;
  request.options.num_threads = num_threads;
  request.options.filter = filter;
  return FlatScan(DistanceComputer(base, metric), request,
                  /*bins_probed=*/0);
}

KnnResult BuildKnnMatrix(const Matrix& data, size_t k) {
  USP_CHECK(k < data.rows());
  return KnnImpl(data, data, k, /*exclude_identity=*/true);
}

KnnResult FilterKnnToSubset(const KnnResult& global,
                            const std::vector<uint32_t>& subset_ids) {
  const size_t n = subset_ids.size();
  const size_t k = global.k;
  std::unordered_map<uint32_t, uint32_t> local_id;
  local_id.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    local_id.emplace(subset_ids[i], static_cast<uint32_t>(i));
  }
  KnnResult out;
  out.k = k;
  out.indices.resize(n * k);
  out.distances.assign(n * k, 0.0f);
  std::vector<uint32_t> kept;
  for (size_t i = 0; i < n; ++i) {
    kept.clear();
    const uint32_t* nbrs = global.Row(subset_ids[i]);
    for (size_t t = 0; t < k; ++t) {
      const auto it = local_id.find(nbrs[t]);
      if (it != local_id.end()) kept.push_back(it->second);
    }
    if (kept.empty()) kept.push_back(static_cast<uint32_t>(i));
    for (size_t t = 0; t < k; ++t) {
      out.indices[i * k + t] = kept[t % kept.size()];
    }
  }
  return out;
}

std::vector<Neighbor> RerankCandidatesScored(
    const DistanceComputer& dist, const float* query,
    const std::vector<uint32_t>& candidates, size_t k,
    const IdSelector* filter, QueryCounters* counts) {
  RerankScratch scratch;
  scratch.ids = candidates;
  const float* prepared = dist.PrepareQuery(query, &scratch.query);
  const QueryCounters tallies = ScoreCandidates(dist, prepared, &scratch.ids,
                                                filter, &scratch.scores);
  if (counts != nullptr) *counts = tallies;
  return KeepScored(TopK(std::min(k, scratch.ids.size())), scratch.ids,
                    scratch.scores);
}

std::vector<Neighbor> RangeFilterCandidates(const DistanceComputer& dist,
                                            const float* query,
                                            std::vector<uint32_t>* candidates,
                                            float radius,
                                            const IdSelector* filter,
                                            QueryCounters* counts) {
  std::vector<float> scratch, scores;
  const float* prepared = dist.PrepareQuery(query, &scratch);
  const QueryCounters tallies =
      ScoreCandidates(dist, prepared, candidates, filter, &scores);
  if (counts != nullptr) *counts = tallies;
  return KeepScored(RadiusCollector::Keeper(radius), *candidates, scores);
}

}  // namespace usp
