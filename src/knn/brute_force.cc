#include "knn/brute_force.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "dist/distance_kernels.h"
#include "knn/top_k.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"
#include "workload/radius.h"

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

// Generic-metric brute force: FlatScanKnn over a computer built for this
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
      FlatScanKnn(DistanceComputer(base, metric), request, /*bins_probed=*/0);
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
// dist.PrepareQuery).
RerankCounts ScoreCandidates(const DistanceComputer& dist,
                             const float* prepared, std::vector<uint32_t>* ids,
                             const IdSelector* filter,
                             std::vector<float>* scores) {
  SortUniqueIds(ids);
  RerankCounts counts;
  if (filter != nullptr) {
    counts.filtered_out = static_cast<uint32_t>(KeepMembers(*filter, ids));
  }
  counts.scored = static_cast<uint32_t>(ids->size());
  scores->resize(ids->size());
  dist.ScoreIds(prepared, ids->data(), ids->size(), scores->data());
  return counts;
}

// The buffers of an exact rerank: the candidate ids, their scores and the
// prepared query. The stages keep one per worker.
struct RerankScratch {
  std::vector<uint32_t> ids;
  std::vector<float> scores;
  std::vector<float> query;
};

// RerankCandidatesScored over scratch->ids, which it sorts, dedupes and
// filters in place.
std::vector<Neighbor> RerankIds(const DistanceComputer& dist,
                                const float* prepared, size_t k,
                                const IdSelector* filter,
                                RerankScratch* scratch, RerankCounts* counts) {
  const std::vector<uint32_t>& ids = scratch->ids;
  *counts = ScoreCandidates(dist, prepared, &scratch->ids, filter,
                            &scratch->scores);
  TopK heap(std::min(k, ids.size()));
  for (size_t i = 0; i < ids.size(); ++i) heap.Push(scratch->scores[i], ids[i]);
  return heap.TakeSorted();
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

BatchSearchResult FlatScanKnn(const DistanceComputer& dist,
                              const SearchRequest& request,
                              uint32_t bins_probed) {
  const MatrixView queries = request.queries;
  const SearchOptions& options = request.options;
  const ScanRows rows(dist.base().rows(), options.filter);
  // The gather stage keeps min(k, scored) neighbors; so does this scan.
  const size_t keep = std::min(options.k, rows.count);
  BatchSearchResult result;
  result.Prepare(queries.rows(), options);

  ParallelFor(queries.rows(), 8, options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
    std::vector<TopK> heaps;
    heaps.reserve(q_end - q_begin);
    for (size_t q = q_begin; q < q_end; ++q) heaps.emplace_back(keep);
    ScanTile(dist, queries, q_begin, q_end, rows,
             [&](size_t i, const uint32_t* ids, size_t first,
                 const float* scores, size_t count) {
               TopK& heap = heaps[i];
               for (size_t j = 0; j < count; ++j) {
                 heap.Push(scores[j], ids != nullptr
                                          ? ids[j]
                                          : static_cast<uint32_t>(first + j));
               }
             });
    for (size_t q = q_begin; q < q_end; ++q) {
      result.SetRow(q, heaps[q - q_begin].TakeSorted());
      SetCounters(q, rows.Counters(bins_probed), &result);
    }
  });
  return result;
}

RadiusResult FlatScanRadius(const DistanceComputer& dist,
                            const RadiusRequest& request,
                            uint32_t bins_probed) {
  const MatrixView queries = request.queries;
  const float radius = request.radius;
  const ScanRows rows(dist.base().rows(), request.options.filter);
  return CollectRadiusChunks(
      queries.rows(), request.options,
      [&](size_t q_begin, size_t q_end,
          std::vector<std::vector<Neighbor>>* hits, RadiusResult* result) {
        ScanTile(dist, queries, q_begin, q_end, rows,
                 [&](size_t i, const uint32_t* ids, size_t first,
                     const float* scores, size_t count) {
                   std::vector<Neighbor>& row = (*hits)[q_begin + i];
                   for (size_t j = 0; j < count; ++j) {
                     if (scores[j] > radius) continue;
                     row.push_back(Neighbor{
                         scores[j], ids != nullptr
                                        ? ids[j]
                                        : static_cast<uint32_t>(first + j)});
                   }
                 });
        for (size_t q = q_begin; q < q_end; ++q) {
          // Rows arrive in id order; every radius row is sorted by
          // (distance, id).
          std::sort((*hits)[q].begin(), (*hits)[q].end());
          SetCounters(q, rows.Counters(bins_probed), result);
        }
      });
}

BatchSearchResult GatherKnn(const DistanceComputer& dist,
                            const SearchRequest& request,
                            const CandidateSource& source) {
  const MatrixView queries = request.queries;
  const SearchOptions& options = request.options;
  BatchSearchResult result;
  result.Prepare(queries.rows(), options);
  ParallelFor(queries.rows(), 8, options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
    RerankScratch scratch;
    for (size_t q = q_begin; q < q_end; ++q) {
      scratch.ids.clear();
      QueryCounters counters;
      counters.bins_probed = source(q, &scratch.ids);
      const float* prepared = dist.PrepareQuery(queries.Row(q), &scratch.query);
      RerankCounts counts;
      result.SetRow(q, RerankIds(dist, prepared, options.k, options.filter,
                                 &scratch, &counts));
      counters.scored = counts.scored;
      counters.filtered_out = counts.filtered_out;
      SetCounters(q, counters, &result);
    }
  });
  return result;
}

BatchSearchResult ShortlistKnn(
    const DistanceComputer& dist, const SearchRequest& request,
    size_t rerank_budget, const std::function<ShortlistScorer()>& make_scorer) {
  const MatrixView queries = request.queries;
  const SearchOptions& options = request.options;
  BatchSearchResult result;
  result.Prepare(queries.rows(), options);
  ParallelFor(queries.rows(), 4, options.num_threads,
              [&](size_t q_begin, size_t q_end, size_t) {
    const ShortlistScorer score = make_scorer();
    RerankScratch scratch;
    Shortlist shortlist;
    for (size_t q = q_begin; q < q_end; ++q) {
      const float* prepared = dist.PrepareQuery(queries.Row(q), &scratch.query);
      shortlist.Reset(std::max(options.k, rerank_budget));
      SetCounters(q, score(q, prepared, &shortlist), &result);
      scratch.ids.clear();
      for (const Neighbor& pair : shortlist.Take()) {
        scratch.ids.push_back(pair.id);
      }
      RerankCounts counts;
      result.SetRow(q, RerankIds(dist, prepared, options.k, /*filter=*/nullptr,
                                 &scratch, &counts));
    }
  });
  return result;
}

RadiusResult GatherRadius(const DistanceComputer& dist,
                          const RadiusRequest& request,
                          const CandidateSource& source) {
  const MatrixView queries = request.queries;
  return CollectRadiusRows(
      queries.rows(), request.options, [&](size_t q, RadiusResult* result) {
        std::vector<uint32_t> ids;
        QueryCounters counters;
        counters.bins_probed = source(q, &ids);
        RerankCounts counts;
        std::vector<Neighbor> hits =
            RangeFilterCandidates(dist, queries.Row(q), &ids, request.radius,
                                  request.options.filter, &counts);
        counters.scored = counts.scored;
        counters.filtered_out = counts.filtered_out;
        SetCounters(q, counters, result);
        return hits;
      });
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
  return FlatScanRadius(DistanceComputer(base, metric), request,
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
    const IdSelector* filter, RerankCounts* counts) {
  RerankScratch scratch;
  scratch.ids = candidates;
  const float* prepared = dist.PrepareQuery(query, &scratch.query);
  RerankCounts tallies;
  std::vector<Neighbor> top =
      RerankIds(dist, prepared, k, filter, &scratch, &tallies);
  if (counts != nullptr) *counts = tallies;
  return top;
}

std::vector<Neighbor> RangeFilterCandidates(const DistanceComputer& dist,
                                            const float* query,
                                            std::vector<uint32_t>* candidates,
                                            float radius,
                                            const IdSelector* filter,
                                            RerankCounts* counts) {
  std::vector<float> scratch, scores;
  const float* prepared = dist.PrepareQuery(query, &scratch);
  const RerankCounts tallies =
      ScoreCandidates(dist, prepared, candidates, filter, &scores);
  if (counts != nullptr) *counts = tallies;
  const std::vector<uint32_t>& ids = *candidates;
  std::vector<Neighbor> hits;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (scores[i] <= radius) hits.push_back(Neighbor{scores[i], ids[i]});
  }
  std::sort(hits.begin(), hits.end());  // (distance, id) total order
  return hits;
}

}  // namespace usp
