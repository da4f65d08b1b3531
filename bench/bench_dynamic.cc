// Serving-layer benchmark for serve/dynamic_index.h. Three phases, all
// scale-controlled by environment variables and written machine-readable to
// BENCH_dynamic.json (override the path with argv[1]; conventions in
// docs/BENCHMARKS.md):
//
//   1. insert        — single-threaded Add() throughput into the write
//                      segment (points/sec).
//   2. query_vs_fill — batched query latency as the write segment grows from
//                      0% to 100% of the corpus (the rest sealed): the cost
//                      of serving un-sealed data by exact flat scan.
//   3. compaction    — recall@10 and query latency before vs after Compact()
//                      on a deleted-heavy multi-segment index.
//
// Scale knobs: USP_BENCH_DYN_N (default 20000), USP_BENCH_DYN_DIM (64),
// USP_BENCH_DYN_QUERIES (200), USP_BENCH_DYN_REPS (3).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "knn/brute_force.h"
#include "serve/dynamic_index.h"
#include "tensor/matrix.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/timer.h"

namespace usp::bench {
namespace {

constexpr size_t kTopK = 10;
constexpr size_t kFullBudget = 1u << 20;  // probe every list in each segment

SearchRequest FullBudgetRequest(const Matrix& queries) {
  SearchRequest request;
  request.queries = queries;
  request.options.k = kTopK;
  request.options.budget = kFullBudget;
  return request;
}

double BestOfReps(size_t reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// recall@k of `result` against the first k live ids of each truth row.
double LiveRecall(const BatchSearchResult& result, const KnnResult& truth,
                  const std::unordered_set<uint32_t>& deleted) {
  size_t hits = 0, want = 0;
  for (size_t q = 0; q < result.candidate_counts.size(); ++q) {
    std::unordered_set<uint32_t> expected;
    for (size_t t = 0; t < truth.k && expected.size() < kTopK; ++t) {
      const uint32_t id = truth.Row(q)[t];
      if (deleted.count(id) == 0) expected.insert(id);
    }
    want += expected.size();
    for (size_t j = 0; j < result.k; ++j) {
      const uint32_t id = result.Row(q)[j];
      if (id != kInvalidId && expected.count(id) > 0) ++hits;
    }
  }
  return want == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(want);
}

struct FillPoint {
  double write_fill;
  size_t write_rows;
  size_t sealed_rows;
  double ns_per_query;
  double qps;
};

int Run(const char* out_path) {
  const size_t n = static_cast<size_t>(EnvInt("USP_BENCH_DYN_N", 20000));
  const size_t dim = static_cast<size_t>(EnvInt("USP_BENCH_DYN_DIM", 64));
  const size_t nq = static_cast<size_t>(EnvInt("USP_BENCH_DYN_QUERIES", 200));
  const size_t reps = static_cast<size_t>(EnvInt("USP_BENCH_DYN_REPS", 3));

  Rng rng(42);
  const Matrix base = Matrix::RandomGaussian(n, dim, &rng);
  const Matrix queries = Matrix::RandomGaussian(nq, dim, &rng);

  // Phase 1: insert throughput into the write segment (no auto-seal, so this
  // times the locked append alone).
  double insert_seconds = 1e100;
  for (size_t r = 0; r < reps; ++r) {
    DynamicIndex index(dim);
    WallTimer timer;
    for (size_t i = 0; i < n; ++i) index.Add(base.Row(i));
    insert_seconds = std::min(insert_seconds, timer.ElapsedSeconds());
  }
  const double inserts_per_sec = static_cast<double>(n) / insert_seconds;
  std::printf("insert: %zu points, %.0f inserts/sec\n", n, inserts_per_sec);

  // Phase 2: query latency vs write-segment fill.
  std::vector<FillPoint> fill_points;
  for (const double fill : {0.0, 0.25, 0.5, 1.0}) {
    const size_t write_rows = static_cast<size_t>(fill * n);
    const size_t sealed_rows = n - write_rows;
    DynamicIndex index(dim);
    if (sealed_rows > 0) {
      index.AddBatch(MatrixView(base.Row(0), sealed_rows, dim));
      index.Seal();
    }
    if (write_rows > 0) {
      index.AddBatch(MatrixView(base.Row(sealed_rows), write_rows, dim));
    }
    const double seconds = BestOfReps(reps, [&] {
      const BatchSearchResult result =
          index.SearchBatch(FullBudgetRequest(queries));
      (void)result;
    });
    FillPoint point;
    point.write_fill = fill;
    point.write_rows = write_rows;
    point.sealed_rows = sealed_rows;
    point.ns_per_query = seconds * 1e9 / static_cast<double>(nq);
    point.qps = static_cast<double>(nq) / seconds;
    fill_points.push_back(point);
    std::printf(
        "query_vs_fill: fill=%.2f write=%zu sealed=%zu  %10.0f ns/query "
        "(%.0f qps)\n",
        fill, write_rows, sealed_rows, point.ns_per_query, point.qps);
  }

  // Phase 3: recall and latency before/after compaction. Four sealed
  // segments, 10% of points deleted.
  const KnnResult truth = BruteForceKnn(base, queries, kTopK + n / 10);
  DynamicIndex index(dim);
  const size_t quarter = n / 4;
  for (size_t s = 0; s < 4; ++s) {
    const size_t begin = s * quarter;
    const size_t rows = s + 1 < 4 ? quarter : n - begin;
    index.AddBatch(MatrixView(base.Row(begin), rows, dim));
    index.Seal();
  }
  std::unordered_set<uint32_t> deleted;
  Rng delete_rng(7);
  while (deleted.size() < n / 10) {
    const uint32_t id = static_cast<uint32_t>(delete_rng.UniformInt(n));
    if (deleted.insert(id).second) index.Delete(id);
  }
  const size_t segments_before = index.num_sealed_segments();
  BatchSearchResult before_result;
  const double before_seconds = BestOfReps(reps, [&] {
    before_result = index.SearchBatch(FullBudgetRequest(queries));
  });
  const double recall_before = LiveRecall(before_result, truth, deleted);

  index.Compact();
  const size_t segments_after = index.num_sealed_segments();
  BatchSearchResult after_result;
  const double after_seconds = BestOfReps(reps, [&] {
    after_result = index.SearchBatch(FullBudgetRequest(queries));
  });
  const double recall_after = LiveRecall(after_result, truth, deleted);
  std::printf(
      "compaction: %zu->%zu segments, recall %.4f -> %.4f, %0.0f -> %0.0f "
      "ns/query\n",
      segments_before, segments_after, recall_before, recall_after,
      before_seconds * 1e9 / nq, after_seconds * 1e9 / nq);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"config\": {\"points\": %zu, \"dim\": %zu, "
               "\"queries\": %zu, \"k\": %zu},\n",
               n, dim, nq, kTopK);
  std::fprintf(f, "  \"insert\": {\"inserts_per_sec\": %.1f},\n",
               inserts_per_sec);
  std::fprintf(f, "  \"query_vs_fill\": [\n");
  for (size_t i = 0; i < fill_points.size(); ++i) {
    const FillPoint& p = fill_points[i];
    std::fprintf(f,
                 "    {\"write_fill\": %.2f, \"write_rows\": %zu, "
                 "\"sealed_rows\": %zu, \"ns_per_query\": %.1f, "
                 "\"qps\": %.1f}%s\n",
                 p.write_fill, p.write_rows, p.sealed_rows, p.ns_per_query,
                 p.qps, i + 1 < fill_points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"compaction\": {\"segments_before\": %zu, "
               "\"segments_after\": %zu, \"deleted_fraction\": %.2f, "
               "\"recall_before\": %.4f, \"recall_after\": %.4f, "
               "\"ns_per_query_before\": %.1f, \"ns_per_query_after\": "
               "%.1f}\n}\n",
               segments_before, segments_after,
               static_cast<double>(deleted.size()) / static_cast<double>(n),
               recall_before, recall_after, before_seconds * 1e9 / nq,
               after_seconds * 1e9 / nq);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace usp::bench

int main(int argc, char** argv) {
  return usp::bench::Run(argc > 1 ? argv[1] : "BENCH_dynamic.json");
}
