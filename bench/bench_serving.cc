// Serving-path benchmark for serve/sharded_index.h + serve/batching_executor.h:
// what micro-batching buys when single-query traffic hits the index. The
// index is a mutable ShardedIndex whose DynamicIndex shards serve un-sealed
// rows by blocked exact scan — the regime where coalescing pays even on one
// core, because the write segment's flat scan (FlatScan) scores each
// 32 KiB block of rows for a whole chunk of queries while it is cache-hot: a
// width-32 batch streams each shard once per chunk where 32 serial calls
// stream it 32 times. Recall@10 is 1.0 in every mode (exact search), so
// recall is matched by construction; the executor and shard-merge tests
// additionally pin bit-identity of the rows themselves. Four modes per shard
// count:
//
//   serial      — one client, one query at a time, num_threads=1 per search:
//                 the un-batched single-query service baseline.
//   1-in-flight — one client submitting to a BatchingExecutor and waiting on
//                 each future before the next Submit: what the executor adds
//                 to a lone request's latency, to read beside direct@1.
//   direct@L    — L client threads, each searching directly (still one query
//                 per call, num_threads=1): thread-per-request concurrency
//                 without coalescing.
//   batched@L   — L client threads submitting to a shared BatchingExecutor
//                 (pipeline depth 8 per client) that coalesces singles into
//                 SIMD-width batches; the index fans each batch out on the
//                 full pool. At L=1 its latency is mostly the 8 requests in
//                 flight (Little's law), not coalescer waiting.
//
// Output: QPS plus client-observed p50/p95/p99 latency per mode, written
// machine-readable to BENCH_serving.json (override with argv[1]); the
// "coalesced_ge_serial" flag asserts batched@(load>=4) >= 2x serial QPS at
// every shard count, which CI greps.
//
// Scale knobs: USP_BENCH_SERVE_N (default 20000), USP_BENCH_SERVE_DIM (128),
// USP_BENCH_SERVE_QUERIES (256 distinct queries, cycled),
// USP_BENCH_SERVE_REQUESTS (2048 per measurement).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "knn/brute_force.h"
#include "serve/batching_executor.h"
#include "serve/sharded_index.h"
#include "tensor/matrix.h"
#include "util/env.h"
#include "util/rng.h"

namespace usp::bench {
namespace {

constexpr size_t kTopK = 10;
constexpr size_t kPipelineDepth = 8;

using SteadyClock = std::chrono::steady_clock;

double MicrosSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() - start)
      .count();
}

struct ModeResult {
  double qps = 0;
  LatencySummary latency_us;
};

struct LoadPoint {
  size_t clients;
  ModeResult direct;
  ModeResult batched;
};

struct ShardResult {
  size_t shards;
  double recall;
  ModeResult serial;
  ModeResult one_in_flight;
  std::vector<LoadPoint> loads;
};

/// recall@kTopK of one result row against the ground-truth row.
size_t RowHits(const uint32_t* got, size_t k, const KnnResult& truth,
               size_t q) {
  size_t hits = 0;
  for (size_t j = 0; j < k; ++j) {
    if (got[j] == kInvalidId) break;
    for (size_t t = 0; t < truth.k; ++t) {
      if (truth.Row(q)[t] == got[j]) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}

/// One client, one query at a time, one thread per search. Also measures
/// recall@kTopK over the first pass through the distinct queries.
ModeResult RunSerial(const Index& index, const Matrix& queries,
                     const SearchOptions& options, size_t requests,
                     const KnnResult& truth, double* recall_out) {
  const size_t nq = queries.rows();
  std::vector<double> latencies;
  latencies.reserve(requests);
  size_t hits = 0;
  const SteadyClock::time_point begin = SteadyClock::now();
  for (size_t r = 0; r < requests; ++r) {
    const size_t q = r % nq;
    SearchRequest request;
    request.queries = MatrixView(queries.Row(q), 1, queries.cols());
    request.options = options;
    const SteadyClock::time_point submit = SteadyClock::now();
    const BatchSearchResult result = index.SearchBatch(request);
    latencies.push_back(MicrosSince(submit));
    if (r < nq) hits += RowHits(result.Row(0), result.k, truth, q);
  }
  const double elapsed_us = MicrosSince(begin);
  ModeResult mode;
  mode.qps = static_cast<double>(requests) / (elapsed_us * 1e-6);
  mode.latency_us = SummarizeLatencies(latencies);
  *recall_out = static_cast<double>(hits) /
                static_cast<double>(nq * std::min(kTopK, truth.k));
  return mode;
}

/// L threads searching directly, one query per call.
ModeResult RunDirect(const Index& index, const Matrix& queries,
                     const SearchOptions& options, size_t requests,
                     size_t clients) {
  const size_t nq = queries.rows();
  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::thread> threads;
  const SteadyClock::time_point begin = SteadyClock::now();
  for (size_t c = 0; c < clients; ++c) {
    const size_t share = requests / clients + (c == 0 ? requests % clients : 0);
    threads.emplace_back([&, c, share] {
      per_client[c].reserve(share);
      for (size_t r = 0; r < share; ++r) {
        const size_t q = (c * 7919 + r) % nq;
        SearchRequest request;
        request.queries = MatrixView(queries.Row(q), 1, queries.cols());
        request.options = options;
        const SteadyClock::time_point submit = SteadyClock::now();
        const BatchSearchResult result = index.SearchBatch(request);
        (void)result;
        per_client[c].push_back(MicrosSince(submit));
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_us = MicrosSince(begin);
  std::vector<double> latencies;
  for (auto& v : per_client) {
    latencies.insert(latencies.end(), v.begin(), v.end());
  }
  ModeResult mode;
  mode.qps = static_cast<double>(requests) / (elapsed_us * 1e-6);
  mode.latency_us = SummarizeLatencies(latencies);
  return mode;
}

/// L clients pipelining single-query submissions into a shared executor,
/// each keeping up to `depth` requests in flight.
ModeResult RunBatched(const Index& index, const Matrix& queries,
                      const SearchOptions& options, size_t requests,
                      size_t clients, size_t depth) {
  const size_t nq = queries.rows();
  BatchingExecutorConfig config;
  config.max_batch = 32;
  config.max_queue = 4096;
  BatchingExecutor executor(&index, config);

  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::thread> threads;
  const SteadyClock::time_point begin = SteadyClock::now();
  for (size_t c = 0; c < clients; ++c) {
    const size_t share = requests / clients + (c == 0 ? requests % clients : 0);
    threads.emplace_back([&, c, share] {
      per_client[c].reserve(share);
      std::deque<std::pair<SteadyClock::time_point,
                           std::future<SingleSearchResult>>>
          window;
      auto drain_one = [&] {
        auto [submit, future] = std::move(window.front());
        window.pop_front();
        future.get();
        per_client[c].push_back(MicrosSince(submit));
      };
      for (size_t r = 0; r < share; ++r) {
        const size_t q = (c * 7919 + r) % nq;
        if (window.size() >= depth) drain_one();
        const SteadyClock::time_point submit = SteadyClock::now();
        auto submitted = executor.Submit(queries.Row(q), options, c);
        if (!submitted.ok()) {
          std::fprintf(stderr, "submit failed: %s\n",
                       submitted.status().message().c_str());
          continue;
        }
        window.emplace_back(submit, std::move(submitted).value());
      }
      while (!window.empty()) drain_one();
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_us = MicrosSince(begin);
  executor.Shutdown();
  std::vector<double> latencies;
  for (auto& v : per_client) {
    latencies.insert(latencies.end(), v.begin(), v.end());
  }
  ModeResult mode;
  mode.qps = static_cast<double>(requests) / (elapsed_us * 1e-6);
  mode.latency_us = SummarizeLatencies(latencies);
  return mode;
}

void PrintMode(const char* label, size_t shards, size_t clients,
               const ModeResult& mode) {
  std::printf(
      "shards=%zu %-11s clients=%zu  %8.0f qps  p50=%7.1fus p95=%7.1fus "
      "p99=%7.1fus\n",
      shards, label, clients, mode.qps, mode.latency_us.p50,
      mode.latency_us.p95, mode.latency_us.p99);
}

void PrintJsonMode(std::FILE* f, const char* key, const ModeResult& mode,
                   const char* suffix) {
  std::fprintf(f,
               "\"%s\": {\"qps\": %.1f, \"p50_us\": %.1f, \"p95_us\": %.1f, "
               "\"p99_us\": %.1f, \"mean_us\": %.1f}%s",
               key, mode.qps, mode.latency_us.p50, mode.latency_us.p95,
               mode.latency_us.p99, mode.latency_us.mean, suffix);
}

int Run(const char* out_path) {
  const size_t n = static_cast<size_t>(EnvInt("USP_BENCH_SERVE_N", 20000));
  const size_t dim = static_cast<size_t>(EnvInt("USP_BENCH_SERVE_DIM", 128));
  const size_t nq =
      static_cast<size_t>(EnvInt("USP_BENCH_SERVE_QUERIES", 256));
  const size_t requests =
      static_cast<size_t>(EnvInt("USP_BENCH_SERVE_REQUESTS", 2048));

  Rng rng(42);
  const Matrix base = Matrix::RandomGaussian(n, dim, &rng);
  const Matrix queries = Matrix::RandomGaussian(nq, dim, &rng);
  const KnnResult truth = BruteForceKnn(base, queries, kTopK);

  SearchOptions options;
  options.k = kTopK;
  options.budget = 1u << 20;  // un-sealed shards are scanned exactly anyway
  options.num_threads = 1;    // one serving thread per in-flight search; the
                              // executor's whole-batch SearchBatch runs on
                              // the full pool instead
  SearchOptions batch_options = options;
  batch_options.num_threads = 0;

  const std::vector<size_t> shard_counts = {1, 4, 8};
  const std::vector<size_t> load_sweep = {1, 2, 4, 8};
  std::vector<ShardResult> results;
  bool coalesced_ge_serial = true;
  for (const size_t shards : shard_counts) {
    ShardedIndexConfig config;
    config.num_shards = shards;
    ShardedIndex index(base.cols(), config);
    index.AddBatch(base);

    ShardResult result;
    result.shards = shards;
    result.serial = RunSerial(index, queries, options, requests, truth,
                              &result.recall);
    PrintMode("serial", shards, 1, result.serial);
    result.one_in_flight = RunBatched(index, queries, batch_options, requests,
                                      /*clients=*/1, /*depth=*/1);
    PrintMode("1-in-flight", shards, 1, result.one_in_flight);
    double best_coalesced_at_load = 0;
    for (const size_t clients : load_sweep) {
      LoadPoint point;
      point.clients = clients;
      point.direct = RunDirect(index, queries, options, requests, clients);
      point.batched = RunBatched(index, queries, batch_options, requests,
                                 clients, kPipelineDepth);
      PrintMode("direct", shards, clients, point.direct);
      PrintMode("batched", shards, clients, point.batched);
      if (clients >= 4) {
        best_coalesced_at_load =
            std::max(best_coalesced_at_load, point.batched.qps);
      }
      result.loads.push_back(point);
    }
    std::printf("shards=%zu recall@%zu=%.4f (identical across modes)\n",
                shards, kTopK, result.recall);
    if (best_coalesced_at_load < 2.0 * result.serial.qps) {
      coalesced_ge_serial = false;
    }
    results.push_back(std::move(result));
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n  \"config\": {\"points\": %zu, \"dim\": %zu, "
               "\"queries\": %zu, \"requests\": %zu, \"k\": %zu, "
               "\"budget\": %zu, \"pipeline_depth\": %zu},\n",
               n, dim, nq, requests, kTopK, options.budget, kPipelineDepth);
  std::fprintf(f, "  \"shards\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ShardResult& result = results[i];
    std::fprintf(f, "    {\"num_shards\": %zu, \"recall_at_%zu\": %.4f,\n",
                 result.shards, kTopK, result.recall);
    std::fprintf(f, "     ");
    PrintJsonMode(f, "serial", result.serial, ",\n");
    std::fprintf(f, "     ");
    PrintJsonMode(f, "one_in_flight", result.one_in_flight, ",\n");
    std::fprintf(f, "     \"loads\": [\n");
    for (size_t j = 0; j < result.loads.size(); ++j) {
      const LoadPoint& point = result.loads[j];
      std::fprintf(f, "      {\"clients\": %zu, ", point.clients);
      PrintJsonMode(f, "direct", point.direct, ", ");
      PrintJsonMode(f, "batched", point.batched,
                    j + 1 < result.loads.size() ? "},\n" : "}\n");
    }
    std::fprintf(f, "     ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"coalesced_ge_serial\": %s\n}\n",
               coalesced_ge_serial ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return coalesced_ge_serial ? 0 : 1;
}

}  // namespace
}  // namespace usp::bench

int main(int argc, char** argv) {
  return usp::bench::Run(argc > 1 ? argv[1] : "BENCH_serving.json");
}
