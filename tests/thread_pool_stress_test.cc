// Determinism under parallelism: SearchBatch sharded over 1/2/8 threads must
// return bit-identical ids and candidate counts on every index type. Each
// query's work is independent, so chunk boundaries must never leak into
// results; these tests pin that contract on a 3k-point Gaussian workload.
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/partition_index.h"
#include "dataset/workload.h"
#include "eval/sweep.h"
#include "ivf/ivf.h"
#include "quant/pq.h"
#include "quant/scann_index.h"
#include "util/thread_pool.h"

namespace usp {
namespace {

const Workload& StressWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 3000;
    spec.num_queries = 200;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 123;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

const std::vector<size_t>& ThreadCounts() {
  static const std::vector<size_t> counts = {1, 2, 8};
  return counts;
}

void ExpectIdenticalResults(const BatchSearchResult& serial,
                            const BatchSearchResult& parallel,
                            size_t num_threads) {
  EXPECT_EQ(serial.ids, parallel.ids) << "ids diverge at " << num_threads
                                      << " threads";
  EXPECT_EQ(serial.candidate_counts, parallel.candidate_counts)
      << "candidate counts diverge at " << num_threads << " threads";
}

TEST(ThreadPoolStressTest, PartitionIndexSearchBatchIsThreadCountInvariant) {
  const Workload& w = StressWorkload();
  KMeansConfig config;
  config.num_clusters = 24;
  config.seed = 3;
  KMeansPartitioner kmeans(w.base, config);
  PartitionIndex index(&w.base, &kmeans);

  const auto serial = index.SearchBatch(w.queries, 10, 4, /*num_threads=*/1);
  for (size_t threads : ThreadCounts()) {
    ExpectIdenticalResults(
        index.SearchBatch(w.queries, 10, 4, threads), serial, threads);
  }
  // The pool-default path (num_threads = 0) must agree too.
  ExpectIdenticalResults(index.SearchBatch(w.queries, 10, 4), serial, 0);
}

TEST(ThreadPoolStressTest, SearchBatchWithScoresIsThreadCountInvariant) {
  const Workload& w = StressWorkload();
  KMeansConfig config;
  config.num_clusters = 24;
  config.seed = 3;
  KMeansPartitioner kmeans(w.base, config);
  PartitionIndex index(&w.base, &kmeans);

  const Matrix scores = index.ScoreQueries(w.queries);
  SearchOptions options;
  options.k = 10;
  options.budget = 6;
  options.num_threads = 1;
  const auto serial = index.SearchBatchWithScores(w.queries, scores, options);
  for (size_t threads : ThreadCounts()) {
    options.num_threads = threads;
    ExpectIdenticalResults(
        index.SearchBatchWithScores(w.queries, scores, options), serial,
        threads);
  }
}

TEST(ThreadPoolStressTest, IvfFlatSearchBatchIsThreadCountInvariant) {
  const Workload& w = StressWorkload();
  IvfConfig config;
  config.nlist = 24;
  config.seed = 7;
  IvfFlatIndex index(&w.base, config);

  const auto serial = index.SearchBatch(w.queries, 10, 4, /*num_threads=*/1);
  for (size_t threads : ThreadCounts()) {
    ExpectIdenticalResults(
        index.SearchBatch(w.queries, 10, 4, threads), serial, threads);
  }
}

TEST(ThreadPoolStressTest, IvfPqSearchBatchIsThreadCountInvariant) {
  const Workload& w = StressWorkload();
  IvfConfig config;
  config.nlist = 24;
  config.seed = 7;
  config.pq.num_subspaces = 4;
  config.pq.codebook_size = 16;
  config.pq.seed = 11;
  config.rerank_budget = 50;
  IvfPqIndex index(&w.base, config);

  const auto serial = index.SearchBatch(w.queries, 10, 4, /*num_threads=*/1);
  for (size_t threads : ThreadCounts()) {
    ExpectIdenticalResults(
        index.SearchBatch(w.queries, 10, 4, threads), serial, threads);
  }
}

TEST(ThreadPoolStressTest, ScannIndexSearchBatchIsThreadCountInvariant) {
  const Workload& w = StressWorkload();
  KMeansConfig km_config;
  km_config.num_clusters = 24;
  km_config.seed = 3;
  KMeansPartitioner kmeans(w.base, km_config);

  PqConfig pq_config;
  pq_config.num_subspaces = 4;
  pq_config.codebook_size = 16;
  pq_config.seed = 11;
  ProductQuantizer pq(pq_config);
  pq.Train(w.base);

  ScannIndexConfig config;
  config.rerank_budget = 50;
  ScannIndex index(&w.base, &kmeans, std::move(pq), config);

  const auto serial = index.SearchBatch(w.queries, 10, 4, /*num_threads=*/1);
  for (size_t threads : ThreadCounts()) {
    ExpectIdenticalResults(
        index.SearchBatch(w.queries, 10, 4, threads), serial, threads);
  }
}

TEST(ThreadPoolStressTest, ProbeSweepCurveIsThreadCountInvariant) {
  const Workload& w = StressWorkload();
  KMeansConfig config;
  config.num_clusters = 24;
  config.seed = 3;
  KMeansPartitioner kmeans(w.base, config);
  PartitionIndex index(&w.base, &kmeans);

  const auto probes = DefaultProbeCounts(12);
  const auto serial = ProbeSweep(index, w.queries, 10, probes,
                                 w.ground_truth.indices, w.ground_truth.k,
                                 /*num_threads=*/1);
  for (size_t threads : ThreadCounts()) {
    const auto curve = ProbeSweep(index, w.queries, 10, probes,
                                  w.ground_truth.indices, w.ground_truth.k,
                                  threads);
    ASSERT_EQ(curve.size(), serial.size());
    for (size_t i = 0; i < curve.size(); ++i) {
      EXPECT_EQ(curve[i].probes, serial[i].probes);
      EXPECT_EQ(curve[i].mean_candidates, serial[i].mean_candidates)
          << "candidates diverge at point " << i << ", " << threads
          << " threads";
      EXPECT_EQ(curve[i].accuracy, serial[i].accuracy)
          << "accuracy diverges at point " << i << ", " << threads
          << " threads";
    }
  }
}

TEST(ThreadPoolStressTest, ParallelForWithThreadCapCoversEveryIndexOnce) {
  constexpr size_t kCount = 10'000;
  for (size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{8},
                         size_t{64}}) {
    std::vector<std::atomic<uint32_t>> hits(kCount);
    for (auto& h : hits) h.store(0);
    ParallelFor(kCount, 16, threads, [&](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
    });
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1u)
          << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ThreadPoolStressTest, ParallelForSingleThreadRunsOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> same_thread{true};
  ParallelFor(1000, 8, /*num_threads=*/1, [&](size_t, size_t, size_t) {
    if (std::this_thread::get_id() != caller) same_thread.store(false);
  });
  EXPECT_TRUE(same_thread.load());
}

TEST(ParallelInvokeTest, RunsEveryTaskExactlyOnce) {
  for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{64},
                       size_t{500}}) {
    std::vector<std::atomic<uint32_t>> hits(count);
    for (auto& h : hits) h.store(0);
    ParallelInvoke(count, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "task " << i << " of " << count;
    }
  }
}

TEST(ParallelInvokeTest, TasksMayRunNestedParallelFor) {
  // The shard fan-out pattern: heterogeneous outer tasks each running their
  // own ParallelFor on the shared pool. Work-claiming means this completes
  // even when every pool worker is busy with outer tasks — the classic
  // nested-parallelism deadlock this design exists to avoid.
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 2000;
  std::vector<std::atomic<uint32_t>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  ParallelInvoke(kOuter, [&](size_t task) {
    ParallelFor(kInner, 64, /*num_threads=*/0,
                [&, task](size_t begin, size_t end, size_t) {
                  for (size_t i = begin; i < end; ++i) {
                    hits[task * kInner + i].fetch_add(1);
                  }
                });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1u) << "slot " << i;
  }
}

TEST(ParallelInvokeTest, SingleTaskRunsOnCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  ParallelInvoke(1, [&](size_t) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ParallelInvokeTest, NestedInvokeFromPoolTaskCompletes) {
  // ParallelInvoke called from inside a ParallelInvoke task must not
  // deadlock either (the caller claims unstarted tasks itself).
  std::atomic<uint32_t> total{0};
  ParallelInvoke(8, [&](size_t) {
    ParallelInvoke(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64u);
}

}  // namespace
}  // namespace usp
