// Pins the full-budget flat scan (knn/brute_force.h FlatScan, both query
// shapes) against the gather stage it stands in for, and the gather stage
// (Gather, both shapes) against the per-query rerank and range filter it
// runs. When a
// request's probes cover every bin, PartitionIndex (k-NN and radius),
// UspEnsemble (k-NN and radius) and ScannIndex (radius) score the base rows
// in id order instead of building, sorting and gathering the list of every
// id. The full-budget suites elsewhere compare index results with
// BruteForceKnn / BruteForceRadius, which run the same scan, so this file
// checks the scan against the gather stage itself: RerankCandidatesScored
// and RangeFilterCandidates fed every id. Rows must match bit for bit (ids
// and distances) and the counters must agree, under every metric, with and
// without a filter.
//
// The base (2 x 2048 + 333 rows) spans several scan blocks plus a partial
// one for any block of up to 2048 rows (the flat scan's 32 KiB blocks hold
// 256 rows at d = 32), and the query count is prime, so every chunk count
// above one leaves a partial ParallelFor chunk. Each check runs at
// num_threads 1 and at the pool default.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/ensemble.h"
#include "core/partition_index.h"
#include "dataset/workload.h"
#include "knn/brute_force.h"
#include "quant/scann_index.h"
#include "serve/dynamic_index.h"
#include "util/rng.h"

namespace usp {
namespace {

constexpr size_t kFullBudget = 1u << 20;
constexpr size_t kBins = 8;
constexpr size_t kTopK = 10;

const Workload& FlatWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;  // d = 32
    spec.num_base = 2 * 2048 + 333;
    spec.num_queries = 29;
    spec.gt_k = kTopK;
    spec.knn_k = 8;
    spec.seed = 91;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

const KMeansPartitioner& Kmeans() {
  static const KMeansPartitioner* kmeans = [] {
    KMeansConfig config;
    config.num_clusters = kBins;
    config.seed = 92;
    return new KMeansPartitioner(FlatWorkload().base, config);
  }();
  return *kmeans;
}

ProductQuantizer TrainedPq() {
  PqConfig config;
  config.num_subspaces = 8;
  config.codebook_size = 16;
  config.seed = 93;
  ProductQuantizer pq(config);
  pq.Train(FlatWorkload().base);
  return pq;
}

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::vector<uint32_t> AllIds() {
  std::vector<uint32_t> ids(FlatWorkload().base.rows());
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

// Every filter a check runs under: none, and a seeded 30% bitmap (about
// 1300 allowed ids, so the gathered blocks cross boundaries too).
std::vector<const IdSelector*> Filters() {
  static const IdSelectorBitmap* bitmap = [] {
    const size_t n = FlatWorkload().base.rows();
    auto* b = new IdSelectorBitmap(n);
    Rng rng(94);
    for (uint32_t id = 0; id < n; ++id) {
      if (rng.Uniform() < 0.3) b->Set(id);
    }
    return b;
  }();
  return {nullptr, bitmap};
}

// Median 10th-neighbor distance under `metric`: rows of about k hits.
float MedianRadius(Metric metric) {
  const Workload& w = FlatWorkload();
  const KnnResult knn = BruteForceKnn(w.base, w.queries, kTopK, metric);
  std::vector<float> tenth;
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    tenth.push_back(knn.distances[q * kTopK + kTopK - 1]);
  }
  std::sort(tenth.begin(), tenth.end());
  return tenth[tenth.size() / 2];
}

// k-NN at `budget` through `index` (selector pushdown pinned, so a filtered
// request stays on the index's own path) against RerankCandidatesScored fed
// every id, rows and counters alike.
void ExpectKnnMatchesGather(const Index& index, const IdSelector* filter,
                            size_t budget, uint32_t bins) {
  const Workload& w = FlatWorkload();
  const DistanceComputer dist(w.base, index.metric());
  const std::vector<uint32_t> all = AllIds();
  for (const size_t threads : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << threads);
    SearchRequest request;
    request.queries = w.queries;
    request.options.k = kTopK;
    request.options.budget = budget;
    request.options.num_threads = threads;
    request.options.filter = filter;
    request.options.stats = true;
    request.options.plan = PlanMode::kForcePushdown;
    const BatchSearchResult got = index.SearchBatch(request);
    ASSERT_TRUE(got.stats.has_value());
    for (size_t q = 0; q < w.queries.rows(); ++q) {
      RerankCounts counts;
      const std::vector<Neighbor> want = RerankCandidatesScored(
          dist, w.queries.Row(q), all, kTopK, filter, &counts);
      for (size_t j = 0; j < kTopK; ++j) {
        if (j < want.size()) {
          ASSERT_EQ(got.Row(q)[j], want[j].id) << "q=" << q << " j=" << j;
          ASSERT_EQ(Bits(got.DistanceRow(q)[j]), Bits(want[j].distance))
              << "q=" << q << " j=" << j;
        } else {
          ASSERT_EQ(got.Row(q)[j], kInvalidId) << "q=" << q << " j=" << j;
        }
      }
      EXPECT_EQ(got.candidate_counts[q], counts.scored);
      EXPECT_EQ(got.stats->candidates_scored[q], counts.scored);
      EXPECT_EQ(got.stats->filtered_out[q], counts.filtered_out);
      EXPECT_EQ(got.stats->bins_probed[q], bins);
    }
  }
}

// Radius at `budget` through `index` against RangeFilterCandidates fed every
// id, rows and counters alike.
void ExpectRadiusMatchesGather(const Index& index, const IdSelector* filter,
                               size_t budget, uint32_t bins) {
  const Workload& w = FlatWorkload();
  const DistanceComputer dist(w.base, index.metric());
  const float radius = MedianRadius(index.metric());
  for (const size_t threads : {size_t{1}, size_t{0}}) {
    SCOPED_TRACE(testing::Message() << "num_threads=" << threads);
    RadiusOptions options;
    options.budget = budget;
    options.num_threads = threads;
    options.filter = filter;
    options.stats = true;
    const RadiusResult got = index.RadiusSearch(w.queries, radius, options);
    ASSERT_TRUE(got.stats.has_value());
    size_t hits = 0;
    for (size_t q = 0; q < w.queries.rows(); ++q) {
      std::vector<uint32_t> all = AllIds();
      RerankCounts counts;
      const std::vector<Neighbor> want = RangeFilterCandidates(
          dist, w.queries.Row(q), &all, radius, filter, &counts);
      ASSERT_EQ(got.RowSize(q), want.size()) << "q=" << q;
      for (size_t j = 0; j < want.size(); ++j) {
        ASSERT_EQ(got.RowIds(q)[j], want[j].id) << "q=" << q << " j=" << j;
        ASSERT_EQ(Bits(got.RowDistances(q)[j]), Bits(want[j].distance))
            << "q=" << q << " j=" << j;
      }
      hits += want.size();
      EXPECT_EQ(got.candidate_counts[q], counts.scored);
      EXPECT_EQ(got.stats->candidates_scored[q], counts.scored);
      EXPECT_EQ(got.stats->filtered_out[q], counts.filtered_out);
      EXPECT_EQ(got.stats->bins_probed[q], bins);
    }
    EXPECT_GT(hits, 0u);  // the radius admits rows, so the cut is exercised
  }
}

// The gather stage written out per query: `source` fills C(q) and
// RerankCandidatesScored ranks it. `got` must match rows, distance bits,
// candidate_counts and all four stats vectors, with the bins the source
// reports.
void ExpectKnnMatchesSource(const BatchSearchResult& got,
                            const DistanceComputer& dist,
                            const CandidateSource& source,
                            const IdSelector* filter) {
  const Workload& w = FlatWorkload();
  ASSERT_TRUE(got.stats.has_value());
  ASSERT_EQ(got.k, kTopK);
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    std::vector<uint32_t> ids;
    const uint32_t bins = source(q, &ids);
    RerankCounts counts;
    const std::vector<Neighbor> want = RerankCandidatesScored(
        dist, w.queries.Row(q), ids, kTopK, filter, &counts);
    for (size_t j = 0; j < kTopK; ++j) {
      if (j < want.size()) {
        ASSERT_EQ(got.Row(q)[j], want[j].id) << "q=" << q << " j=" << j;
        ASSERT_EQ(Bits(got.DistanceRow(q)[j]), Bits(want[j].distance))
            << "q=" << q << " j=" << j;
      } else {
        ASSERT_EQ(got.Row(q)[j], kInvalidId) << "q=" << q << " j=" << j;
      }
    }
    EXPECT_EQ(got.candidate_counts[q], counts.scored) << "q=" << q;
    EXPECT_EQ(got.stats->candidates_scored[q], counts.scored) << "q=" << q;
    EXPECT_EQ(got.stats->filtered_out[q], counts.filtered_out) << "q=" << q;
    EXPECT_EQ(got.stats->bins_probed[q], bins) << "q=" << q;
    EXPECT_EQ(got.stats->nodes_visited[q], 0u) << "q=" << q;
  }
}

// Radius counterpart of ExpectKnnMatchesSource: RangeFilterCandidates over
// each query's candidates.
void ExpectRadiusMatchesSource(const RadiusResult& got,
                               const DistanceComputer& dist,
                               const CandidateSource& source, float radius,
                               const IdSelector* filter) {
  const Workload& w = FlatWorkload();
  ASSERT_TRUE(got.stats.has_value());
  ASSERT_EQ(got.num_queries(), w.queries.rows());
  size_t hits = 0;
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    std::vector<uint32_t> ids;
    const uint32_t bins = source(q, &ids);
    RerankCounts counts;
    const std::vector<Neighbor> want = RangeFilterCandidates(
        dist, w.queries.Row(q), &ids, radius, filter, &counts);
    ASSERT_EQ(got.RowSize(q), want.size()) << "q=" << q;
    for (size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(got.RowIds(q)[j], want[j].id) << "q=" << q << " j=" << j;
      ASSERT_EQ(Bits(got.RowDistances(q)[j]), Bits(want[j].distance))
          << "q=" << q << " j=" << j;
    }
    hits += want.size();
    EXPECT_EQ(got.candidate_counts[q], counts.scored) << "q=" << q;
    EXPECT_EQ(got.stats->candidates_scored[q], counts.scored) << "q=" << q;
    EXPECT_EQ(got.stats->filtered_out[q], counts.filtered_out) << "q=" << q;
    EXPECT_EQ(got.stats->bins_probed[q], bins) << "q=" << q;
    EXPECT_EQ(got.stats->nodes_visited[q], 0u) << "q=" << q;
  }
  EXPECT_GT(hits, 0u);  // the radius admits rows, so the cut is exercised
}

const char* FilterName(const IdSelector* filter) {
  return filter == nullptr ? "unfiltered" : "filter30pct";
}

TEST(FlatScanTest, PartitionIndexMatchesGatherBitForBit) {
  const Workload& w = FlatWorkload();
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    const PartitionIndex index(&w.base, &Kmeans(), metric);
    // A budget equal to the bin count is the smallest that takes the scan.
    for (const size_t budget : {kBins, kFullBudget}) {
      for (const IdSelector* filter : Filters()) {
        SCOPED_TRACE(testing::Message()
                     << MetricName(metric) << " budget=" << budget << " "
                     << FilterName(filter));
        ExpectKnnMatchesGather(index, filter, budget, kBins);
        ExpectRadiusMatchesGather(index, filter, budget, kBins);
      }
    }
  }
}

TEST(FlatScanTest, ScannRadiusMatchesGatherBitForBit) {
  const Workload& w = FlatWorkload();
  ScannIndexConfig config;
  config.rerank_budget = 100;
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    const ScannIndex partitioned(&w.base, &Kmeans(), TrainedPq(), config,
                                 metric);
    const ScannIndex exhaustive(&w.base, nullptr, TrainedPq(), config,
                                metric);
    for (const IdSelector* filter : Filters()) {
      SCOPED_TRACE(testing::Message()
                   << MetricName(metric) << " " << FilterName(filter));
      ExpectRadiusMatchesGather(partitioned, filter, kBins, kBins);
      ExpectRadiusMatchesGather(partitioned, filter, kFullBudget, kBins);
      // Partition-free: every budget scans the whole base, no bins probed.
      ExpectRadiusMatchesGather(exhaustive, filter, 1, 0);
    }
  }
}

TEST(FlatScanTest, EnsembleMatchesGatherBitForBit) {
  const Workload& w = FlatWorkload();
  for (const EnsembleCombine combine :
       {EnsembleCombine::kBestConfidence, EnsembleCombine::kUnion}) {
    UspEnsembleConfig config;
    config.model.num_bins = kBins;
    config.model.eta = 8.0f;
    config.model.epochs = 2;
    config.model.batch_size = 512;
    config.model.hidden_dim = 16;
    config.model.seed = 95;
    config.num_models = 2;
    config.combine = combine;
    UspEnsemble ensemble(config);
    ensemble.Train(w.base, w.knn_matrix);
    // bins_probed: the chosen model's bins, or every model's under kUnion.
    const uint32_t bins = combine == EnsembleCombine::kUnion
                              ? static_cast<uint32_t>(2 * kBins)
                              : static_cast<uint32_t>(kBins);
    for (const size_t budget : {kBins, kFullBudget}) {
      for (const IdSelector* filter : Filters()) {
        SCOPED_TRACE(testing::Message()
                     << (combine == EnsembleCombine::kUnion ? "union"
                                                            : "best")
                     << " budget=" << budget << " " << FilterName(filter));
        ExpectKnnMatchesGather(ensemble, filter, budget, bins);
        ExpectRadiusMatchesGather(ensemble, filter, budget, bins);
      }
    }

    // Budgets below the bin count take the gather stage. Its reference is
    // built from the models here: under kBestConfidence (Alg. 4) query q
    // probes the model whose top bin scores highest (the first such model
    // on a tie), under kUnion every model.
    std::vector<Matrix> scores;
    for (size_t j = 0; j < ensemble.num_models(); ++j) {
      scores.push_back(ensemble.model(j).ScoreBins(w.queries));
    }
    const DistanceComputer dist(w.base, Metric::kSquaredL2);
    const float radius = MedianRadius(Metric::kSquaredL2);
    for (const size_t budget : {size_t{1}, size_t{2}}) {
      const CandidateSource reference = [&](size_t q,
                                            std::vector<uint32_t>* ids) {
        std::vector<size_t> probed;
        if (combine == EnsembleCombine::kUnion) {
          for (size_t j = 0; j < scores.size(); ++j) probed.push_back(j);
        } else {
          size_t best = 0;
          for (size_t j = 1; j < scores.size(); ++j) {
            const float* row = scores[j].Row(q);
            const float* best_row = scores[best].Row(q);
            if (*std::max_element(row, row + kBins) >
                *std::max_element(best_row, best_row + kBins)) {
              best = j;
            }
          }
          probed.push_back(best);
        }
        uint32_t bins = 0;
        for (const size_t j : probed) {
          std::vector<uint32_t> bucket_ids;
          ensemble.index(j).CollectCandidates(scores[j].Row(q), budget,
                                              &bucket_ids);
          ids->insert(ids->end(), bucket_ids.begin(), bucket_ids.end());
          bins += static_cast<uint32_t>(budget);
        }
        return bins;
      };
      for (const IdSelector* filter : Filters()) {
        for (const size_t threads : {size_t{1}, size_t{0}}) {
          SCOPED_TRACE(testing::Message()
                       << (combine == EnsembleCombine::kUnion ? "union"
                                                              : "best")
                       << " budget=" << budget << " " << FilterName(filter)
                       << " num_threads=" << threads);
          SearchRequest request;
          request.queries = w.queries;
          request.options.k = kTopK;
          request.options.budget = budget;
          request.options.num_threads = threads;
          request.options.filter = filter;
          request.options.stats = true;
          request.options.plan = PlanMode::kForcePushdown;
          ExpectKnnMatchesSource(ensemble.SearchBatch(request), dist,
                                 reference, filter);
          RadiusOptions options;
          options.budget = budget;
          options.num_threads = threads;
          options.filter = filter;
          options.stats = true;
          ExpectRadiusMatchesSource(
              ensemble.RadiusSearch(w.queries, radius, options), dist,
              reference, radius, filter);
        }
      }
    }
  }
}

// A candidate source of two overlapping buckets, each in descending id
// order, that reports a per-query bin count. Query 0 gets fewer candidates
// than k, so its rows pad.
uint32_t TwoBuckets(size_t q, std::vector<uint32_t>* ids) {
  const uint32_t n = static_cast<uint32_t>(FlatWorkload().base.rows());
  const uint32_t count = q == 0 ? 3 : 400;
  const uint32_t start = static_cast<uint32_t>(q * 131) % n;
  for (uint32_t i = count; i-- > 0;) ids->push_back((start + 3 * i) % n);
  for (uint32_t i = count + count / 2; i-- > count / 2;) {
    ids->push_back((start + 3 * i) % n);
  }
  return static_cast<uint32_t>(2 + q % 3);
}

TEST(GatherTest, MatchesPerQueryRerankAndRangeFilter) {
  const Workload& w = FlatWorkload();
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    const DistanceComputer dist(w.base, metric);
    const float radius = MedianRadius(metric);
    for (const IdSelector* filter : Filters()) {
      for (const size_t threads : {size_t{1}, size_t{0}}) {
        SCOPED_TRACE(testing::Message()
                     << MetricName(metric) << " " << FilterName(filter)
                     << " num_threads=" << threads);
        SearchRequest request;
        request.queries = w.queries;
        request.options.k = kTopK;
        request.options.num_threads = threads;
        request.options.filter = filter;
        request.options.stats = true;
        ExpectKnnMatchesSource(Gather(dist, request, TwoBuckets), dist,
                               TwoBuckets, filter);
        RadiusRequest radius_request;
        radius_request.queries = w.queries;
        radius_request.radius = radius;
        radius_request.options.num_threads = threads;
        radius_request.options.filter = filter;
        radius_request.options.stats = true;
        ExpectRadiusMatchesSource(Gather(dist, radius_request,
                                               TwoBuckets),
                                  dist, TwoBuckets, radius, filter);
      }
    }
  }
}

// A NaN distance is within no radius. Over a base with a NaN coordinate in
// row 5, BruteForceRadius, the flat scan, the gather fed every id and a
// DynamicIndex write segment return the rows RangeFilterCandidates keeps,
// bit for bit, and none of them holds row 5.
TEST(FlatScanTest, RadiusDropsNanDistances) {
  constexpr size_t kRows = 64, kDim = 8;
  constexpr float kRadius = 1.0f;
  Rng rng(96);
  Matrix base(kRows, kDim), queries(3, kDim);
  for (Matrix* m : {&base, &queries}) {
    for (size_t i = 0; i < m->rows(); ++i) {
      for (size_t j = 0; j < kDim; ++j) {
        (*m)(i, j) = static_cast<float>(rng.Uniform());
      }
    }
  }
  base(5, 3) = std::numeric_limits<float>::quiet_NaN();
  const DistanceComputer dist(base, Metric::kSquaredL2);
  RadiusRequest request;
  request.queries = queries;
  request.radius = kRadius;
  const CandidateSource every_id = [&](size_t, std::vector<uint32_t>* ids) {
    for (uint32_t id = 0; id < kRows; ++id) ids->push_back(id);
    return 0u;
  };
  DynamicIndex dynamic(kDim);
  dynamic.AddBatch(base);  // global ids 0 .. kRows - 1, all in the write segment
  const RadiusResult results[] = {
      BruteForceRadius(base, queries, kRadius, Metric::kSquaredL2),
      FlatScan(dist, request, /*bins_probed=*/0),
      Gather(dist, request, every_id),
      dynamic.RadiusSearch(queries, kRadius),
  };
  const char* names[] = {"brute_force", "flat_scan", "gather", "dynamic"};
  for (size_t r = 0; r < 4; ++r) {
    SCOPED_TRACE(names[r]);
    const RadiusResult& got = results[r];
    ASSERT_EQ(got.num_queries(), queries.rows());
    for (size_t q = 0; q < queries.rows(); ++q) {
      std::vector<uint32_t> ids(kRows);
      std::iota(ids.begin(), ids.end(), 0u);
      const std::vector<Neighbor> want = RangeFilterCandidates(
          dist, queries.Row(q), &ids, kRadius);
      ASSERT_GT(want.size(), 0u);
      ASSERT_LT(want.size(), kRows - 1);
      ASSERT_EQ(got.RowSize(q), want.size()) << "q=" << q;
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_NE(got.RowIds(q)[j], 5u);
        EXPECT_FALSE(std::isnan(got.RowDistances(q)[j]));
        EXPECT_EQ(got.RowIds(q)[j], want[j].id) << "q=" << q << " j=" << j;
        EXPECT_EQ(Bits(got.RowDistances(q)[j]), Bits(want[j].distance))
            << "q=" << q << " j=" << j;
      }
    }
  }
}

TEST(FlatScanTest, BruteForceMatchesGatherBitForBit) {
  // BruteForceRadius and the kernel path of BruteForceKnn (every metric but
  // unfiltered L2) run the same scan as the index types.
  const Workload& w = FlatWorkload();
  const std::vector<uint32_t> all = AllIds();
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    const DistanceComputer dist(w.base, metric);
    const float radius = MedianRadius(metric);
    for (const IdSelector* filter : Filters()) {
      for (const size_t threads : {size_t{1}, size_t{0}}) {
        SCOPED_TRACE(testing::Message()
                     << MetricName(metric) << " " << FilterName(filter)
                     << " num_threads=" << threads);
        const RadiusResult rows =
            BruteForceRadius(w.base, w.queries, radius, metric, filter,
                             threads);
        for (size_t q = 0; q < w.queries.rows(); ++q) {
          std::vector<uint32_t> ids = all;
          const std::vector<Neighbor> want = RangeFilterCandidates(
              dist, w.queries.Row(q), &ids, radius, filter);
          ASSERT_EQ(rows.RowSize(q), want.size()) << "q=" << q;
          for (size_t j = 0; j < want.size(); ++j) {
            ASSERT_EQ(rows.RowIds(q)[j], want[j].id);
            ASSERT_EQ(Bits(rows.RowDistances(q)[j]), Bits(want[j].distance));
          }
        }
        if (metric == Metric::kSquaredL2 && filter == nullptr) continue;
        const KnnResult knn =
            BruteForceKnn(w.base, w.queries, kTopK, metric, filter, threads);
        for (size_t q = 0; q < w.queries.rows(); ++q) {
          const std::vector<Neighbor> want = RerankCandidatesScored(
              dist, w.queries.Row(q), all, kTopK, filter);
          ASSERT_EQ(want.size(), kTopK);
          for (size_t j = 0; j < kTopK; ++j) {
            ASSERT_EQ(knn.Row(q)[j], want[j].id) << "q=" << q << " j=" << j;
            ASSERT_EQ(Bits(knn.distances[q * kTopK + j]),
                      Bits(want[j].distance))
                << "q=" << q << " j=" << j;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace usp
