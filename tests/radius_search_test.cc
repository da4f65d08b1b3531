// Pins the RadiusSearchBatch contract (index/index.h) and the shared radius
// collector and stages (knn/brute_force.h):
//
//   - For every index type — all nine, plus a container-loaded index — radius
//     search at full budget is bit-identical (offsets, ids, AND distances) to
//     BruteForceRadius, at radii that produce zero rows, rows shorter than a
//     typical k, and rows far larger than any k.
//   - Filters compose: a selector restricts radius rows exactly as it
//     restricts k-NN rows, including through DynamicIndex tombstones and
//     ShardedIndex scatter-gather.
//   - The CSR shape honors the empty-row contract: no sentinel padding ever,
//     an empty row is a zero-length offset span.
//   - A partial budget returns a subset of the full-budget row.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/ensemble.h"
#include "core/partition_index.h"
#include "dataset/workload.h"
#include "hnsw/hnsw.h"
#include "index/serialize.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "quant/scann_index.h"
#include "quant/sq8_index.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "util/rng.h"

namespace usp {
namespace {

// Budget that makes every index exhaustive: all bins probed (<= 16 bins /
// nlist in every fixture index), radius-beam ef = n for HNSW, forwarded to
// every segment/shard by the serving types.
constexpr size_t kFullBudget = 1u << 20;

const Workload& RadiusWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;  // d = 32
    spec.num_base = 500;
    spec.num_queries = 25;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 77;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

// Radii derived from the query-to-base distance distribution so the expected
// row sizes are known by construction: kNone yields zero rows everywhere,
// kFew sits below the typical 3rd-neighbor distance (rows shorter than the
// usual k = 10), kMany covers far more than any practical k.
struct Radii {
  float none;
  float few;
  float many;
};

Radii FixtureRadii() {
  static const Radii radii = [] {
    const Workload& w = RadiusWorkload();
    const KnnResult knn = BruteForceKnn(w.base, w.queries, 10);
    std::vector<float> third, first;
    for (size_t q = 0; q < w.queries.rows(); ++q) {
      first.push_back(knn.distances[q * knn.k]);
      third.push_back(knn.distances[q * knn.k + 2]);
    }
    std::sort(first.begin(), first.end());
    std::sort(third.begin(), third.end());
    Radii r;
    r.none = 0.5f * first.front();       // below every nearest neighbor
    r.few = third[third.size() / 2];     // ~3 hits for half the queries
    r.many = 16.0f * third.back();       // hundreds of hits per query
    return r;
  }();
  return radii;
}

// All nine index types built once over the shared workload, mirroring the
// filtered-search fixture (every index exhaustive at kFullBudget;
// ScaNN/IVF-PQ rerank budgets = n so shortlists never truncate).
struct AllIndexes {
  const Workload& w = RadiusWorkload();
  KMeansPartitioner kmeans;
  PartitionIndex partition;
  IvfFlatIndex ivf_flat;
  IvfPqIndex ivf_pq;
  ScannIndex scann;
  HnswIndex hnsw;
  UspEnsemble ensemble;
  Sq8Index sq8;
  DynamicIndex dynamic;
  ShardedIndex sharded;

  static KMeansConfig KmConfig() {
    KMeansConfig config;
    config.num_clusters = 16;
    config.seed = 11;
    return config;
  }
  static IvfConfig FlatConfig() {
    IvfConfig config;
    config.nlist = 16;
    config.seed = 12;
    return config;
  }
  static IvfConfig PqIvfConfig(size_t n) {
    IvfConfig config;
    config.nlist = 8;
    config.seed = 13;
    config.pq.num_subspaces = 8;
    config.pq.codebook_size = 16;
    config.pq.seed = 14;
    config.rerank_budget = n;
    return config;
  }
  static ProductQuantizer TrainPq(const Matrix& base) {
    PqConfig config;
    config.num_subspaces = 8;
    config.codebook_size = 16;
    config.seed = 15;
    ProductQuantizer pq(config);
    pq.Train(base);
    return pq;
  }
  static ScannIndexConfig ScConfig(size_t n) {
    ScannIndexConfig config;
    config.rerank_budget = n;
    return config;
  }
  static HnswConfig GraphConfig() {
    HnswConfig config;
    config.max_neighbors = 8;
    config.ef_construction = 60;
    config.seed = 16;
    return config;
  }
  static UspEnsembleConfig EnsembleConfig() {
    UspEnsembleConfig config;
    config.model.num_bins = 8;
    config.model.eta = 8.0f;
    config.model.epochs = 8;
    config.model.batch_size = 256;
    config.model.hidden_dim = 16;
    config.model.seed = 17;
    config.num_models = 2;
    return config;
  }
  static ShardedIndexConfig ShardConfig() {
    ShardedIndexConfig config;
    config.num_shards = 3;
    return config;
  }

  AllIndexes()
      : kmeans(RadiusWorkload().base, KmConfig()),
        partition(&RadiusWorkload().base, &kmeans),
        ivf_flat(&RadiusWorkload().base, FlatConfig()),
        ivf_pq(&RadiusWorkload().base, PqIvfConfig(RadiusWorkload().base.rows())),
        scann(&RadiusWorkload().base, &kmeans, TrainPq(RadiusWorkload().base),
              ScConfig(RadiusWorkload().base.rows())),
        hnsw(GraphConfig()),
        ensemble(EnsembleConfig()),
        sq8(&RadiusWorkload().base),
        dynamic(RadiusWorkload().base.cols()),
        sharded(RadiusWorkload().base, ShardConfig()) {
    hnsw.Build(w.base);
    ensemble.Train(w.base, w.knn_matrix);
    dynamic.AddBatch(w.base);
    dynamic.Seal();
  }

  std::vector<std::pair<const char*, const Index*>> All() const {
    return {{"partition", &partition},
            {"ivf_flat", &ivf_flat},
            {"ivf_pq", &ivf_pq},
            {"scann", &scann},
            {"hnsw", &hnsw},
            {"ensemble", &ensemble},
            {"sq8", &sq8},
            {"dynamic", &dynamic},
            {"sharded", &sharded}};
  }
};

const AllIndexes& Indexes() {
  static const AllIndexes* all = new AllIndexes();
  return *all;
}

IdSelectorBitmap RandomSubset(size_t n, double selectivity, uint64_t seed) {
  Rng rng(seed);
  IdSelectorBitmap bitmap(n);
  for (uint32_t id = 0; id < n; ++id) {
    if (rng.Uniform() < selectivity) bitmap.Set(id);
  }
  if (bitmap.count() == 0) bitmap.Set(0);
  return bitmap;
}

void ExpectSameRadiusResult(const RadiusResult& got,
                            const RadiusResult& expected, const char* label) {
  EXPECT_EQ(got.offsets, expected.offsets) << label;
  EXPECT_EQ(got.ids, expected.ids) << label;
  EXPECT_EQ(got.distances, expected.distances) << label;
}

// The acceptance bar: at full budget, the CSR triplet is bit-identical to
// BruteForceRadius (which shares the per-row scoring kernels with every
// index's range filter).
void ExpectMatchesBruteForce(const Index& index, MatrixView base,
                             MatrixView queries, float radius,
                             const IdSelector* filter, const char* label) {
  RadiusOptions options;
  options.budget = kFullBudget;
  options.filter = filter;
  const RadiusResult got = index.RadiusSearch(queries, radius, options);
  const RadiusResult expected =
      BruteForceRadius(base, queries, radius, index.metric(), filter);
  ExpectSameRadiusResult(got, expected, label);
}

TEST(RadiusSearchTest, FullBudgetBitIdenticalAcrossTypesAndRadii) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  for (const float radius : {radii.none, radii.few, radii.many}) {
    // Sanity: the reference itself hits the intended row-count regimes.
    const RadiusResult reference =
        BruteForceRadius(all.w.base, all.w.queries, radius, Metric::kSquaredL2);
    if (radius == radii.none) {
      EXPECT_EQ(reference.ids.size(), 0u);
    } else if (radius == radii.many) {
      EXPECT_GT(reference.ids.size(), all.w.queries.rows() * 50);
    }
    for (const auto& [name, index] : all.All()) {
      SCOPED_TRACE(testing::Message() << name << " radius=" << radius);
      ExpectMatchesBruteForce(*index, all.w.base, all.w.queries, radius,
                              nullptr, name);
    }
  }
}

TEST(RadiusSearchTest, FilteredBitIdenticalAcrossSelectivities) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  const size_t n = all.w.base.rows();
  for (const double selectivity : {0.1, 0.5}) {
    const IdSelectorBitmap filter =
        RandomSubset(n, selectivity, /*seed=*/2000 + size_t(selectivity * 100));
    for (const auto& [name, index] : all.All()) {
      SCOPED_TRACE(testing::Message()
                   << name << " selectivity=" << selectivity);
      ExpectMatchesBruteForce(*index, all.w.base, all.w.queries, radii.many,
                              &filter, name);
    }
  }
}

TEST(RadiusSearchTest, LoadedIndexForwardsRadiusSearch) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  const std::string path = testing::TempDir() + "/radius_ivf.uspidx";
  ASSERT_TRUE(SaveIndex(all.ivf_flat, path).ok());
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto loaded = OpenIndex(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    ExpectMatchesBruteForce(*loaded.value(), all.w.base, all.w.queries,
                            radii.few, nullptr, "loaded");
  }
}

TEST(RadiusSearchTest, EmptyRowOffsetContract) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  const size_t nq = all.w.queries.rows();
  for (const auto& [name, index] : all.All()) {
    SCOPED_TRACE(name);
    RadiusOptions options;
    options.budget = kFullBudget;
    const RadiusResult result =
        index->RadiusSearch(all.w.queries, radii.none, options);
    // No sentinel padding exists in the CSR form: a query with no in-range
    // points contributes a zero-length span and nothing else.
    ASSERT_EQ(result.offsets.size(), nq + 1);
    EXPECT_EQ(result.num_queries(), nq);
    EXPECT_EQ(result.offsets.front(), 0u);
    EXPECT_EQ(result.offsets.back(), 0u);
    EXPECT_TRUE(result.ids.empty());
    EXPECT_TRUE(result.distances.empty());
    for (size_t q = 0; q < nq; ++q) {
      EXPECT_EQ(result.RowSize(q), 0u);
    }
    // Work was still done: candidates were scored to prove rows empty.
    ASSERT_EQ(result.candidate_counts.size(), nq);
    EXPECT_GT(result.candidate_counts[0], 0u);
  }
}

TEST(RadiusSearchTest, RowsSortedAndInclusiveOfBoundary) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  RadiusOptions options;
  options.budget = kFullBudget;
  const RadiusResult result =
      all.partition.RadiusSearch(all.w.queries, radii.many, options);
  for (size_t q = 0; q < result.num_queries(); ++q) {
    const float* dist = result.RowDistances(q);
    const uint32_t* ids = result.RowIds(q);
    for (size_t j = 0; j + 1 < result.RowSize(q); ++j) {
      // Ascending (distance, id).
      EXPECT_TRUE(dist[j] < dist[j + 1] ||
                  (dist[j] == dist[j + 1] && ids[j] < ids[j + 1]));
    }
    if (result.RowSize(q) > 0) {
      EXPECT_LE(dist[result.RowSize(q) - 1], radii.many);  // inclusive <=
    }
  }
  // The boundary is inclusive: search with radius == an existing distance
  // must return that hit.
  if (!result.distances.empty()) {
    const float boundary = result.distances.front();
    const RadiusResult at_boundary =
        all.partition.RadiusSearch(all.w.queries, boundary, options);
    bool found = false;
    for (size_t j = 0; j < at_boundary.distances.size(); ++j) {
      if (at_boundary.distances[j] == boundary) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(RangeFilterTest, DeduplicatesOverlappingCandidates) {
  // Overlapping probes can repeat ids; no point may be scored or reported
  // twice. An ascending list with a repeat must still dedupe; a strictly
  // increasing one (a single probed bucket) skips the sort.
  Matrix base(4, 1);
  for (size_t i = 0; i < 4; ++i) base(i, 0) = static_cast<float>(i);
  const DistanceComputer dist(base, Metric::kSquaredL2);
  const float query = 0.0f;
  for (const std::vector<uint32_t>& input :
       {std::vector<uint32_t>{2, 0, 0, 1, 1, 1, 2, 3},
        std::vector<uint32_t>{0, 1, 1, 2, 3},
        std::vector<uint32_t>{0, 1, 2, 3}}) {
    std::vector<uint32_t> candidates = input;
    RerankCounts counts;
    const std::vector<Neighbor> hits = RangeFilterCandidates(
        dist, &query, &candidates, 100.0f, /*filter=*/nullptr, &counts);
    EXPECT_EQ(candidates, (std::vector<uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(counts.scored, 4u);
    ASSERT_EQ(hits.size(), 4u);
    for (uint32_t j = 0; j < 4; ++j) {
      EXPECT_EQ(hits[j].id, j);
      EXPECT_EQ(hits[j].distance, static_cast<float>(j * j));
    }
  }
}

TEST(RadiusSearchTest, PartialBudgetReturnsSubsetOfFullRows) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  RadiusOptions options;
  options.budget = kFullBudget;
  const RadiusResult full =
      all.partition.RadiusSearch(all.w.queries, radii.many, options);
  options.budget = 2;  // probe 2 of 16 bins
  const RadiusResult partial =
      all.partition.RadiusSearch(all.w.queries, radii.many, options);
  size_t total_partial = 0;
  for (size_t q = 0; q < partial.num_queries(); ++q) {
    // Every partial hit must appear in the full row (same id, same distance).
    const uint32_t* full_ids = full.RowIds(q);
    const size_t full_size = full.RowSize(q);
    for (size_t j = 0; j < partial.RowSize(q); ++j) {
      const uint32_t id = partial.RowIds(q)[j];
      const float* pos = nullptr;
      for (size_t t = 0; t < full_size; ++t) {
        if (full_ids[t] == id) {
          pos = full.RowDistances(q) + t;
          break;
        }
      }
      ASSERT_NE(pos, nullptr);
      EXPECT_EQ(*pos, partial.RowDistances(q)[j]);
    }
    total_partial += partial.RowSize(q);
  }
  EXPECT_LE(total_partial, full.ids.size());
  EXPECT_GT(total_partial, 0u);
}

// Every index type reports its radius work: an engaged stats block whose
// candidates_scored matches candidate_counts, and, at full budget, where
// every type but HNSW scans every row, scored + filtered_out equal to the
// unfiltered count. HNSW's count also holds its greedy descent, so only the
// first check applies to it. A DynamicIndex over SQ8 segments covers the
// SQ8 scan inside the serving layer's fan-out.
TEST(RadiusSearchTest, StatsReportScoredAndFiltered) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  const size_t n = all.w.base.rows();
  const IdSelectorBitmap filter = RandomSubset(n, 0.5, /*seed=*/42);
  DynamicIndexConfig sq8_segments;
  sq8_segments.segment_builder = Sq8SegmentBuilder();
  DynamicIndex dynamic_sq8(all.w.base.cols(), sq8_segments);
  dynamic_sq8.AddBatch(all.w.base);
  dynamic_sq8.Seal();
  std::vector<std::pair<const char*, const Index*>> indexes = all.All();
  indexes.emplace_back("dynamic_sq8", &dynamic_sq8);
  for (const auto& [name, index] : indexes) {
    SCOPED_TRACE(name);
    RadiusOptions options;
    options.budget = kFullBudget;
    options.stats = true;
    const RadiusResult unfiltered =
        index->RadiusSearch(all.w.queries, radii.many, options);
    options.filter = &filter;
    const RadiusResult filtered =
        index->RadiusSearch(all.w.queries, radii.many, options);
    ASSERT_TRUE(unfiltered.stats.has_value());
    ASSERT_TRUE(filtered.stats.has_value());
    for (size_t q = 0; q < all.w.queries.rows(); ++q) {
      EXPECT_EQ(unfiltered.candidate_counts[q],
                unfiltered.stats->candidates_scored[q]);
      EXPECT_EQ(filtered.candidate_counts[q],
                filtered.stats->candidates_scored[q]);
      if (index == &all.hnsw) continue;
      // Scored + dropped recovers the unfiltered candidate set (full budget
      // probes every bin, so the pre-filter candidate sets agree).
      EXPECT_EQ(filtered.candidate_counts[q] + filtered.stats->filtered_out[q],
                unfiltered.candidate_counts[q]);
      if (index == &all.partition) {
        EXPECT_EQ(filtered.stats->bins_probed[q], 16u);
      }
    }
  }
}

TEST(RadiusSearchTest, ThreadCountInvariant) {
  const AllIndexes& all = Indexes();
  const Radii radii = FixtureRadii();
  for (const auto& [name, index] : all.All()) {
    SCOPED_TRACE(name);
    RadiusOptions serial;
    serial.budget = kFullBudget;
    serial.num_threads = 1;
    RadiusOptions pooled = serial;
    pooled.num_threads = 0;
    const RadiusResult a =
        index->RadiusSearch(all.w.queries, radii.few, serial);
    const RadiusResult b =
        index->RadiusSearch(all.w.queries, radii.few, pooled);
    ExpectSameRadiusResult(a, b, name);
  }
}

TEST(RadiusSearchTest, DynamicComposesFilterWithTombstonesAcrossSeal) {
  const Workload& w = RadiusWorkload();
  const Radii radii = FixtureRadii();
  const size_t n = w.base.rows();

  DynamicIndex index(w.base.cols());
  index.AddBatch(w.base);

  IdSelectorBitmap user_filter(n + w.queries.rows());
  IdSelectorBitmap reference(n + w.queries.rows());
  for (uint32_t id = 0; id < n; ++id) {
    if (id % 3 == 0) user_filter.Set(id);
  }
  for (uint32_t id = 0; id < n; ++id) {
    if (id % 7 == 0) {
      ASSERT_TRUE(index.Delete(id));
    }
  }
  for (uint32_t id = 0; id < n; ++id) {
    if (id % 3 == 0 && id % 7 != 0) reference.Set(id);
  }

  RadiusOptions options;
  options.budget = kFullBudget;
  options.filter = &user_filter;

  // Phase 1: everything in the write segment (filtered brute-force path).
  {
    const RadiusResult got =
        index.RadiusSearch(w.queries, radii.many, options);
    const RadiusResult expected = BruteForceRadius(
        w.base, w.queries, radii.many, index.metric(), &reference);
    ExpectSameRadiusResult(got, expected, "write-segment");
  }

  // Phase 2: sealed into an IVF segment (local-selector translation).
  index.Seal();
  {
    const RadiusResult got =
        index.RadiusSearch(w.queries, radii.many, options);
    const RadiusResult expected = BruteForceRadius(
        w.base, w.queries, radii.many, index.metric(), &reference);
    ExpectSameRadiusResult(got, expected, "sealed");
  }

  // Phase 3: fresh rows in the write segment (ids n..n+m), some deleted,
  // some admitted — radius rows span sealed + write segments.
  const size_t m = w.queries.rows();
  index.AddBatch(w.queries);
  for (uint32_t id = 0; id < m; ++id) {
    const uint32_t gid = static_cast<uint32_t>(n) + id;
    if (id % 2 == 0) {
      user_filter.Set(gid);
      if (id % 4 == 0) {
        ASSERT_TRUE(index.Delete(gid));
      } else {
        reference.Set(gid);
      }
    }
  }
  {
    Matrix combined(n + m, w.base.cols());
    std::memcpy(combined.Row(0), w.base.data(), w.base.size() * sizeof(float));
    std::memcpy(combined.Row(n), w.queries.data(),
                w.queries.size() * sizeof(float));
    const RadiusResult got =
        index.RadiusSearch(w.queries, radii.many, options);
    const RadiusResult expected = BruteForceRadius(
        combined, w.queries, radii.many, index.metric(), &reference);
    ExpectSameRadiusResult(got, expected, "mixed-segments");
  }

  // Unfiltered: tombstones alone must still be dropped.
  {
    IdSelectorBitmap live(n + m);
    for (uint32_t id = 0; id < n + m; ++id) {
      if (index.Contains(id)) live.Set(id);
    }
    Matrix combined(n + m, w.base.cols());
    std::memcpy(combined.Row(0), w.base.data(), w.base.size() * sizeof(float));
    std::memcpy(combined.Row(n), w.queries.data(),
                w.queries.size() * sizeof(float));
    RadiusOptions unfiltered;
    unfiltered.budget = kFullBudget;
    const RadiusResult got =
        index.RadiusSearch(w.queries, radii.many, unfiltered);
    const RadiusResult expected = BruteForceRadius(
        combined, w.queries, radii.many, index.metric(), &live);
    ExpectSameRadiusResult(got, expected, "tombstones-only");
  }
}

TEST(RadiusSearchTest, MutableShardedComposesDeletesAndFilter) {
  const Workload& w = RadiusWorkload();
  const Radii radii = FixtureRadii();
  const size_t n = w.base.rows();

  ShardedIndexConfig config;
  config.num_shards = 3;
  ShardedIndex index(w.base.cols(), config);
  const std::vector<uint32_t> ids = index.AddBatch(w.base);
  ASSERT_EQ(ids.size(), n);

  IdSelectorBitmap user_filter(n);
  IdSelectorBitmap reference(n);
  for (uint32_t id = 0; id < n; ++id) {
    if (id % 2 == 0) user_filter.Set(id);
    if (id % 5 == 0) {
      ASSERT_TRUE(index.Delete(id));
    }
  }
  for (uint32_t id = 0; id < n; ++id) {
    if (id % 2 == 0 && id % 5 != 0) reference.Set(id);
  }

  RadiusOptions options;
  options.budget = kFullBudget;
  options.filter = &user_filter;
  const RadiusResult got = index.RadiusSearch(w.queries, radii.many, options);
  const RadiusResult expected = BruteForceRadius(
      w.base, w.queries, radii.many, index.metric(), &reference);
  ExpectSameRadiusResult(got, expected, "sharded-deletes-filter");
}

}  // namespace
}  // namespace usp
