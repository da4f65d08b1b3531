// Pins the SearchRequest/IdSelector contract of the structured query API:
//
//   - For every index type, filtered search at full budget is bit-identical
//     (ids AND distances) to BruteForceKnn restricted to the selector's
//     allowed set, across a {1%, 10%, 50%, 90%} selectivity sweep.
//   - A selector admitting nothing yields fully padded rows (kInvalidId).
//   - candidate_counts counts candidates *scored* (post-filter): filtered
//     count + filtered_out == unfiltered count, keeping MeanCandidates()
//     (Eq. 4's S(R)) meaningful under filters.
//   - The positional SearchBatch shim is bit-identical to an unfiltered
//     SearchRequest.
//   - DynamicIndex composes the filter with tombstones across the
//     write-segment -> sealed-segment lifecycle.
//   - IdSelector implementations (Range/Array/Bitmap/Not) behave as
//     documented.
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/ensemble.h"
#include "core/partition_index.h"
#include "dataset/workload.h"
#include "hnsw/hnsw.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "quant/scann_index.h"
#include "serve/dynamic_index.h"
#include "util/rng.h"

namespace usp {
namespace {

// Budget that makes every index exhaustive: all bins probed (<= 16 bins /
// nlist in every fixture index), ef = n for HNSW, all lists in every sealed
// segment for DynamicIndex.
constexpr size_t kFullBudget = 1u << 20;

const Workload& FilterWorkload() {
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

// All seven index types built once over the shared workload. Every index is
// exhaustive at kFullBudget; ScaNN/IVF-PQ get rerank_budget = n so the ADC
// shortlist never truncates the allowed set.
struct AllIndexes {
  const Workload& w = FilterWorkload();
  KMeansPartitioner kmeans;
  PartitionIndex partition;
  IvfFlatIndex ivf_flat;
  IvfPqIndex ivf_pq;
  ScannIndex scann;
  HnswIndex hnsw;
  UspEnsemble ensemble;
  DynamicIndex dynamic;

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
    config.rerank_budget = n;  // exact at full budget
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

  AllIndexes()
      : kmeans(FilterWorkload().base, KmConfig()),
        partition(&FilterWorkload().base, &kmeans),
        ivf_flat(&FilterWorkload().base, FlatConfig()),
        ivf_pq(&FilterWorkload().base, PqIvfConfig(FilterWorkload().base.rows())),
        scann(&FilterWorkload().base, &kmeans, TrainPq(FilterWorkload().base),
              ScConfig(FilterWorkload().base.rows())),
        hnsw(GraphConfig()),
        ensemble(EnsembleConfig()),
        dynamic(FilterWorkload().base.cols()) {
    hnsw.Build(w.base);
    ensemble.Train(w.base, w.knn_matrix);
    // Global ids 0..n-1 == base row ids: add everything, then seal once so
    // queries exercise the sealed-segment (IVF) pushdown path.
    dynamic.AddBatch(w.base);
    dynamic.Seal();
  }

  std::vector<const Index*> All() const {
    return {&partition, &ivf_flat, &ivf_pq, &scann,
            &hnsw,      &ensemble, &dynamic};
  }
};

const AllIndexes& Indexes() {
  static const AllIndexes* all = new AllIndexes();
  return *all;
}

// Deterministic ~`selectivity` random subset of [0, n); never empty.
IdSelectorBitmap RandomSubset(size_t n, double selectivity, uint64_t seed) {
  Rng rng(seed);
  IdSelectorBitmap bitmap(n);
  for (uint32_t id = 0; id < n; ++id) {
    if (rng.Uniform() < selectivity) bitmap.Set(id);
  }
  if (bitmap.count() == 0) bitmap.Set(0);
  return bitmap;
}

// The acceptance bar of the filtered-search contract: at full budget, ids and
// distances are bit-identical to brute force over the allowed subset (the
// filtered BruteForceKnn overload, which shares the per-row kernel with the
// indexes' rerank paths).
void ExpectMatchesFilteredBruteForce(const Index& index, const Workload& w,
                                     size_t k, const IdSelector& filter,
                                     const char* label) {
  SearchRequest request;
  request.queries = w.queries;
  request.options.k = k;
  request.options.budget = kFullBudget;
  request.options.filter = &filter;
  const BatchSearchResult got = index.SearchBatch(request);

  const KnnResult expected =
      BruteForceKnn(w.base, w.queries, k, index.metric(), &filter);
  EXPECT_EQ(got.ids, expected.indices) << label;
  EXPECT_EQ(got.distances, expected.distances) << label;
}

TEST(FilteredSearchTest, FullBudgetEqualsBruteForceAcrossSelectivities) {
  const AllIndexes& all = Indexes();
  const size_t n = all.w.base.rows();
  const char* names[] = {"partition", "ivf_flat", "ivf_pq", "scann",
                         "hnsw",      "ensemble", "dynamic"};
  for (const double selectivity : {0.01, 0.1, 0.5, 0.9}) {
    const IdSelectorBitmap filter =
        RandomSubset(n, selectivity, /*seed=*/1000 + size_t(selectivity * 100));
    size_t i = 0;
    for (const Index* index : all.All()) {
      SCOPED_TRACE(testing::Message()
                   << names[i] << " selectivity=" << selectivity);
      ExpectMatchesFilteredBruteForce(*index, all.w, 10, filter, names[i]);
      ++i;
    }
  }
}

TEST(FilteredSearchTest, RangeAndNotSelectorsPushDown) {
  const AllIndexes& all = Indexes();
  const size_t n = all.w.base.rows();
  const IdSelectorRange first_third(0, static_cast<uint32_t>(n / 3));
  const IdSelectorNot rest(&first_third);
  for (const Index* index : all.All()) {
    ExpectMatchesFilteredBruteForce(*index, all.w, 10, first_third, "range");
    ExpectMatchesFilteredBruteForce(*index, all.w, 10, rest, "not-range");
  }
}

TEST(FilteredSearchTest, EmptyFilterReturnsAllPaddedRows) {
  const AllIndexes& all = Indexes();
  const IdSelectorRange nothing(0, 0);
  for (const Index* index : all.All()) {
    SearchRequest request;
    request.queries = all.w.queries;
    request.options.k = 5;
    request.options.budget = kFullBudget;
    request.options.filter = &nothing;
    const BatchSearchResult result = index->SearchBatch(request);
    ASSERT_EQ(result.ids.size(), all.w.queries.rows() * 5);
    for (size_t i = 0; i < result.ids.size(); ++i) {
      EXPECT_EQ(result.ids[i], kInvalidId);
      EXPECT_EQ(result.distances[i], std::numeric_limits<float>::infinity());
    }
  }
}

TEST(FilteredSearchTest, PositionalShimBitIdenticalToRequest) {
  const AllIndexes& all = Indexes();
  for (const Index* index : all.All()) {
    const BatchSearchResult positional =
        index->SearchBatch(all.w.queries, 10, 4, /*num_threads=*/1);
    SearchRequest request;
    request.queries = all.w.queries;
    request.options.k = 10;
    request.options.budget = 4;
    request.options.num_threads = 1;
    const BatchSearchResult structured = index->SearchBatch(request);
    EXPECT_EQ(positional.ids, structured.ids);
    EXPECT_EQ(positional.distances, structured.distances);
    EXPECT_EQ(positional.candidate_counts, structured.candidate_counts);
    EXPECT_FALSE(positional.stats.has_value());
  }
}

// Satellite regression: candidate_counts counts candidates *scored*
// (post-filter) — dropped candidates move to filtered_out, and the two sum
// back to the unfiltered count. Checked on the partition family (PartitionIndex
// probes + rerank, IVF delegation, ScaNN ADC pipeline), where the candidate
// set is an explicit list.
TEST(FilteredSearchTest, CandidateCountsArePostFilter) {
  const AllIndexes& all = Indexes();
  const size_t n = all.w.base.rows();
  const IdSelectorBitmap filter = RandomSubset(n, 0.5, /*seed=*/42);

  for (const Index* index :
       {static_cast<const Index*>(&all.partition),
        static_cast<const Index*>(&all.ivf_flat),
        static_cast<const Index*>(&all.scann)}) {
    SearchRequest request;
    request.queries = all.w.queries;
    request.options.k = 10;
    request.options.budget = 4;
    request.options.stats = true;
    // This test pins the *pushdown* path's counting semantics; keep the
    // planner from rerouting to another (equally correct) strategy.
    request.options.plan = PlanMode::kForcePushdown;
    const BatchSearchResult unfiltered = index->SearchBatch(request);
    request.options.filter = &filter;
    const BatchSearchResult filtered = index->SearchBatch(request);

    ASSERT_TRUE(unfiltered.stats.has_value());
    ASSERT_TRUE(filtered.stats.has_value());
    for (size_t q = 0; q < all.w.queries.rows(); ++q) {
      // Scored is what candidate_counts reports...
      EXPECT_EQ(filtered.candidate_counts[q],
                filtered.stats->candidates_scored[q]);
      // ...and scored + filtered_out recovers the unfiltered candidate set.
      EXPECT_EQ(filtered.candidate_counts[q] + filtered.stats->filtered_out[q],
                unfiltered.candidate_counts[q]);
      EXPECT_EQ(filtered.stats->bins_probed[q],
                unfiltered.stats->bins_probed[q]);
    }
    EXPECT_LE(filtered.MeanCandidates(), unfiltered.MeanCandidates());
  }
}

TEST(FilteredSearchTest, HnswStatsCountVisitsAndFilterDrops) {
  const AllIndexes& all = Indexes();
  const size_t n = all.w.base.rows();
  const IdSelectorBitmap filter = RandomSubset(n, 0.1, /*seed=*/7);
  SearchRequest request;
  request.queries = all.w.queries;
  request.options.k = 10;
  request.options.budget = 64;
  request.options.stats = true;
  request.options.filter = &filter;
  // This test pins the traversal stats of the pushdown path; under kAuto the
  // planner would (correctly) reroute this low-selectivity request to an
  // allowed-set scan, which visits no graph nodes at all.
  request.options.plan = PlanMode::kForcePushdown;
  const BatchSearchResult result = all.hnsw.SearchBatch(request);
  ASSERT_TRUE(result.stats.has_value());
  for (size_t q = 0; q < all.w.queries.rows(); ++q) {
    // HNSW scores every node it visits, filter or not.
    EXPECT_EQ(result.stats->candidates_scored[q], result.candidate_counts[q]);
    EXPECT_GT(result.stats->nodes_visited[q], 0u);
    EXPECT_LE(result.stats->nodes_visited[q], n);
    EXPECT_LE(result.stats->filtered_out[q], result.stats->nodes_visited[q]);
  }
}

TEST(FilteredSearchTest, DynamicFilterComposesWithTombstonesAcrossSeal) {
  const Workload& w = FilterWorkload();
  const size_t n = w.base.rows();
  const size_t k = 10;

  DynamicIndex index(w.base.cols());
  index.AddBatch(w.base);

  // Tombstone every 7th id; the user filter admits every 3rd id. The
  // reference selector is their composition over live rows.
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

  SearchRequest request;
  request.queries = w.queries;
  request.options.k = k;
  request.options.budget = kFullBudget;
  request.options.filter = &user_filter;

  // Phase 1: everything in the write segment (filtered brute-force path).
  {
    const BatchSearchResult got = index.SearchBatch(request);
    const KnnResult expected =
        BruteForceKnn(w.base, w.queries, k, index.metric(), &reference);
    EXPECT_EQ(got.ids, expected.indices);
    EXPECT_EQ(got.distances, expected.distances);
  }

  // Phase 2: sealed into an IVF segment (local-id selector translation).
  index.Seal();
  {
    const BatchSearchResult got = index.SearchBatch(request);
    const KnnResult expected =
        BruteForceKnn(w.base, w.queries, k, index.metric(), &reference);
    EXPECT_EQ(got.ids, expected.indices);
    EXPECT_EQ(got.distances, expected.distances);
  }

  // Phase 3: fresh rows land in the write segment (global ids n..n+m), some
  // deleted, some admitted — the filter spans sealed + write segments.
  const size_t m = w.queries.rows();
  index.AddBatch(w.queries);  // reuse query vectors as extra base rows
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
    std::memcpy(combined.Row(0), w.base.data(),
                w.base.size() * sizeof(float));
    std::memcpy(combined.Row(n), w.queries.data(),
                w.queries.size() * sizeof(float));
    const BatchSearchResult got = index.SearchBatch(request);
    const KnnResult expected =
        BruteForceKnn(combined, w.queries, k, index.metric(), &reference);
    EXPECT_EQ(got.ids, expected.indices);
    EXPECT_EQ(got.distances, expected.distances);
  }
}

// A request for k = 0 neighbors returns zero-width rows under every plan and
// budget. At 1% selectivity the planner picks the allowed-set scan itself at
// full budget; that scan must not run filtered BruteForceKnn, which requires
// k > 0. At budget 0 HNSW's beam still holds one node.
TEST(FilteredSearchTest, ZeroKReturnsZeroWidthRowsUnderEveryPlan) {
  const AllIndexes& all = Indexes();
  const size_t nq = all.w.queries.rows();
  const IdSelectorBitmap filter =
      RandomSubset(all.w.base.rows(), 0.01, /*seed=*/1001);
  for (const Index* index : all.All()) {
    for (const PlanMode plan :
         {PlanMode::kAuto, PlanMode::kForcePushdown,
          PlanMode::kForceAllowedScan, PlanMode::kForcePostFilter}) {
      for (const size_t budget : {size_t{0}, size_t{2}, kFullBudget}) {
        SCOPED_TRACE(testing::Message()
                     << IndexTypeName(index->type()) << " plan="
                     << static_cast<int>(plan) << " budget=" << budget);
        SearchRequest request;
        request.queries = all.w.queries;
        request.options.k = 0;
        request.options.budget = budget;
        request.options.filter = &filter;
        request.options.plan = plan;
        request.options.stats = true;
        const BatchSearchResult result = index->SearchBatch(request);
        EXPECT_EQ(result.k, 0u);
        EXPECT_TRUE(result.ids.empty());
        EXPECT_TRUE(result.distances.empty());
        EXPECT_EQ(result.candidate_counts.size(), nq);
        ASSERT_TRUE(result.stats.has_value());
        EXPECT_EQ(result.stats->candidates_scored, result.candidate_counts);
      }
    }
  }
}

TEST(FilteredSearchTest, FilteredBruteForceMatchesManualSubsetScan) {
  const Workload& w = FilterWorkload();
  const size_t n = w.base.rows();
  const size_t k = 10;
  const IdSelectorBitmap filter = RandomSubset(n, 0.25, /*seed=*/9);

  // Gather the allowed rows into a compact matrix and map local ids back.
  std::vector<uint32_t> allowed;
  for (uint32_t id = 0; id < n; ++id) {
    if (filter.is_member(id)) allowed.push_back(id);
  }
  Matrix subset(allowed.size(), w.base.cols());
  for (size_t i = 0; i < allowed.size(); ++i) {
    std::memcpy(subset.Row(i), w.base.Row(allowed[i]),
                w.base.cols() * sizeof(float));
  }

  const KnnResult filtered =
      BruteForceKnn(w.base, w.queries, k, Metric::kSquaredL2, &filter);
  // The subset scan must use the same kernel path, so pass an all-pass
  // selector rather than the (norm-trick) unfiltered overload.
  const IdSelectorAll all_pass;
  const KnnResult compact =
      BruteForceKnn(subset, w.queries, k, Metric::kSquaredL2, &all_pass);
  ASSERT_EQ(filtered.k, compact.k);
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    for (size_t j = 0; j < k; ++j) {
      const uint32_t local = compact.Row(q)[j];
      const uint32_t expected_id =
          local == kInvalidId ? kInvalidId : allowed[local];
      EXPECT_EQ(filtered.Row(q)[j], expected_id);
      EXPECT_EQ(filtered.distances[q * k + j], compact.distances[q * k + j]);
    }
  }
}

TEST(IdSelectorTest, RangeArrayBitmapNotSemantics) {
  const IdSelectorRange range(3, 6);
  EXPECT_FALSE(range.is_member(2));
  EXPECT_TRUE(range.is_member(3));
  EXPECT_TRUE(range.is_member(5));
  EXPECT_FALSE(range.is_member(6));

  // Array sorts and dedupes its input.
  const IdSelectorArray array({9, 1, 4, 4, 1});
  EXPECT_EQ(array.ids(), (std::vector<uint32_t>{1, 4, 9}));
  EXPECT_TRUE(array.is_member(4));
  EXPECT_FALSE(array.is_member(5));

  IdSelectorBitmap bitmap(100);
  EXPECT_EQ(bitmap.count(), 0u);
  bitmap.Set(0);
  bitmap.Set(63);
  bitmap.Set(64);
  bitmap.Set(99);
  bitmap.Set(100);  // out of universe: ignored
  EXPECT_EQ(bitmap.count(), 4u);
  EXPECT_TRUE(bitmap.is_member(63));
  EXPECT_TRUE(bitmap.is_member(64));
  EXPECT_FALSE(bitmap.is_member(100));
  bitmap.Reset(63);
  EXPECT_FALSE(bitmap.is_member(63));
  EXPECT_EQ(bitmap.count(), 3u);

  const IdSelectorBitmap from_ids(10, {2, 7, 12});
  EXPECT_TRUE(from_ids.is_member(2));
  EXPECT_TRUE(from_ids.is_member(7));
  EXPECT_FALSE(from_ids.is_member(12));  // out of universe at construction

  const IdSelectorNot inverted(&range);
  EXPECT_TRUE(inverted.is_member(2));
  EXPECT_FALSE(inverted.is_member(4));

  const IdSelectorAll all;
  EXPECT_TRUE(all.is_member(0));
  EXPECT_TRUE(all.is_member(0xFFFFFFFEu));
}

}  // namespace
}  // namespace usp
