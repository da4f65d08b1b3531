// Pins the selectivity-aware query planner (index/query_planner.h):
//
//   - Every strategy — pushdown, allowed-scan, post-filter — on every one of
//     the seven index types is bit-identical (ids AND distances) to filtered
//     brute force at full budget, across a selectivity sweep. Strategies
//     differ only in cost, never in full-budget results.
//   - Regression: a low-selectivity filtered HNSW request under kAuto routes
//     to the allowed-set scan instead of the degraded O(n) graph traversal
//     (the BENCH_filtered cliff this planner exists to fix).
//   - IdSelector::count / CountUpTo probe semantics, including Not,
//     out-of-universe ids, bitmap word boundaries, and the bounded scan over
//     selectors that cannot count themselves.
//   - The routers (DynamicIndex, ShardedIndex) plan nothing: their ids are
//     not dense, so a filter reaches every part and each part plans over its
//     own rows.
//   - QueryPlanner's recall-target mode: the calibrated budget curve is
//     monotone in recall and Search(target=1.0) is exact.
//   - The algorithm='auto' factory (index/auto_index.h) decision table and
//     that its built indexes actually answer queries.
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/ensemble.h"
#include "core/partition_index.h"
#include "dataset/synthetic.h"
#include "dataset/workload.h"
#include "hnsw/hnsw.h"
#include "index/auto_index.h"
#include "index/query_planner.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "quant/scann_index.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "util/rng.h"

namespace usp {
namespace {

// Budget that makes every fixture index exhaustive (all bins / ef = n / all
// sealed-segment lists).
constexpr size_t kFullBudget = 1u << 20;

const Workload& PlannerWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;  // d = 32
    spec.num_base = 500;
    spec.num_queries = 25;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 177;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

// All seven index types built once over the shared workload, exhaustive at
// kFullBudget (ScaNN/IVF-PQ get rerank_budget = n so the ADC shortlist never
// truncates the allowed set) — the same construction the filtered-search
// acceptance suite pins pushdown against.
struct PlannerIndexes {
  const Workload& w = PlannerWorkload();
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
    config.seed = 21;
    return config;
  }
  static IvfConfig FlatConfig() {
    IvfConfig config;
    config.nlist = 16;
    config.seed = 22;
    return config;
  }
  static IvfConfig PqIvfConfig(size_t n) {
    IvfConfig config;
    config.nlist = 8;
    config.seed = 23;
    config.pq.num_subspaces = 8;
    config.pq.codebook_size = 16;
    config.pq.seed = 24;
    config.rerank_budget = n;
    return config;
  }
  static ProductQuantizer TrainPq(const Matrix& base) {
    PqConfig config;
    config.num_subspaces = 8;
    config.codebook_size = 16;
    config.seed = 25;
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
    config.seed = 26;
    return config;
  }
  static UspEnsembleConfig EnsembleConfig() {
    UspEnsembleConfig config;
    config.model.num_bins = 8;
    config.model.eta = 8.0f;
    config.model.epochs = 8;
    config.model.batch_size = 256;
    config.model.hidden_dim = 16;
    config.model.seed = 27;
    config.num_models = 2;
    return config;
  }

  PlannerIndexes()
      : kmeans(PlannerWorkload().base, KmConfig()),
        partition(&PlannerWorkload().base, &kmeans),
        ivf_flat(&PlannerWorkload().base, FlatConfig()),
        ivf_pq(&PlannerWorkload().base,
               PqIvfConfig(PlannerWorkload().base.rows())),
        scann(&PlannerWorkload().base, &kmeans, TrainPq(PlannerWorkload().base),
              ScConfig(PlannerWorkload().base.rows())),
        hnsw(GraphConfig()),
        ensemble(EnsembleConfig()),
        dynamic(PlannerWorkload().base.cols()) {
    hnsw.Build(w.base);
    ensemble.Train(w.base, w.knn_matrix);
    dynamic.AddBatch(w.base);  // global ids == base row ids
    dynamic.Seal();
  }

  std::vector<const Index*> All() const {
    return {&partition, &ivf_flat, &ivf_pq, &scann,
            &hnsw,      &ensemble, &dynamic};
  }
};

const PlannerIndexes& Indexes() {
  static const PlannerIndexes* all = new PlannerIndexes();
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

// A selector the planner cannot count in O(1): exercises the bounded
// CountUpTo scan and the post-filter window fallback.
class EveryThirdSelector final : public IdSelector {
 public:
  bool is_member(uint32_t id) const override { return id % 3 == 0; }
};

void ExpectBitIdentical(const BatchSearchResult& got, const KnnResult& want,
                        size_t nq, const char* label) {
  ASSERT_EQ(got.k, want.k) << label;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t j = 0; j < want.k; ++j) {
      EXPECT_EQ(got.Row(q)[j], want.Row(q)[j])
          << label << " query " << q << " slot " << j;
      EXPECT_EQ(got.DistanceRow(q)[j], want.distances[q * want.k + j])
          << label << " query " << q << " slot " << j;
    }
  }
}

// --- Selector counting (satellite: count() beyond IdSelectorBitmap) --------

TEST(SelectorCountTest, AllRangeArrayCountExactly) {
  EXPECT_EQ(IdSelectorAll().count(0), 0u);
  EXPECT_EQ(IdSelectorAll().count(7), 7u);

  const IdSelectorRange range(5, 15);
  EXPECT_EQ(range.count(20), 10u);
  EXPECT_EQ(range.count(10), 5u);   // clipped to the universe
  EXPECT_EQ(range.count(5), 0u);    // universe ends before the range
  EXPECT_EQ(range.count(3), 0u);

  const IdSelectorArray array({9, 1, 5, 100, 5});  // dedup + sort inside
  EXPECT_EQ(array.count(101), 4u);
  EXPECT_EQ(array.count(50), 3u);   // out-of-universe id 100 excluded
  EXPECT_EQ(array.count(10), 3u);
  EXPECT_EQ(array.count(1), 0u);
}

TEST(SelectorCountTest, BitmapCountsRespectUniverseAndWordBoundaries) {
  IdSelectorBitmap bitmap(100, {0, 63, 64, 99});
  EXPECT_EQ(bitmap.count(), 4u);       // historical no-arg popcount
  EXPECT_EQ(bitmap.count(64), 2u);     // exactly one full word
  EXPECT_EQ(bitmap.count(65), 3u);     // partial-word mask
  EXPECT_EQ(bitmap.count(100), 4u);
  EXPECT_EQ(bitmap.count(1000), 4u);   // clamped to the bitmap's universe
}

TEST(SelectorCountTest, NotComplementsKnownCountsAndPropagatesUnknown) {
  const IdSelectorRange range(0, 10);
  const IdSelectorNot not_range(&range);
  EXPECT_EQ(not_range.count(25), 15u);
  EXPECT_EQ(not_range.count(10), 0u);

  const EveryThirdSelector unknown;
  EXPECT_EQ(unknown.count(30), kUnknownCount);
  const IdSelectorNot not_unknown(&unknown);
  EXPECT_EQ(not_unknown.count(30), kUnknownCount);
}

TEST(SelectorCountTest, CountUpToBoundsTheScan) {
  const EveryThirdSelector unknown;
  EXPECT_EQ(CountUpTo(unknown, 30, 100), 10u);  // exhausts the universe
  EXPECT_EQ(CountUpTo(unknown, 30, 4), 4u);     // stops at the bound
  EXPECT_EQ(CountUpTo(unknown, 0, 4), 0u);

  // Counting selectors take the O(1) fast path and still honor the bound.
  const IdSelectorRange range(0, 50);
  EXPECT_EQ(CountUpTo(range, 100, 10), 10u);
  EXPECT_EQ(CountUpTo(range, 100, 1000), 50u);

  const IdSelectorNot not_unknown(&unknown);
  EXPECT_EQ(CountUpTo(not_unknown, 30, 100), 20u);  // bounded scan via Not
}

// --- Full-budget bit-identity for every strategy on every index ------------

TEST(QueryPlannerTest, EveryStrategyBitIdenticalToBruteForceAtFullBudget) {
  const PlannerIndexes& all = Indexes();
  const size_t n = all.w.base.rows();
  const size_t nq = all.w.queries.rows();
  const PlanMode modes[] = {PlanMode::kAuto, PlanMode::kForcePushdown,
                            PlanMode::kForceAllowedScan,
                            PlanMode::kForcePostFilter};

  for (const double selectivity : {0.02, 0.1, 0.5}) {
    const IdSelectorBitmap filter =
        RandomSubset(n, selectivity, /*seed=*/31 + size_t(selectivity * 100));
    const KnnResult truth =
        BruteForceKnn(all.w.base, all.w.queries, 10, Metric::kSquaredL2,
                      &filter);
    for (const Index* index : all.All()) {
      for (const PlanMode mode : modes) {
        SearchRequest request;
        request.queries = all.w.queries;
        request.options.k = 10;
        request.options.budget = kFullBudget;
        request.options.filter = &filter;
        request.options.plan = mode;
        const BatchSearchResult result = index->SearchBatch(request);
        ExpectBitIdentical(result, truth, nq,
                           IndexTypeName(index->type()));
      }
    }
  }
}

// A selector with no O(1) count still plans and stays exact (the bounded
// probe path, including the post-filter window fallback).
TEST(QueryPlannerTest, UncountableSelectorStaysExactUnderEveryMode) {
  const PlannerIndexes& all = Indexes();
  const size_t nq = all.w.queries.rows();
  const EveryThirdSelector filter;
  const KnnResult truth = BruteForceKnn(all.w.base, all.w.queries, 10,
                                        Metric::kSquaredL2, &filter);
  for (const PlanMode mode :
       {PlanMode::kAuto, PlanMode::kForceAllowedScan,
        PlanMode::kForcePostFilter}) {
    SearchRequest request;
    request.queries = all.w.queries;
    request.options.k = 10;
    request.options.budget = kFullBudget;
    request.options.filter = &filter;
    request.options.plan = mode;
    const BatchSearchResult result = all.partition.SearchBatch(request);
    ExpectBitIdentical(result, truth, nq, "partition/every-third");
  }
}

// --- The cliff regression ---------------------------------------------------

TEST(QueryPlannerTest, LowSelectivityHnswRoutesToAllowedScan) {
  const PlannerIndexes& all = Indexes();
  const size_t n = all.w.base.rows();
  const IdSelectorBitmap filter = RandomSubset(n, 0.1, /*seed=*/7);
  const size_t allowed = filter.count();
  ASSERT_LT(allowed, 64u);  // the regression needs allowed < ef

  SearchRequest request;
  request.queries = all.w.queries;
  request.options.k = 10;
  request.options.budget = 64;  // ef > allowed: the degraded-traversal regime
  request.options.filter = &filter;
  request.options.stats = true;

  // The plan itself: pushdown is modeled at the O(n) cliff, the allowed scan
  // at the allowed count, and the scan must win.
  const PlanDecision decision = PlanFilteredSearch(all.hnsw, request.options);
  EXPECT_EQ(decision.strategy, PlanStrategy::kAllowedScan);
  EXPECT_TRUE(decision.allowed_exact);
  EXPECT_EQ(decision.allowed_count, allowed);
  EXPECT_EQ(decision.cost_pushdown, static_cast<double>(n));
  EXPECT_EQ(decision.cost_allowed_scan, static_cast<double>(allowed));

  // And the executed search really does skip the graph: no nodes visited,
  // per-query scored work equals the allowed count, result exact.
  const BatchSearchResult result = all.hnsw.SearchBatch(request);
  const KnnResult truth = BruteForceKnn(all.w.base, all.w.queries, 10,
                                        Metric::kSquaredL2, &filter);
  ExpectBitIdentical(result, truth, all.w.queries.rows(), "hnsw/auto");
  ASSERT_TRUE(result.stats.has_value());
  for (size_t q = 0; q < all.w.queries.rows(); ++q) {
    EXPECT_EQ(result.stats->nodes_visited[q], 0u);
    EXPECT_EQ(result.stats->candidates_scored[q], allowed);
    EXPECT_EQ(result.candidate_counts[q], allowed);
    EXPECT_EQ(result.stats->filtered_out[q], n - allowed);
  }
}

TEST(QueryPlannerTest, ModerateSelectivityKeepsPushdownOnPartition) {
  const PlannerIndexes& all = Indexes();
  const IdSelectorBitmap filter =
      RandomSubset(all.w.base.rows(), 0.5, /*seed=*/8);
  SearchOptions options;
  options.k = 10;
  options.budget = 4;  // 4 of 16 bins: E ~ n/4, far below the allowed count
  options.filter = &filter;
  const PlanDecision decision = PlanFilteredSearch(all.partition, options);
  EXPECT_EQ(decision.strategy, PlanStrategy::kPushdown);
  EXPECT_LT(decision.cost_pushdown, decision.cost_allowed_scan);
}

TEST(QueryPlannerTest, ForcedAllowedScanFallsBackToPushdownWithoutBaseView) {
  const PlannerIndexes& all = Indexes();
  ASSERT_EQ(all.dynamic.base_view().data(), nullptr);
  const IdSelectorBitmap filter =
      RandomSubset(all.w.base.rows(), 0.1, /*seed=*/9);
  SearchOptions options;
  options.k = 10;
  options.budget = 4;
  options.filter = &filter;
  options.plan = PlanMode::kForceAllowedScan;
  const PlanDecision decision = PlanFilteredSearch(all.dynamic, options);
  EXPECT_EQ(decision.strategy, PlanStrategy::kPushdown);
  EXPECT_TRUE(std::isinf(decision.cost_allowed_scan));
}

// A router's ids are not dense. With ids 0-999 of 2,000 deleted and
// compacted away, a filter admitting only those ids admits nothing, though
// counted over [0, size()) it looks like selectivity 1.0. Each part plans over
// its own rows instead, where the filter admits none: no row is scored.
TEST(QueryPlannerTest, RoutersLeavePlanningToTheirParts) {
  const Matrix base = MakeSiftLike(2000, /*seed=*/41);
  const Matrix queries = MakeSiftLike(64, /*seed=*/42);
  DynamicIndex dynamic(base.cols());
  ShardedIndexConfig config;
  config.num_shards = 3;
  ShardedIndex sharded(base.cols(), config);
  dynamic.AddBatch(base);
  sharded.AddBatch(base);
  for (uint32_t id = 0; id < 1000; ++id) {
    ASSERT_TRUE(dynamic.Delete(id));
    ASSERT_TRUE(sharded.Delete(id));
  }
  dynamic.Seal();
  dynamic.Compact();
  ASSERT_TRUE(sharded
                  .WithFrozenState([](const ShardedIndex::FrozenState& state) {
                    for (const ShardedIndex::Shard& shard : state.shards) {
                      shard.dynamic->Seal();
                      shard.dynamic->Compact();
                    }
                    return Status::Ok();
                  })
                  .ok());
  ASSERT_EQ(dynamic.num_tombstones(), 0u);

  const IdSelectorRange reclaimed(0, 1000);
  SearchRequest request;
  request.queries = queries;
  request.options.k = 10;
  request.options.budget = 2;
  request.options.filter = &reclaimed;
  request.options.plan = PlanMode::kAuto;
  for (const Index* router : {static_cast<const Index*>(&dynamic),
                              static_cast<const Index*>(&sharded)}) {
    SCOPED_TRACE(IndexTypeName(router->type()));
    ASSERT_EQ(router->size(), 1000u);
    EXPECT_EQ(PlanFilteredSearch(*router, request.options).strategy,
              PlanStrategy::kPushdown);
    const BatchSearchResult result = router->SearchBatch(request);
    for (const uint32_t id : result.ids) EXPECT_EQ(id, kInvalidId);
    for (const uint32_t scored : result.candidate_counts) {
      EXPECT_EQ(scored, 0u);
    }
  }
}

// --- Recall-target mode -----------------------------------------------------

TEST(QueryPlannerTest, CalibrationCurveReachesExactRecall) {
  const PlannerIndexes& all = Indexes();
  QueryPlanner planner(&all.partition);
  ASSERT_TRUE(planner.Calibrate(all.w.queries, 10).ok());
  ASSERT_FALSE(planner.curve().empty());

  // Budgets ascend, candidates grow with budget, and the curve ends exact
  // (the doubling schedule stops only at recall 1.0 or an exhaustive
  // budget, which for this index is all 16 bins == brute force).
  for (size_t i = 1; i < planner.curve().size(); ++i) {
    EXPECT_GT(planner.curve()[i].budget, planner.curve()[i - 1].budget);
    EXPECT_GE(planner.curve()[i].mean_candidates,
              planner.curve()[i - 1].mean_candidates);
  }
  EXPECT_DOUBLE_EQ(planner.curve().back().recall, 1.0);

  // BudgetForRecall is the smallest calibrated budget meeting the target.
  EXPECT_EQ(planner.BudgetForRecall(0.0), planner.curve().front().budget);
  const size_t exact_budget = planner.BudgetForRecall(1.0);
  EXPECT_LE(exact_budget, planner.curve().back().budget);

  // Serving at target 1.0 returns exact results. Ground truth goes through
  // the all-pass selector so it uses the same per-row kernel as the index's
  // rerank stage (the unfiltered overload's norm trick rounds differently).
  const IdSelectorAll all_pass;
  const KnnResult truth = BruteForceKnn(all.w.base, all.w.queries, 10,
                                        Metric::kSquaredL2, &all_pass);
  SearchRequest request;
  request.queries = all.w.queries;
  request.options.k = 10;
  const BatchSearchResult result = planner.Search(request, 1.0);
  ExpectBitIdentical(result, truth, all.w.queries.rows(), "recall-target");
}

TEST(QueryPlannerTest, CalibrateRejectsBadInputs) {
  const PlannerIndexes& all = Indexes();
  QueryPlanner planner(&all.partition);
  EXPECT_FALSE(planner.Calibrate(MatrixView(), 10).ok());
  EXPECT_FALSE(planner.Calibrate(all.w.queries, 0).ok());

  // DynamicIndex has no base_view to take ground truth from.
  QueryPlanner no_base(&all.dynamic);
  const Status status = no_base.Calibrate(all.w.queries, 10);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// --- algorithm='auto' factory ----------------------------------------------

TEST(AutoIndexTest, DecisionTableMatchesDocumentedRules) {
  // Small base: exact scan as a single-list IVF-Flat.
  AutoIndexChoice c = ChooseIndexType(1000, 128, Metric::kSquaredL2);
  EXPECT_EQ(c.type, IndexType::kIvfFlat);
  EXPECT_EQ(c.ivf.nlist, 1u);

  // Mid-size non-L2: IVF-Flat (HNSW is L2-only).
  c = ChooseIndexType(50000, 128, Metric::kCosine);
  EXPECT_EQ(c.type, IndexType::kIvfFlat);
  EXPECT_EQ(c.ivf.metric, Metric::kCosine);
  EXPECT_GT(c.ivf.nlist, 1u);

  // Large non-L2: IVF-PQ is metric-complete, so compression wins at scale.
  c = ChooseIndexType(500000, 96, Metric::kInnerProduct);
  EXPECT_EQ(c.type, IndexType::kIvfPq);
  EXPECT_EQ(c.ivf.metric, Metric::kInnerProduct);
  c = ChooseIndexType(500000, 96, Metric::kCosine);
  EXPECT_EQ(c.type, IndexType::kIvfPq);

  // Low-dim L2: list scans beat graphs.
  c = ChooseIndexType(50000, 8, Metric::kSquaredL2);
  EXPECT_EQ(c.type, IndexType::kIvfFlat);

  // Mid-size high-dim L2: the graph.
  c = ChooseIndexType(50000, 128, Metric::kSquaredL2);
  EXPECT_EQ(c.type, IndexType::kHnsw);

  // Large high-dim L2: compressed residency, subspaces tiling the dim.
  c = ChooseIndexType(500000, 96, Metric::kSquaredL2);
  EXPECT_EQ(c.type, IndexType::kIvfPq);
  EXPECT_EQ(96u % c.ivf.pq.num_subspaces, 0u);
  EXPECT_GT(c.ivf.pq.num_subspaces, 1u);
}

TEST(AutoIndexTest, BuiltIndexAnswersExactlyOnSmallBase) {
  const Workload& w = PlannerWorkload();
  const std::unique_ptr<Index> index = BuildAutoIndex(w.base);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->dim(), w.base.cols());
  EXPECT_EQ(index->size(), w.base.rows());
  EXPECT_EQ(index->type(), IndexType::kIvfFlat);  // n = 500 -> exact scan

  // nlist = 1 means budget 1 is already exhaustive. All-pass selector keeps
  // the ground truth on the same per-row kernel as the rerank stage.
  const IdSelectorAll all_pass;
  const KnnResult truth =
      BruteForceKnn(w.base, w.queries, 10, Metric::kSquaredL2, &all_pass);
  const BatchSearchResult result = index->SearchBatch(w.queries, 10, 1);
  ExpectBitIdentical(result, truth, w.queries.rows(), "auto/ivf_flat");
}

}  // namespace
}  // namespace usp
