// Tests for quant/: PQ codebook training, encode/decode consistency, ADC
// distance quality, the anisotropic objective's effect, and the ScaNN-style
// index end-to-end (vanilla scan vs. partitioned, and a partial ADC
// shortlist pinned against a heap-built reference).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/partitioner.h"
#include "dataset/workload.h"
#include "dist/distance_computer.h"
#include "knn/brute_force.h"
#include "knn/top_k.h"
#include "quant/pq.h"
#include "quant/scann_index.h"
#include "tensor/ops.h"

namespace usp {
namespace {

const Workload& QuantWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 1500;
    spec.num_queries = 60;
    spec.gt_k = 10;
    spec.knn_k = 10;
    spec.seed = 31;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

TEST(PqTest, SubspacesCoverAllDims) {
  PqConfig config;
  config.num_subspaces = 5;  // 32 dims -> 7,7,6,6,6
  ProductQuantizer pq(config);
  const Workload& w = QuantWorkload();
  pq.Train(w.base);
  EXPECT_EQ(pq.dims(), w.base.cols());
  // Decode must write every dimension: encode+decode a point and check no
  // dimension stays at the sentinel.
  const auto codes = pq.Encode(w.base.GatherRows({0}));
  std::vector<float> reconstructed(w.base.cols(), -12345.0f);
  pq.Decode(codes.data(), reconstructed.data());
  for (float v : reconstructed) EXPECT_NE(v, -12345.0f);
}

TEST(PqTest, ReconstructionBeatsGlobalMeanBaseline) {
  const Workload& w = QuantWorkload();
  PqConfig config;
  config.num_subspaces = 8;
  config.codebook_size = 16;
  ProductQuantizer pq(config);
  pq.Train(w.base);
  const double pq_error = pq.ReconstructionError(w.base);

  // Baseline: quantize everything to the dataset mean.
  std::vector<float> mean(w.base.cols(), 0.0f);
  for (size_t i = 0; i < w.base.rows(); ++i) {
    for (size_t j = 0; j < w.base.cols(); ++j) mean[j] += w.base(i, j);
  }
  for (auto& v : mean) v /= static_cast<float>(w.base.rows());
  double mean_error = 0.0;
  for (size_t i = 0; i < w.base.rows(); ++i) {
    mean_error += SquaredDistance(w.base.Row(i), mean.data(), w.base.cols());
  }
  mean_error /= static_cast<double>(w.base.rows());

  EXPECT_LT(pq_error, 0.35 * mean_error);
}

TEST(PqTest, MoreCodewordsReduceError) {
  const Workload& w = QuantWorkload();
  double prev = 1e300;
  for (size_t k : {4, 16, 64}) {
    PqConfig config;
    config.num_subspaces = 8;
    config.codebook_size = k;
    ProductQuantizer pq(config);
    pq.Train(w.base);
    const double err = pq.ReconstructionError(w.base);
    EXPECT_LT(err, prev);
    prev = err;
  }
}

TEST(PqTest, AdcMatchesDecodedDistance) {
  const Workload& w = QuantWorkload();
  PqConfig config;
  config.num_subspaces = 8;
  ProductQuantizer pq(config);
  pq.Train(w.base);
  const auto codes = pq.Encode(w.base);
  std::vector<float> reconstructed(w.base.cols());
  for (size_t q = 0; q < 5; ++q) {
    const float* query = w.queries.Row(q);
    const auto table = pq.BuildAdcTable(query);
    for (size_t i = 0; i < 10; ++i) {
      const float adc =
          pq.AdcDistance(table, codes.data() + i * pq.num_subspaces());
      pq.Decode(codes.data() + i * pq.num_subspaces(), reconstructed.data());
      const float exact =
          SquaredDistance(query, reconstructed.data(), w.base.cols());
      EXPECT_NEAR(adc, exact, 1e-1f + 1e-3f * exact);
    }
  }
}

TEST(PqTest, AdcPreservesNeighborOrderingApproximately) {
  const Workload& w = QuantWorkload();
  PqConfig config;
  config.num_subspaces = 8;
  config.codebook_size = 32;
  ProductQuantizer pq(config);
  pq.Train(w.base);
  const auto codes = pq.Encode(w.base);
  // For each query, the ADC-top-50 should contain most of the exact top-10.
  size_t hits = 0;
  for (size_t q = 0; q < 20; ++q) {
    const auto table = pq.BuildAdcTable(w.queries.Row(q));
    std::vector<std::pair<float, uint32_t>> scored(w.base.rows());
    for (size_t i = 0; i < w.base.rows(); ++i) {
      scored[i] = {pq.AdcDistance(table, codes.data() + i * 8),
                   static_cast<uint32_t>(i)};
    }
    std::partial_sort(scored.begin(), scored.begin() + 50, scored.end());
    std::set<uint32_t> shortlist;
    for (size_t i = 0; i < 50; ++i) shortlist.insert(scored[i].second);
    for (size_t j = 0; j < 10; ++j) {
      if (shortlist.count(w.ground_truth.indices[q * 10 + j])) ++hits;
    }
  }
  EXPECT_GT(hits, 20 * 10 * 6 / 10);  // >60% of true neighbors in shortlist
}

TEST(PqTest, AnisotropicTrainingStillQuantizesWell) {
  const Workload& w = QuantWorkload();
  PqConfig vanilla;
  vanilla.num_subspaces = 8;
  PqConfig aniso = vanilla;
  aniso.anisotropic_eta = 4.0f;
  ProductQuantizer pq_vanilla(vanilla), pq_aniso(aniso);
  pq_vanilla.Train(w.base);
  pq_aniso.Train(w.base);
  // Anisotropic trades some reconstruction error for score preservation;
  // error must stay the same order of magnitude.
  EXPECT_LT(pq_aniso.ReconstructionError(w.base),
            3.0 * pq_vanilla.ReconstructionError(w.base));
}

TEST(ScannIndexTest, ExhaustiveModeIsAccurate) {
  const Workload& w = QuantWorkload();
  PqConfig pq_config;
  pq_config.num_subspaces = 8;
  pq_config.codebook_size = 32;
  ProductQuantizer pq(pq_config);
  pq.Train(w.base);
  ScannIndexConfig config;
  config.rerank_budget = 100;
  ScannIndex index(&w.base, nullptr, std::move(pq), config);
  const auto result = index.SearchBatch(w.queries, 10, 0);
  EXPECT_GT(KnnAccuracy(result, w.ground_truth.indices, w.ground_truth.k),
            0.85);
  // Exhaustive mode scans everything.
  EXPECT_DOUBLE_EQ(result.MeanCandidates(),
                   static_cast<double>(w.base.rows()));
}

TEST(ScannIndexTest, PartitionedModeShrinksCandidates) {
  const Workload& w = QuantWorkload();
  KMeansConfig kc;
  kc.num_clusters = 16;
  kc.seed = 5;
  KMeansPartitioner partitioner(w.base, kc);

  PqConfig pq_config;
  pq_config.num_subspaces = 8;
  pq_config.codebook_size = 32;
  ProductQuantizer pq(pq_config);
  pq.Train(w.base);
  ScannIndexConfig config;
  config.rerank_budget = 80;
  ScannIndex index(&w.base, &partitioner, std::move(pq), config);

  const auto result = index.SearchBatch(w.queries, 10, 4);
  EXPECT_LT(result.MeanCandidates(), 0.6 * w.base.rows());
  EXPECT_GT(KnnAccuracy(result, w.ground_truth.indices, w.ground_truth.k),
            0.6);
}

TEST(ScannIndexTest, BiggerRerankBudgetHelps) {
  const Workload& w = QuantWorkload();
  PqConfig pq_config;
  pq_config.num_subspaces = 4;  // coarse codes so rerank matters
  pq_config.codebook_size = 8;
  double prev_accuracy = -1.0;
  for (size_t budget : {10, 200}) {
    ProductQuantizer pq(pq_config);
    pq.Train(w.base);
    ScannIndexConfig config;
    config.rerank_budget = budget;
    ScannIndex index(&w.base, nullptr, std::move(pq), config);
    const auto result = index.SearchBatch(w.queries, 10, 0);
    const double accuracy =
        KnnAccuracy(result, w.ground_truth.indices, w.ground_truth.k);
    EXPECT_GT(accuracy, prev_accuracy);
    prev_accuracy = accuracy;
  }
}

// The float ADC path (the one filtered requests take) with a rerank budget
// below the probed candidate count, so the shortlist is partial: every row
// must equal, bit for bit, a reference that shortlists the same candidates
// through a TopK heap and reranks them with RerankCandidatesScored.
TEST(ScannIndexTest, PartialFloatAdcShortlistMatchesHeapReference) {
  const Workload& w = QuantWorkload();
  KMeansConfig kc;
  kc.num_clusters = 8;
  kc.seed = 5;
  KMeansPartitioner partitioner(w.base, kc);
  PqConfig pq_config;
  pq_config.num_subspaces = 8;
  pq_config.codebook_size = 16;
  ProductQuantizer pq(pq_config);
  pq.Train(w.base);
  ScannIndexConfig config;
  config.rerank_budget = 30;
  config.adc = AdcMode::kFloat;
  ScannIndex index(&w.base, &partitioner, std::move(pq), config);
  ASSERT_FALSE(index.has_fast_scan());

  constexpr size_t kK = 10, kProbes = 3;
  const BatchSearchResult got = index.SearchBatch(w.queries, kK, kProbes);
  const Matrix scores = partitioner.ScoreBins(w.queries);
  const DistanceComputer dist(w.base, Metric::kSquaredL2);
  const ProductQuantizer& quantizer = index.quantizer();
  const size_t m = quantizer.num_subspaces();
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    SCOPED_TRACE(testing::Message() << "query " << q);
    const float* query = w.queries.Row(q);
    // Probe order: bins by descending score, ties by bin id.
    const float* s = scores.Row(q);
    std::vector<uint32_t> bins(index.buckets().size());
    std::iota(bins.begin(), bins.end(), 0u);
    std::stable_sort(bins.begin(), bins.end(),
                     [&](uint32_t a, uint32_t b) { return s[a] > s[b]; });
    const std::vector<float> table = quantizer.BuildAdcTable(query);
    TopK approx(config.rerank_budget);
    uint32_t probed = 0;
    for (size_t p = 0; p < kProbes; ++p) {
      for (const uint32_t id : index.buckets()[bins[p]]) {
        approx.Push(quantizer.AdcDistance(table, index.codes() + id * m), id);
        ++probed;
      }
    }
    ASSERT_GT(probed, config.rerank_budget);
    std::vector<uint32_t> shortlist;
    for (const Neighbor& n : approx.TakeSorted()) shortlist.push_back(n.id);
    const std::vector<Neighbor> want =
        RerankCandidatesScored(dist, query, shortlist, kK);
    ASSERT_EQ(want.size(), kK);
    EXPECT_EQ(got.candidate_counts[q], probed);
    for (size_t j = 0; j < kK; ++j) {
      EXPECT_EQ(got.ids[q * kK + j], want[j].id) << "slot " << j;
      EXPECT_EQ(std::memcmp(&got.distances[q * kK + j], &want[j].distance,
                            sizeof(float)),
                0)
          << "slot " << j;
    }
  }
}

}  // namespace
}  // namespace usp
