// Tests for quant/: PQ codebook training, encode/decode consistency, ADC
// distance quality, the four-code batch ADC walk, the anisotropic
// objective's effect, and the ScaNN-style index end-to-end (vanilla scan vs.
// partitioned, and partial float-ADC and fast-scan shortlists pinned against
// a heap-built reference).
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
#include "index/id_selector.h"
#include "knn/brute_force.h"
#include "knn/top_k.h"
#include "quant/fastscan.h"
#include "quant/pq.h"
#include "quant/scann_index.h"
#include "tensor/ops.h"
#include "util/rng.h"

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

// The batch ADC entry walks four codes at once, each on its own add chain
// from +0 in subspace order, so every score must carry AdcDistance's bits.
// Counts 0..11 cover every remainder of the four-code loop; the negated dot
// table pins negative entries too.
TEST(PqTest, BatchAdcMatchesAdcDistanceBitForBit) {
  const Workload& w = QuantWorkload();
  const size_t n = w.base.rows();
  std::vector<uint32_t> ids(11);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<uint32_t>((i * 389 + 11) % n);  // scrambled order
  }
  for (const size_t m : {size_t{1}, size_t{7}, size_t{8}, size_t{32}}) {
    PqConfig config;
    config.num_subspaces = m;
    config.codebook_size = 16;
    config.kmeans_iterations = 4;
    ProductQuantizer pq(config);
    pq.Train(w.base);
    const std::vector<uint8_t> codes = pq.Encode(w.base);
    std::vector<float> dot = pq.BuildDotTable(w.queries.Row(1));
    for (float& v : dot) v = -v;
    for (const std::vector<float>& table :
         {pq.BuildAdcTable(w.queries.Row(0)), dot}) {
      for (size_t count = 0; count <= ids.size(); ++count) {
        std::vector<float> got(count + 1, -1.0f);
        pq.AdcDistances(table, codes.data(), ids.data(), count, got.data());
        for (size_t i = 0; i < count; ++i) {
          const float want = pq.AdcDistance(table, codes.data() + ids[i] * m);
          EXPECT_EQ(std::memcmp(&got[i], &want, sizeof(float)), 0)
              << "m " << m << " count " << count << " code " << i;
        }
        EXPECT_EQ(got[count], -1.0f) << "wrote past count " << count;
      }
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

// The ids a partial ScaNN query probes, in probe order: the first `probes`
// bins by descending partitioner score, ties by bin id.
std::vector<uint32_t> ProbedIds(const ScannIndex& index, const float* scores,
                                size_t probes) {
  const std::vector<std::vector<uint32_t>>& buckets =
      index.partition()->buckets();
  std::vector<uint32_t> bins(buckets.size());
  std::iota(bins.begin(), bins.end(), 0u);
  std::stable_sort(bins.begin(), bins.end(), [&](uint32_t a, uint32_t b) {
    return scores[a] > scores[b];
  });
  std::vector<uint32_t> ids;
  for (size_t p = 0; p < probes; ++p) {
    const std::vector<uint32_t>& bucket = buckets[bins[p]];
    ids.insert(ids.end(), bucket.begin(), bucket.end());
  }
  return ids;
}

// The heap-built reference of a ScaNN row: a TopK(rerank_budget) shortlist
// of the (ADC score, id) pairs, reranked by RerankCandidatesScored. `got`
// must hold the same ids and distance bits in row q.
void ExpectRowMatchesHeapReference(const BatchSearchResult& got, size_t q,
                                   const float* query,
                                   const std::vector<Neighbor>& scored,
                                   size_t rerank_budget) {
  const size_t k = got.k;
  TopK approx(rerank_budget);
  for (const Neighbor& n : scored) approx.Push(n.distance, n.id);
  std::vector<uint32_t> shortlist;
  for (const Neighbor& n : approx.TakeSorted()) shortlist.push_back(n.id);
  const DistanceComputer dist(QuantWorkload().base, Metric::kSquaredL2);
  const std::vector<Neighbor> want =
      RerankCandidatesScored(dist, query, shortlist, k);
  ASSERT_EQ(want.size(), k);
  EXPECT_EQ(got.candidate_counts[q], scored.size());
  for (size_t j = 0; j < k; ++j) {
    EXPECT_EQ(got.ids[q * k + j], want[j].id) << "slot " << j;
    EXPECT_EQ(std::memcmp(&got.distances[q * k + j], &want[j].distance,
                          sizeof(float)),
              0)
        << "slot " << j;
  }
}

// The float ADC path at budgets 1 and 3, reached both ways the index takes
// it: a filtered request on a 16-codeword index, whose unfiltered requests
// fast-scan, and any request on a 32-codeword index, which has no fast-scan
// blocks. With a rerank budget below the probed candidate count (a partial
// shortlist: for every query at budget 3, for most at budget 1, where a 30%
// bitmap over one bucket can leave fewer) and one above every count (the
// whole candidate set), every row must equal, bit for bit, a reference that
// shortlists the same candidates through a TopK heap and reranks them with
// RerankCandidatesScored. The 16-codeword index runs under an all-pass
// selector and a 30% bitmap, both pushed down; the 32-codeword one
// unfiltered and under the bitmap. The pushdown must drop exactly the
// rejected ids before the ADC stage.
TEST(ScannIndexTest, PartialFloatAdcShortlistMatchesHeapReference) {
  const Workload& w = QuantWorkload();
  KMeansConfig kc;
  kc.num_clusters = 8;
  kc.seed = 5;
  KMeansPartitioner partitioner(w.base, kc);
  Rng rng(17);
  std::vector<uint32_t> allowed;
  for (uint32_t id = 0; id < w.base.rows(); ++id) {
    if (rng.Uniform() < 0.3) allowed.push_back(id);
  }
  const IdSelectorBitmap bitmap(w.base.rows(), allowed);
  const IdSelectorAll all_pass;
  const Matrix scores = partitioner.ScoreBins(w.queries);
  constexpr size_t kK = 10;
  for (const size_t codebook : {size_t{16}, size_t{32}}) {
    for (const size_t rerank : {size_t{30}, size_t{2000}}) {
      PqConfig pq_config;
      pq_config.num_subspaces = 8;
      pq_config.codebook_size = codebook;
      ProductQuantizer pq(pq_config);
      pq.Train(w.base);
      ScannIndexConfig config;
      config.rerank_budget = rerank;
      ScannIndex index(&w.base, &partitioner, std::move(pq), config);
      ASSERT_EQ(index.has_fast_scan(), codebook <= 16);
      // The request that admits every row: unfiltered on the 32-codeword
      // index, under the all-pass selector on the 16-codeword one, which
      // fast-scans an unfiltered request.
      const IdSelector* every_row = codebook <= 16 ? &all_pass : nullptr;
      const ProductQuantizer& quantizer = index.quantizer();
      const size_t m = quantizer.num_subspaces();
      for (const size_t probes : {size_t{1}, size_t{3}}) {
        for (const IdSelector* filter :
             {every_row, static_cast<const IdSelector*>(&bitmap)}) {
          SCOPED_TRACE(testing::Message()
                       << "codebook " << codebook << " rerank " << rerank
                       << " probes " << probes
                       << (filter == nullptr      ? " unfiltered"
                           : filter == &all_pass ? " all-pass selector"
                                                  : " 30% bitmap"));
          SearchRequest request;
          request.queries = w.queries;
          request.options.k = kK;
          request.options.budget = probes;
          request.options.filter = filter;
          request.options.plan = PlanMode::kForcePushdown;
          request.options.stats = true;
          const BatchSearchResult got = index.SearchBatch(request);
          size_t partial = 0;
          for (size_t q = 0; q < w.queries.rows(); ++q) {
            SCOPED_TRACE(testing::Message() << "query " << q);
            const float* query = w.queries.Row(q);
            const std::vector<float> table = quantizer.BuildAdcTable(query);
            std::vector<Neighbor> scored;
            uint32_t dropped = 0;
            for (const uint32_t id : ProbedIds(index, scores.Row(q), probes)) {
              if (filter != nullptr && !filter->is_member(id)) {
                ++dropped;
                continue;
              }
              scored.push_back(
                  {quantizer.AdcDistance(table, index.codes() + id * m), id});
            }
            if (rerank == 30 && probes == 3) {
              ASSERT_GT(scored.size(), rerank);
            }
            partial += scored.size() > rerank;
            EXPECT_EQ(got.stats->filtered_out[q], dropped);
            ExpectRowMatchesHeapReference(got, q, query, scored, rerank);
          }
          if (rerank == 30) {
            EXPECT_GT(partial, w.queries.rows() / 2);
          } else {
            EXPECT_EQ(partial, 0u);
          }
        }
      }
    }
  }
}

// The fast-scan path at budgets 1 and 3, with a rerank budget below the
// probed candidate count and one above it: the shortlist of pq4 scores (the
// LUT's uint16 sum per code, mapped back through QuantizedLut::Score) must
// keep the set a TopK heap keeps, and every row must match the heap
// reference bit for bit.
TEST(ScannIndexTest, PartialFastScanShortlistMatchesHeapReference) {
  const Workload& w = QuantWorkload();
  KMeansConfig kc;
  kc.num_clusters = 8;
  kc.seed = 5;
  KMeansPartitioner partitioner(w.base, kc);
  const Matrix scores = partitioner.ScoreBins(w.queries);
  constexpr size_t kK = 10;
  for (const size_t rerank : {size_t{30}, size_t{2000}}) {
    PqConfig pq_config;
    pq_config.num_subspaces = 8;
    pq_config.codebook_size = 16;
    ProductQuantizer pq(pq_config);
    pq.Train(w.base);
    ScannIndexConfig config;
    config.rerank_budget = rerank;
    ScannIndex index(&w.base, &partitioner, std::move(pq), config);
    ASSERT_TRUE(index.has_fast_scan());
    const ProductQuantizer& quantizer = index.quantizer();
    const size_t m = quantizer.num_subspaces();
    for (const size_t probes : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE(testing::Message()
                   << "rerank " << rerank << " probes " << probes);
      const BatchSearchResult got = index.SearchBatch(w.queries, kK, probes);
      for (size_t q = 0; q < w.queries.rows(); ++q) {
        SCOPED_TRACE(testing::Message() << "query " << q);
        const float* query = w.queries.Row(q);
        const std::vector<float> table = quantizer.BuildAdcTable(query);
        const QuantizedLut lut =
            QuantizeAdcTable(table.data(), m, quantizer.codebook_size());
        std::vector<Neighbor> scored;
        for (const uint32_t id : ProbedIds(index, scores.Row(q), probes)) {
          uint16_t sum = 0;
          for (size_t s = 0; s < m; ++s) {
            sum = static_cast<uint16_t>(
                sum + lut.lut[s * 16 + index.codes()[id * m + s]]);
          }
          scored.push_back({lut.Score(sum), id});
        }
        if (rerank == 30) {
          ASSERT_GT(scored.size(), rerank);
        } else {
          ASSERT_LE(scored.size(), rerank);
        }
        ExpectRowMatchesHeapReference(got, q, query, scored, rerank);
      }
    }
  }
}

}  // namespace
}  // namespace usp
