// Tests for src/dist/: exhaustive scalar-vs-dispatched kernel parity across
// dims 1..67 (covering every SIMD remainder tail), batched-vs-1v1 kernel
// consistency, NaN/inf propagation, metric semantics of DistanceComputer,
// and end-to-end inner-product / cosine recall of PartitionIndex and
// IvfFlatIndex against brute-force ground truth in the same metric.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/partition_index.h"
#include "dist/distance_computer.h"
#include "dist/distance_kernels.h"
#include "dist/metric.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace usp {
namespace {

uint32_t Bits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::vector<float> RandomVec(size_t d, Rng* rng, float scale = 1.0f) {
  std::vector<float> v(d);
  for (auto& x : v) x = static_cast<float>(rng->Gaussian()) * scale;
  return v;
}

// --------------------------------------------------------------------------
// Scalar vs dispatched parity. The two kernel sets promise bit-identical
// squared_l2 and dot (see the contract in distance_kernels.h).
// --------------------------------------------------------------------------

TEST(KernelParityTest, SquaredL2BitExactAcrossDims1To67) {
  const DistanceKernels& scalar = ScalarKernels();
  const DistanceKernels& dispatched = GetDistanceKernels();
  Rng rng(11);
  for (size_t d = 1; d <= 67; ++d) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto x = RandomVec(d, &rng, 3.0f);
      const auto y = RandomVec(d, &rng, 3.0f);
      const float s = scalar.squared_l2(x.data(), y.data(), d);
      const float v = dispatched.squared_l2(x.data(), y.data(), d);
      ASSERT_EQ(Bits(s), Bits(v)) << "d=" << d << " rep=" << rep;
    }
  }
}

TEST(KernelParityTest, DotBitExactAcrossDims1To67) {
  const DistanceKernels& scalar = ScalarKernels();
  const DistanceKernels& dispatched = GetDistanceKernels();
  Rng rng(12);
  for (size_t d = 1; d <= 67; ++d) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto x = RandomVec(d, &rng, 3.0f);
      const auto y = RandomVec(d, &rng, 3.0f);
      const float s = scalar.dot(x.data(), y.data(), d);
      const float v = dispatched.dot(x.data(), y.data(), d);
      ASSERT_EQ(Bits(s), Bits(v)) << "d=" << d << " rep=" << rep;
    }
  }
}

TEST(KernelParityTest, BatchedKernelsMatchOneVsOneBitExact) {
  Rng rng(13);
  // The scalar set and, when the CPU has it, the AVX2 set, whichever one
  // dispatch picked (USP_FORCE_SCALAR=1 runs still check AVX2). Row counts
  // 0..9 cover every remainder of the four-row loop shared by the AVX2
  // block and gather kernels; 37 runs it nine times before a remainder.
  std::vector<const DistanceKernels*> sets = {&ScalarKernels()};
  if (Avx2KernelsOrNull() != nullptr) sets.push_back(Avx2KernelsOrNull());
  std::vector<size_t> counts(10);
  std::iota(counts.begin(), counts.end(), size_t{0});
  counts.push_back(37);
  for (const size_t d : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 64u, 67u, 128u}) {
    for (const size_t count : counts) {
      std::vector<float> rows(count * d);
      for (auto& v : rows) v = static_cast<float>(rng.Gaussian());
      const auto q = RandomVec(d, &rng);
      std::vector<uint32_t> ids(count);
      std::iota(ids.begin(), ids.end(), 0u);
      std::reverse(ids.begin(), ids.end());  // non-trivial gather order

      for (const DistanceKernels* kd : sets) {
        SCOPED_TRACE(testing::Message()
                     << kd->name << " d=" << d << " count=" << count);
        std::vector<float> block(count), gather(count);
        kd->score_block_l2(q.data(), rows.data(), count, d, block.data());
        kd->score_ids_l2(q.data(), rows.data(), d, ids.data(), count,
                         gather.data());
        for (size_t r = 0; r < count; ++r) {
          const float one = kd->squared_l2(q.data(), rows.data() + r * d, d);
          ASSERT_EQ(Bits(block[r]), Bits(one)) << "row " << r;
          ASSERT_EQ(Bits(gather[r]),
                    Bits(kd->squared_l2(q.data(), rows.data() + ids[r] * d, d)))
              << "row " << r;
        }
        kd->score_block_dot(q.data(), rows.data(), count, d, block.data());
        kd->score_ids_dot(q.data(), rows.data(), d, ids.data(), count,
                          gather.data());
        for (size_t r = 0; r < count; ++r) {
          ASSERT_EQ(Bits(block[r]),
                    Bits(kd->dot(q.data(), rows.data() + r * d, d)))
              << "row " << r;
          ASSERT_EQ(Bits(gather[r]),
                    Bits(kd->dot(q.data(), rows.data() + ids[r] * d, d)))
              << "row " << r;
        }
      }
    }
  }
}

// The loop the GEMM entry replaced: each output row zeroed, then one axpy
// c_i += a_ip * b_p per p in order. `fused` adds each product with one
// fused multiply-add (the AVX2 set); otherwise the multiply and the add round
// separately, exactly as the scalar set's `c += alpha * b` compiles.
void AxpyLoopGemm(const float* a, size_t a_row, size_t a_col, const float* b,
                  size_t n, size_t k, size_t m, bool fused, float* c) {
  for (size_t i = 0; i < n; ++i) {
    float* ci = c + i * m;
    std::fill(ci, ci + m, 0.0f);
    for (size_t p = 0; p < k; ++p) {
      const float alpha = a[i * a_row + p * a_col];
      const float* bp = b + p * m;
      for (size_t j = 0; j < m; ++j) {
        if (fused) {
          ci[j] = std::fmaf(alpha, bp[j], ci[j]);
        } else {
          ci[j] += alpha * bp[j];
        }
      }
    }
  }
}

TEST(KernelParityTest, GemmMatchesAxpyLoopBitExact) {
  // Every row count of the AVX2 tiles (4-row bands, 3/2/1-row remainders),
  // column counts covering each strip width and the masked tail, and both
  // operand layouts: A*B reads `a` with strides (k, 1), A^T*B with (1, n).
  Rng rng(14);
  std::vector<const DistanceKernels*> sets = {&ScalarKernels()};
  if (const DistanceKernels* avx2 = Avx2KernelsOrNull()) sets.push_back(avx2);
  for (const DistanceKernels* kd : sets) {
    const bool fused = kd != &ScalarKernels();
    for (const size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 9u}) {
      for (const size_t m : {1u, 7u, 8u, 15u, 16u, 17u, 31u, 128u}) {
        for (const size_t k : {1u, 13u, 128u}) {
          const auto a = RandomVec(n * k, &rng);
          const auto b = RandomVec(k * m, &rng);
          for (const bool transposed : {false, true}) {
            const size_t a_row = transposed ? 1 : k;
            const size_t a_col = transposed ? n : 1;
            std::vector<float> got(n * m, -1.0f), want(n * m);
            kd->gemm(a.data(), a_row, a_col, b.data(), n, k, m, got.data());
            AxpyLoopGemm(a.data(), a_row, a_col, b.data(), n, k, m, fused,
                         want.data());
            for (size_t e = 0; e < n * m; ++e) {
              ASSERT_EQ(Bits(got[e]), Bits(want[e]))
                  << kd->name << " n=" << n << " m=" << m << " k=" << k
                  << " transposed=" << transposed << " element " << e;
            }
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, GemmMatchesWithinTolerance) {
  // gemm carries no cross-set bit-compatibility promise (the vector set
  // fuses each multiply-add); require close agreement instead.
  Rng rng(15);
  for (const size_t n : {1u, 3u, 8u}) {
    for (const size_t m : {1u, 15u, 64u, 67u}) {
      const size_t k = 37;
      const auto a = RandomVec(n * k, &rng);
      const auto b = RandomVec(k * m, &rng);
      std::vector<float> cs(n * m), cv(n * m);
      ScalarKernels().gemm(a.data(), k, 1, b.data(), n, k, m, cs.data());
      GetDistanceKernels().gemm(a.data(), k, 1, b.data(), n, k, m, cv.data());
      for (size_t e = 0; e < n * m; ++e) {
        ASSERT_NEAR(cs[e], cv[e], 1e-4f) << "n=" << n << " m=" << m;
      }
    }
  }
}

// The one-pass ADC table against one score_block row per subspace, in both
// kernel sets: every subspace width 1..9 and a width of 17 (past one
// eight-lane chunk), so d is not divisible by m; codebook sizes of 16, 9 and
// 24 (row lengths that are and are not multiples of 8); and subspaces with
// fewer trained codewords than the codebook size, whose row tails must read
// +0 (-0 in the negated table). All three table kinds.
TEST(KernelParityTest, AdcTableMatchesScoreBlockRowsBitExact) {
  Rng rng(17);
  std::vector<const DistanceKernels*> sets = {&ScalarKernels()};
  if (const DistanceKernels* avx2 = Avx2KernelsOrNull()) sets.push_back(avx2);
  const std::vector<size_t> widths = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17};
  std::vector<size_t> offsets = {0};
  for (const size_t w : widths) offsets.push_back(offsets.back() + w);
  const size_t m = widths.size(), d = offsets.back();
  const auto query = RandomVec(d, &rng, 2.0f);
  for (const size_t k : {16u, 9u, 24u}) {
    const size_t stride = (k + 7) / 8 * 8;
    std::vector<size_t> rows(m);
    // Row-major codebooks (what score_block reads) and the dim-major layout.
    std::vector<std::vector<float>> books(m);
    std::vector<float> codewords(d * stride, 0.0f);
    for (size_t s = 0; s < m; ++s) {
      rows[s] = s % 3 == 1 ? k - 1 - s % k / 2 : k;
      books[s] = RandomVec(rows[s] * widths[s], &rng, 2.0f);
      for (size_t c = 0; c < rows[s]; ++c) {
        for (size_t i = 0; i < widths[s]; ++i) {
          codewords[(offsets[s] + i) * stride + c] = books[s][c * widths[s] + i];
        }
      }
    }
    AdcCodebooks layout;
    layout.codewords = codewords.data();
    layout.offsets = offsets.data();
    layout.rows = rows.data();
    layout.m = m;
    layout.k = k;
    layout.stride = stride;
    for (const DistanceKernels* kd : sets) {
      for (const AdcTableKind kind :
           {AdcTableKind::kSquaredL2, AdcTableKind::kDot,
            AdcTableKind::kNegatedDot}) {
        SCOPED_TRACE(testing::Message() << kd->name << " k=" << k << " kind="
                                        << static_cast<int>(kind));
        std::vector<float> table(m * k + 1, 7.0f);
        kd->adc_table(query.data(), layout, kind, table.data());
        EXPECT_EQ(table[m * k], 7.0f) << "wrote past the table";
        for (size_t s = 0; s < m; ++s) {
          std::vector<float> want(k, 0.0f);
          if (kind == AdcTableKind::kSquaredL2) {
            kd->score_block_l2(query.data() + offsets[s], books[s].data(),
                               rows[s], widths[s], want.data());
          } else {
            kd->score_block_dot(query.data() + offsets[s], books[s].data(),
                                rows[s], widths[s], want.data());
          }
          if (kind == AdcTableKind::kNegatedDot) {
            for (float& v : want) v = -v;
          }
          for (size_t c = 0; c < k; ++c) {
            ASSERT_EQ(Bits(table[s * k + c]), Bits(want[c]))
                << "subspace " << s << " codeword " << c;
          }
        }
      }
    }
  }
}

TEST(KernelDispatchTest, SelectionPolicy) {
  // Forcing scalar always yields the scalar set (USP_FORCE_SCALAR=1 routes
  // through the same SelectKernels(true) branch).
  EXPECT_STREQ(SelectKernels(true).name, "scalar");
  const DistanceKernels* avx2 = Avx2KernelsOrNull();
  if (avx2 != nullptr) {
    EXPECT_STREQ(SelectKernels(false).name, "avx2");
  } else {
    EXPECT_STREQ(SelectKernels(false).name, "scalar");
  }
}

TEST(KernelEdgeCaseTest, NanPropagatesInBothSets) {
  Rng rng(15);
  for (const size_t d : {5u, 8u, 13u}) {
    for (size_t pos = 0; pos < d; ++pos) {
      auto x = RandomVec(d, &rng);
      const auto y = RandomVec(d, &rng);
      x[pos] = std::numeric_limits<float>::quiet_NaN();
      for (const DistanceKernels* kd :
           {&ScalarKernels(), &GetDistanceKernels()}) {
        EXPECT_TRUE(std::isnan(kd->squared_l2(x.data(), y.data(), d)))
            << kd->name << " d=" << d << " pos=" << pos;
        EXPECT_TRUE(std::isnan(kd->dot(x.data(), y.data(), d)))
            << kd->name << " d=" << d << " pos=" << pos;
      }
    }
  }
}

TEST(KernelEdgeCaseTest, InfinityBehavesIdenticallyInBothSets) {
  Rng rng(16);
  const float inf = std::numeric_limits<float>::infinity();
  for (const size_t d : {3u, 8u, 11u}) {
    auto x = RandomVec(d, &rng);
    auto y = RandomVec(d, &rng);
    x[d - 1] = inf;  // remainder-lane position
    // Finite y: |x - y|^2 and <x, y>*sign hit +/-inf in both sets.
    EXPECT_EQ(ScalarKernels().squared_l2(x.data(), y.data(), d), inf);
    EXPECT_EQ(GetDistanceKernels().squared_l2(x.data(), y.data(), d), inf);
    EXPECT_EQ(Bits(ScalarKernels().dot(x.data(), y.data(), d)),
              Bits(GetDistanceKernels().dot(x.data(), y.data(), d)));
    // inf - inf = NaN inside the L2 kernel.
    y[d - 1] = inf;
    EXPECT_TRUE(std::isnan(ScalarKernels().squared_l2(x.data(), y.data(), d)));
    EXPECT_TRUE(
        std::isnan(GetDistanceKernels().squared_l2(x.data(), y.data(), d)));
  }
}

// --------------------------------------------------------------------------
// DistanceComputer metric semantics.
// --------------------------------------------------------------------------

TEST(DistanceComputerTest, MetricsMinimizeAndMatchReference) {
  Rng rng(21);
  Matrix base = Matrix::RandomGaussian(40, 19, &rng);
  const auto q = RandomVec(19, &rng);
  const DistanceKernels& kd = GetDistanceKernels();

  const DistanceComputer l2(&base, Metric::kSquaredL2);
  const DistanceComputer ip(&base, Metric::kInnerProduct);
  const DistanceComputer cos(&base, Metric::kCosine);

  std::vector<float> scratch;
  EXPECT_EQ(l2.PrepareQuery(q.data(), &scratch), q.data());
  EXPECT_EQ(ip.PrepareQuery(q.data(), &scratch), q.data());
  const float* q_cos = cos.PrepareQuery(q.data(), &scratch);
  EXPECT_NE(q_cos, q.data());
  EXPECT_NEAR(kd.dot(q_cos, q_cos, 19), 1.0f, 1e-5f);

  const float q_norm = std::sqrt(kd.dot(q.data(), q.data(), 19));
  for (uint32_t id = 0; id < 40; ++id) {
    const float* x = base.Row(id);
    EXPECT_EQ(Bits(l2.Distance(q.data(), id)),
              Bits(kd.squared_l2(q.data(), x, 19)));
    EXPECT_EQ(Bits(ip.Distance(q.data(), id)), Bits(-kd.dot(q.data(), x, 19)));
    const float x_norm = std::sqrt(kd.dot(x, x, 19));
    const float expected_cos =
        1.0f - kd.dot(q.data(), x, 19) / (q_norm * x_norm);
    EXPECT_NEAR(cos.Distance(q_cos, id), expected_cos, 1e-4f);
    EXPECT_GE(cos.Distance(q_cos, id), -1e-4f);
    EXPECT_LE(cos.Distance(q_cos, id), 2.0f + 1e-4f);
  }
}

TEST(DistanceComputerTest, BatchedPathsMatchSingleDistance) {
  Rng rng(22);
  Matrix base = Matrix::RandomGaussian(64, 23, &rng);
  const auto q = RandomVec(23, &rng);
  std::vector<uint32_t> ids = {5, 0, 63, 17, 17, 8};
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    const DistanceComputer dist(&base, metric);
    std::vector<float> scratch;
    const float* pq = dist.PrepareQuery(q.data(), &scratch);
    std::vector<float> by_id(ids.size());
    dist.ScoreIds(pq, ids.data(), ids.size(), by_id.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(Bits(by_id[i]), Bits(dist.Distance(pq, ids[i])))
          << MetricName(metric);
    }
    std::vector<float> range(10);
    dist.ScoreRange(pq, 20, 10, range.data());
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_EQ(Bits(range[i]), Bits(dist.Distance(pq, 20 + i)))
          << MetricName(metric);
    }
  }
}

TEST(DistanceComputerTest, ZeroNormRowsAndQueriesAreNeutralUnderCosine) {
  Matrix base(3, 4);
  base(0, 0) = 1.0f;  // unit row
  // row 1 stays all-zero
  base(2, 1) = -2.0f;
  const DistanceComputer cos(&base, Metric::kCosine);
  std::vector<float> scratch;
  const std::vector<float> q = {1.0f, 0.0f, 0.0f, 0.0f};
  const float* pq = cos.PrepareQuery(q.data(), &scratch);
  EXPECT_NEAR(cos.Distance(pq, 0), 0.0f, 1e-6f);  // aligned
  EXPECT_NEAR(cos.Distance(pq, 1), 1.0f, 1e-6f);  // zero row -> neutral
  EXPECT_NEAR(cos.Distance(pq, 2), 1.0f, 1e-6f);  // orthogonal

  const std::vector<float> zero_q(4, 0.0f);
  const float* pzq = cos.PrepareQuery(zero_q.data(), &scratch);
  EXPECT_NEAR(cos.Distance(pzq, 0), 1.0f, 1e-6f);
}

// --------------------------------------------------------------------------
// End-to-end: inner-product and cosine search against same-metric brute
// force through PartitionIndex and IvfFlatIndex.
// --------------------------------------------------------------------------

struct MetricWorkload {
  Matrix base;
  Matrix queries;
};

// Gaussian data with per-row scale variation so inner-product and cosine
// rankings genuinely differ from L2.
MetricWorkload MakeMetricWorkload(size_t n, size_t nq, size_t d,
                                  uint64_t seed) {
  Rng rng(seed);
  MetricWorkload w{Matrix::RandomGaussian(n, d, &rng),
                   Matrix::RandomGaussian(nq, d, &rng)};
  for (size_t i = 0; i < n; ++i) {
    const float scale = 0.25f + 1.5f * static_cast<float>(rng.Uniform());
    float* row = w.base.Row(i);
    for (size_t j = 0; j < d; ++j) row[j] *= scale;
  }
  return w;
}

TEST(MetricBruteForceTest, ExplicitL2MatchesDefaultPath) {
  const MetricWorkload w = MakeMetricWorkload(300, 12, 16, 31);
  const KnnResult a = BruteForceKnn(w.base, w.queries, 10);
  const KnnResult b =
      BruteForceKnn(w.base, w.queries, 10, Metric::kSquaredL2);
  EXPECT_EQ(a.indices, b.indices);
}

TEST(MetricBruteForceTest, DistancesAscendUnderEveryMetric) {
  const MetricWorkload w = MakeMetricWorkload(300, 12, 16, 32);
  for (const Metric metric : {Metric::kInnerProduct, Metric::kCosine}) {
    const KnnResult gt = BruteForceKnn(w.base, w.queries, 15, metric);
    for (size_t q = 0; q < w.queries.rows(); ++q) {
      for (size_t j = 1; j < 15; ++j) {
        EXPECT_LE(gt.distances[q * 15 + j - 1], gt.distances[q * 15 + j])
            << MetricName(metric);
      }
    }
  }
}

class MetricRecallTest : public ::testing::TestWithParam<Metric> {};

TEST_P(MetricRecallTest, IvfFlatServesMetricEndToEnd) {
  const Metric metric = GetParam();
  const MetricWorkload w = MakeMetricWorkload(600, 40, 24, 33);
  const KnnResult gt = BruteForceKnn(w.base, w.queries, 10, metric);

  IvfConfig config;
  config.nlist = 16;
  config.metric = metric;
  const IvfFlatIndex index(&w.base, config);
  EXPECT_EQ(index.metric(), metric);

  // Probing every list scans every point: the exact-rerank stage must then
  // reproduce brute force exactly.
  const BatchSearchResult full = index.SearchBatch(w.queries, 10, 16);
  EXPECT_DOUBLE_EQ(KnnAccuracy(full, gt.indices, 10), 1.0);

  // A partial probe keeps high recall.
  const BatchSearchResult partial = index.SearchBatch(w.queries, 10, 8);
  EXPECT_GE(KnnAccuracy(partial, gt.indices, 10), 0.75);
}

TEST_P(MetricRecallTest, PartitionIndexServesMetricEndToEnd) {
  const Metric metric = GetParam();
  const MetricWorkload w = MakeMetricWorkload(600, 40, 24, 34);
  const KnnResult gt = BruteForceKnn(w.base, w.queries, 10, metric);

  KMeansConfig kc;
  kc.num_clusters = 16;
  kc.seed = 7;
  Matrix train = w.base.Clone();
  if (metric == Metric::kCosine) NormalizeRows(&train);
  KMeansResult km = RunKMeans(train, kc);
  const KMeansPartitioner scorer(std::move(km.centroids), metric);
  const PartitionIndex index(&w.base, &scorer, metric);
  EXPECT_EQ(index.metric(), metric);

  const BatchSearchResult full = index.SearchBatch(w.queries, 10, 16);
  EXPECT_DOUBLE_EQ(KnnAccuracy(full, gt.indices, 10), 1.0);

  const BatchSearchResult partial = index.SearchBatch(w.queries, 10, 8);
  EXPECT_GE(KnnAccuracy(partial, gt.indices, 10), 0.75);
}

INSTANTIATE_TEST_SUITE_P(Metrics, MetricRecallTest,
                         ::testing::Values(Metric::kInnerProduct,
                                           Metric::kCosine),
                         [](const ::testing::TestParamInfo<Metric>& info) {
                           return std::string(MetricName(info.param));
                         });

TEST(MetricRerankTest, RerankMatchesGroundTruthOverFullCandidateSet) {
  const MetricWorkload w = MakeMetricWorkload(250, 8, 20, 35);
  std::vector<uint32_t> all(w.base.rows());
  std::iota(all.begin(), all.end(), 0u);
  // IP/cosine brute force and rerank share bit-identical kernel arithmetic,
  // so the full-candidate rerank must reproduce ground truth exactly. (The
  // L2 brute-force path uses the norm-trick formulation, whose rounding can
  // legitimately differ from the rerank's diff form at ties.)
  for (const Metric metric : {Metric::kInnerProduct, Metric::kCosine}) {
    const KnnResult gt = BruteForceKnn(w.base, w.queries, 5, metric);
    const DistanceComputer dist(&w.base, metric);
    for (size_t q = 0; q < w.queries.rows(); ++q) {
      const auto top = RerankCandidatesScored(dist, w.queries.Row(q), all, 5);
      ASSERT_EQ(top.size(), 5u);
      for (size_t j = 0; j < 5; ++j) {
        EXPECT_EQ(top[j].id, gt.indices[q * 5 + j])
            << MetricName(metric) << " q=" << q;
      }
    }
  }
}

}  // namespace
}  // namespace usp
