// Tests for the 4-bit PQ fast-scan path (quant/fastscan.h +
// dist/quant_kernels.h): packed layout round trips, scalar-vs-AVX2 bitwise
// parity across every SIMD tail, the LUT bytes and quantization error bound,
// and end-to-end agreement between the fast-scan and float ADC pipelines
// inside ScannIndex / IvfPqIndex under every metric.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition_index.h"
#include "dataset/workload.h"
#include "dist/quant_kernels.h"
#include "index/id_selector.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "quant/fastscan.h"
#include "quant/scann_index.h"

namespace usp {
namespace {

std::vector<uint8_t> RandomCodes(size_t n, size_t m, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> code(0, 15);
  std::vector<uint8_t> codes(n * m);
  for (auto& c : codes) c = static_cast<uint8_t>(code(rng));
  return codes;
}

const Workload& FastScanWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 1200;
    spec.num_queries = 50;
    spec.gt_k = 10;
    spec.seed = 77;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

TEST(FastScanTest, PackUnpackRoundTripsEveryCode) {
  // Sizes cover: exact block multiple, one short of a block, a lone tail
  // vector, and the empty group.
  for (const size_t n : {0u, 1u, 31u, 32u, 33u, 64u, 100u}) {
    for (const size_t m : {1u, 4u, 8u, 16u}) {
      const std::vector<uint8_t> codes = RandomCodes(n, m, 13 * n + m);
      const PackedCodes packed = PackCodes4(codes.data(), n, m);
      EXPECT_EQ(packed.num_vectors, n);
      EXPECT_EQ(packed.num_subspaces, m);
      EXPECT_EQ(packed.data.size(), PackedCodesBytes(n, m));
      EXPECT_EQ(packed.num_blocks(), (n + kPq4BlockSize - 1) / kPq4BlockSize);
      std::vector<uint8_t> out(m);
      for (size_t i = 0; i < n; ++i) {
        UnpackCode4(packed.data.data(), m, i, out.data());
        for (size_t s = 0; s < m; ++s) {
          ASSERT_EQ(out[s], codes[i * m + s]) << "n=" << n << " m=" << m
                                              << " vec=" << i << " sub=" << s;
        }
      }
    }
  }
}

TEST(FastScanTest, BucketOrderPackFollowsIdList) {
  const size_t m = 8;
  const std::vector<uint8_t> codes = RandomCodes(200, m, 5);
  // A permuted, partial id list: the packed order must be exactly the list
  // order, not the storage order.
  std::vector<uint32_t> ids = {190, 3, 57, 57, 0, 101, 44};
  const PackedCodes packed = PackCodes4(codes.data(), ids, m);
  ASSERT_EQ(packed.num_vectors, ids.size());
  std::vector<uint8_t> out(m);
  for (size_t i = 0; i < ids.size(); ++i) {
    UnpackCode4(packed.data.data(), m, i, out.data());
    for (size_t s = 0; s < m; ++s) {
      ASSERT_EQ(out[s], codes[ids[i] * m + s]);
    }
  }
}

// Reference sum the kernel contract specifies: uint16 wraparound of LUT
// entries over subspaces.
std::vector<uint16_t> ReferenceSums(const std::vector<uint8_t>& codes,
                                    const uint8_t* luts, size_t n, size_t m) {
  std::vector<uint16_t> sums(n, 0);
  for (size_t i = 0; i < n; ++i) {
    uint16_t acc = 0;
    for (size_t s = 0; s < m; ++s) {
      acc = static_cast<uint16_t>(acc + luts[s * 16 + codes[i * m + s]]);
    }
    sums[i] = acc;
  }
  return sums;
}

TEST(FastScanTest, ScalarAndDispatchedKernelsAreBitIdentical) {
  const QuantKernels& scalar = SelectQuantKernels(/*force_scalar=*/true);
  const QuantKernels& fast = SelectQuantKernels(/*force_scalar=*/false);
  std::mt19937_64 rng(21);
  std::uniform_int_distribution<int> byte(0, 255);
  for (const size_t m : {1u, 2u, 8u, 16u}) {
    std::vector<uint8_t> luts(m * 16);
    for (auto& b : luts) b = static_cast<uint8_t>(byte(rng));
    for (const size_t n : {1u, 31u, 32u, 33u, 96u, 257u}) {
      const std::vector<uint8_t> codes = RandomCodes(n, m, 91 * n + m);
      const PackedCodes packed = PackCodes4(codes.data(), n, m);
      std::vector<uint16_t> got_scalar(packed.num_blocks() * kPq4BlockSize);
      std::vector<uint16_t> got_fast(got_scalar.size());
      scalar.pq4_scan(packed.data.data(), luts.data(), m, packed.num_blocks(),
                      got_scalar.data());
      fast.pq4_scan(packed.data.data(), luts.data(), m, packed.num_blocks(),
                    got_fast.data());
      const std::vector<uint16_t> want = ReferenceSums(codes, luts.data(), n, m);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got_scalar[i], want[i]) << "scalar n=" << n << " m=" << m
                                          << " i=" << i;
        ASSERT_EQ(got_fast[i], want[i])
            << fast.name << " n=" << n << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(FastScanTest, Sq8KernelsAreBitIdenticalAcrossTails) {
  const QuantKernels& scalar = SelectQuantKernels(true);
  const QuantKernels& fast = SelectQuantKernels(false);
  std::mt19937_64 rng(33);
  std::uniform_int_distribution<int> byte(0, 255);
  for (const size_t d : {1u, 15u, 16u, 31u, 32u, 33u, 100u, 128u}) {
    std::vector<uint8_t> x(d), y(d);
    for (auto& b : x) b = static_cast<uint8_t>(byte(rng));
    for (auto& b : y) b = static_cast<uint8_t>(byte(rng));
    uint32_t l2 = 0, dot = 0;
    for (size_t i = 0; i < d; ++i) {
      const int diff = static_cast<int>(x[i]) - static_cast<int>(y[i]);
      l2 += static_cast<uint32_t>(diff * diff);
      dot += static_cast<uint32_t>(x[i]) * static_cast<uint32_t>(y[i]);
    }
    EXPECT_EQ(scalar.sq8_l2(x.data(), y.data(), d), l2) << "d=" << d;
    EXPECT_EQ(fast.sq8_l2(x.data(), y.data(), d), l2) << "d=" << d;
    EXPECT_EQ(scalar.sq8_dot(x.data(), y.data(), d), dot) << "d=" << d;
    EXPECT_EQ(fast.sq8_dot(x.data(), y.data(), d), dot) << "d=" << d;
  }
  // Row-scan forms agree with the 1v1 forms.
  const size_t d = 48, rows = 37;
  std::vector<uint8_t> q(d), base(rows * d);
  for (auto& b : q) b = static_cast<uint8_t>(byte(rng));
  for (auto& b : base) b = static_cast<uint8_t>(byte(rng));
  std::vector<uint32_t> out_a(rows), out_b(rows);
  for (const QuantKernels* k : {&scalar, &fast}) {
    k->sq8_scan_l2(q.data(), base.data(), rows, d, out_a.data());
    k->sq8_scan_dot(q.data(), base.data(), rows, d, out_b.data());
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out_a[r], k->sq8_l2(q.data(), base.data() + r * d, d));
      EXPECT_EQ(out_b[r], k->sq8_dot(q.data(), base.data() + r * d, d));
    }
  }
}

TEST(FastScanTest, LutQuantizationErrorIsBounded) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> val(-4.0f, 9.0f);
  for (const size_t m : {1u, 8u, 16u}) {
    for (const size_t k : {2u, 9u, 16u}) {
      std::vector<float> table(m * k);
      for (auto& t : table) t = val(rng);
      const QuantizedLut lut = QuantizeAdcTable(table.data(), m, k);
      ASSERT_EQ(lut.lut.size(), m * 16);
      // Every representable code combination must recover its float score
      // within m * delta / 2. Spot-check random combinations.
      std::uniform_int_distribution<int> code(0, static_cast<int>(k) - 1);
      for (int trial = 0; trial < 200; ++trial) {
        float want = 0.0f;
        uint16_t sum = 0;
        for (size_t s = 0; s < m; ++s) {
          const int c = code(rng);
          want += table[s * k + c];
          sum = static_cast<uint16_t>(sum + lut.lut[s * 16 + c]);
        }
        const float got = lut.Score(sum);
        const float bound =
            static_cast<float>(m) * lut.delta / 2.0f + 1e-5f;
        ASSERT_LE(std::fabs(got - want), bound)
            << "m=" << m << " k=" << k << " delta=" << lut.delta;
      }
    }
  }
}

// QuantizeAdcTable's LUT bytes against a test-local std::lround reference:
// entry = min(lround((T[s][c] - min_s) / delta), 255) with delta the widest
// subspace range / 255. In the first table subspace 0 spans exactly 255, so
// delta is 1 and every other entry sits exactly on a half step above its
// subspace minimum (also below zero), where rounding must go up as lround's
// does; random tables cover k < 16 and many subspaces. Both kernel sets'
// quantize_lut (the AVX2 one runs a subspace's 16 entries at once) must write
// the reference bytes, zeros past k, and the same bias and delta bits.
TEST(FastScanTest, LutBytesMatchLroundReference) {
  const auto reference = [](const std::vector<float>& table, size_t m,
                            size_t k) {
    std::vector<uint8_t> lut(m * 16, 0);
    std::vector<float> lows(m);
    float max_range = 0.0f;
    for (size_t s = 0; s < m; ++s) {
      const float* row = table.data() + s * k;
      lows[s] = *std::min_element(row, row + k);
      max_range = std::max(max_range, *std::max_element(row, row + k) - lows[s]);
    }
    const float delta = max_range / 255.0f;
    for (size_t s = 0; s < m && delta > 0.0f; ++s) {
      for (size_t c = 0; c < k; ++c) {
        const long rounded =
            std::lround((table[s * k + c] - lows[s]) / delta);
        lut[s * 16 + c] = static_cast<uint8_t>(std::min(rounded, 255L));
      }
    }
    return lut;
  };
  struct Case {
    size_t m, k;
    std::vector<float> table;
  };
  std::vector<Case> cases;
  cases.push_back({3, 6,
                   {0.0f, 255.0f, 0.5f, 1.5f, 127.5f, 254.5f,        //
                    10.0f, 10.5f, 11.5f, 12.5f, 200.5f, 264.5f,      //
                    -100.0f, -99.5f, -0.5f, 0.0f, 20.5f, 154.5f}});
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<float> val(-4.0f, 9.0f);
  for (const size_t m : {1u, 8u, 32u}) {
    for (const size_t k : {2u, 9u, 16u}) {
      Case c{m, k, std::vector<float>(m * k)};
      for (float& t : c.table) t = val(rng);
      cases.push_back(std::move(c));
    }
  }
  std::vector<const QuantKernels*> sets = {&ScalarQuantKernels()};
  if (const QuantKernels* avx2 = Avx2QuantKernelsOrNull()) {
    sets.push_back(avx2);
  }
  for (const Case& c : cases) {
    const QuantizedLut lut = QuantizeAdcTable(c.table.data(), c.m, c.k);
    EXPECT_EQ(lut.lut, reference(c.table, c.m, c.k))
        << "m=" << c.m << " k=" << c.k;
    for (const QuantKernels* kq : sets) {
      std::vector<uint8_t> bytes(c.m * 16, 0xAB);
      float bias = -1.0f, delta = -1.0f;
      kq->quantize_lut(c.table.data(), c.m, c.k, bytes.data(), &bias, &delta);
      EXPECT_EQ(bytes, lut.lut) << kq->name << " m=" << c.m << " k=" << c.k;
      EXPECT_EQ(std::memcmp(&bias, &lut.bias, sizeof(float)), 0) << kq->name;
      EXPECT_EQ(std::memcmp(&delta, &lut.delta, sizeof(float)), 0)
          << kq->name;
    }
  }
  // The half-step table's entries land on n + 0.5 exactly.
  const QuantizedLut half = QuantizeAdcTable(cases[0].table.data(), 3, 6);
  EXPECT_EQ(half.delta, 1.0f);
  EXPECT_EQ(half.lut[2], 1);     // 0.5 rounds up
  EXPECT_EQ(half.lut[16 + 5], 255);  // 254.5 rounds up
  EXPECT_EQ(half.lut[32 + 2], 100);  // -0.5 - (-100) = 99.5 rounds up
}

TEST(FastScanTest, ConstantTableQuantizesToZeroDelta) {
  std::vector<float> table(8 * 16, 3.25f);
  const QuantizedLut lut = QuantizeAdcTable(table.data(), 8, 16);
  EXPECT_EQ(lut.delta, 0.0f);
  EXPECT_FLOAT_EQ(lut.bias, 8 * 3.25f);
  EXPECT_FLOAT_EQ(lut.Score(12345), 8 * 3.25f);
}

TEST(FastScanTest, ScorePackedMatchesPerCodeTableWalk) {
  const size_t n = 77, m = 8, k = 16;
  const std::vector<uint8_t> codes = RandomCodes(n, m, 3);
  const PackedCodes packed = PackCodes4(codes.data(), n, m);
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<float> val(0.0f, 5.0f);
  std::vector<float> table(m * k);
  for (auto& t : table) t = val(rng);
  const QuantizedLut lut = QuantizeAdcTable(table.data(), m, k);
  std::vector<float> got(n);
  ScorePacked(packed, lut, got.data());
  for (size_t i = 0; i < n; ++i) {
    uint16_t sum = 0;
    for (size_t s = 0; s < m; ++s) {
      sum = static_cast<uint16_t>(sum + lut.lut[s * 16 + codes[i * m + s]]);
    }
    ASSERT_EQ(got[i], lut.Score(sum)) << i;
  }
}

// End-to-end: the fast-scan ADC stage feeds the same exact rerank as the
// float table walk, so at a healthy rerank budget the two pipelines land
// within a hair of each other on recall — and fast-scan must actually be
// engaged. Both run on one index: unfiltered requests fast-scan, and an
// all-pass selector pushed down takes the float walk over the same rows.
TEST(FastScanTest, FastScanRecallMatchesFloatAdc) {
  const Workload& w = FastScanWorkload();
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    IvfConfig config;
    config.nlist = 12;
    config.metric = metric;
    config.seed = 9;
    config.pq.num_subspaces = 8;
    config.pq.codebook_size = 16;
    config.rerank_budget = 80;
    IvfPqIndex index(&w.base, config);
    ASSERT_TRUE(index.has_fast_scan());

    const KnnResult truth = BruteForceKnn(w.base, w.queries, 10, metric);
    const auto rf = index.SearchBatch(w.queries, 10, 4);
    const IdSelectorAll all_pass;
    SearchRequest float_walk;
    float_walk.queries = w.queries;
    float_walk.options.k = 10;
    float_walk.options.budget = 4;
    float_walk.options.filter = &all_pass;
    float_walk.options.plan = PlanMode::kForcePushdown;
    const auto rs = index.SearchBatch(float_walk);
    // Both paths score the codes of the same probed lists.
    EXPECT_EQ(rf.candidate_counts, rs.candidate_counts) << MetricName(metric);
    const double recall_fast = KnnAccuracy(rf, truth.indices, truth.k);
    const double recall_slow = KnnAccuracy(rs, truth.indices, truth.k);
    EXPECT_GE(recall_fast, recall_slow - 0.02)
        << MetricName(metric) << ": fast-scan recall " << recall_fast
        << " vs float ADC " << recall_slow;
    EXPECT_GT(recall_fast, 0.5) << MetricName(metric);
  }
}

TEST(FastScanTest, FilteredSearchFallsBackToFloatPathExactly) {
  // Filters prune below block granularity, so filtered requests take the
  // float per-code path even on a fast-scan index; with every bin probed and
  // a full rerank budget the result is exact over the allowed subset.
  const Workload& w = FastScanWorkload();
  IvfConfig config;
  config.nlist = 8;
  config.seed = 9;
  config.pq.num_subspaces = 8;
  config.pq.codebook_size = 16;
  config.rerank_budget = w.base.rows();
  IvfPqIndex index(&w.base, config);
  ASSERT_TRUE(index.has_fast_scan());

  IdSelectorRange filter(100, 400);
  SearchRequest request;
  request.queries = w.queries;
  request.options.k = 10;
  request.options.budget = config.nlist;
  request.options.filter = &filter;
  const auto got = index.SearchBatch(request);
  const KnnResult want =
      BruteForceKnn(w.base, w.queries, 10, Metric::kSquaredL2, &filter);
  EXPECT_EQ(got.ids, want.indices);
}

TEST(FastScanTest, WideCodebookNeverBuildsFastScan) {
  const Workload& w = FastScanWorkload();
  IvfConfig config;
  config.nlist = 8;
  config.seed = 9;
  config.pq.num_subspaces = 8;
  config.pq.codebook_size = 32;
  IvfPqIndex index(&w.base, config);
  EXPECT_FALSE(index.has_fast_scan());
}

}  // namespace
}  // namespace usp
