// Tests for knn/: TopK heap and Shortlist selection semantics, brute-force
// search against an O(n^2) reference, k'-NN matrix construction invariants,
// candidate re-ranking, and subset filtering.
#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "knn/brute_force.h"
#include "knn/top_k.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace usp {
namespace {

TEST(TopKTest, KeepsSmallestDistances) {
  TopK heap(3);
  heap.Push(5.0f, 0);
  heap.Push(1.0f, 1);
  heap.Push(3.0f, 2);
  heap.Push(2.0f, 3);
  heap.Push(9.0f, 4);
  const auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 1u);
  EXPECT_EQ(sorted[1].id, 3u);
  EXPECT_EQ(sorted[2].id, 2u);
}

TEST(TopKTest, TieBrokenByLowerId) {
  TopK heap(2);
  heap.Push(1.0f, 7);
  heap.Push(1.0f, 3);
  heap.Push(1.0f, 5);
  const auto sorted = heap.TakeSorted();
  EXPECT_EQ(sorted[0].id, 3u);
  EXPECT_EQ(sorted[1].id, 5u);
}

TEST(TopKTest, FewerCandidatesThanK) {
  TopK heap(10);
  heap.Push(2.0f, 1);
  heap.Push(1.0f, 0);
  const auto sorted = heap.TakeSorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].id, 0u);
}

// The ADC shortlist keeps exactly the set a TopK(keep) keeps, and returns it
// in arrival order. Scores come from a handful of values, so most
// comparisons fall through to the id tie-break; ids are distinct, as in
// every index. The second value set holds negative scores (negated IP and
// cosine ADC scores) below a majority of -0.0f and +0.0f (SQ8's dot proxy
// -static_cast<float>(0) is -0; the two compare equal, so their ties break
// by id), and keep = 4500 and 11000 cut inside those zeros. Streams of 20000
// pairs come shuffled, ascending and descending: in descending (distance,
// id) order every pair beats the kept worst, so the buffer (4 * keep slots,
// at least 64) is cut each time it refills, even at keep = 4500;
// keep >= n - 1 never fills it and leaves the work to the final cut.
TEST(ShortlistTest, KeepsTheSetTopKKeeps) {
  constexpr size_t kN = 20000;
  const std::vector<std::vector<float>> value_sets = {
      {0.0f, 0.5f, 1.0f, 2.5f, 4.0f},
      {-2.0f, -0.5f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, 1.5f, 3.0f}};
  for (size_t v = 0; v < value_sets.size(); ++v) {
    const std::vector<float>& values = value_sets[v];
    Rng rng(41);
    std::vector<Neighbor> stream(kN);
    for (size_t i = 0; i < kN; ++i) {
      stream[i] = {values[rng.UniformInt(values.size())],
                   static_cast<uint32_t>(3 * i + 7)};
    }
    std::vector<std::vector<Neighbor>> orders(3, stream);
    for (size_t i = kN; i > 1; --i) {
      std::swap(orders[0][i - 1], orders[0][rng.UniformInt(i)]);
    }
    std::sort(orders[1].begin(), orders[1].end());
    std::sort(orders[2].rbegin(), orders[2].rend());
    for (size_t o = 0; o < orders.size(); ++o) {
      for (const size_t keep :
           {size_t{0}, size_t{1}, size_t{10}, size_t{2500}, size_t{4500},
            size_t{11000}, kN - 1, kN, kN + 5}) {
        SCOPED_TRACE(testing::Message()
                     << "values " << v << " order " << o << " keep " << keep);
        Shortlist shortlist(keep);
        TopK heap(keep);
        for (const Neighbor& n : orders[o]) {
          shortlist.Push(n.distance, n.id);
          heap.Push(n.distance, n.id);
        }
        const std::vector<Neighbor> got = shortlist.Take();
        std::vector<Neighbor> sorted = got;
        std::sort(sorted.begin(), sorted.end());
        const std::vector<Neighbor> want = heap.TakeSorted();
        ASSERT_EQ(sorted.size(), want.size());
        std::vector<bool> kept(3 * kN + 7, false);
        for (size_t j = 0; j < want.size(); ++j) {
          ASSERT_EQ(sorted[j].id, want[j].id) << "slot " << j;
          ASSERT_EQ(sorted[j].distance, want[j].distance) << "slot " << j;
          kept[want[j].id] = true;
        }
        // Arrival order, with each pair's distance bits (-0 stays -0).
        size_t j = 0;
        for (const Neighbor& n : orders[o]) {
          if (!kept[n.id]) continue;
          ASSERT_LT(j, got.size());
          ASSERT_EQ(got[j].id, n.id) << "position " << j;
          ASSERT_EQ(std::memcmp(&got[j].distance, &n.distance, sizeof(float)),
                    0)
              << "position " << j;
          ++j;
        }
        ASSERT_EQ(j, got.size());
      }
    }
    if (v != 0) continue;
    // A keep near SIZE_MAX (e.g. a rerank budget meaning "everything") keeps
    // the whole stream: the buffer size saturates instead of wrapping.
    std::sort(stream.begin(), stream.end());
    for (const size_t keep : {std::numeric_limits<size_t>::max() / 4 + 1,
                              std::numeric_limits<size_t>::max()}) {
      Shortlist shortlist(keep);
      for (const Neighbor& n : orders[0]) shortlist.Push(n.distance, n.id);
      std::vector<Neighbor> got = shortlist.Take();
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got.size(), kN) << "keep " << keep;
      for (size_t j = 0; j < kN; ++j) ASSERT_EQ(got[j].id, stream[j].id);
    }
  }
}

class BruteForceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BruteForceTest, MatchesExhaustiveReference) {
  const size_t k = GetParam();
  Rng rng(k * 7 + 1);
  const Matrix base = Matrix::RandomGaussian(120, 12, &rng);
  const Matrix queries = Matrix::RandomGaussian(15, 12, &rng);
  const KnnResult result = BruteForceKnn(base, queries, k);
  ASSERT_EQ(result.k, k);

  for (size_t q = 0; q < queries.rows(); ++q) {
    // Exhaustive reference sort.
    std::vector<std::pair<float, uint32_t>> all;
    for (size_t b = 0; b < base.rows(); ++b) {
      all.push_back({SquaredDistance(queries.Row(q), base.Row(b), 12),
                     static_cast<uint32_t>(b)});
    }
    std::sort(all.begin(), all.end());
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(result.indices[q * k + j], all[j].second)
          << "query " << q << " pos " << j;
      EXPECT_NEAR(result.distances[q * k + j], all[j].first, 1e-3f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, BruteForceTest, ::testing::Values(1, 5, 10, 50));

TEST(BruteForceTest, DistancesAscendPerQuery) {
  Rng rng(2);
  const Matrix base = Matrix::RandomGaussian(300, 8, &rng);
  const Matrix queries = Matrix::RandomGaussian(10, 8, &rng);
  const KnnResult result = BruteForceKnn(base, queries, 20);
  for (size_t q = 0; q < 10; ++q) {
    for (size_t j = 1; j < 20; ++j) {
      EXPECT_LE(result.distances[q * 20 + j - 1], result.distances[q * 20 + j]);
    }
  }
}

TEST(BruteForceTest, BlockBoundaryCorrectness) {
  // More base points than one internal tile to cross the blocking path.
  Rng rng(3);
  const Matrix base = Matrix::RandomGaussian(4100, 4, &rng);
  Matrix query(1, 4);
  for (size_t j = 0; j < 4; ++j) query(0, j) = base(4099, j);
  const KnnResult result = BruteForceKnn(base, query, 1);
  EXPECT_EQ(result.indices[0], 4099u);
  EXPECT_NEAR(result.distances[0], 0.0f, 1e-5f);
}

TEST(KnnMatrixTest, ExcludesSelf) {
  Rng rng(4);
  const Matrix data = Matrix::RandomGaussian(50, 6, &rng);
  const KnnResult knn = BuildKnnMatrix(data, 5);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NE(knn.indices[i * 5 + j], i) << "row " << i;
    }
  }
}

TEST(KnnMatrixTest, RowsHaveDistinctNeighbors) {
  Rng rng(5);
  const Matrix data = Matrix::RandomGaussian(40, 6, &rng);
  const KnnResult knn = BuildKnnMatrix(data, 8);
  for (size_t i = 0; i < 40; ++i) {
    std::set<uint32_t> unique(knn.Row(i), knn.Row(i) + 8);
    EXPECT_EQ(unique.size(), 8u);
  }
}

TEST(KnnMatrixTest, NearDuplicatePointsAreMutualNeighbors) {
  Matrix data(4, 2);
  data(0, 0) = 0.0f;
  data(1, 0) = 0.01f;   // near point 0
  data(2, 0) = 10.0f;
  data(3, 0) = 10.01f;  // near point 2
  const KnnResult knn = BuildKnnMatrix(data, 1);
  EXPECT_EQ(knn.indices[0], 1u);
  EXPECT_EQ(knn.indices[1], 0u);
  EXPECT_EQ(knn.indices[2], 3u);
  EXPECT_EQ(knn.indices[3], 2u);
}

// The ids RerankCandidatesScored returns under squared L2, in rank order.
std::vector<uint32_t> RerankIds(const Matrix& base, const float* query,
                                const std::vector<uint32_t>& candidates,
                                size_t k) {
  std::vector<uint32_t> ids;
  for (const Neighbor& n : RerankCandidatesScored(
           DistanceComputer(base, Metric::kSquaredL2), query, candidates, k)) {
    ids.push_back(n.id);
  }
  return ids;
}

TEST(RerankTest, ReturnsTopKByExactDistance) {
  Matrix base(5, 1);
  for (size_t i = 0; i < 5; ++i) base(i, 0) = static_cast<float>(i);
  const float query = 2.2f;
  const auto top = RerankIds(base, &query, {0, 1, 2, 3, 4}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 2u);
  EXPECT_EQ(top[1], 3u);
}

TEST(RerankTest, DeduplicatesOverlappingCandidates) {
  // Overlapping ensemble probes can repeat ids; duplicates must not occupy
  // several top-k slots. An ascending list with a repeat must still dedupe;
  // a strictly increasing one (a single probed bucket) skips the sort.
  Matrix base(4, 1);
  for (size_t i = 0; i < 4; ++i) base(i, 0) = static_cast<float>(i);
  const float query = 0.0f;
  for (const std::vector<uint32_t>& candidates :
       {std::vector<uint32_t>{2, 0, 0, 1, 1, 1, 2, 3},
        std::vector<uint32_t>{0, 1, 1, 2, 3},
        std::vector<uint32_t>{0, 1, 2, 3}}) {
    const auto top = RerankIds(base, &query, candidates, 4);
    EXPECT_EQ(top, (std::vector<uint32_t>{0, 1, 2, 3}));
  }
}

TEST(RerankTest, HandlesFewerCandidatesThanK) {
  Matrix base(3, 1);
  const float query = 0.0f;
  const auto top = RerankIds(base, &query, {1}, 5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 1u);
}

TEST(FilterKnnTest, KeepsInSubsetNeighborsWithLocalIds) {
  // Global: 6 points; knn lists handcrafted.
  KnnResult global;
  global.k = 3;
  global.indices = {
      1, 2, 3,  // 0
      0, 2, 4,  // 1
      0, 1, 5,  // 2
      0, 4, 5,  // 3
      1, 3, 5,  // 4
      2, 3, 4,  // 5
  };
  global.distances.assign(18, 0.0f);
  // Subset {0, 2, 4} -> local ids {0:0, 2:1, 4:2}.
  const KnnResult local = FilterKnnToSubset(global, {0, 2, 4});
  ASSERT_EQ(local.k, 3u);
  // Point 0's global list {1,2,3} -> kept {2}=local 1, padded cyclically.
  EXPECT_EQ(local.indices[0], 1u);
  EXPECT_EQ(local.indices[1], 1u);
  EXPECT_EQ(local.indices[2], 1u);
  // Point 2's list {0,1,5} -> kept {0}=local 0.
  EXPECT_EQ(local.indices[3], 0u);
}

TEST(FilterKnnTest, SelfPadWhenNoNeighborSurvives) {
  KnnResult global;
  global.k = 2;
  global.indices = {1, 2, 0, 2, 0, 1};
  global.distances.assign(6, 0.0f);
  const KnnResult local = FilterKnnToSubset(global, {0});  // alone
  EXPECT_EQ(local.indices[0], 0u);
  EXPECT_EQ(local.indices[1], 0u);
}

}  // namespace
}  // namespace usp
