// Tests for knn/: TopK heap and Shortlist selection semantics, brute-force
// search against an O(n^2) reference, k'-NN matrix construction invariants,
// candidate re-ranking, and subset filtering.
#include <algorithm>
#include <cstring>
#include <functional>
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

// Checks one shortlist against the TopK(keep) of the same stream: the same
// set, and the kept pairs in arrival order with each pair's distance bits
// (-0 stays -0). `ids` are distinct.
void ExpectShortlistMatchesTopK(const std::vector<Neighbor>& stream,
                                size_t keep, const std::vector<Neighbor>& got) {
  TopK heap(keep);
  for (const Neighbor& n : stream) heap.Push(n.distance, n.id);
  const std::vector<Neighbor> want = heap.TakeSorted();
  std::vector<Neighbor> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), want.size());
  std::set<uint32_t> kept;
  for (size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(sorted[j].id, want[j].id) << "slot " << j;
    ASSERT_EQ(sorted[j].distance, want[j].distance) << "slot " << j;
    kept.insert(want[j].id);
  }
  size_t j = 0;
  for (const Neighbor& n : stream) {
    if (kept.count(n.id) == 0) continue;
    ASSERT_LT(j, got.size());
    ASSERT_EQ(got[j].id, n.id) << "position " << j;
    ASSERT_EQ(std::memcmp(&got[j].distance, &n.distance, sizeof(float)), 0)
        << "position " << j;
    ++j;
  }
  ASSERT_EQ(j, got.size());
}

// The ADC shortlist keeps exactly the set a TopK(keep) keeps, and returns it
// in arrival order. Scores come from a handful of values, so most
// comparisons fall through to the id tie-break; ids are distinct, as in
// every index, and neither ascending within a block nor across blocks. The
// second value set holds negative scores (negated IP and cosine ADC scores)
// below a majority of -0.0f and +0.0f (SQ8's dot proxy -static_cast<float>(0)
// is -0; the two compare equal, so their ties break by id), and keep = 4500
// and 11000 cut inside those zeros. Streams of 20000 pairs come shuffled,
// ascending and descending, in blocks of one size from a single pair to the
// whole stream, so blocks are both smaller and larger than keep: in
// descending (distance, id) order every block beats the kept worst, so the
// buffer (4 * keep slots, at least 64) keeps filling and is cut, even at
// keep = 4500; keep >= n - 1 leaves the work to Take. One Shortlist serves
// every case of a stream through Reset, as in a search worker.
TEST(ShortlistTest, KeepsTheSetTopKKeeps) {
  constexpr size_t kN = 20000;
  const std::vector<std::vector<float>> value_sets = {
      {0.0f, 0.5f, 1.0f, 2.5f, 4.0f},
      {-2.0f, -0.5f, -0.0f, 0.0f, -0.0f, 0.0f, -0.0f, 0.0f, 1.5f, 3.0f}};
  Shortlist shortlist;
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
      std::vector<float> distances;
      std::vector<uint32_t> ids;
      for (const Neighbor& n : orders[o]) {
        distances.push_back(n.distance);
        ids.push_back(n.id);
      }
      for (const size_t keep :
           {size_t{0}, size_t{1}, size_t{10}, size_t{2500}, size_t{4500},
            size_t{11000}, kN - 1, kN, kN + 5}) {
        for (const size_t block :
             {size_t{1}, size_t{7}, size_t{200}, size_t{4096}, kN}) {
          SCOPED_TRACE(testing::Message() << "values " << v << " order " << o
                                          << " keep " << keep << " block "
                                          << block);
          shortlist.Reset(keep);
          for (size_t first = 0; first < kN; first += block) {
            shortlist.Push(distances.data() + first, ids.data() + first,
                           std::min(block, kN - first));
          }
          ExpectShortlistMatchesTopK(orders[o], keep, shortlist.Take());
        }
      }
    }
    if (v != 0) continue;
    // A keep near SIZE_MAX (e.g. a rerank budget meaning "everything") keeps
    // the whole stream: the buffer size saturates instead of wrapping.
    std::sort(stream.begin(), stream.end());
    for (const size_t keep : {std::numeric_limits<size_t>::max() / 4 + 1,
                              std::numeric_limits<size_t>::max()}) {
      Shortlist all(keep);
      for (const Neighbor& n : orders[0]) all.Push(&n.distance, &n.id, 1);
      std::vector<Neighbor> got = all.Take();
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got.size(), kN) << "keep " << keep;
      for (size_t j = 0; j < kN; ++j) ASSERT_EQ(got[j].id, stream[j].id);
    }
  }
  // A null id array numbers the block's pairs from 0.
  const std::vector<float> distances = {3.0f, 1.0f, 2.0f, 1.0f, 0.5f};
  std::vector<Neighbor> stream;
  for (size_t i = 0; i < distances.size(); ++i) {
    stream.push_back({distances[i], static_cast<uint32_t>(i)});
  }
  shortlist.Reset(3);
  shortlist.Push(distances.data(), nullptr, distances.size());
  ExpectShortlistMatchesTopK(stream, 3, shortlist.Take());
}

// The sum entry, as the pq4 fast-scan path feeds it: per probed bucket, the
// kernel's uint16 sums (runs of equal sums are common) and the bucket's ids,
// ascending inside a bucket but not across buckets, scored by a
// non-decreasing map. Against a TopK over (score(sum), id): a QuantizedLut
// style bias + delta * sum with a negative bias, a constant score (a flat
// table's delta of 0), and a coarse map that gives runs of neighbouring sums
// one score, -0.0f and +0.0f among them, so the id tie-break spans several
// sums and the block is scored in full. Keeps run below, at and above the
// bucket sizes, and a null id array numbers one block from 0.
TEST(ShortlistTest, SumBlocksKeepTheSetTopKKeeps) {
  const std::vector<std::function<float(uint16_t)>> scores = {
      [](uint16_t sum) { return -3.5f + 0.0625f * static_cast<float>(sum); },
      [](uint16_t) { return 2.0f; },
      [](uint16_t sum) {
        return sum < 96 ? (sum % 2 == 0 ? -0.0f : 0.0f)
                        : static_cast<float>(sum / 32);
      }};
  Rng rng(43);
  constexpr size_t kBuckets = 6, kBucketRows = 1368;
  std::vector<std::vector<uint16_t>> sums(kBuckets);
  std::vector<std::vector<uint32_t>> ids(kBuckets);
  for (size_t b = 0; b < kBuckets; ++b) {
    for (size_t i = 0; i < kBucketRows - 97 * b; ++i) {
      sums[b].push_back(static_cast<uint16_t>(40 + rng.UniformInt(300)));
      // Bucket b holds the ids i * kBuckets + (kBuckets - 1 - b).
      ids[b].push_back(static_cast<uint32_t>(i * kBuckets + kBuckets - 1 - b));
    }
  }
  Shortlist shortlist;
  for (size_t f = 0; f < scores.size(); ++f) {
    const auto& score = scores[f];
    for (const size_t buckets : {size_t{1}, size_t{3}, kBuckets}) {
      std::vector<Neighbor> stream;
      for (size_t b = 0; b < buckets; ++b) {
        for (size_t i = 0; i < sums[b].size(); ++i) {
          stream.push_back({score(sums[b][i]), ids[b][i]});
        }
      }
      for (const size_t keep : {size_t{0}, size_t{1}, size_t{10}, size_t{200},
                                size_t{1000}, kBucketRows, size_t{9000}}) {
        SCOPED_TRACE(testing::Message() << "score " << f << " buckets "
                                        << buckets << " keep " << keep);
        shortlist.Reset(keep);
        for (size_t b = 0; b < buckets; ++b) {
          shortlist.Push(sums[b].data(), score, ids[b].data(), sums[b].size());
        }
        ExpectShortlistMatchesTopK(stream, keep, shortlist.Take());
      }
    }
    std::vector<Neighbor> stream;
    for (size_t i = 0; i < sums[0].size(); ++i) {
      stream.push_back({score(sums[0][i]), static_cast<uint32_t>(i)});
    }
    shortlist.Reset(200);
    shortlist.Push(sums[0].data(), score, nullptr, sums[0].size());
    ExpectShortlistMatchesTopK(stream, 200, shortlist.Take());
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
