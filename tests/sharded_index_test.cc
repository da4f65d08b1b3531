// Tests for the scatter-gather sharding layer (serve/sharded_index.h): the
// acceptance bar is bit-identity — ids AND distances — against the
// equivalent single-index search at shard counts {1, 3, 8}, filtered and
// unfiltered, plus save/OpenIndex round-trips (heap and mmap), the
// cross-shard TopK merge edge cases (fewer-than-k shards, duplicate-distance
// ties, empty shards), SearchStats aggregation across the fan-out, and
// Delete on static shards (returns false).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/workload.h"
#include "index/serialize.h"
#include "knn/brute_force.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "tensor/matrix.h"

namespace usp {
namespace {

// Large enough that every IVF shard (nlist <= sqrt(shard rows)) probes all
// of its lists, making shard search exact — the regime where the bit-identity
// contract binds.
constexpr size_t kFullBudget = 1u << 20;

const Workload& ShardWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 700;
    spec.num_queries = 30;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 77;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Ids must match a reference ranking bitwise; distances are checked against
// the single-shard union index (same scoring kernel), not BruteForceKnn,
// whose accumulation order differs at the ulp level.
void ExpectIdsEqual(const BatchSearchResult& got, const KnnResult& expected,
                    size_t nq, const std::string& label) {
  ASSERT_EQ(got.k, expected.k) << label;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t j = 0; j < got.k; ++j) {
      EXPECT_EQ(got.Row(q)[j], expected.Row(q)[j])
          << label << " q=" << q << " j=" << j;
    }
  }
}

void ExpectBitIdentical(const BatchSearchResult& got,
                        const BatchSearchResult& want,
                        const std::string& label) {
  ASSERT_EQ(got.k, want.k) << label;
  EXPECT_EQ(got.ids, want.ids) << label;
  EXPECT_EQ(got.distances, want.distances) << label;
}

TEST(ShardedIndexTest, StaticShardsBitIdenticalToSingleIndex) {
  const Workload& w = ShardWorkload();
  const size_t k = 10;
  // The union index: one shard holding every point. Anchor its ids against
  // exact brute force, then demand every other shard count reproduce it
  // bit-for-bit (ids AND distances).
  ShardedIndexConfig union_config;
  union_config.num_shards = 1;
  const ShardedIndex union_index(w.base, union_config);
  const BatchSearchResult want =
      union_index.SearchBatch(w.queries, k, kFullBudget);
  ExpectIdsEqual(want, BruteForceKnn(w.base, w.queries, k), w.queries.rows(),
                 "union vs brute force");
  for (size_t shards : {3u, 8u}) {
    ShardedIndexConfig config;
    config.num_shards = shards;
    const ShardedIndex index(w.base, config);
    EXPECT_EQ(index.size(), w.base.rows());
    EXPECT_EQ(index.num_shards(), shards);
    EXPECT_FALSE(index.is_mutable());
    const BatchSearchResult got =
        index.SearchBatch(w.queries, k, kFullBudget);
    ExpectBitIdentical(got, want, "shards=" + std::to_string(shards));
  }
}

TEST(ShardedIndexTest, FilteredSearchBitIdenticalToFilteredBruteForce) {
  const Workload& w = ShardWorkload();
  const size_t k = 10;
  // ~29% selectivity, scattered across the id space (and thus across every
  // shard placement).
  IdSelectorBitmap filter(w.base.rows());
  for (uint32_t id = 0; id < w.base.rows(); id += 7) {
    filter.Set(id);
    filter.Set(id + 1 < w.base.rows() ? id + 1 : id);
  }
  SearchRequest request;
  request.queries = w.queries;
  request.options.k = k;
  request.options.budget = kFullBudget;
  request.options.filter = &filter;

  ShardedIndexConfig union_config;
  union_config.num_shards = 1;
  const ShardedIndex union_index(w.base, union_config);
  const BatchSearchResult want = union_index.SearchBatch(request);
  ExpectIdsEqual(want,
                 BruteForceKnn(w.base, w.queries, k, Metric::kSquaredL2,
                               &filter),
                 w.queries.rows(), "filtered union vs brute force");
  for (size_t shards : {3u, 8u}) {
    ShardedIndexConfig config;
    config.num_shards = shards;
    const ShardedIndex index(w.base, config);
    const BatchSearchResult got = index.SearchBatch(request);
    ExpectBitIdentical(got, want, "filtered shards=" + std::to_string(shards));
  }
}

TEST(ShardedIndexTest, ResultsBitIdenticalAtEveryThreadCount) {
  const Workload& w = ShardWorkload();
  ShardedIndexConfig config;
  config.num_shards = 3;
  const ShardedIndex index(w.base, config);
  const BatchSearchResult serial =
      index.SearchBatch(w.queries, 10, kFullBudget, /*num_threads=*/1);
  for (size_t nt : {0u, 2u, 5u}) {
    const BatchSearchResult got =
        index.SearchBatch(w.queries, 10, kFullBudget, nt);
    EXPECT_EQ(got.ids, serial.ids) << "nt=" << nt;
    EXPECT_EQ(got.distances, serial.distances) << "nt=" << nt;
    EXPECT_EQ(got.candidate_counts, serial.candidate_counts) << "nt=" << nt;
  }
}

TEST(ShardedIndexTest, MutableShardsMatchSingleDynamicIndex) {
  const Workload& w = ShardWorkload();
  ShardedIndexConfig config;
  config.num_shards = 3;
  ShardedIndex sharded(w.base.cols(), config);
  EXPECT_TRUE(sharded.is_mutable());
  DynamicIndex single(w.base.cols());

  const std::vector<uint32_t> sharded_ids = sharded.AddBatch(w.base);
  const std::vector<uint32_t> single_ids = single.AddBatch(w.base);
  ASSERT_EQ(sharded_ids, single_ids);  // dense ids in both
  EXPECT_EQ(sharded.size(), w.base.rows());

  const size_t k = 10;
  BatchSearchResult got = sharded.SearchBatch(w.queries, k, kFullBudget);
  BatchSearchResult want = single.SearchBatch(w.queries, k, kFullBudget);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.distances, want.distances);

  // Deletes route to the right shard and results still agree.
  for (uint32_t id : {5u, 123u, 400u, 699u}) {
    EXPECT_TRUE(sharded.Contains(id));
    EXPECT_TRUE(sharded.Delete(id));
    EXPECT_FALSE(sharded.Contains(id));
    EXPECT_FALSE(sharded.Delete(id));  // double delete
    EXPECT_TRUE(single.Delete(id));
  }
  EXPECT_FALSE(sharded.Delete(99999));  // never assigned
  EXPECT_EQ(sharded.size(), w.base.rows() - 4);
  got = sharded.SearchBatch(w.queries, k, kFullBudget);
  want = single.SearchBatch(w.queries, k, kFullBudget);
  EXPECT_EQ(got.ids, want.ids);
  EXPECT_EQ(got.distances, want.distances);
}

TEST(ShardedIndexTest, ShardReturningFewerThanKPadsWithInvalidId) {
  // 5 points across 3 shards, k = 10: every merged row must hold the 5 real
  // neighbors first, then an uninterrupted run of kInvalidId / +inf slots.
  const Workload& w = ShardWorkload();
  const MatrixView tiny(w.base.data(), 5, w.base.cols());
  ShardedIndexConfig config;
  config.num_shards = 3;
  const ShardedIndex index(tiny, config);
  const size_t k = 10;
  const BatchSearchResult got = index.SearchBatch(w.queries, k, kFullBudget);
  // Brute force cannot be asked for k > n; rank the 5 real rows at k = 5.
  const KnnResult expected = BruteForceKnn(tiny, w.queries, 5);
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(got.Row(q)[j], expected.Row(q)[j]);
    }
    for (size_t j = 5; j < k; ++j) {
      EXPECT_EQ(got.Row(q)[j], kInvalidId) << "q=" << q << " j=" << j;
      EXPECT_EQ(got.DistanceRow(q)[j],
                std::numeric_limits<float>::infinity());
    }
  }
}

TEST(ShardedIndexTest, EmptyShardsAreSkipped) {
  // 4 points into 8 shards: at least 4 hash partitions are empty, and those
  // shards must neither break the merge nor appear in shard_size.
  const Workload& w = ShardWorkload();
  const MatrixView tiny(w.base.data(), 4, w.base.cols());
  ShardedIndexConfig config;
  config.num_shards = 8;
  const ShardedIndex index(tiny, config);
  size_t absent = 0, total = 0;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    if (index.shard_size(s) == 0) ++absent;
    total += index.shard_size(s);
  }
  EXPECT_GE(absent, 4u);
  EXPECT_EQ(total, 4u);
  const BatchSearchResult got = index.SearchBatch(w.queries, 4, kFullBudget);
  ExpectIdsEqual(got, BruteForceKnn(tiny, w.queries, 4), w.queries.rows(),
                 "empty-shards vs brute force");
  ShardedIndexConfig union_config;
  union_config.num_shards = 1;
  const ShardedIndex union_index(tiny, union_config);
  ExpectBitIdentical(got, union_index.SearchBatch(w.queries, 4, kFullBudget),
                     "empty-shards vs union");
}

TEST(ShardedIndexTest, DuplicateDistanceTiesMergeInGlobalIdOrder) {
  // 60 rows, the first 40 all the same vector: every query ties across the
  // shard boundary, and the merged row must break ties exactly like a single
  // index would — ascending global id.
  const size_t dim = 8;
  Matrix base(60, dim);
  for (size_t i = 0; i < 60; ++i) {
    for (size_t d = 0; d < dim; ++d) {
      base.Row(i)[d] = i < 40 ? 1.0f : static_cast<float>(i + d);
    }
  }
  Matrix queries(3, dim);
  for (size_t q = 0; q < 3; ++q) {
    for (size_t d = 0; d < dim; ++d) {
      queries.Row(q)[d] = 1.0f + 0.01f * static_cast<float>(q);
    }
  }
  const size_t k = 10;
  ShardedIndexConfig union_config;
  union_config.num_shards = 1;
  const ShardedIndex union_index(base, union_config);
  const BatchSearchResult want =
      union_index.SearchBatch(queries, k, kFullBudget);
  for (size_t shards : {3u, 8u}) {
    ShardedIndexConfig config;
    config.num_shards = shards;
    const ShardedIndex index(base, config);
    const BatchSearchResult got = index.SearchBatch(queries, k, kFullBudget);
    ExpectBitIdentical(got, want, "ties shards=" + std::to_string(shards));
    // The winning ids are the 10 smallest of the 40 tied duplicates — the
    // ascending-global-id tie-break a single index would produce.
    for (size_t q = 0; q < 3; ++q) {
      for (size_t j = 0; j < k; ++j) {
        EXPECT_EQ(got.Row(q)[j], static_cast<uint32_t>(j))
            << "shards=" << shards << " q=" << q;
      }
    }
  }
}

TEST(ShardedIndexTest, StatsAggregateAcrossShards) {
  const Workload& w = ShardWorkload();
  const size_t n = w.base.rows();
  ShardedIndexConfig config;
  config.num_shards = 3;
  const ShardedIndex index(w.base, config);

  // Unfiltered at full budget: every live row is scored somewhere, so the
  // summed candidates must equal n and candidate_counts must mirror stats.
  SearchRequest request;
  request.queries = w.queries;
  request.options.k = 10;
  request.options.budget = kFullBudget;
  request.options.stats = true;
  BatchSearchResult got = index.SearchBatch(request);
  ASSERT_TRUE(got.stats.has_value());
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    EXPECT_EQ(got.candidate_counts[q], n);
    EXPECT_EQ(got.stats->candidates_scored[q], got.candidate_counts[q]);
    EXPECT_GT(got.stats->bins_probed[q], 0u);  // summed across shards
  }

  // Filtered pushdown at full budget: scored + filtered_out must account for
  // every row in the index — the Eq.4 budget-accounting identity the fan-out
  // has to preserve.
  IdSelectorRange filter(100, 300);
  request.options.filter = &filter;
  request.options.plan = PlanMode::kForcePushdown;
  got = index.SearchBatch(request);
  ASSERT_TRUE(got.stats.has_value());
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    EXPECT_EQ(got.stats->candidates_scored[q], 200u);
    EXPECT_EQ(got.stats->candidates_scored[q] + got.stats->filtered_out[q],
              n);
  }
}

TEST(ShardedIndexTest, SaveOpenRoundTripIsBitIdentical) {
  const Workload& w = ShardWorkload();
  const size_t k = 10;
  ShardedIndexConfig config;
  config.num_shards = 3;
  const ShardedIndex index(w.base, config);
  const BatchSearchResult want = index.SearchBatch(w.queries, k, kFullBudget);

  const std::string path = TempPath("sharded_static.uspidx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  std::ifstream saved_file(path, std::ios::binary);
  const std::string saved((std::istreambuf_iterator<char>(saved_file)),
                          std::istreambuf_iterator<char>());
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    StatusOr<std::unique_ptr<Index>> loaded = OpenIndex(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    const Index& reopened = *loaded.value();
    EXPECT_EQ(reopened.type(), IndexType::kSharded);
    EXPECT_EQ(reopened.size(), w.base.rows());
    EXPECT_EQ(reopened.dim(), w.base.cols());
    const BatchSearchResult got =
        reopened.SearchBatch(w.queries, k, kFullBudget);
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.distances, want.distances);
    EXPECT_EQ(got.candidate_counts, want.candidate_counts);
    // Saving the loaded index reproduces the saved bytes.
    StatusOr<std::string> resaved = SerializeIndex(reopened);
    ASSERT_TRUE(resaved.ok()) << resaved.status().message();
    EXPECT_TRUE(resaved.value() == saved);
  }
}

TEST(ShardedIndexTest, MutableRoundTripKeepsDeletesAndEmptyShards) {
  const Workload& w = ShardWorkload();
  const size_t k = 10;
  ShardedIndexConfig config;
  config.num_shards = 8;
  ShardedIndex index(w.base.cols(), config);
  // Only 20 points into 8 shards (some shards stay empty but present), then
  // a few deletes: the round trip must preserve tombstones and id routing.
  const MatrixView small(w.base.data(), 20, w.base.cols());
  index.AddBatch(small);
  EXPECT_TRUE(index.Delete(3));
  EXPECT_TRUE(index.Delete(11));
  const BatchSearchResult want = index.SearchBatch(w.queries, k, kFullBudget);

  const std::string path = TempPath("sharded_mutable.uspidx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    StatusOr<std::unique_ptr<Index>> loaded = OpenIndex(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    const Index& reopened = *loaded.value();
    EXPECT_EQ(reopened.type(), IndexType::kSharded);
    EXPECT_EQ(reopened.size(), 18u);
    const BatchSearchResult got =
        reopened.SearchBatch(w.queries, k, kFullBudget);
    EXPECT_EQ(got.ids, want.ids);
    EXPECT_EQ(got.distances, want.distances);
    for (size_t i = 0; i < got.ids.size(); ++i) {
      EXPECT_NE(got.ids[i], 3u);
      EXPECT_NE(got.ids[i], 11u);
    }
  }
}

// A static shard cannot delete: Delete returns false and changes nothing.
TEST(ShardedIndexTest, DeleteOnStaticShardsReturnsFalse) {
  const Workload& w = ShardWorkload();
  const size_t k = 10;
  ShardedIndexConfig config;
  config.num_shards = 3;
  ShardedIndex index(MatrixView(w.base.data(), 500, w.base.cols()), config);
  ASSERT_FALSE(index.is_mutable());
  const BatchSearchResult before = index.SearchBatch(w.queries, k, kFullBudget);

  EXPECT_FALSE(index.Delete(5));
  EXPECT_TRUE(index.Contains(5));
  EXPECT_FALSE(index.Delete(500));  // never assigned
  EXPECT_FALSE(index.Contains(500));
  EXPECT_EQ(index.size(), 500u);
  const BatchSearchResult after = index.SearchBatch(w.queries, k, kFullBudget);
  ExpectBitIdentical(after, before, "static delete");
}

TEST(ShardedIndexTest, HashPlacementIsStableAndCoversAllShards) {
  // The placement function is part of the on-disk contract: pin a few values
  // so an accidental change fails loudly instead of corrupting round-trips.
  EXPECT_EQ(ShardedIndex::Place(0, 1), 0u);
  for (uint32_t id = 0; id < 1000; ++id) {
    EXPECT_EQ(ShardedIndex::Place(id, 8), ShardedIndex::Place(id, 8));
    EXPECT_LT(ShardedIndex::Place(id, 3), 3u);
  }
  // 1000 dense ids over 8 shards: every shard gets a reasonable share.
  std::vector<size_t> counts(8, 0);
  for (uint32_t id = 0; id < 1000; ++id) {
    ++counts[ShardedIndex::Place(id, 8)];
  }
  for (size_t s = 0; s < 8; ++s) {
    EXPECT_GT(counts[s], 50u) << "shard " << s << " starved";
  }
}

}  // namespace
}  // namespace usp
