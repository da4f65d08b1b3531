// Tests for the mutable serving layer (serve/dynamic_index.h): exact search
// over the write segment, bit-identical pass-through of a single sealed
// segment, tombstone deletes, seal/compact lifecycle, container round-trips,
// and a read-while-insert stress test (run under TSan by the CI sanitizer
// job) with a recall floor asserted after sealing.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/workload.h"
#include "index/serialize.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "serve/dynamic_index.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace usp {
namespace {

// Budget large enough that every segment (IVF-Flat with nlist <= sqrt(n))
// probes all of its lists, making sealed-segment search exact.
constexpr size_t kFullBudget = 1u << 20;

const Workload& DynWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 600;
    spec.num_queries = 40;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 123;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(DynamicIndexTest, EmptyIndexReturnsPaddingOnly) {
  DynamicIndex index(8);
  Matrix queries(2, 8);
  const BatchSearchResult result = index.SearchBatch(queries, 5, 4);
  ASSERT_EQ(result.ids.size(), 10u);
  for (size_t i = 0; i < result.ids.size(); ++i) {
    EXPECT_EQ(result.ids[i], kInvalidId);
    EXPECT_EQ(result.distances[i],
              std::numeric_limits<float>::infinity());
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(DynamicIndexTest, StatsAggregateAcrossSegments) {
  // Regression for the fan-out stats contract (shared with ShardedIndex):
  // per-query stats must be SUMS over every segment touched, and at full
  // budget scored + filtered_out must account for every live row.
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  DynamicIndex index(w.base.cols());
  // Half the rows sealed into an IVF segment, half served from the write
  // segment, so aggregation spans both search paths.
  index.AddBatch(MatrixView(w.base.data(), n / 2, w.base.cols()));
  index.Seal();
  index.AddBatch(
      MatrixView(w.base.Row(n / 2), n - n / 2, w.base.cols()));

  SearchRequest request;
  request.queries = w.queries;
  request.options.k = 10;
  request.options.budget = kFullBudget;
  request.options.stats = true;
  BatchSearchResult got = index.SearchBatch(request);
  ASSERT_TRUE(got.stats.has_value());
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    EXPECT_EQ(got.candidate_counts[q], n) << "q=" << q;
    EXPECT_EQ(got.stats->candidates_scored[q], got.candidate_counts[q]);
    EXPECT_GT(got.stats->bins_probed[q], 0u);
  }

  // Filtered pushdown: every live row is either scored or filtered out.
  IdSelectorRange filter(50, 250);
  request.options.filter = &filter;
  request.options.plan = PlanMode::kForcePushdown;
  got = index.SearchBatch(request);
  ASSERT_TRUE(got.stats.has_value());
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    EXPECT_EQ(got.stats->candidates_scored[q], 200u) << "q=" << q;
    EXPECT_EQ(got.stats->candidates_scored[q] + got.stats->filtered_out[q], n)
        << "q=" << q;
  }
}

TEST(DynamicIndexTest, WriteSegmentSearchIsExact) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  const std::vector<uint32_t> ids = index.AddBatch(w.base);
  ASSERT_EQ(ids.size(), w.base.rows());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], static_cast<uint32_t>(i));  // contiguous global ids
  }
  EXPECT_EQ(index.size(), w.base.rows());
  EXPECT_EQ(index.write_segment_rows(), w.base.rows());

  const size_t k = 10;
  const BatchSearchResult got = index.SearchBatch(w.queries, k, 1);
  const KnnResult expected = BruteForceKnn(w.base, w.queries, k);
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(got.Row(q)[j], expected.Row(q)[j]) << "q=" << q << " j=" << j;
    }
  }
}

TEST(DynamicIndexTest, SingleSealedSegmentIsBitIdentical) {
  const Workload& w = DynWorkload();
  IvfConfig ivf;
  ivf.nlist = 16;
  auto segment = std::make_unique<IvfFlatIndex>(&w.base, ivf);
  const size_t k = 10, budget = 4;
  const BatchSearchResult direct =
      segment->SearchBatch(w.queries, k, budget);

  DynamicIndex index(w.base.cols());
  // w.base outlives the test; no storage transfer needed.
  EXPECT_EQ(index.AddSealedSegment(std::move(segment)), 0u);
  EXPECT_EQ(index.size(), w.base.rows());
  const BatchSearchResult via_dynamic =
      index.SearchBatch(w.queries, k, budget);

  // The acceptance bar: ids, distances, and candidate counts all
  // bit-identical to querying the segment directly.
  EXPECT_EQ(via_dynamic.ids, direct.ids);
  EXPECT_EQ(via_dynamic.distances, direct.distances);
  EXPECT_EQ(via_dynamic.candidate_counts, direct.candidate_counts);
}

TEST(DynamicIndexTest, DeletedIdsNeverAppear) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  index.AddBatch(w.base);

  std::vector<uint32_t> deleted = {3, 17, 100, 599};
  for (uint32_t id : deleted) {
    EXPECT_TRUE(index.Contains(id));
    EXPECT_TRUE(index.Delete(id));
    EXPECT_FALSE(index.Contains(id));
    EXPECT_FALSE(index.Delete(id));  // double delete
  }
  EXPECT_FALSE(index.Delete(99999));  // never assigned
  EXPECT_EQ(index.size(), w.base.rows() - deleted.size());

  const std::unordered_set<uint32_t> gone(deleted.begin(), deleted.end());
  const BatchSearchResult result =
      index.SearchBatch(w.base, 20, kFullBudget);  // query every base point
  for (size_t q = 0; q < w.base.rows(); ++q) {
    for (size_t j = 0; j < result.k; ++j) {
      const uint32_t id = result.Row(q)[j];
      if (id == kInvalidId) break;
      EXPECT_EQ(gone.count(id), 0u) << "deleted id " << id << " surfaced";
    }
  }

  // Deletes stay deleted across a seal.
  index.Seal();
  EXPECT_EQ(index.num_sealed_segments(), 1u);
  const BatchSearchResult sealed = index.SearchBatch(w.queries, 20, kFullBudget);
  for (size_t i = 0; i < sealed.ids.size(); ++i) {
    if (sealed.ids[i] == kInvalidId) continue;
    EXPECT_EQ(gone.count(sealed.ids[i]), 0u);
  }
}

TEST(DynamicIndexTest, SealPreservesExactRecall) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  index.AddBatch(w.base);

  const size_t k = 10;
  const BatchSearchResult before = index.SearchBatch(w.queries, k, kFullBudget);
  index.Seal();
  EXPECT_EQ(index.write_segment_rows(), 0u);
  EXPECT_EQ(index.num_sealed_segments(), 1u);
  const BatchSearchResult after = index.SearchBatch(w.queries, k, kFullBudget);

  // Both are exact (brute force before; full-probe IVF-Flat after), so the
  // result sets agree.
  EXPECT_EQ(before.ids, after.ids);
}

// The write segment scores rows with the per-row kernel a sealed segment
// uses, so a row reports the same distance bits before and after Seal().
// Unfiltered L2 at full budget must equal filtered brute force over the live
// rows (the per-row kernel path) in ids and distances, at every thread count
// of the segment fan-out; radius rows must match at every thread count too.
TEST(DynamicIndexTest, WriteSegmentScoresLikeSealedSegments) {
  const size_t n = 900, dim = 16, k = 10;
  Rng rng(11);
  const Matrix data = Matrix::RandomGaussian(n, dim, &rng);
  const Matrix queries = Matrix::RandomGaussian(40, dim, &rng);

  DynamicIndex index(dim);  // kSquaredL2
  index.AddBatch(MatrixView(data.Row(0), 300, dim));
  index.Seal();
  index.AddBatch(MatrixView(data.Row(300), 300, dim));
  index.Seal();
  index.AddBatch(MatrixView(data.Row(600), n - 600, dim));
  ASSERT_EQ(index.num_sealed_segments(), 2u);
  ASSERT_EQ(index.write_segment_rows(), n - 600);

  // Every 11th id deleted: tombstones in both sealed segments and the write
  // segment. Global ids are the data row numbers.
  IdSelectorBitmap live(n);
  for (uint32_t id = 0; id < n; ++id) {
    if (id % 11 == 0) {
      ASSERT_TRUE(index.Delete(id));
    } else {
      live.Set(id);
    }
  }
  const KnnResult want =
      BruteForceKnn(data, queries, k, Metric::kSquaredL2, &live);
  std::vector<float> kth(queries.rows());
  for (size_t q = 0; q < queries.rows(); ++q) {
    kth[q] = want.distances[q * k + k - 1];
  }
  std::nth_element(kth.begin(), kth.begin() + kth.size() / 2, kth.end());
  const float radius = kth[kth.size() / 2];
  const RadiusResult want_radius =
      BruteForceRadius(data, queries, radius, Metric::kSquaredL2, &live);

  for (const size_t threads : {1, 0, 2, 5}) {
    const BatchSearchResult got =
        index.SearchBatch(queries, k, kFullBudget, threads);
    EXPECT_EQ(got.ids, want.indices) << "threads=" << threads;
    EXPECT_EQ(got.distances, want.distances) << "threads=" << threads;

    RadiusOptions options;
    options.num_threads = threads;
    const RadiusResult rows = index.RadiusSearch(queries, radius, options);
    EXPECT_EQ(rows.offsets, want_radius.offsets) << "threads=" << threads;
    EXPECT_EQ(rows.ids, want_radius.ids) << "threads=" << threads;
    EXPECT_EQ(rows.distances, want_radius.distances) << "threads=" << threads;
  }

  // Sealing the write segment moves its rows without changing a bit.
  index.Seal();
  ASSERT_EQ(index.write_segment_rows(), 0u);
  const BatchSearchResult sealed = index.SearchBatch(queries, k, kFullBudget);
  EXPECT_EQ(sealed.ids, want.indices);
  EXPECT_EQ(sealed.distances, want.distances);
  const RadiusResult sealed_rows = index.RadiusSearch(queries, radius);
  EXPECT_EQ(sealed_rows.ids, want_radius.ids);
  EXPECT_EQ(sealed_rows.distances, want_radius.distances);
}

// A delete after Seal counts against the sealed segment that holds the row,
// which over-fetches by its tombstones: of twelve copies of one row, eleven
// deleted after the seal, the twelfth stays a k = 1 query's nearest neighbor.
TEST(DynamicIndexTest, DeletesAfterSealCountAgainstTheirSegment) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  for (int i = 0; i < 12; ++i) index.Add(w.base.Row(0));
  index.AddBatch(MatrixView(w.base.Row(1), 100, w.base.cols()));
  index.Seal();
  for (uint32_t id = 0; id < 11; ++id) ASSERT_TRUE(index.Delete(id));
  const BatchSearchResult result = index.SearchBatch(
      MatrixView(w.base.Row(0), 1, w.base.cols()), 1, kFullBudget);
  EXPECT_EQ(result.Row(0)[0], 11u);
}

TEST(DynamicIndexTest, CompactDropsTombstonesAndReclaimsIds) {
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  DynamicIndex index(w.base.cols());

  // Two sealed segments + a small write tail.
  index.AddBatch(MatrixView(w.base.Row(0), 250, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(250), 250, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(500), n - 500, w.base.cols()));
  ASSERT_EQ(index.num_sealed_segments(), 2u);
  ASSERT_EQ(index.write_segment_rows(), n - 500);

  std::vector<uint32_t> deleted = {1, 251, 400};  // one per sealed segment
  for (uint32_t id : deleted) ASSERT_TRUE(index.Delete(id));
  EXPECT_EQ(index.num_tombstones(), deleted.size());

  index.Compact();
  EXPECT_EQ(index.num_sealed_segments(), 1u);
  EXPECT_EQ(index.num_tombstones(), 0u);  // reclaimed
  EXPECT_EQ(index.size(), n - deleted.size());
  for (uint32_t id : deleted) {
    EXPECT_FALSE(index.Contains(id));
    EXPECT_FALSE(index.Delete(id));  // id is gone, not deletable again
  }

  // Every live point still finds itself as its own nearest neighbor.
  std::vector<uint32_t> self(n);
  for (size_t i = 0; i < n; ++i) self[i] = static_cast<uint32_t>(i);
  const BatchSearchResult result = index.SearchBatch(w.base, 1, kFullBudget);
  for (size_t q = 0; q < n; ++q) {
    const bool was_deleted =
        std::find(deleted.begin(), deleted.end(), q) != deleted.end();
    if (was_deleted) continue;
    EXPECT_EQ(result.Row(q)[0], self[q]) << "q=" << q;
  }
}

// Regression: a Delete landing while Compact() trains the merged segment
// (outside the lock) must survive the install — the merged segment contains
// the row, so its tombstone must not be reclaimed with the snapshot-excluded
// ones.
TEST(DynamicIndexTest, DeleteDuringCompactionSurvives) {
  const Workload& w = DynWorkload();
  DynamicIndex* index_ptr = nullptr;
  std::atomic<bool> delete_during_build{false};
  const uint32_t victim = 42;

  DynamicIndexConfig config;
  config.segment_builder = [&](const Matrix& base,
                               Metric metric) -> std::unique_ptr<Index> {
    if (delete_during_build.exchange(false)) {
      EXPECT_TRUE(index_ptr->Delete(victim));  // lands mid-training
    }
    IvfConfig ivf;
    ivf.metric = metric;
    ivf.nlist = 4;
    return std::make_unique<IvfFlatIndex>(&base, ivf);
  };
  DynamicIndex index(w.base.cols(), config);
  index_ptr = &index;
  index.AddBatch(MatrixView(w.base.Row(0), 150, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(150), 150, w.base.cols()));
  index.Seal();
  ASSERT_EQ(index.num_sealed_segments(), 2u);

  delete_during_build.store(true);
  index.Compact();  // Delete(victim) fires while the merged segment trains

  EXPECT_FALSE(index.Contains(victim));
  EXPECT_EQ(index.num_tombstones(), 1u);  // kept, not reclaimed
  EXPECT_EQ(index.size(), 299u);
  const BatchSearchResult result = index.SearchBatch(w.base, 20, kFullBudget);
  for (size_t i = 0; i < result.ids.size(); ++i) {
    EXPECT_NE(result.ids[i], victim);
  }

  index.Compact();  // the next compaction physically reclaims it
  EXPECT_EQ(index.num_tombstones(), 0u);
  EXPECT_FALSE(index.Contains(victim));
  EXPECT_EQ(index.size(), 299u);
}

TEST(DynamicIndexTest, AutoSealAndCompactThresholds) {
  const Workload& w = DynWorkload();
  DynamicIndexConfig config;
  config.seal_threshold = 128;
  config.max_sealed_segments = 2;
  DynamicIndex index(w.base.cols(), config);
  index.AddBatch(w.base);
  index.WaitForMaintenance();
  // Background seals fired; compaction keeps the sealed count bounded. The
  // exact counts depend on timing, so assert the invariants, not a schedule.
  EXPECT_GE(index.num_sealed_segments(), 1u);
  EXPECT_EQ(index.size(), w.base.rows());

  // Everything is still found: each base point is its own nearest neighbor.
  const BatchSearchResult result = index.SearchBatch(w.base, 1, kFullBudget);
  for (size_t q = 0; q < w.base.rows(); ++q) {
    EXPECT_EQ(result.Row(q)[0], static_cast<uint32_t>(q));
  }
}

TEST(DynamicIndexTest, SaveOpenRoundTripIsBitIdentical) {
  const Workload& w = DynWorkload();
  const size_t n = w.base.rows();
  DynamicIndex index(w.base.cols());

  // The acceptance shape: write segment + 2 sealed segments + tombstones.
  index.AddBatch(MatrixView(w.base.Row(0), 200, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(200), 200, w.base.cols()));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(400), n - 400, w.base.cols()));
  ASSERT_TRUE(index.Delete(5));
  ASSERT_TRUE(index.Delete(205));
  ASSERT_TRUE(index.Delete(450));

  const size_t k = 10;
  const BatchSearchResult before = index.SearchBatch(w.queries, k, 8);

  const std::string path = TempPath("dynamic.uspx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  std::ifstream saved_file(path, std::ios::binary);
  const std::string saved((std::istreambuf_iterator<char>(saved_file)),
                          std::istreambuf_iterator<char>());

  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto loaded = OpenIndex(path, mode);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->type(), IndexType::kDynamic);
    EXPECT_EQ(loaded.value()->dim(), index.dim());
    EXPECT_EQ(loaded.value()->size(), index.size());
    EXPECT_EQ(loaded.value()->metric(), index.metric());
    const BatchSearchResult after =
        loaded.value()->SearchBatch(w.queries, k, 8);
    EXPECT_EQ(after.ids, before.ids);
    EXPECT_EQ(after.distances, before.distances);
    EXPECT_EQ(after.candidate_counts, before.candidate_counts);
    // Saving the loaded index reproduces the saved bytes.
    StatusOr<std::string> resaved = SerializeIndex(*loaded.value());
    ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
    EXPECT_TRUE(resaved.value() == saved);
  }
  std::remove(path.c_str());
}

TEST(DynamicIndexTest, SaveWhileWritingTakesConsistentSnapshot) {
  const Workload& w = DynWorkload();
  DynamicIndex index(w.base.cols());
  index.AddBatch(MatrixView(w.base.Row(0), 300, w.base.cols()));
  index.Seal();

  // A writer hammers the index while it is saved; the snapshot must load
  // back as a valid container regardless of what it caught.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    size_t i = 300;
    while (!stop.load(std::memory_order_relaxed)) {
      index.Add(w.base.Row(i % w.base.rows()));
      ++i;
    }
  });
  const std::string path = TempPath("dynamic_live.uspx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  stop.store(true);
  writer.join();

  auto loaded = OpenIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GE(loaded.value()->size(), 300u);
  std::remove(path.c_str());
}

// The stress test of the issue: a writer thread appends and deletes while
// reader threads run SearchBatch; must be ThreadSanitizer-clean, and after a
// final seal the recall floor holds.
TEST(DynamicIndexTest, ReadWhileInsertStress) {
  const size_t dim = 16, total = 800, k = 5;
  Rng rng(7);
  Matrix data = Matrix::RandomGaussian(total, dim, &rng);

  DynamicIndexConfig config;
  config.seal_threshold = 200;  // background seals fire during the run
  DynamicIndex index(dim, config);

  std::atomic<bool> done{false};
  std::atomic<size_t> searches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Rng reader_rng(100 + searches.load());
      Matrix queries = Matrix::RandomGaussian(4, dim, &reader_rng);
      while (!done.load(std::memory_order_relaxed)) {
        const BatchSearchResult result =
            index.SearchBatch(queries, k, kFullBudget);
        // Results are well-formed: padding only after real hits.
        for (size_t q = 0; q < queries.rows(); ++q) {
          bool padding = false;
          for (size_t j = 0; j < k; ++j) {
            if (result.Row(q)[j] == kInvalidId) {
              padding = true;
            } else {
              EXPECT_FALSE(padding) << "hit after padding";
            }
          }
        }
        searches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<uint32_t> ids;
  ids.reserve(total);
  for (size_t i = 0; i < total; ++i) {
    ids.push_back(index.Add(data.Row(i)));
    if (i % 7 == 3) index.Delete(ids[i / 2]);  // interleave deletes
  }
  // Keep readers running until they have genuinely overlapped the writes.
  while (searches.load(std::memory_order_relaxed) < 10) {
    std::this_thread::yield();
  }
  done.store(true);
  for (auto& t : readers) t.join();
  index.WaitForMaintenance();
  EXPECT_GT(searches.load(), 0u);

  index.Seal();
  EXPECT_EQ(index.write_segment_rows(), 0u);

  // Recall floor after seal: every live point finds itself at rank 1 (the
  // sealed segments are probed exhaustively at kFullBudget).
  size_t live_checked = 0, hits = 0;
  for (size_t i = 0; i < total; i += 13) {
    if (!index.Contains(ids[i])) continue;
    ++live_checked;
    const BatchSearchResult r =
        index.SearchBatch(MatrixView(data.Row(i), 1, dim), 1, kFullBudget);
    if (r.Row(0)[0] == ids[i]) ++hits;
  }
  ASSERT_GT(live_checked, 0u);
  EXPECT_EQ(hits, live_checked) << "exact full-probe recall must be 1.0";
}

}  // namespace
}  // namespace usp
