// Seeded model test of the serving routers' id bookkeeping
// (serve/dynamic_index.h, serve/sharded_index.h). A DynamicIndex and a
// 3-shard mutable ShardedIndex run random Add/AddBatch/Delete/Contains/Seal/
// Compact sequences with one SerializeIndex -> OpenIndex (heap) round trip
// midway. After every step the routers must agree with a std::set of live
// ids: Delete and Contains results (live, deleted, reclaimed and
// never-assigned ids), size(), next_global_id(), and the DynamicIndex's
// num_tombstones(). At checkpoints, full-budget k-NN rows, unfiltered and
// under a random bitmap, must equal filtered BruteForceKnn over the live rows
// bit for bit.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "index/serialize.h"
#include "knn/brute_force.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace usp {
namespace {

constexpr size_t kDim = 16;
constexpr size_t kSteps = 300;
constexpr size_t kQueries = 12;
constexpr size_t kK = 10;
constexpr size_t kFullBudget = size_t{1} << 20;

// Seal / Compact: the whole DynamicIndex, or one random shard.
void Maintain(DynamicIndex* index, bool compact, Rng*) {
  compact ? index->Compact() : index->Seal();
}
void Maintain(ShardedIndex* index, bool compact, Rng* rng) {
  const size_t s = rng->UniformInt(index->num_shards());
  ASSERT_TRUE(index
                  ->WithFrozenState([&](const ShardedIndex::FrozenState& st) {
                    DynamicIndex* shard = st.shards[s].dynamic;
                    compact ? shard->Compact() : shard->Seal();
                    return Status::Ok();
                  })
                  .ok());
}

template <typename Router>
class ModelRun {
 public:
  explicit ModelRun(uint64_t seed) : seed_(seed), rng_(seed) {
    std::unique_ptr<Router> router;
    if constexpr (kDynamic) {
      router = std::make_unique<DynamicIndex>(kDim);
    } else {
      ShardedIndexConfig config;
      config.num_shards = 3;
      router = std::make_unique<ShardedIndex>(kDim, config);
    }
    router_ = router.get();
    owner_ = std::move(router);
    queries_.resize(kQueries * kDim);
    rng_.FillGaussian(queries_.data(), queries_.size());
  }

  void Run() {
    for (size_t step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      Step();
      if (step == kSteps / 2) RoundTrip();
      CheckCounts();
      if (step % 50 == 49) CheckRows();
    }
    CheckRows();
  }

 private:
  static constexpr bool kDynamic = std::is_same<Router, DynamicIndex>::value;

  uint32_t next_id() const {
    return static_cast<uint32_t>(rows_.size() / kDim);
  }

  void Step() {
    const uint64_t op = rng_.UniformInt(100);
    if (op < 15) {
      AddRows(1);
    } else if (op < 30) {
      AddRows(1 + rng_.UniformInt(40));
    } else if (op < 60) {
      const uint32_t id = PickId();
      const bool was_live = live_.erase(id) == 1;
      if (was_live) {
        tombstones_.insert(id);
        deleted_.push_back(id);
      }
      EXPECT_EQ(router_->Delete(id), was_live) << "Delete(" << id << ")";
    } else if (op < 85) {
      const uint32_t id = PickId();
      EXPECT_EQ(router_->Contains(id), live_.count(id) == 1)
          << "Contains(" << id << ")";
    } else if (op < 95) {
      Maintain(router_, /*compact=*/false, &rng_);
      sealed_below_ = next_id();
    } else {
      Maintain(router_, /*compact=*/true, &rng_);
      // A DynamicIndex compaction reclaims every tombstone in a sealed
      // segment; the write segment keeps its own.
      tombstones_.erase(tombstones_.begin(),
                        tombstones_.lower_bound(sealed_below_));
    }
  }

  void AddRows(size_t count) {
    const size_t first = rows_.size();
    rows_.resize(first + count * kDim);
    for (float* row = rows_.data() + first; row != rows_.data() + rows_.size();
         row += kDim) {
      // Half the rows repeat a query, which then meets many copies of itself
      // at distance 0, live and deleted, in every part.
      if (rng_.UniformInt(2) == 0) {
        const float* query = queries_.data() + rng_.UniformInt(kQueries) * kDim;
        std::copy(query, query + kDim, row);
      } else {
        rng_.FillGaussian(row, kDim);
      }
    }
    const uint32_t want = next_id();
    std::vector<uint32_t> ids;
    if (count == 1) {
      ids.push_back(router_->Add(rows_.data() + first));
    } else {
      ids = router_->AddBatch(MatrixView(rows_.data() + first, count, kDim));
    }
    ASSERT_EQ(ids.size(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(ids[i], want - count + i);  // dense, in order
      live_.insert(ids[i]);
    }
  }

  // A live id, any assigned id (live, deleted or reclaimed), an id not yet
  // assigned, or one far beyond every id.
  uint32_t PickId() {
    const uint32_t next = next_id();
    switch (rng_.UniformInt(4)) {
      case 0:
        if (!live_.empty()) {
          return *std::next(live_.begin(), rng_.UniformInt(live_.size()));
        }
        return 0;
      case 1:
        return next == 0 ? 0 : static_cast<uint32_t>(rng_.UniformInt(next));
      case 2:
        return next + static_cast<uint32_t>(rng_.UniformInt(8));
      default:
        return kInvalidId - 1 - static_cast<uint32_t>(rng_.UniformInt(4));
    }
  }

  // Saves the router and continues on the reopened copy, which must save to
  // the same bytes.
  void RoundTrip() {
    const StatusOr<std::string> bytes = SerializeIndex(*owner_);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    const std::string path = testing::TempDir() + "/router_model_" +
                             (kDynamic ? "dynamic_" : "sharded_") +
                             std::to_string(seed_) + ".uspidx";
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.value().data(),
                static_cast<std::streamsize>(bytes.value().size()));
    }
    StatusOr<std::unique_ptr<Index>> loaded = OpenIndex(path, LoadMode::kHeap);
    std::remove(path.c_str());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    owner_ = std::move(loaded).value();
    // The reopened wrapper owns a mutable router; underlying() exposes it.
    router_ = const_cast<Router*>(
        dynamic_cast<const Router*>(&owner_->underlying()));
    ASSERT_NE(router_, nullptr);
    const StatusOr<std::string> resaved = SerializeIndex(*owner_);
    ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
    EXPECT_TRUE(resaved.value() == bytes.value());
  }

  void CheckCounts() {
    EXPECT_EQ(owner_->size(), live_.size());
    EXPECT_EQ(router_->next_global_id(), next_id());
    if constexpr (kDynamic) {
      EXPECT_EQ(router_->num_tombstones(), tombstones_.size());
    }
  }

  // Full-budget rows against filtered brute force over the live rows (every
  // row ever added, indexed by global id), unfiltered and under a random
  // bitmap that the planner sees. The queries are random rows plus the rows
  // of the latest deletes: each finds its own tombstoned row at distance 0,
  // so a part that over-fetches too few rows for its tombstones shows.
  void CheckRows() {
    const uint32_t n = next_id();
    const MatrixView base(rows_.data(), n, kDim);
    std::vector<float> rows = queries_;
    for (size_t i = deleted_.size() > kQueries ? deleted_.size() - kQueries
                                               : 0;
         i < deleted_.size(); ++i) {
      const float* row = rows_.data() + size_t{deleted_[i]} * kDim;
      rows.insert(rows.end(), row, row + kDim);
    }
    const MatrixView queries(rows.data(), rows.size() / kDim, kDim);
    IdSelectorBitmap live(n);
    IdSelectorBitmap filter(n);
    IdSelectorBitmap live_filtered(n);
    for (uint32_t id = 0; id < n; ++id) {
      const bool admit = rng_.UniformInt(2) == 0;
      if (admit) filter.Set(id);
      if (live_.count(id) == 0) continue;
      live.Set(id);
      if (admit) live_filtered.Set(id);
    }
    for (const bool filtered : {false, true}) {
      SCOPED_TRACE(filtered ? "filtered" : "unfiltered");
      SearchRequest request;
      request.queries = queries;
      request.options.k = kK;
      request.options.budget = kFullBudget;
      if (filtered) request.options.filter = &filter;
      const BatchSearchResult got = owner_->SearchBatch(request);
      const KnnResult want =
          BruteForceKnn(base, queries, kK, Metric::kSquaredL2,
                        filtered ? &live_filtered : &live);
      ASSERT_EQ(got.ids.size(), want.indices.size());
      EXPECT_EQ(got.ids, want.indices);
      for (size_t i = 0; i < got.ids.size(); ++i) {
        if (got.ids[i] == kInvalidId) continue;
        EXPECT_EQ(got.distances[i], want.distances[i]) << "slot " << i;
      }
    }
  }

  const uint64_t seed_;
  Rng rng_;
  std::unique_ptr<Index> owner_;  ///< the router, or its OpenIndex wrapper
  Router* router_ = nullptr;
  std::vector<float> rows_;       ///< every added row, by global id
  std::vector<float> queries_;
  std::set<uint32_t> live_;
  std::vector<uint32_t> deleted_;  ///< every successful Delete, in order
  std::set<uint32_t> tombstones_;  ///< DynamicIndex only: not yet reclaimed
  uint32_t sealed_below_ = 0;      ///< DynamicIndex only: ids a Seal took
};

constexpr uint64_t kSeeds[] = {7, 11, 982451653};

TEST(RouterModelTest, DynamicIndexMatchesLiveIdModel) {
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelRun<DynamicIndex>(seed).Run();
  }
}

TEST(RouterModelTest, ShardedIndexMatchesLiveIdModel) {
  for (const uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelRun<ShardedIndex>(seed).Run();
  }
}

}  // namespace
}  // namespace usp
