// Scatter-gather sharding: one Index composed of N shards (any Index type,
// including the mutable DynamicIndex) behind a hash-based id->shard
// placement. This is the horizontal half of ROADMAP item 3 — one index
// becomes N cooperating shards that search in parallel on the shared pool —
// and the natural partner of serve/batching_executor.h, which widens the
// traffic those shards see.
//
// Placement. Every point has a stable *global id*. A multiplicative hash of
// the global id picks its shard (`Place`), and a binary search of that
// shard's ascending local->global id map finds its shard-local id, so
// Delete/Contains route without a stored placement table.
// In the mutable configuration every shard is a DynamicIndex and global ids
// are assigned densely by Add; in the static configuration the shards are
// built up front by hash-partitioning an existing base matrix and global ids
// are the original row numbers, so results compare 1:1 against a single
// index over the same matrix.
//
// Search. The shards are the parts of one composite search
// (serve/fan_out.h): an options.filter, which speaks global ids, reaches each
// shard as a lazy local selector, the per-request thread cap is split across
// shards, and the merge on (distance, global id) makes the merged row
// bit-identical to what one index holding the union of the shards would
// return, filtered or not, at every shard count
// (tests/sharded_index_test.cc pins {1, 3, 8}).
//
// Persistence. SaveIndex embeds each shard as a nested container-v2 blob
// (kSegmentBlob) plus its local->global id map (kIdMap), the same pattern
// DynamicIndex uses for sealed segments, so a sharded index round-trips
// through OpenIndex in both heap and mmap modes (docs/FORMAT.md "Sharded
// records").
#ifndef USP_SERVE_SHARDED_INDEX_H_
#define USP_SERVE_SHARDED_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "dist/metric.h"
#include "index/index.h"
#include "serve/dynamic_index.h"
#include "serve/fan_out.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace usp {

/// Builds the index of one static shard over its hash-partitioned rows. Same
/// contract as SegmentBuilder: the result must view `base`, index all of its
/// rows, and report `metric`. Defaults to IVF-Flat with nlist ~ sqrt(n).
using ShardBuilder = SegmentBuilder;

struct ShardedIndexConfig {
  Metric metric = Metric::kSquaredL2;

  /// Number of shards; fixed for the index's lifetime (placement is a pure
  /// function of (global id, num_shards), so resharding means rebuilding).
  size_t num_shards = 4;

  /// Mutable configuration only: per-shard DynamicIndex knobs
  /// (seal_threshold and max_sealed_segments apply to each shard
  /// independently; metric is overridden by `metric` above).
  DynamicIndexConfig shard_config;

  /// Static configuration only: per-shard index builder.
  ShardBuilder shard_builder;
};

/// N-shard scatter-gather index. Thread-safe the same way DynamicIndex is:
/// searches hold a reader lock across the whole fan-out + merge, mutations
/// take it exclusively for routing work (the per-shard mutation then
/// runs under the shard's own lock).
class ShardedIndex : public Index {
 public:
  /// One shard: its index (nullptr for a static shard whose hash partition
  /// received no rows), optional owned storage the index views, the
  /// local-row -> global-id map, and a non-owning DynamicIndex handle when
  /// the shard is mutable (null for static shards).
  struct Shard {
    std::unique_ptr<Index> index;
    Matrix storage;
    std::vector<uint32_t> local_to_global;
    DynamicIndex* dynamic = nullptr;
  };

  /// Mutable sharded index: `num_shards` empty DynamicIndex shards. Points
  /// enter through Add/AddBatch and get dense global ids.
  ShardedIndex(size_t dim, ShardedIndexConfig config);

  /// Static sharded index: hash-partitions `base` across the shards and
  /// builds each shard with config.shard_builder (IVF-Flat default). Global
  /// id of base row i is i, so results are directly comparable to any
  /// single index built over `base`.
  ShardedIndex(MatrixView base, ShardedIndexConfig config);

  /// Rehydrates from deserialized state (index/serialize.cc validates before
  /// calling): adopts `shards` whose local_to_global entries must be unique
  /// across shards and below `next_global_id`, and must agree with the hash
  /// placement.
  ShardedIndex(size_t dim, ShardedIndexConfig config,
               std::vector<Shard> shards, uint32_t next_global_id);

  /// Stable shard choice for a global id: multiplicative hash mod
  /// num_shards. Part of the persistence contract — the loader revalidates
  /// saved placements against it.
  static uint32_t Place(uint32_t global_id, size_t num_shards);

  // --- Mutation (mutable configuration; thread-safe) -----------------------

  /// True when every shard is mutable (DynamicIndex); Add/AddBatch/Delete
  /// require it.
  bool is_mutable() const;

  /// Appends one vector (dim() floats) to the shard its new global id hashes
  /// to; returns the global id.
  uint32_t Add(const float* vector);

  /// Appends a batch; one routing-lock acquisition, then one grouped
  /// AddBatch per target shard. Returned ids are contiguous.
  std::vector<uint32_t> AddBatch(MatrixView vectors);

  /// Tombstones a point in its shard. Returns false when the id was never
  /// assigned, was already deleted or reclaimed, or lives in a static shard
  /// (a static shard cannot delete).
  bool Delete(uint32_t global_id);

  /// True while `global_id` is live.
  bool Contains(uint32_t global_id) const;

  // --- Index interface -----------------------------------------------------

  /// Scatter-gather search; see file comment. options.filter speaks global
  /// ids; options.num_threads caps the *total* parallelism (split across
  /// shards). The index plans nothing itself: the filter and options.plan
  /// reach every shard, which plans over its own rows. Results are
  /// bit-identical at every thread count and every shard count.
  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override;

  /// Scatter-gather radius search through the same fan-out. Bit-identical to
  /// one index over the union of the shards at every shard count, and to
  /// BruteForceRadius at full budget.
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override;
  size_t dim() const override { return dim_; }
  /// Number of live points across all shards.
  size_t size() const override;
  Metric metric() const override { return config_.metric; }
  IndexType type() const override { return IndexType::kSharded; }

  // --- Introspection -------------------------------------------------------

  size_t num_shards() const { return shards_.size(); }
  /// Live points in shard `s` (0 for an absent static shard).
  size_t shard_size(size_t s) const;
  uint32_t next_global_id() const;
  const ShardedIndexConfig& config() const { return config_; }

  /// A consistent, lock-held view for the serializer (index/serialize.cc):
  /// no mutation can run while the callback executes. For mutable shards the
  /// callback must snapshot through each shard's own WithFrozenState (shard
  /// pointers stay valid; the routing lock does not freeze shard-internal
  /// state, SaveIndex on the shard does).
  struct FrozenState {
    uint32_t next_global_id;
    const std::vector<Shard>& shards;
  };
  Status WithFrozenState(
      const std::function<Status(const FrozenState&)>& fn) const;

 private:
  /// The shards as fan-out parts; the caller holds mutex_.
  std::vector<FanOutPart> Parts() const;

  const size_t dim_;
  const ShardedIndexConfig config_;

  /// Guards next_id_, the shard vector's shape and every local_to_global.
  /// Shard-internal state has its own synchronization (DynamicIndex locks),
  /// so this lock is only about routing consistency.
  mutable std::shared_mutex mutex_;
  std::vector<Shard> shards_;
  uint32_t next_id_ = 0;
};

}  // namespace usp

#endif  // USP_SERVE_SHARDED_INDEX_H_
