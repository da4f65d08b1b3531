#include "serve/sharded_index.h"

#include <algorithm>
#include <utility>

namespace usp {
namespace {

/// `global_id`'s local id in `shard`, or kInvalidId when the shard does not
/// hold it. local_to_global is ascending: every construction path keeps it
/// so, and the loader and the rehydrate constructor check it.
uint32_t LocalId(const ShardedIndex::Shard& shard, uint32_t global_id) {
  const std::vector<uint32_t>& ids = shard.local_to_global;
  const auto it = std::lower_bound(ids.begin(), ids.end(), global_id);
  return it != ids.end() && *it == global_id
             ? static_cast<uint32_t>(it - ids.begin())
             : kInvalidId;
}

}  // namespace

uint32_t ShardedIndex::Place(uint32_t global_id, size_t num_shards) {
  // Fibonacci multiplicative hash: cheap, stateless, and spreads the dense
  // ids Add assigns evenly instead of striping them (id % N would put every
  // N-th insert on the same shard — fine for load, terrible for locality
  // experiments). Part of the on-disk contract: the loader revalidates saved
  // placements against this function.
  uint32_t h = global_id * 2654435761u;
  h ^= h >> 16;
  return h % static_cast<uint32_t>(num_shards);
}

ShardedIndex::ShardedIndex(size_t dim, ShardedIndexConfig config)
    : dim_(dim), config_(std::move(config)) {
  USP_CHECK(dim_ > 0);
  USP_CHECK(config_.num_shards > 0);
  shards_.resize(config_.num_shards);
  for (Shard& shard : shards_) {
    DynamicIndexConfig shard_config = config_.shard_config;
    shard_config.metric = config_.metric;
    auto dynamic = std::make_unique<DynamicIndex>(dim_, shard_config);
    shard.dynamic = dynamic.get();
    shard.index = std::move(dynamic);
  }
}

ShardedIndex::ShardedIndex(MatrixView base, ShardedIndexConfig config)
    : dim_(base.cols()), config_(std::move(config)) {
  USP_CHECK(dim_ > 0);
  USP_CHECK(config_.num_shards > 0);
  USP_CHECK(base.rows() < kInvalidId);
  const size_t n = base.rows();
  next_id_ = static_cast<uint32_t>(n);
  shards_.resize(config_.num_shards);

  // Hash-partition the base rows. Row order is preserved within each shard,
  // so every shard's local_to_global is ascending: a shard's own tie-break on
  // local ids then agrees with the merge's tie-break on global ids.
  std::vector<std::vector<float>> rows(config_.num_shards);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t gid = static_cast<uint32_t>(i);
    const uint32_t s = Place(gid, config_.num_shards);
    shards_[s].local_to_global.push_back(gid);
    rows[s].insert(rows[s].end(), base.Row(i), base.Row(i) + dim_);
  }
  for (size_t s = 0; s < config_.num_shards; ++s) {
    Shard& shard = shards_[s];
    if (shard.local_to_global.empty()) continue;  // absent shard
    shard.storage =
        Matrix(shard.local_to_global.size(), dim_, std::move(rows[s]));
    shard.index = BuildSegmentIndex(config_.shard_builder, shard.storage,
                                    config_.metric);
  }
}

ShardedIndex::ShardedIndex(size_t dim, ShardedIndexConfig config,
                           std::vector<Shard> shards,
                           uint32_t next_global_id)
    : dim_(dim), config_(std::move(config)), next_id_(next_global_id) {
  USP_CHECK(dim_ > 0);
  USP_CHECK(!shards.empty());
  shards_ = std::move(shards);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (shard.index != nullptr) {
      USP_CHECK(shard.index->dim() == dim_);
      USP_CHECK(shard.index->metric() == config_.metric);
    } else {
      USP_CHECK(shard.local_to_global.empty());
    }
    uint32_t prev = 0;
    for (size_t i = 0; i < shard.local_to_global.size(); ++i) {
      const uint32_t gid = shard.local_to_global[i];
      USP_CHECK(gid < next_id_);
      // Ascending ids keep the per-shard tie-break (local order) identical
      // to the global-id tie-break a single index would apply, and let
      // Delete/Contains binary-search the map; duplicates across shards are
      // impossible because each gid hashes to one shard.
      USP_CHECK(i == 0 || gid > prev);
      prev = gid;
      USP_CHECK(Place(gid, shards_.size()) == s);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation.
// ---------------------------------------------------------------------------

bool ShardedIndex::is_mutable() const {
  for (const Shard& shard : shards_) {
    if (shard.dynamic == nullptr) return false;
  }
  return true;
}

uint32_t ShardedIndex::Add(const float* vector) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  USP_CHECK(next_id_ < kInvalidId);
  const uint32_t gid = next_id_++;
  const uint32_t s = Place(gid, shards_.size());
  Shard& shard = shards_[s];
  USP_CHECK(shard.dynamic != nullptr);  // mutable configuration only
  const uint32_t local = shard.dynamic->Add(vector);
  USP_CHECK(local == shard.local_to_global.size());
  shard.local_to_global.push_back(gid);
  return gid;
}

std::vector<uint32_t> ShardedIndex::AddBatch(MatrixView vectors) {
  USP_CHECK(vectors.empty() || vectors.cols() == dim_);
  std::vector<uint32_t> ids;
  ids.reserve(vectors.rows());
  std::unique_lock<std::shared_mutex> lock(mutex_);
  USP_CHECK(vectors.rows() <= kInvalidId - next_id_);

  // Group rows by target shard so each shard sees one AddBatch (one lock
  // acquisition and one contiguous run of shard-local ids per shard).
  std::vector<std::vector<float>> rows(shards_.size());
  std::vector<std::vector<uint32_t>> gids(shards_.size());
  for (size_t i = 0; i < vectors.rows(); ++i) {
    const uint32_t gid = next_id_++;
    const uint32_t s = Place(gid, shards_.size());
    rows[s].insert(rows[s].end(), vectors.Row(i), vectors.Row(i) + dim_);
    gids[s].push_back(gid);
    ids.push_back(gid);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (gids[s].empty()) continue;
    Shard& shard = shards_[s];
    USP_CHECK(shard.dynamic != nullptr);
    const MatrixView view(rows[s].data(), gids[s].size(), dim_);
    const std::vector<uint32_t> locals = shard.dynamic->AddBatch(view);
    for (size_t i = 0; i < locals.size(); ++i) {
      USP_CHECK(locals[i] == shard.local_to_global.size());
      shard.local_to_global.push_back(gids[s][i]);
    }
  }
  return ids;
}

bool ShardedIndex::Delete(uint32_t global_id) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const Shard& shard = shards_[Place(global_id, shards_.size())];
  if (shard.dynamic == nullptr) return false;  // a static shard cannot delete
  const uint32_t local = LocalId(shard, global_id);
  return local != kInvalidId && shard.dynamic->Delete(local);
}

bool ShardedIndex::Contains(uint32_t global_id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const Shard& shard = shards_[Place(global_id, shards_.size())];
  const uint32_t local = LocalId(shard, global_id);
  return local != kInvalidId &&
         (shard.dynamic == nullptr || shard.dynamic->Contains(local));
}

// ---------------------------------------------------------------------------
// Search.
// ---------------------------------------------------------------------------

std::vector<FanOutPart> ShardedIndex::Parts() const {
  std::vector<FanOutPart> parts;
  parts.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    if (shard.index == nullptr) continue;  // absent static shard
    // Each shard drops its own deletes, so no tombstones reach the merge.
    parts.push_back({shard.index.get(), nullptr, &shard.local_to_global, 0});
  }
  return parts;
}

BatchSearchResult ShardedIndex::SearchBatch(const SearchRequest& request) const {
  USP_CHECK(request.queries.empty() || request.queries.cols() == dim_);
  // The routing lock is held shared across the whole fan-out + merge, so
  // local_to_global and the shard set cannot change under us. Shard-internal
  // mutation (a concurrent Add on another shard) queues behind its own
  // shard's lock, not this batch.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return FanOutSearch(Parts(), /*tombstones=*/nullptr, request);
}

RadiusResult ShardedIndex::RadiusSearchBatch(
    const RadiusRequest& request) const {
  USP_CHECK(request.queries.empty() || request.queries.cols() == dim_);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return FanOutSearch(Parts(), /*tombstones=*/nullptr, request);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

size_t ShardedIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  size_t total = 0;
  for (const Shard& shard : shards_) {
    if (shard.index != nullptr) total += shard.index->size();
  }
  return total;
}

size_t ShardedIndex::shard_size(size_t s) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  USP_CHECK(s < shards_.size());
  return shards_[s].index == nullptr ? 0 : shards_[s].index->size();
}

uint32_t ShardedIndex::next_global_id() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return next_id_;
}

Status ShardedIndex::WithFrozenState(
    const std::function<Status(const FrozenState&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const FrozenState state{next_id_, shards_};
  return fn(state);
}

}  // namespace usp
