#include "serve/dynamic_index.h"

#include <utility>

#include "quant/sq8_index.h"
#include "util/thread_pool.h"

namespace usp {

SegmentBuilder Sq8SegmentBuilder(size_t rerank_budget) {
  return [rerank_budget](const Matrix& base,
                         Metric metric) -> std::unique_ptr<Index> {
    Sq8IndexConfig config;
    config.metric = metric;
    config.rerank_budget = rerank_budget;
    return std::make_unique<Sq8Index>(&base, config);
  };
}

DynamicIndex::DynamicIndex(size_t dim, DynamicIndexConfig config)
    : dim_(dim), config_(std::move(config)) {
  USP_CHECK(dim_ > 0);
}

DynamicIndex::DynamicIndex(size_t dim, DynamicIndexConfig config,
                           std::vector<std::unique_ptr<SealedSegment>> sealed,
                           Matrix write_rows, std::vector<uint32_t> write_ids,
                           std::vector<uint32_t> tombstones,
                           uint32_t next_global_id)
    : dim_(dim), config_(std::move(config)), next_id_(next_global_id) {
  USP_CHECK(dim_ > 0);
  USP_CHECK(write_rows.rows() == write_ids.size());
  USP_CHECK(write_rows.empty() || write_rows.cols() == dim_);
  sealed_ = std::move(sealed);
  for (size_t s = 0; s < sealed_.size(); ++s) {
    const SealedSegment& seg = *sealed_[s];
    USP_CHECK(seg.index != nullptr);
    USP_CHECK(seg.index->dim() == dim_);
    USP_CHECK(seg.index->metric() == config_.metric);
    USP_CHECK(seg.index->size() == seg.global_ids.size());
    for (const uint32_t gid : seg.global_ids) {
      USP_CHECK(gid < next_id_);
      // ids must be globally unique
      USP_CHECK(id_map_.emplace(gid, static_cast<uint32_t>(s)).second);
    }
  }
  write_ids_ = std::move(write_ids);
  write_data_.assign(write_rows.data(),
                     write_rows.data() + write_rows.size());
  for (const uint32_t gid : write_ids_) {
    USP_CHECK(gid < next_id_);
    USP_CHECK(id_map_.emplace(gid, kWriteSegment).second);
  }
  for (uint32_t id : tombstones) {
    const auto it = id_map_.find(id);
    USP_CHECK(it != id_map_.end());
    USP_CHECK(tombstones_.insert(id).second);
    if (it->second == kWriteSegment) {
      ++write_tombstoned_;
    } else {
      ++sealed_[it->second]->tombstoned;
    }
  }
}

DynamicIndex::~DynamicIndex() { WaitForMaintenance(); }

// ---------------------------------------------------------------------------
// Mutation.
// ---------------------------------------------------------------------------

uint32_t DynamicIndex::Add(const float* vector) {
  uint32_t id = 0;
  bool schedule_seal = false;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    // Ids are monotonic and never recycled; the space below the kInvalidId
    // sentinel must last the index's lifetime.
    USP_CHECK(next_id_ < kInvalidId);
    id = next_id_++;
    write_data_.insert(write_data_.end(), vector, vector + dim_);
    id_map_.emplace(id, kWriteSegment);
    write_ids_.push_back(id);
    if (config_.seal_threshold > 0 && !seal_scheduled_ &&
        write_ids_.size() >= config_.seal_threshold) {
      seal_scheduled_ = true;
      schedule_seal = true;
    }
  }
  if (schedule_seal) ScheduleSeal();
  return id;
}

std::vector<uint32_t> DynamicIndex::AddBatch(MatrixView vectors) {
  USP_CHECK(vectors.empty() || vectors.cols() == dim_);
  std::vector<uint32_t> ids;
  ids.reserve(vectors.rows());
  bool schedule_seal = false;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    USP_CHECK(vectors.rows() <= kInvalidId - next_id_);
    write_data_.insert(write_data_.end(), vectors.data(),
                       vectors.data() + vectors.size());
    for (size_t i = 0; i < vectors.rows(); ++i) {
      const uint32_t id = next_id_++;
      id_map_.emplace(id, kWriteSegment);
      write_ids_.push_back(id);
      ids.push_back(id);
    }
    if (config_.seal_threshold > 0 && !seal_scheduled_ &&
        write_ids_.size() >= config_.seal_threshold) {
      seal_scheduled_ = true;
      schedule_seal = true;
    }
  }
  if (schedule_seal) ScheduleSeal();
  return ids;
}

bool DynamicIndex::Delete(uint32_t global_id) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const auto it = id_map_.find(global_id);
  if (it == id_map_.end()) return false;
  if (!tombstones_.insert(global_id).second) return false;  // already deleted
  if (it->second == kWriteSegment) {
    ++write_tombstoned_;
  } else {
    ++sealed_[it->second]->tombstoned;
  }
  return true;
}

bool DynamicIndex::Contains(uint32_t global_id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return id_map_.count(global_id) == 1 && tombstones_.count(global_id) == 0;
}

uint32_t DynamicIndex::AddSealedSegment(std::unique_ptr<Index> segment,
                                        Matrix storage) {
  USP_CHECK(segment != nullptr);
  USP_CHECK(segment->dim() == dim_);
  USP_CHECK(segment->metric() == config_.metric);
  // Segments must be static types: nesting a DynamicIndex or a ShardedIndex
  // would break compaction (no base_view) and the one-level container
  // embedding.
  USP_CHECK(segment->type() != IndexType::kDynamic);
  USP_CHECK(segment->type() != IndexType::kSharded);
  const size_t n = segment->size();
  USP_CHECK(n > 0);
  auto seg = std::make_unique<SealedSegment>();
  seg->storage = std::move(storage);
  seg->index = std::move(segment);

  std::unique_lock<std::shared_mutex> lock(mutex_);
  USP_CHECK(n <= kInvalidId - next_id_);
  const uint32_t first = next_id_;
  seg->global_ids.reserve(n);
  const uint32_t seg_index = static_cast<uint32_t>(sealed_.size());
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = next_id_++;
    seg->global_ids.push_back(id);
    id_map_.emplace(id, seg_index);
  }
  sealed_.push_back(std::move(seg));
  return first;
}

StatusOr<uint32_t> DynamicIndex::AddSealedSegmentFromContainer(
    const std::string& path, LoadMode mode) {
  auto opened = OpenIndex(path, mode);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<Index> segment = std::move(opened).value();
  // Files are user input: validate with Status errors (AddSealedSegment's
  // USP_CHECKs are for programmer errors) before any state changes.
  if (segment->dim() != dim_) {
    return Status::InvalidArgument("segment dim " +
                                   std::to_string(segment->dim()) +
                                   " != index dim " + std::to_string(dim_));
  }
  if (segment->metric() != config_.metric) {
    return Status::InvalidArgument("segment metric does not match the index");
  }
  const IndexType type = segment->type();
  if (type == IndexType::kDynamic || type == IndexType::kSharded) {
    return Status::FailedPrecondition(
        "dynamic/sharded containers cannot nest as sealed segments");
  }
  if (segment->size() == 0) {
    return Status::FailedPrecondition("container indexes no vectors");
  }
  // The loaded wrapper owns its storage (heap buffers or the mapping), so no
  // separate storage matrix transfers.
  return AddSealedSegment(std::move(segment));
}

// ---------------------------------------------------------------------------
// Maintenance.
// ---------------------------------------------------------------------------

void DynamicIndex::Seal() {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);

  // Snapshot the current write segment (rows appended after this stay in the
  // write segment and are picked up by the next seal).
  size_t snap_rows = 0;
  auto seg = std::make_unique<SealedSegment>();
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    snap_rows = write_ids_.size();
    if (snap_rows > 0) {
      seg->storage = Matrix(
          snap_rows, dim_,
          std::vector<float>(write_data_.begin(),
                             write_data_.begin() + snap_rows * dim_));
      seg->global_ids.assign(write_ids_.begin(),
                             write_ids_.begin() + snap_rows);
    }
  }
  if (snap_rows == 0) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    seal_scheduled_ = false;
    return;
  }

  // Train outside every lock: reads and writes continue against the old
  // segment set, which still serves the snapshotted rows.
  seg->index =
      BuildSegmentIndex(config_.segment_builder, seg->storage, config_.metric);

  bool schedule_compact = false;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    write_data_.erase(write_data_.begin(),
                      write_data_.begin() + snap_rows * dim_);
    write_ids_.erase(write_ids_.begin(), write_ids_.begin() + snap_rows);
    const uint32_t seg_index = static_cast<uint32_t>(sealed_.size());
    for (const uint32_t gid : seg->global_ids) {
      id_map_[gid] = seg_index;
      if (tombstones_.count(gid) > 0) ++seg->tombstoned;
    }
    write_tombstoned_ -= seg->tombstoned;
    sealed_.push_back(std::move(seg));
    seal_scheduled_ = false;
    if (config_.max_sealed_segments > 0 && !compact_scheduled_ &&
        sealed_.size() > config_.max_sealed_segments) {
      compact_scheduled_ = true;
      schedule_compact = true;
    }
  }
  if (schedule_compact) ScheduleCompact();
}

void DynamicIndex::Compact() {
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);

  // Snapshot: copy every live row out of the current sealed segments. Only
  // maintenance removes segments and maintenance is serialized, so the
  // segment prefix [0, snap_count) survives until the install below.
  size_t snap_count = 0;
  std::vector<float> merged_data;
  std::vector<uint32_t> merged_ids;
  // Ids observed tombstoned at snapshot time: their rows are excluded from
  // the merged segment, so exactly these are reclaimed at install. Ids
  // deleted *during* training are in the merged segment; their tombstones
  // must survive (they are reclaimed by the next compaction).
  std::vector<uint32_t> reclaimed;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    snap_count = sealed_.size();
    size_t total_rows = 0;
    for (size_t s = 0; s < snap_count; ++s) {
      total_rows += sealed_[s]->index->size();
    }
    merged_data.reserve(total_rows * dim_);
    merged_ids.reserve(total_rows);
    for (size_t s = 0; s < snap_count; ++s) {
      const SealedSegment& segment = *sealed_[s];
      const MatrixView rows = segment.index->base_view();
      USP_CHECK(rows.rows() == segment.global_ids.size());
      for (size_t i = 0; i < rows.rows(); ++i) {
        const uint32_t gid = segment.global_ids[i];
        if (tombstones_.count(gid) > 0) {
          reclaimed.push_back(gid);
          continue;
        }
        merged_data.insert(merged_data.end(), rows.Row(i),
                           rows.Row(i) + dim_);
        merged_ids.push_back(gid);
      }
    }
  }
  if (snap_count == 0) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    compact_scheduled_ = false;
    return;
  }

  std::unique_ptr<SealedSegment> merged;
  if (!merged_ids.empty()) {
    merged = std::make_unique<SealedSegment>();
    merged->storage =
        Matrix(merged_ids.size(), dim_, std::move(merged_data));
    merged->global_ids = std::move(merged_ids);
    merged->index = BuildSegmentIndex(  // trains outside locks
        config_.segment_builder, merged->storage, config_.metric);
  }

  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    // Reclaim exactly the rows the snapshot excluded: they vanish
    // physically, so both tables forget them. Rows deleted during training
    // are in the merged segment and keep their tombstones.
    for (uint32_t gid : reclaimed) {
      tombstones_.erase(gid);
      id_map_.erase(gid);
    }
    sealed_.erase(sealed_.begin(), sealed_.begin() + snap_count);
    if (merged != nullptr) {
      sealed_.insert(sealed_.begin(), std::move(merged));
    }
    // Segment indices shifted; rebuild the sealed half of the id map and
    // refresh the per-segment tombstone counters.
    for (size_t s = 0; s < sealed_.size(); ++s) {
      SealedSegment& segment = *sealed_[s];
      segment.tombstoned = 0;
      for (const uint32_t gid : segment.global_ids) {
        id_map_[gid] = static_cast<uint32_t>(s);
        if (tombstones_.count(gid) > 0) ++segment.tombstoned;
      }
    }
    compact_scheduled_ = false;
  }
}

void DynamicIndex::ScheduleSeal() {
  {
    std::lock_guard<std::mutex> lock(maintenance_state_mutex_);
    ++pending_maintenance_;
  }
  ThreadPool::Global().Submit([this] {
    Seal();
    FinishMaintenanceTask();
  });
}

void DynamicIndex::ScheduleCompact() {
  {
    std::lock_guard<std::mutex> lock(maintenance_state_mutex_);
    ++pending_maintenance_;
  }
  ThreadPool::Global().Submit([this] {
    Compact();
    FinishMaintenanceTask();
  });
}

void DynamicIndex::FinishMaintenanceTask() const {
  std::lock_guard<std::mutex> lock(maintenance_state_mutex_);
  if (--pending_maintenance_ == 0) maintenance_done_.notify_all();
}

void DynamicIndex::WaitForMaintenance() const {
  std::unique_lock<std::mutex> lock(maintenance_state_mutex_);
  maintenance_done_.wait(lock, [this] { return pending_maintenance_ == 0; });
}

// ---------------------------------------------------------------------------
// Search.
// ---------------------------------------------------------------------------

std::vector<FanOutPart> DynamicIndex::Parts(
    const DistanceComputer& write) const {
  std::vector<FanOutPart> parts;
  parts.reserve(sealed_.size() + 1);
  for (const auto& seg : sealed_) {
    parts.push_back(
        {seg->index.get(), nullptr, &seg->global_ids, seg->tombstoned});
  }
  parts.push_back({nullptr, &write, &write_ids_, write_tombstoned_});
  return parts;
}

BatchSearchResult DynamicIndex::SearchBatch(const SearchRequest& request) const {
  USP_CHECK(request.queries.empty() || request.queries.cols() == dim_);
  // The lock is held shared across the whole fan-out + merge: segments and
  // the write buffer cannot change under us; appends briefly queue behind the
  // batch.
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const DistanceComputer write(
      MatrixView(write_data_.data(), write_ids_.size(), dim_), config_.metric);
  return FanOutSearch(Parts(write), &tombstones_, request);
}

RadiusResult DynamicIndex::RadiusSearchBatch(
    const RadiusRequest& request) const {
  USP_CHECK(request.queries.empty() || request.queries.cols() == dim_);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const DistanceComputer write(
      MatrixView(write_data_.data(), write_ids_.size(), dim_), config_.metric);
  return FanOutSearch(Parts(write), &tombstones_, request);
}

// ---------------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------------

size_t DynamicIndex::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return id_map_.size() - tombstones_.size();
}

size_t DynamicIndex::num_sealed_segments() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return sealed_.size();
}

size_t DynamicIndex::write_segment_rows() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return write_ids_.size();
}

size_t DynamicIndex::num_tombstones() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return tombstones_.size();
}

uint32_t DynamicIndex::next_global_id() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return next_id_;
}

Status DynamicIndex::WithFrozenState(
    const std::function<Status(const FrozenState&)>& fn) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const FrozenState state{next_id_,    sealed_,   write_data_.data(),
                          write_ids_.size(),      write_ids_, tombstones_};
  return fn(state);
}

}  // namespace usp
