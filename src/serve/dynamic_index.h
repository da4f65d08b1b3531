// The mutable serving layer: an LSM-style segmented index that absorbs live
// inserts and deletes while every underlying index type in the repository
// stays train-once/immutable.
//
// Layout. Writes land in a mutable **write segment** (a lock-protected
// append-only row buffer, scanned flat). `Seal()` snapshots the write
// segment and trains an immutable **sealed segment** (any `Index`
// implementation — IVF-Flat by default) from it on the global thread pool
// while reads and writes continue; `Compact()` merges all sealed segments
// into one, physically dropping deleted rows. Deletes are **tombstones**: a
// deleted id is filtered from every result immediately and reclaimed at the
// next compaction. Queries run the sealed segments and the write segment as
// the parts of one composite search (serve/fan_out.h), which reports stable
// global ids.
//
// Concurrency. One reader/writer lock guards the segment set: searches hold
// it shared for their whole fan-out/merge, appends and deletes take it
// exclusively for O(1) work, and Seal/Compact hold it only to snapshot and to
// install (training runs lock-free on a private copy). Background maintenance
// (`ScheduleSeal`/`ScheduleCompact`, or the auto thresholds in the config)
// runs on the global thread pool. tests/dynamic_index_test.cc stress-tests
// readers against a concurrent writer under TSan.
#ifndef USP_SERVE_DYNAMIC_INDEX_H_
#define USP_SERVE_DYNAMIC_INDEX_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dist/distance_computer.h"
#include "dist/metric.h"
#include "index/index.h"
#include "index/serialize.h"  // LoadMode for container-backed sealed segments
#include "serve/fan_out.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace usp {

/// SegmentBuilder that seals write segments to SQ8 (quant/sq8_index.h):
/// 4x-compressed int8 codes scanned by the quantized kernels with exact fp32
/// re-rank, under any metric. Drop-in for DynamicIndexConfig::segment_builder
/// when sealed segments should trade a little recall headroom for memory and
/// scan speed.
SegmentBuilder Sq8SegmentBuilder(size_t rerank_budget = 100);

/// Serving-layer knobs.
struct DynamicIndexConfig {
  Metric metric = Metric::kSquaredL2;

  /// Auto-seal: once an Add grows the write segment to this many rows, a
  /// background Seal is scheduled on the global thread pool. 0 = manual
  /// Seal()/ScheduleSeal() only.
  size_t seal_threshold = 0;

  /// Auto-compact: after a seal, if more than this many sealed segments
  /// exist, a background Compact is scheduled. 0 = manual only.
  size_t max_sealed_segments = 0;

  /// Trains sealed segments. Defaults to IVF-Flat with nlist ~ sqrt(n).
  SegmentBuilder segment_builder;
};

/// Mutable, thread-safe ANN index composed of immutable segments. Global ids
/// returned by Add are stable across Seal/Compact/save/load and are what
/// SearchBatch reports. `budget` is forwarded to every sealed segment (probe
/// count / ef_search of the segment type); the write segment is always
/// scanned exactly.
class DynamicIndex : public Index {
 public:
  /// One immutable segment: the index, the storage backing it (empty when the
  /// index owns its storage, e.g. a container-loaded segment), and the
  /// local-row -> global-id map.
  struct SealedSegment {
    Matrix storage;
    std::unique_ptr<Index> index;
    std::vector<uint32_t> global_ids;
    size_t tombstoned = 0;  ///< live tombstones among this segment's rows
  };

  explicit DynamicIndex(size_t dim, DynamicIndexConfig config = {});

  /// Rehydrates from deserialized state (index/serialize.cc validates before
  /// calling): adopts sealed segments, write-segment rows with their ids, and
  /// the tombstone set; `next_global_id` must exceed every adopted id.
  DynamicIndex(size_t dim, DynamicIndexConfig config,
               std::vector<std::unique_ptr<SealedSegment>> sealed,
               Matrix write_rows, std::vector<uint32_t> write_ids,
               std::vector<uint32_t> tombstones, uint32_t next_global_id);

  ~DynamicIndex() override;

  // --- Mutation (thread-safe) ----------------------------------------------

  /// Appends one vector (dim() floats) to the write segment; returns its
  /// stable global id. May schedule a background seal (config.seal_threshold).
  uint32_t Add(const float* vector);

  /// Appends a batch under one lock acquisition; the returned global ids are
  /// contiguous even with concurrent writers. May schedule a background seal.
  std::vector<uint32_t> AddBatch(MatrixView vectors);

  /// Tombstones a point: it stops appearing in results immediately and its
  /// storage is reclaimed at the next compaction. Returns false when the id
  /// was never assigned, was already deleted, or was reclaimed.
  bool Delete(uint32_t global_id);

  /// True while `global_id` is live (assigned and not deleted).
  bool Contains(uint32_t global_id) const;

  /// Adopts an externally trained immutable index as a sealed segment,
  /// assigning its rows the next contiguous run of global ids (row i ->
  /// first + i); returns `first`. `storage` transfers ownership of the base
  /// matrix the segment views (pass {} when the index owns its storage, e.g.
  /// OpenIndex results). The segment's dim and metric must match.
  uint32_t AddSealedSegment(std::unique_ptr<Index> segment,
                            Matrix storage = Matrix());

  /// Incremental bulk load: opens the index container at `path` (e.g. an
  /// OutOfCoreBuilder product, serve/out_of_core_builder.h) and adopts it as
  /// a sealed segment — the disk-to-serving handoff without retraining.
  /// kMmap (the default) leaves the segment's vectors on disk and serves
  /// straight off the mapping. Returns the first assigned global id, or an
  /// error Status when the file cannot be opened or the container's dim,
  /// metric, or type is incompatible (dynamic/sharded containers do not
  /// nest) — validation happens before any state changes, so a failed call
  /// leaves the index untouched.
  StatusOr<uint32_t> AddSealedSegmentFromContainer(
      const std::string& path, LoadMode mode = LoadMode::kMmap);

  // --- Maintenance ---------------------------------------------------------

  /// Trains a sealed segment from a snapshot of the write segment and
  /// installs it; rows appended while training stay in the write segment.
  /// Reads and writes continue throughout. No-op on an empty write segment.
  void Seal();

  /// Merges all current sealed segments into one, dropping tombstoned rows
  /// (their ids are reclaimed). Reads and writes continue throughout.
  void Compact();

  /// Background variants: run Seal/Compact as a task on the global thread
  /// pool. Safe to call concurrently with everything else; maintenance
  /// operations serialize among themselves.
  void ScheduleSeal();
  void ScheduleCompact();

  /// Blocks until every scheduled background maintenance task has finished.
  void WaitForMaintenance() const;

  // --- Index interface -----------------------------------------------------

  /// Batched search over the segment set: the sealed segments and the write
  /// segment are the parts of one composite search (serve/fan_out.h). An
  /// options.filter operates on the *stable global ids* this index reports
  /// and is composed with the tombstone set, so at full budget the result
  /// equals brute force over the live allowed set. The index plans nothing
  /// itself: the filter and options.plan reach every sealed segment, which
  /// plans over its own rows (index/query_planner.h).
  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override;

  /// Radius search through the same fan-out. At full budget the result is
  /// bit-identical to BruteForceRadius over the live allowed rows.
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override;
  size_t dim() const override { return dim_; }
  /// Number of live (non-tombstoned) points.
  size_t size() const override;
  Metric metric() const override { return config_.metric; }
  IndexType type() const override { return IndexType::kDynamic; }

  // --- Introspection -------------------------------------------------------

  size_t num_sealed_segments() const;
  size_t write_segment_rows() const;
  size_t num_tombstones() const;
  uint32_t next_global_id() const;
  const DynamicIndexConfig& config() const { return config_; }

  /// A consistent, lock-held view of the whole index handed to
  /// WithFrozenState: no append, delete, seal install, or compaction can run
  /// while the callback executes. This is the serializer's snapshot surface
  /// (index/serialize.cc); the references die with the callback.
  struct FrozenState {
    uint32_t next_global_id;
    const std::vector<std::unique_ptr<SealedSegment>>& sealed;
    const float* write_data;
    size_t write_rows;
    const std::vector<uint32_t>& write_ids;
    const std::unordered_set<uint32_t>& tombstones;
  };
  Status WithFrozenState(
      const std::function<Status(const FrozenState&)>& fn) const;

 private:
  /// id_map_ value for a global id in the write segment.
  static constexpr uint32_t kWriteSegment = 0xFFFFFFFFu;

  /// The sealed segments and the write segment (scanned through `write`) as
  /// fan-out parts; the caller holds mutex_.
  std::vector<FanOutPart> Parts(const DistanceComputer& write) const;
  void FinishMaintenanceTask() const;

  const size_t dim_;
  const DynamicIndexConfig config_;

  /// Guards every member below. Searches hold it shared; Add/Delete and the
  /// snapshot/install phases of Seal/Compact hold it exclusively.
  mutable std::shared_mutex mutex_;
  std::vector<std::unique_ptr<SealedSegment>> sealed_;
  std::vector<float> write_data_;      ///< write segment, row-major
  std::vector<uint32_t> write_ids_;    ///< write row -> global id
  std::unordered_set<uint32_t> tombstones_;
  size_t write_tombstoned_ = 0;  ///< tombstones among write-segment rows
  /// Every assigned id not yet reclaimed -> its sealed segment's index, or
  /// kWriteSegment; size() is its size minus the tombstones.
  std::unordered_map<uint32_t, uint32_t> id_map_;
  uint32_t next_id_ = 0;
  bool seal_scheduled_ = false;
  bool compact_scheduled_ = false;

  /// Serializes Seal/Compact bodies (one maintenance op at a time).
  mutable std::mutex maintenance_mutex_;

  /// Tracks scheduled background tasks for WaitForMaintenance / destruction.
  mutable std::mutex maintenance_state_mutex_;
  mutable std::condition_variable maintenance_done_;
  mutable size_t pending_maintenance_ = 0;
};

}  // namespace usp

#endif  // USP_SERVE_DYNAMIC_INDEX_H_
