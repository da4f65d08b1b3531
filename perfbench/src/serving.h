// The open-loop serving phase: single 10-NN reads submitted to a
// BatchingExecutor on a seeded Poisson schedule at two fixed rates and then
// up a fixed rate ladder, next to a writer issuing Add and Delete at 2:1 and
// a fixed rate. Every workload runs it against its own mutable index.
#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.h"
#include "index/index.h"
#include "serve/dynamic_index.h"

namespace perfbench {

/// The mutable index under load and its write surface.
struct ServeTarget {
  const usp::Index* index = nullptr;
  std::function<uint32_t(const float*)> add;
  std::function<bool(uint32_t)> remove;
  /// Traced pass only: samples per-shard segment and tombstone counts.
  std::function<void(Tracer*)> sample_state;
  /// Schedules a background compaction of shard `s` < num_shards (serve-rw
  /// only; empty elsewhere). The low and high phases each compact every
  /// shard once, at evenly staggered points.
  std::function<void(size_t)> compact;
  size_t num_shards = 0;
};

/// One workload's fixed serving rates. Every workload reads at 200/s for
/// `low_reads` reads (low). With `high_rate` > 0 (serve-rw) it then reads at
/// `high_rate` and climbs a ladder from `ladder_start` by x1.2 for up to 8
/// rungs of 0.6 s (at least 1000 reads). A rung passes when its read p99 is
/// at most 50 ms, nothing failed and the in-flight count did not grow; a
/// failing rung is retried once.
struct ServePlan {
  size_t budget = 1;          ///< read budget
  /// Reads of the low phase, at least 1000 so its p99 has 10 samples beyond
  /// it; serve-rw reads longer so that its compactions cover a minority of
  /// the phase.
  size_t low_reads = 1100;
  double high_rate = 0.0;     ///< reads/s, ~40% of capacity; 0 = low only
  double high_seconds = 2.0;
  double ladder_start = 0.0;  ///< first rung, reads/s
  double write_rate = 150.0;  ///< writes/s, Add:Delete = 2:1
  /// Deletes pick from every live id when true, else only from ids the
  /// writer added (a static index adopted as a segment is never compacted,
  /// so its tombstones would only accumulate).
  bool delete_base_rows = false;
};

/// What the writer did: the live set after the phase is the base rows, plus
/// every added pool row, minus every deleted id.
struct WriteLog {
  std::vector<uint32_t> added_ids;     ///< in Add order
  std::vector<size_t> added_rows;      ///< pool row of each added id
  std::vector<uint32_t> deleted_ids;
};

struct ServeResult {
  /// read_p50/p99 at low (and high), max_rate_qps (with a ladder),
  /// write_p99_ms
  Metrics metrics;
  WriteLog log;
};

/// Runs the serving phase against `target`; ids [0, num_base) are live at
/// the start and Add must hand out num_base, num_base + 1, ... in order.
ServeResult RunServing(const ServeTarget& target, const ServePlan& plan,
                       const usp::Matrix& queries, const usp::Matrix& pool,
                       size_t num_base, uint64_t seed, Report* report);

/// Traced pass: forwards every call to `inner` and records a serve.segment
/// span per search while the serving phase runs.
std::unique_ptr<usp::Index> TraceSegment(std::unique_ptr<usp::Index> inner);

/// Traced pass: the library's default sealed segment (IVF-Flat, nlist =
/// round(sqrt(n))) wrapped by TraceSegment; builds of more than
/// 4 * seal_threshold rows are compactions, the rest seals.
usp::SegmentBuilder TracedIvfBuilder(size_t seal_threshold);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
