// Async micro-batching front-end: turns single-query traffic into SIMD-width
// SearchBatch calls. The repo's fast paths — GEMM block scoring (dist/),
// fast-scan PQ/SQ8 (quant/), shard fan-out (serve/sharded_index.h) — all pay
// off at batch width, but a single user query arrives alone. The executor
// closes that gap: callers Submit one query and get a future; a dedicated
// batcher thread pops pending singles off a bounded BatchingQueue
// (util/batching_queue.h), coalesces compatible ones into one SearchRequest,
// executes it on the batcher thread (the index fans its own work out on the
// global pool), and scatters the per-row results back to the futures.
//
// Natural batching: the batcher loops pop → group → SearchBatch → scatter,
// and the pop never waits on a timer. It blocks only while the queue is
// empty, then takes up to `max_batch` of whatever is queued. A request that
// reaches an idle batcher runs at once as a batch of one; requests that
// arrive while a batch executes form the next batch, so batch width follows
// load: about 1 at low rates, up to `max_batch` when arrivals outpace
// execution.
//
// Correctness contract: every index's SearchBatch computes result rows
// independently (bit-identical at every thread count and batch width — the
// repo-wide invariant pinned since PR 1), so the row a query gets inside a
// coalesced batch is bit-identical to the row it would get submitted alone
// with the same (k, budget, filter, plan). Queries whose options differ in
// any result-affecting field are never merged into one request: the batcher
// groups a popped batch by (k, budget, filter, plan, stats, num_threads)
// and issues one SearchBatch per group. tests/batching_executor_test.cc pins
// both properties; bench/bench_serving.cc measures the QPS payoff.
//
// Admission control: an optional per-tenant in-flight cap. Submit tags each
// request with a tenant id; when a tenant already has max_in_flight_per_tenant
// requests queued-or-executing, further Submits fail fast with
// kFailedPrecondition instead of letting one hot tenant consume the whole
// queue (global backpressure — a full queue — still blocks everyone).
#ifndef USP_SERVE_BATCHING_EXECUTOR_H_
#define USP_SERVE_BATCHING_EXECUTOR_H_

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "index/index.h"
#include "util/batching_queue.h"
#include "util/status.h"

namespace usp {

struct BatchingExecutorConfig {
  /// Widest coalesced batch; also the per-pop bound of the request queue.
  size_t max_batch = 32;

  /// Bound of the pending-request queue; Submit blocks (backpressure) while
  /// full.
  size_t max_queue = 1024;

  /// Per-tenant in-flight cap (queued + executing). 0 = unlimited.
  size_t max_in_flight_per_tenant = 0;
};

/// One query's answer, scattered out of a coalesced BatchSearchResult row.
/// Rows follow the index padding contract: real neighbors first (ascending
/// by distance), then kInvalidId / +inf slots.
struct SingleSearchResult {
  size_t k = 0;
  std::vector<uint32_t> ids;
  std::vector<float> distances;
  uint32_t candidates_scored = 0;

  /// Engaged per counter only when the request asked for stats.
  uint32_t bins_probed = 0;
  uint32_t filtered_out = 0;
  uint32_t nodes_visited = 0;
};

/// Async single-query front-end over any Index. Thread-safe: any number of
/// client threads may Submit concurrently; one internal batcher thread
/// coalesces and executes. The index must outlive the executor.
class BatchingExecutor {
 public:
  BatchingExecutor(const Index* index, BatchingExecutorConfig config = {});

  /// Shuts down (fulfilling every pending future) before destruction.
  ~BatchingExecutor();

  BatchingExecutor(const BatchingExecutor&) = delete;
  BatchingExecutor& operator=(const BatchingExecutor&) = delete;

  /// Enqueues one query (dim() floats, copied — the caller's buffer may die
  /// at return). `options.filter`, if set, must outlive the returned
  /// future's completion. Fails with kFailedPrecondition when the executor
  /// is shut down or the tenant is at its in-flight cap; otherwise blocks
  /// while the queue is full and returns a future that is always eventually
  /// fulfilled (drain on shutdown included).
  StatusOr<std::future<SingleSearchResult>> Submit(const float* query,
                                                   SearchOptions options,
                                                   uint64_t tenant = 0);

  /// Blocks until every request submitted before the call has been executed
  /// and its future fulfilled. Concurrent Submits may keep the executor busy
  /// past the return; Drain only promises the past is flushed.
  void Drain();

  /// Stops admission, drains every pending request (their futures are
  /// fulfilled normally), and joins the batcher thread. Idempotent; Submit
  /// afterwards fails with kFailedPrecondition.
  void Shutdown();

  // --- Coalescing telemetry (monotonic; for tests and bench) ---------------

  /// Requests executed so far.
  uint64_t requests_executed() const;
  /// SearchBatch calls issued so far (<= requests; the gap is the win).
  uint64_t batches_executed() const;
  /// Widest single SearchBatch issued so far.
  size_t max_batch_width() const;

  const Index& index() const { return *index_; }
  const BatchingExecutorConfig& config() const { return config_; }

 private:
  struct Pending {
    std::vector<float> query;
    SearchOptions options;
    uint64_t tenant = 0;
    std::promise<SingleSearchResult> promise;
  };

  void BatcherLoop();
  void ExecuteGroup(std::vector<Pending>& batch, const std::vector<size_t>& group);
  void FinishRequest(uint64_t tenant);

  const Index* index_;
  const BatchingExecutorConfig config_;
  BatchingQueue<Pending> queue_;
  std::thread batcher_;

  /// Guards the admission/telemetry state below (never held during
  /// SearchBatch execution).
  mutable std::mutex state_mutex_;
  std::condition_variable idle_;  ///< signaled when in_flight_ drops to 0
  std::unordered_map<uint64_t, size_t> tenant_in_flight_;
  size_t in_flight_ = 0;  ///< queued + executing, all tenants
  bool shutdown_ = false;
  uint64_t requests_executed_ = 0;
  uint64_t batches_executed_ = 0;
  size_t max_batch_width_ = 0;
};

}  // namespace usp

#endif  // USP_SERVE_BATCHING_EXECUTOR_H_
