#include "serve/batching_executor.h"

#include <algorithm>
#include <utility>

namespace usp {

namespace {
/// Two requests may share one SearchRequest only when every result-affecting
/// option matches. num_threads does not change results (the repo-wide
/// bit-identity invariant) but is kept in the key anyway so a caller pinning
/// a thread cap gets exactly the execution they asked for.
bool Compatible(const SearchOptions& a, const SearchOptions& b) {
  return a.k == b.k && a.budget == b.budget &&
         a.num_threads == b.num_threads && a.filter == b.filter &&
         a.stats == b.stats && a.plan == b.plan;
}
}  // namespace

BatchingExecutor::BatchingExecutor(const Index* index,
                                   BatchingExecutorConfig config)
    : index_(index),
      config_(config),
      queue_(config.max_queue == 0 ? 1 : config.max_queue) {
  USP_CHECK(index_ != nullptr);
  USP_CHECK(config_.max_batch > 0);
  batcher_ = std::thread([this] { BatcherLoop(); });
}

BatchingExecutor::~BatchingExecutor() { Shutdown(); }

StatusOr<std::future<SingleSearchResult>> BatchingExecutor::Submit(
    const float* query, SearchOptions options, uint64_t tenant) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (shutdown_) {
      return Status::FailedPrecondition("executor is shut down");
    }
    if (config_.max_in_flight_per_tenant > 0 &&
        tenant_in_flight_[tenant] >= config_.max_in_flight_per_tenant) {
      return Status::FailedPrecondition(
          "tenant " + std::to_string(tenant) + " is at its in-flight cap (" +
          std::to_string(config_.max_in_flight_per_tenant) + ")");
    }
    ++tenant_in_flight_[tenant];
    ++in_flight_;
  }

  Pending pending;
  pending.query.assign(query, query + index_->dim());
  pending.options = options;
  pending.tenant = tenant;
  std::future<SingleSearchResult> future = pending.promise.get_future();
  if (!queue_.Push(std::move(pending))) {
    // Shut down between the admission check and the push: roll the
    // accounting back and report it the same way the check would have.
    FinishRequest(tenant);
    return Status::FailedPrecondition("executor is shut down");
  }
  return future;
}

void BatchingExecutor::Drain() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

void BatchingExecutor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    shutdown_ = true;
  }
  // Close wakes the batcher, which drains every queued request (fulfilling
  // its future) before PopBatch returns 0 and the loop exits.
  queue_.Close();
  if (batcher_.joinable()) batcher_.join();
}

void BatchingExecutor::BatcherLoop() {
  std::vector<Pending> batch;
  std::vector<size_t> group;
  for (;;) {
    batch.clear();
    if (queue_.PopBatch(batch, config_.max_batch) == 0) return;

    // Group compatible requests preserving submission order within each
    // group (first-fit): one SearchBatch per group. The common case — every
    // client asking with the same options — is a single full-width group.
    std::vector<char> grouped(batch.size(), 0);
    for (size_t i = 0; i < batch.size(); ++i) {
      if (grouped[i]) continue;
      group.clear();
      group.push_back(i);
      grouped[i] = 1;
      for (size_t j = i + 1; j < batch.size(); ++j) {
        if (!grouped[j] && Compatible(batch[i].options, batch[j].options)) {
          grouped[j] = 1;
          group.push_back(j);
        }
      }
      ExecuteGroup(batch, group);
    }
  }
}

void BatchingExecutor::ExecuteGroup(std::vector<Pending>& batch,
                                    const std::vector<size_t>& group) {
  const size_t dim = index_->dim();
  Matrix queries(group.size(), dim);
  for (size_t r = 0; r < group.size(); ++r) {
    const std::vector<float>& q = batch[group[r]].query;
    std::copy(q.begin(), q.end(), queries.Row(r));
  }

  SearchRequest request;
  request.queries = queries;
  request.options = batch[group.front()].options;
  const BatchSearchResult result = index_->SearchBatch(request);

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    requests_executed_ += group.size();
    ++batches_executed_;
    if (group.size() > max_batch_width_) max_batch_width_ = group.size();
  }

  // Scatter: row r of the coalesced result is, by the per-row independence
  // invariant, bit-identical to what request r would have gotten alone.
  for (size_t r = 0; r < group.size(); ++r) {
    Pending& pending = batch[group[r]];
    SingleSearchResult out;
    out.k = result.k;
    out.ids.assign(result.Row(r), result.Row(r) + result.k);
    out.distances.assign(result.DistanceRow(r),
                         result.DistanceRow(r) + result.k);
    out.candidates_scored = result.candidate_counts[r];
    if (result.stats) {
      out.bins_probed = result.stats->bins_probed[r];
      out.filtered_out = result.stats->filtered_out[r];
      out.nodes_visited = result.stats->nodes_visited[r];
    }
    pending.promise.set_value(std::move(out));
    FinishRequest(pending.tenant);
  }
}

void BatchingExecutor::FinishRequest(uint64_t tenant) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  auto it = tenant_in_flight_.find(tenant);
  if (it != tenant_in_flight_.end() && --it->second == 0) {
    tenant_in_flight_.erase(it);
  }
  if (--in_flight_ == 0) idle_.notify_all();
}

uint64_t BatchingExecutor::requests_executed() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return requests_executed_;
}

uint64_t BatchingExecutor::batches_executed() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return batches_executed_;
}

size_t BatchingExecutor::max_batch_width() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return max_batch_width_;
}

}  // namespace usp
