// Tests for the async micro-batching front-end (serve/batching_executor.h):
// the acceptance bar is bit-identity — a query coalesced into a batch gets
// exactly the rows it would get submitted alone — plus natural batching (a
// lone request runs at once; arrivals during a batch form the next one),
// options-compatibility grouping, per-tenant admission control, and a
// multi-threaded submit/drain/shutdown stress that the CI TSan leg runs.
// Batch composition is made deterministic with GatedIndex, which holds the
// batcher inside one SearchBatch while the test queues later requests.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/workload.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "serve/batching_executor.h"
#include "serve/sharded_index.h"
#include "tensor/matrix.h"

namespace usp {
namespace {

constexpr size_t kFullBudget = 1u << 20;

const Workload& ExecWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 500;
    spec.num_queries = 32;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 99;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

std::unique_ptr<Index> MakeIvf(const Workload& w) {
  IvfConfig config;
  config.nlist = 16;
  return std::make_unique<IvfFlatIndex>(&w.base, config);
}

// Forwards to an inner index, records the queries of every SearchBatch call,
// and blocks each call until the test opens the gate (it then stays open).
class GatedIndex final : public Index {
 public:
  explicit GatedIndex(const Index* inner) : inner_(inner) {}

  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const MatrixView q = request.queries;
      batches_.emplace_back(q.data(), q.data() + q.rows() * q.cols());
      entered_.notify_all();
      opened_.wait(lock, [this] { return open_; });
    }
    return inner_->SearchBatch(request);
  }
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override {
    return inner_->RadiusSearchBatch(request);
  }
  size_t dim() const override { return inner_->dim(); }
  size_t size() const override { return inner_->size(); }
  Metric metric() const override { return inner_->metric(); }
  IndexType type() const override { return inner_->type(); }

  /// Blocks until `n` SearchBatch calls have reached the gate; false if
  /// they have not within a generous bound (a bug, reported, not a hang).
  bool WaitForBatches(size_t n) const {
    std::unique_lock<std::mutex> lock(mutex_);
    return entered_.wait_for(lock, std::chrono::seconds(30),
                             [this, n] { return batches_.size() >= n; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    opened_.notify_all();
  }

  /// Row-major queries of each call so far, in call order.
  std::vector<std::vector<float>> batches() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
  }

  std::vector<size_t> widths() const {
    std::vector<size_t> out;
    for (const std::vector<float>& batch : batches()) {
      out.push_back(batch.size() / dim());
    }
    return out;
  }

 private:
  const Index* inner_;
  mutable std::mutex mutex_;
  mutable std::condition_variable entered_;
  mutable std::condition_variable opened_;
  mutable std::vector<std::vector<float>> batches_;
  bool open_ = false;
};

// Opens the gate when it leaves scope. Declared after the executor, it runs
// first when a failed ASSERT returns early, so the executor's destructor
// never joins a batcher held at a closed gate.
class OpenAtExit {
 public:
  explicit OpenAtExit(GatedIndex* gated) : gated_(gated) {}
  ~OpenAtExit() { gated_->Open(); }
  OpenAtExit(const OpenAtExit&) = delete;
  OpenAtExit& operator=(const OpenAtExit&) = delete;

 private:
  GatedIndex* gated_;
};

// Submits query row `q` and checks the call was admitted.
std::future<SingleSearchResult> SubmitOk(BatchingExecutor& executor,
                                         const Workload& w, size_t q,
                                         const SearchOptions& options,
                                         uint64_t tenant = 0) {
  StatusOr<std::future<SingleSearchResult>> submitted =
      executor.Submit(w.queries.Row(q), options, tenant);
  EXPECT_TRUE(submitted.ok()) << submitted.status().message();
  if (!submitted.ok()) return {};  // get() on it throws and fails the test
  return std::move(submitted).value();
}

// Checks `got` against a solo SearchBatch of query row `q`, bit for bit.
void ExpectMatchesSolo(const Index& index, const Workload& w, size_t q,
                       const SearchOptions& options,
                       const SingleSearchResult& got) {
  SearchRequest single;
  single.queries = MatrixView(w.queries.Row(q), 1, w.queries.cols());
  single.options = options;
  const BatchSearchResult want = index.SearchBatch(single);
  ASSERT_EQ(got.k, want.k) << "q=" << q;
  EXPECT_EQ(got.ids, want.ids) << "q=" << q;
  EXPECT_EQ(got.distances, want.distances) << "q=" << q;
  EXPECT_EQ(got.candidates_scored, want.candidate_counts[0]) << "q=" << q;
}

TEST(BatchingExecutorTest, CoalescedResultsBitIdenticalToPerQuery) {
  const Workload& w = ExecWorkload();
  const std::unique_ptr<Index> index = MakeIvf(w);
  GatedIndex gated(index.get());
  SearchOptions options;
  options.k = 10;
  options.budget = 4;  // a real (non-exhaustive) budget: identity must hold
                       // at any budget, not just the exact regime

  BatchingExecutorConfig config;
  config.max_batch = 8;
  BatchingExecutor executor(&gated, config);
  OpenAtExit open_at_exit(&gated);

  // Query 0 holds the batcher at the gate while the other 31 queue, so they
  // coalesce into width-8 batches.
  std::vector<std::future<SingleSearchResult>> futures;
  futures.push_back(SubmitOk(executor, w, 0, options));
  ASSERT_TRUE(gated.WaitForBatches(1));
  for (size_t q = 1; q < w.queries.rows(); ++q) {
    futures.push_back(SubmitOk(executor, w, q, options));
  }
  gated.Open();
  for (size_t q = 0; q < w.queries.rows(); ++q) {
    ExpectMatchesSolo(*index, w, q, options, futures[q].get());
  }
  EXPECT_EQ(gated.widths(), (std::vector<size_t>{1, 8, 8, 8, 7}));
  EXPECT_EQ(executor.requests_executed(), w.queries.rows());
  EXPECT_EQ(executor.batches_executed(), 5u);
  EXPECT_EQ(executor.max_batch_width(), 8u);
}

TEST(BatchingExecutorTest, LoneRequestRunsAlone) {
  const Workload& w = ExecWorkload();
  const std::unique_ptr<Index> index = MakeIvf(w);
  GatedIndex gated(index.get());
  gated.Open();
  BatchingExecutorConfig config;
  config.max_batch = 64;  // far wider than the one request
  BatchingExecutor executor(&gated, config);

  SearchOptions options;
  options.k = 3;
  options.budget = 4;
  // get() returns without any companion request arriving: the batcher does
  // not wait to fill the batch.
  ExpectMatchesSolo(*index, w, 0, options,
                    SubmitOk(executor, w, 0, options).get());
  EXPECT_EQ(gated.widths(), (std::vector<size_t>{1}));
  EXPECT_EQ(executor.requests_executed(), 1u);
  EXPECT_EQ(executor.batches_executed(), 1u);
  EXPECT_EQ(executor.max_batch_width(), 1u);
}

TEST(BatchingExecutorTest, ArrivalsDuringABatchFormTheNext) {
  const Workload& w = ExecWorkload();
  const std::unique_ptr<Index> index = MakeIvf(w);
  GatedIndex gated(index.get());
  BatchingExecutorConfig config;
  config.max_batch = 4;
  BatchingExecutor executor(&gated, config);
  OpenAtExit open_at_exit(&gated);

  SearchOptions options;
  options.k = 5;
  options.budget = 4;
  const size_t arrivals = config.max_batch + 3;
  std::vector<std::future<SingleSearchResult>> futures;
  futures.push_back(SubmitOk(executor, w, 0, options));
  ASSERT_TRUE(gated.WaitForBatches(1));  // batch 1 executes (held) ...
  for (size_t q = 1; q <= arrivals; ++q) {
    futures.push_back(SubmitOk(executor, w, q, options));  // ... these queue
  }
  gated.Open();
  for (size_t q = 0; q < futures.size(); ++q) {
    ExpectMatchesSolo(*index, w, q, options, futures[q].get());
  }

  // The queued requests run as the next batches: one full-width, then the
  // remaining 3, each holding its queries in submission order.
  EXPECT_EQ(gated.widths(), (std::vector<size_t>{1, config.max_batch, 3}));
  const std::vector<std::vector<float>> batches = gated.batches();
  ASSERT_EQ(batches.size(), 3u);
  size_t q = 0;
  for (const std::vector<float>& batch : batches) {
    const std::vector<float> want(w.queries.Row(q),
                                  w.queries.Row(q) + batch.size());
    EXPECT_EQ(batch, want) << "batch starting at q=" << q;
    q += batch.size() / w.queries.cols();
  }
  EXPECT_EQ(q, arrivals + 1);
}

TEST(BatchingExecutorTest, IncompatibleOptionsNeverShareABatch) {
  const Workload& w = ExecWorkload();
  const std::unique_ptr<Index> index = MakeIvf(w);
  GatedIndex gated(index.get());
  BatchingExecutorConfig config;
  config.max_batch = 16;
  BatchingExecutor executor(&gated, config);
  OpenAtExit open_at_exit(&gated);

  SearchOptions hold;
  hold.k = 1;
  std::future<SingleSearchResult> held = SubmitOk(executor, w, 0, hold);
  ASSERT_TRUE(gated.WaitForBatches(1));

  // Interleave six option shapes, two requests each, behind the held batch:
  // all 12 pop together, and every future must come back with its own k and
  // its own bit-identical row.
  std::vector<std::future<SingleSearchResult>> futures;
  std::vector<SearchOptions> per_query;
  for (size_t q = 0; q < 12; ++q) {
    SearchOptions options;
    options.k = 3 + (q % 3) * 2;  // 3, 5, 7
    options.budget = q % 2 == 0 ? 4 : kFullBudget;
    per_query.push_back(options);
    futures.push_back(SubmitOk(executor, w, q, options));
  }
  gated.Open();
  held.get();
  for (size_t q = 0; q < futures.size(); ++q) {
    ExpectMatchesSolo(*index, w, q, per_query[q], futures[q].get());
  }
  // One SearchBatch per compatible pair, never a mixed one.
  EXPECT_EQ(gated.widths(), (std::vector<size_t>{1, 2, 2, 2, 2, 2, 2}));
}

TEST(BatchingExecutorTest, PerTenantAdmissionControl) {
  const Workload& w = ExecWorkload();
  const std::unique_ptr<Index> index = MakeIvf(w);
  GatedIndex gated(index.get());
  BatchingExecutorConfig config;
  config.max_batch = 100;
  config.max_in_flight_per_tenant = 2;
  BatchingExecutor executor(&gated, config);
  OpenAtExit open_at_exit(&gated);

  SearchOptions options;
  options.k = 4;
  options.budget = 4;
  // The closed gate holds `a` executing and `b` queued: both in flight.
  auto a = executor.Submit(w.queries.Row(0), options, /*tenant=*/7);
  auto b = executor.Submit(w.queries.Row(1), options, /*tenant=*/7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Tenant 7 is at its cap; tenant 8 is not.
  auto rejected = executor.Submit(w.queries.Row(2), options, /*tenant=*/7);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  auto c = executor.Submit(w.queries.Row(3), options, /*tenant=*/8);
  ASSERT_TRUE(c.ok());

  // Once the in-flight requests finish, the tenant may submit again.
  gated.Open();
  a.value().get();
  b.value().get();
  c.value().get();
  executor.Drain();
  auto again = executor.Submit(w.queries.Row(4), options, /*tenant=*/7);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().get().ids.size(), 4u);
}

TEST(BatchingExecutorTest, ShutdownFulfillsPendingAndRejectsNew) {
  const Workload& w = ExecWorkload();
  const std::unique_ptr<Index> index = MakeIvf(w);
  GatedIndex gated(index.get());
  BatchingExecutorConfig config;
  config.max_batch = 100;
  BatchingExecutor executor(&gated, config);
  OpenAtExit open_at_exit(&gated);

  SearchOptions options;
  options.k = 6;
  options.budget = 4;
  std::vector<std::future<SingleSearchResult>> futures;
  for (size_t q = 0; q < 5; ++q) {
    futures.push_back(SubmitOk(executor, w, q, options));
  }
  ASSERT_TRUE(gated.WaitForBatches(1));  // query 0 held; the rest pending

  // Shutdown joins the batcher, so it blocks until the gate opens. It stops
  // admission first: keep submitting until a Submit is rejected, and each
  // accepted one is one more request pending at shutdown.
  std::thread closer([&] { executor.Shutdown(); });
  for (;;) {
    auto submitted = executor.Submit(w.queries.Row(0), options);
    if (!submitted.ok()) {
      EXPECT_EQ(submitted.status().code(), StatusCode::kFailedPrecondition);
      break;
    }
    futures.push_back(std::move(submitted).value());
  }
  gated.Open();
  closer.join();
  // Every pending future was fulfilled normally during the drain.
  for (auto& future : futures) {
    EXPECT_EQ(future.get().ids.size(), 6u);
  }
  EXPECT_EQ(executor.requests_executed(), futures.size());
  auto rejected = executor.Submit(w.queries.Row(0), options);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  executor.Shutdown();  // idempotent
}

// The TSan target: many client threads submitting against a mutable sharded
// index while a writer keeps inserting, with Drain/Shutdown racing the tail.
TEST(BatchingExecutorTest, SubmitDrainStress) {
  const Workload& w = ExecWorkload();
  ShardedIndexConfig shard_config;
  shard_config.num_shards = 2;
  ShardedIndex index(w.base.cols(), shard_config);
  index.AddBatch(MatrixView(w.base.data(), 100, w.base.cols()));

  BatchingExecutorConfig config;
  config.max_batch = 8;
  config.max_queue = 64;
  BatchingExecutor executor(&index, config);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    size_t next = 100;
    while (!stop.load(std::memory_order_relaxed) && next < w.base.rows()) {
      index.Add(w.base.Row(next++));
    }
  });

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 50;
  std::atomic<size_t> fulfilled{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      SearchOptions options;
      options.k = 5;
      options.budget = kFullBudget;
      options.num_threads = 1;
      for (size_t i = 0; i < kPerClient; ++i) {
        auto submitted = executor.Submit(
            w.queries.Row((c * kPerClient + i) % w.queries.rows()), options,
            /*tenant=*/c);
        ASSERT_TRUE(submitted.ok());
        const SingleSearchResult result = submitted.value().get();
        ASSERT_EQ(result.ids.size(), 5u);
        // Row contract survives concurrency: real ids then padding.
        bool padding = false;
        for (uint32_t id : result.ids) {
          if (id == kInvalidId) {
            padding = true;
          } else {
            ASSERT_FALSE(padding);
            ASSERT_LT(id, w.base.rows());
          }
        }
        fulfilled.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& client : clients) client.join();
  executor.Drain();
  stop.store(true);
  writer.join();
  executor.Shutdown();
  EXPECT_EQ(fulfilled.load(), kClients * kPerClient);
  EXPECT_EQ(executor.requests_executed(), kClients * kPerClient);
}

}  // namespace
}  // namespace usp
