#include "serving.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <condition_variable>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "ivf/ivf.h"
#include "serve/batching_executor.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
constexpr double kMissed = 1e9;  // latency of a refused or failed read, ms
constexpr double kLowRate = 200.0;
constexpr double kLadderFactor = 1.2;
constexpr size_t kLadderRungs = 8;
constexpr double kRungSeconds = 0.6;
constexpr size_t kMinRungReads = 1000;  // p99 keeps 10 samples beyond
constexpr double kP99LimitMs = 50.0;

void SleepUntilNs(int64_t due_ns) {
  const int64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

uint64_t HashRow(const float* row, size_t dim) {
  uint64_t h = 1469598103934665603ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(row);
  for (size_t i = 0; i < dim * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

// Maps an executed query row back to the request that carried it: reads
// cycle through the query set, so while fewer than nq reads are in flight a
// query row names exactly one pending request.
struct RequestTable {
  explicit RequestTable(const usp::Matrix& queries, size_t max_requests)
      : request_of(new std::atomic<uint64_t>[queries.rows()]),
        submit_ns(new std::atomic<int64_t>[max_requests]),
        capacity(max_requests) {
    for (size_t q = 0; q < queries.rows(); ++q) {
      row_to_query[HashRow(queries.Row(q), queries.cols())] =
          static_cast<uint32_t>(q);
      request_of[q] = 0;
    }
    for (size_t r = 0; r < max_requests; ++r) submit_ns[r] = 0;
  }

  std::unordered_map<uint64_t, uint32_t> row_to_query;
  std::unique_ptr<std::atomic<uint64_t>[]> request_of;
  std::unique_ptr<std::atomic<int64_t>[]> submit_ns;
  size_t capacity;
};

// Forwards every Index call to `inner`; the probes below override
// SearchBatch to record spans around it.
class ForwardingIndex : public usp::Index {
 public:
  explicit ForwardingIndex(const usp::Index* inner) : inner_(inner) {}

  using usp::Index::SearchBatch;
  usp::BatchSearchResult SearchBatch(
      const usp::SearchRequest& request) const override {
    return inner_->SearchBatch(request);
  }
  usp::RadiusResult RadiusSearchBatch(
      const usp::RadiusRequest& request) const override {
    return inner_->RadiusSearchBatch(request);
  }
  size_t dim() const override { return inner_->dim(); }
  size_t size() const override { return inner_->size(); }
  usp::Metric metric() const override { return inner_->metric(); }
  usp::IndexType type() const override { return inner_->type(); }
  usp::MatrixView base_view() const override { return inner_->base_view(); }
  size_t EstimateCandidates(size_t budget) const override {
    return inner_->EstimateCandidates(budget);
  }
  const usp::Index& underlying() const override { return inner_->underlying(); }

 protected:
  const usp::Index* inner_;
};

// Traced pass: the Index the executor sees. Records one serve.batch span per
// executed batch, its width, each request's queue wait (batch start minus
// submit time) and the real rows returned.
class ExecutorProbe final : public ForwardingIndex {
 public:
  ExecutorProbe(const usp::Index* inner, const RequestTable* table)
      : ForwardingIndex(inner), table_(table) {}

  using usp::Index::SearchBatch;
  usp::BatchSearchResult SearchBatch(
      const usp::SearchRequest& request) const override {
    static const uint32_t kBatch = Tracer::Intern("serve.batch");
    Tracer* tracer = ActiveTracer();
    const size_t nq = request.queries.rows();
    ScopedSpan span(kBatch, 0, batches_.fetch_add(1) + 1);
    usp::BatchSearchResult result = inner_->SearchBatch(request);
    if (tracer == nullptr) return result;
    double returned = 0.0;
    for (size_t q = 0; q < nq; ++q) {
      for (size_t j = 0; j < result.k; ++j) {
        returned += result.Row(q)[j] != usp::kInvalidId ? 1.0 : 0.0;
      }
      auto it = table_->row_to_query.find(
          HashRow(request.queries.Row(q), request.queries.cols()));
      if (it == table_->row_to_query.end()) continue;
      const uint64_t req = table_->request_of[it->second].load();
      if (req == 0 || req > table_->capacity) continue;
      const int64_t submitted = table_->submit_ns[req - 1].load();
      if (submitted > 0) {
        tracer->Sample("serve.queue_wait_us",
                       double(span.start_ns() - submitted) * 1e-3);
      }
    }
    tracer->Sample("serve.batch_width", double(nq));
    tracer->Add("serve.rows_returned", returned);
    return result;
  }

 private:
  const RequestTable* table_;
  mutable std::atomic<uint64_t> batches_{0};
};

// Traced pass: owns a segment index and records a serve.segment span and the
// rows requested for each search made while the serving phase runs.
class SegmentProbe final : public ForwardingIndex {
 public:
  explicit SegmentProbe(std::unique_ptr<usp::Index> inner)
      : ForwardingIndex(inner.get()), owned_(std::move(inner)) {}

  using usp::Index::SearchBatch;
  usp::BatchSearchResult SearchBatch(
      const usp::SearchRequest& request) const override {
    static const uint32_t kSegment = Tracer::Intern("serve.segment");
    Tracer* tracer = ActiveTracer();
    if (tracer == nullptr || !tracer->serving.load()) {
      return inner_->SearchBatch(request);
    }
    tracer->Add("serve.rows_requested",
                double(request.options.k * request.queries.rows()));
    ScopedSpan span(kSegment);
    return inner_->SearchBatch(request);
  }

 private:
  std::unique_ptr<usp::Index> owned_;
};

struct Pending {
  size_t phase = 0;
  int64_t due_ns = 0;
  int64_t submit_ns = 0;
  bool refused = false;
  std::future<usp::SingleSearchResult> future;
};

struct PhaseStats {
  std::vector<double> latency_ms;
  std::vector<double> in_flight;
  size_t failed = 0;
  int64_t first_due = kNever;
  int64_t last_done = 0;
};

// Exponential inter-arrival gaps at `rate` from a seeded stream.
std::vector<int64_t> Schedule(size_t count, double rate, uint64_t seed) {
  usp::Rng rng(seed);
  std::vector<int64_t> offsets(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += -std::log(1.0 - rng.Uniform()) / rate;
    offsets[i] = static_cast<int64_t>(t * 1e9);
  }
  return offsets;
}

}  // namespace

std::unique_ptr<usp::Index> TraceSegment(std::unique_ptr<usp::Index> inner) {
  return std::make_unique<SegmentProbe>(std::move(inner));
}

usp::SegmentBuilder TracedIvfBuilder(size_t seal_threshold) {
  return [seal_threshold](const usp::Matrix& base, usp::Metric metric)
             -> std::unique_ptr<usp::Index> {
    static const uint32_t kSeal = Tracer::Intern("serve.seal");
    static const uint32_t kCompact = Tracer::Intern("serve.compact");
    Tracer* tracer = ActiveTracer();
    const bool record = tracer != nullptr && tracer->serving.load();
    const int64_t start = NowNs();
    usp::IvfConfig ivf;
    ivf.metric = metric;
    const size_t n = base.rows();
    ivf.nlist = std::max<size_t>(
        1, std::min(n, static_cast<size_t>(
                           std::lround(std::sqrt(static_cast<double>(n))))));
    auto segment = TraceSegment(std::make_unique<usp::IvfFlatIndex>(&base, ivf));
    if (record) {
      Span span;
      span.name = n > 4 * seal_threshold ? kCompact : kSeal;
      span.id = tracer->NextId();
      span.start_ns = start;
      span.end_ns = NowNs();
      tracer->Record(span);
    }
    return segment;
  };
}

ServeResult RunServing(const ServeTarget& target, const ServePlan& plan,
                       const usp::Matrix& queries, const usp::Matrix& pool,
                       size_t num_base, uint64_t seed, Report* report) {
  static const uint32_t kAdd = Tracer::Intern("serve.add");
  static const uint32_t kDelete = Tracer::Intern("serve.delete");
  Tracer* tracer = ActiveTracer();
  const size_t nq = queries.rows();
  const size_t id_limit = num_base + pool.rows();

  // Phases: low, then (with a high rate) high and the ladder rungs.
  std::vector<double> rates = {kLowRate};
  std::vector<size_t> counts = {plan.low_reads};
  if (plan.high_rate > 0.0) {
    rates.push_back(plan.high_rate);
    counts.push_back(static_cast<size_t>(plan.high_rate * plan.high_seconds));
    for (size_t i = 0; i < kLadderRungs; ++i) {
      const double rate = plan.ladder_start * std::pow(kLadderFactor, i);
      rates.push_back(rate);
      counts.push_back(std::max<size_t>(
          kMinRungReads, static_cast<size_t>(rate * kRungSeconds)));
    }
  }
  size_t max_requests = 0;
  for (size_t c : counts) max_requests += 2 * c;  // a rung may run twice

  RequestTable table(queries, max_requests);
  ExecutorProbe probe(target.index, &table);
  usp::BatchingExecutor executor(tracer != nullptr ? &probe : target.index);

  std::unique_ptr<std::atomic<int64_t>[]> deleted_at(
      new std::atomic<int64_t>[id_limit]);
  for (size_t i = 0; i < id_limit; ++i) deleted_at[i] = kNever;

  std::vector<PhaseStats> stats(rates.size());
  std::mutex stats_mutex;  // guards stats[*].latency_ms/failed/last_done
  std::atomic<uint64_t> submitted{0}, completed{0};

  // Completion thread: waits on futures in submission order, so each read
  // is timed from its due time to when its future is ready.
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<Pending> queue;
  bool generator_done = false;
  std::thread completer([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      double latency = kMissed;
      bool ok = false;
      int64_t done = NowNs();
      if (!p.refused) {
        const usp::SingleSearchResult row = p.future.get();
        done = NowNs();
        latency = double(done - p.due_ns) * 1e-6;
        ok = CheckKnnRow(row.ids.data(), row.distances.data(), row.k, nullptr,
                         0, static_cast<uint32_t>(id_limit), nullptr) >= 0 &&
             row.k == 10;
        for (uint32_t id : row.ids) {
          // No id deleted before the read was submitted may come back.
          if (id != usp::kInvalidId && id < id_limit &&
              deleted_at[id].load() <= p.submit_ns) {
            ok = false;
          }
        }
        if (!ok) {
          latency = kMissed;
          report->Fail("serving read row failed its check");
        }
      }
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        PhaseStats& s = stats[p.phase];
        s.latency_ms.push_back(latency);
        if (!ok) ++s.failed;
        s.last_done = std::max(s.last_done, done);
      }
      completed.fetch_add(1);
    }
  });

  // Writer: Add and Delete at 2:1 on a fixed-rate schedule.
  ServeResult out;
  std::vector<double> write_ms;
  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    usp::Rng rng(SubSeed(seed, 20));
    std::vector<uint32_t> live;
    if (plan.delete_base_rows) {
      for (size_t i = 0; i < num_base; ++i) live.push_back(uint32_t(i));
    }
    size_t next_row = 0;
    const int64_t start = NowNs();
    for (uint64_t op = 0; !stop_writer.load(); ++op) {
      const int64_t due =
          start + static_cast<int64_t>(double(op) / plan.write_rate * 1e9);
      SleepUntilNs(due);
      if (stop_writer.load()) break;
      const bool is_delete =
          !live.empty() && (op % 3 == 2 || next_row == pool.rows());
      report->Attempt();
      if (is_delete) {
        const size_t pick = rng.UniformInt(live.size());
        const uint32_t id = live[pick];
        bool removed;
        {
          ScopedSpan span(kDelete);
          removed = target.remove(id);
        }
        if (!removed) report->Fail("Delete of live id " + std::to_string(id));
        deleted_at[id] = NowNs();
        live[pick] = live.back();
        live.pop_back();
        out.log.deleted_ids.push_back(id);
      } else {
        uint32_t id;
        {
          ScopedSpan span(kAdd);
          id = target.add(pool.Row(next_row));
        }
        const uint32_t expected =
            static_cast<uint32_t>(num_base + out.log.added_ids.size());
        if (id != expected) report->Fail("Add returned an unexpected id");
        live.push_back(id);
        out.log.added_ids.push_back(id);
        out.log.added_rows.push_back(next_row++);
      }
      write_ms.push_back(double(NowNs() - due) * 1e-6);
      if (tracer != nullptr && op % 32 == 0 && target.sample_state) {
        target.sample_state(tracer);
      }
    }
  });

  // Generator (this thread): open loop, never waits on a result.
  const int64_t serve_start = NowNs();
  if (tracer != nullptr) tracer->serving = true;
  uint64_t next_query = 0;
  double max_rate = 0.0;
  double first_rung_rate = 0.0;
  size_t rungs_run = 0;
  bool retried = false, ladder_stopped = false;
  for (size_t phase = 0; phase < rates.size(); ++phase) {
    const std::vector<int64_t> offsets = Schedule(
        counts[phase], rates[phase], SubSeed(seed, 100 + phase + 50 * retried));
    const int64_t phase_start = NowNs() + 1000000;  // 1 ms lead-in
    PhaseStats& s = stats[phase];
    size_t compactions = 0;
    for (size_t i = 0; i < offsets.size(); ++i) {
      const int64_t due = phase_start + offsets[i];
      SleepUntilNs(due);
      if (phase < 2 && target.compact &&
          i * (target.num_shards + 1) >=
              (compactions + 1) * offsets.size()) {
        target.compact(compactions++);
      }
      const uint64_t req = submitted.load() + 1;
      const uint32_t qidx = static_cast<uint32_t>(next_query++ % nq);
      Pending p;
      p.phase = phase;
      p.due_ns = due;
      if (tracer != nullptr && req <= table.capacity) {
        table.request_of[qidx] = req;
      }
      p.submit_ns = NowNs();
      if (tracer != nullptr && req <= table.capacity) {
        table.submit_ns[req - 1] = p.submit_ns;
        tracer->Sample("loadgen.late_ms", double(p.submit_ns - due) * 1e-6);
      }
      usp::SearchOptions options;
      options.k = 10;
      options.budget = plan.budget;
      auto submitted_future = executor.Submit(queries.Row(qidx), options);
      report->Attempt();
      if (submitted_future.ok()) {
        p.future = std::move(submitted_future).value();
      } else {
        p.refused = true;
        report->Fail("Submit refused: " + submitted_future.status().ToString());
      }
      const double in_flight = double(submitted.fetch_add(1) + 1 - completed.load());
      s.in_flight.push_back(in_flight);
      if (tracer != nullptr) tracer->Sample("serve.in_flight", in_flight);
      if (i == 0) s.first_due = due;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        queue.push_back(std::move(p));
      }
      queue_cv.notify_one();
    }
    // Let the phase drain before the next one starts.
    while (completed.load() < submitted.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (phase < 2) continue;
    // Ladder rung: passes with p99 within the limit, no failure, and an
    // in-flight count that did not grow across the rung.
    ++rungs_run;
    const size_t third = s.in_flight.size() / 3;
    const double early = Mean(std::vector<double>(
        s.in_flight.begin(), s.in_flight.begin() + third));
    const double late = Mean(
        std::vector<double>(s.in_flight.end() - third, s.in_flight.end()));
    const bool growing = late > 2.0 * early + 8.0;
    double p99, achieved;
    size_t failed;
    {
      std::lock_guard<std::mutex> lock(stats_mutex);
      p99 = WindowedPercentile(s.latency_ms, 99, "ladder rung read");
      failed = s.failed;
      achieved = double(s.latency_ms.size()) /
                 (double(s.last_done - s.first_due) * 1e-9);
    }
    if (phase == 2) first_rung_rate = achieved;
    std::printf("  ladder rung %.0f reads/s: achieved %.1f, p99 %.3f ms, "
                "backlog %s\n",
                rates[phase], achieved, p99, growing ? "growing" : "steady");
    if (p99 > kP99LimitMs || failed > 0 || growing) {
      // One retry, so a single stall of the machine does not end the ladder.
      if (retried || failed > 0) {
        ladder_stopped = true;
        break;
      }
      retried = true;
      {
        std::lock_guard<std::mutex> lock(stats_mutex);
        s = PhaseStats();
      }
      --phase;
      continue;
    }
    retried = false;
    max_rate = achieved;
  }
  if (tracer != nullptr) tracer->serving = false;
  stop_writer = true;
  writer.join();
  executor.Shutdown();
  {
    std::lock_guard<std::mutex> lock(queue_mutex);
    generator_done = true;
  }
  queue_cv.notify_one();
  completer.join();
  if (tracer != nullptr) tracer->Phase(serve_start, NowNs());

  // Reads complete in submission order, so latency_ms is in time order.
  out.metrics["read_p50_ms.low"] =
      QuickMedianLatency(stats[0].latency_ms, "read low");
  out.metrics["read_p99_ms.low"] =
      WindowedPercentile(stats[0].latency_ms, 99, "read low");
  out.metrics["write_p99_ms"] = WindowedPercentile(write_ms, 99, "write");
  if (plan.high_rate > 0.0) {
    if (max_rate == 0.0) {
      // Not even the first rung met the limit: report its achieved rate so
      // the metric stays defined, and say so.
      std::printf("  warning: the first ladder rung missed the limit\n");
      max_rate = first_rung_rate;
    }
    if (!ladder_stopped) {
      std::printf("  note: every ladder rung passed; max_rate_qps is a floor\n");
    }
    out.metrics["read_p50_ms.high"] =
        WindowedPercentile(stats[1].latency_ms, 50, "read high");
    out.metrics["read_p99_ms.high"] =
        WindowedPercentile(stats[1].latency_ms, 99, "read high");
    out.metrics["max_rate_qps"] = max_rate;
  }
  std::printf("  serving: %zu adds, %zu deletes, ladder rungs run %zu\n",
              out.log.added_ids.size(), out.log.deleted_ids.size(), rungs_run);
  return out;
}

}  // namespace perfbench
