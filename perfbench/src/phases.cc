#include <algorithm>

#include "serve/dynamic_index.h"
#include "workloads.h"

namespace perfbench {

std::vector<double> ClosedLoop(size_t slots, double seconds, size_t min_calls,
                               const std::function<int64_t(size_t)>& call,
                               std::vector<size_t>* timed_slots) {
  // Untimed warm-up: an idle virtual machine takes a moment to give its
  // CPUs back at full speed.
  size_t slot = 0;
  const int64_t warm = NowNs();
  while (SecondsSince(warm) < kWarmupSeconds) call(slot++ % slots);
  std::vector<double> latency_ms;
  const int64_t start = NowNs();
  for (size_t i = 0; SecondsSince(start) < seconds || i < min_calls; ++i) {
    if (timed_slots != nullptr) timed_slots->push_back(slot % slots);
    latency_ms.push_back(double(call(slot++ % slots)) * 1e-6);
  }
  return latency_ms;
}

std::vector<double> WindowRates(const std::vector<double>& call_ms,
                                size_t per_call, size_t calls_per_window) {
  const size_t windows = std::max<size_t>(1, call_ms.size() / calls_per_window);
  std::vector<double> rates;
  for (size_t w = 0; w < windows; ++w) {
    const size_t lo = w * calls_per_window;
    const size_t hi = w + 1 == windows ? call_ms.size() : lo + calls_per_window;
    double busy_ms = 0.0;
    for (size_t i = lo; i < hi; ++i) busy_ms += call_ms[i];
    if (hi > lo) rates.push_back(double((hi - lo) * per_call) / (busy_ms * 1e-3));
  }
  return rates;
}

double QuickRate(const std::vector<double>& window_rates) {
  return Percentile(window_rates, 90);
}

std::vector<usp::RadiusResult> RadiusTruth(const usp::Matrix& base,
                                           const usp::Matrix& queries,
                                           size_t batch, float radius) {
  std::vector<usp::RadiusResult> out;
  for (size_t first = 0; first + batch <= queries.rows(); first += batch) {
    const usp::MatrixView slot(queries.Row(first), batch, queries.cols());
    out.push_back(usp::BruteForceRadius(base, slot, radius,
                                        usp::Metric::kSquaredL2));
  }
  return out;
}

int64_t RadiusCall(const usp::Index& index, usp::MatrixView queries,
                   float radius, size_t num_threads,
                   const usp::RadiusResult& expected, uint64_t request,
                   Report* report) {
  static const uint32_t kRadius = Tracer::Intern("radius.batch");
  Tracer* tracer = ActiveTracer();
  usp::RadiusRequest call;
  call.queries = queries;
  call.radius = radius;
  call.options.num_threads = num_threads;
  call.options.stats = tracer != nullptr;
  usp::RadiusResult got;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(kRadius, 0, request);
    got = index.RadiusSearchBatch(call);
  }
  const int64_t elapsed = NowNs() - t0;
  report->Attempt(queries.rows());
  if (got.offsets != expected.offsets || got.ids != expected.ids ||
      got.distances != expected.distances) {
    report->Fail("radius rows differ from BruteForceRadius", queries.rows());
  }
  if (tracer != nullptr) {
    double candidates = 0.0;
    for (uint32_t c : got.candidate_counts) candidates += c;
    tracer->Add("radius.queries", double(queries.rows()));
    tracer->Add("radius.candidates", candidates);
    tracer->Add("radius.rows", double(got.ids.size()));
  }
  return elapsed;
}

std::vector<double> RadiusPhase(const usp::Index& index,
                                const usp::Matrix& queries, size_t batch,
                                float radius, size_t num_threads,
                                const std::vector<usp::RadiusResult>& expected,
                                double seconds, Report* report) {
  const int64_t start = NowNs();
  const std::vector<double> ms = ClosedLoop(
      expected.size(), seconds, expected.size(), [&](size_t slot) {
        const usp::MatrixView slot_queries(queries.Row(slot * batch), batch,
                                           queries.cols());
        return RadiusCall(index, slot_queries, radius, num_threads,
                          expected[slot], slot, report);
      });
  MarkPhase(start);
  std::printf("  radius: %zu batches of %zu queries\n", ms.size(), batch);
  return WindowRates(ms, batch, kRadiusCallsPerWindow);
}

Metrics ServeStatic(std::unique_ptr<usp::Index> index,
                    const usp::Matrix& queries, const usp::Matrix& pool,
                    size_t budget, uint64_t seed, Report* report,
                    const std::function<void()>& after) {
  const size_t num_base = index->size();
  usp::DynamicIndex dynamic(index->dim());
  if (ActiveTracer() != nullptr) index = TraceSegment(std::move(index));
  dynamic.AddSealedSegment(std::move(index));
  ServeTarget target;
  target.index = &dynamic;
  target.add = [&](const float* row) { return dynamic.Add(row); };
  target.remove = [&](uint32_t id) { return dynamic.Delete(id); };
  target.sample_state = [&](Tracer* tracer) {
    tracer->Sample("serve.segments_per_shard",
                   double(dynamic.num_sealed_segments()));
    tracer->Sample("serve.tombstones_per_shard",
                   double(dynamic.num_tombstones()));
  };
  ServePlan plan;
  plan.budget = budget;
  Metrics m =
      RunServing(target, plan, queries, pool, num_base, seed, report).metrics;
  after();
  return m;
}

void MarkPhase(int64_t start_ns) {
  if (Tracer* tracer = ActiveTracer()) tracer->Phase(start_ns, NowNs());
}

}  // namespace perfbench
