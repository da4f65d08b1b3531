#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "dataset/synthetic.h"
#include "index/index.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double WindowedPercentile(const std::vector<double>& samples, double p,
                          const char* label) {
  constexpr size_t kMaxWindows = 10;
  constexpr double kBeyond = 10.0;  // samples a window keeps beyond p
  const double n = static_cast<double>(samples.size());
  const double beyond = n * (100.0 - p) / 100.0;
  const size_t windows = std::max<size_t>(
      1, std::min(kMaxWindows, static_cast<size_t>(beyond / kBeyond)));
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto lo = samples.begin() + samples.size() * w / windows;
    const auto hi = samples.begin() + samples.size() * (w + 1) / windows;
    if (hi > lo) per_window.push_back(Percentile(std::vector<double>(lo, hi), p));
  }
  std::printf("  %s p%g: n=%zu in %zu window(s) of %zu%s\n", label, p,
              samples.size(), windows, samples.size() / windows,
              beyond < kBeyond ? " (warning: fewer than 10 samples beyond)"
                               : "");
  return Median(per_window);
}

double QuickMedianLatency(const std::vector<double>& samples,
                          const char* label) {
  constexpr size_t kWindow = 32;  // 16 samples beyond each window's median
  const size_t windows = std::max<size_t>(1, samples.size() / kWindow);
  std::vector<double> medians;
  for (size_t w = 0; w < windows; ++w) {
    const auto lo = samples.begin() + w * kWindow;
    const auto hi =
        w + 1 == windows ? samples.end() : lo + kWindow;
    if (hi > lo) medians.push_back(Percentile(std::vector<double>(lo, hi), 50));
  }
  std::printf("  %s p50: n=%zu in %zu windows of %zu, 10th percentile of "
              "window medians\n",
              label, samples.size(), windows, kWindow);
  return Percentile(medians, 10);
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

usp::Matrix Rows(const usp::Matrix& m, size_t first, size_t count) {
  usp::Matrix out(count, m.cols());
  std::memcpy(out.data(), m.Row(first), count * m.cols() * sizeof(float));
  return out;
}

Inputs MakeInputs(size_t n, size_t nq, size_t extra, uint64_t seed) {
  const usp::Matrix all = usp::MakeSiftLike(n + nq + extra, SubSeed(seed, 0));
  Inputs in;
  in.base = Rows(all, 0, n);
  in.queries = Rows(all, n, nq);
  in.pool = Rows(all, n + nq, extra);
  in.truth = usp::BruteForceKnn(in.base, in.queries, 10);
  std::vector<double> tenth(nq);
  for (size_t q = 0; q < nq; ++q) tenth[q] = in.truth.distances[q * 10 + 9];
  in.radius = static_cast<float>(Median(tenth));
  return in;
}

int CheckKnnRow(const uint32_t* ids, const float* distances, size_t k,
                const uint32_t* truth, size_t truth_k, uint32_t id_limit,
                const std::vector<bool>* allowed) {
  int hits = 0;
  bool padding = false;
  for (size_t j = 0; j < k; ++j) {
    const uint32_t id = ids[j];
    if (id == usp::kInvalidId) {
      padding = true;
      continue;
    }
    if (padding || id >= id_limit) return -1;
    if (allowed != nullptr && !(*allowed)[id]) return -1;
    if (j > 0 && distances[j] < distances[j - 1]) return -1;
    for (size_t i = 0; i < j; ++i) {
      if (ids[i] == id) return -1;
    }
    for (size_t t = 0; t < truth_k; ++t) {
      if (truth[t] == id) {
        ++hits;
        break;
      }
    }
  }
  return hits;
}

void Report::Fail(const std::string& why, uint64_t n) {
  failed_ += n;
  if (printed_.fetch_add(1) < 10) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

namespace {

std::mutex& NameMutex() {
  static std::mutex m;
  return m;
}

std::vector<std::string>& Names() {
  static std::vector<std::string> names = {""};
  return names;
}

std::atomic<Tracer*> g_tracer{nullptr};

}  // namespace

uint32_t Tracer::Intern(const char* name) {
  std::lock_guard<std::mutex> lock(NameMutex());
  std::vector<std::string>& names = Names();
  for (uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  names.emplace_back(name);
  return static_cast<uint32_t>(names.size() - 1);
}

const std::string& Tracer::NameOf(uint32_t name) {
  std::lock_guard<std::mutex> lock(NameMutex());
  return Names()[name];
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  // One buffer per (thread, tracer); a thread that outlives a tracer gets a
  // fresh buffer from the next one.
  thread_local const Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(mutex_);
    buffer = fresh.get();
    buffers_.push_back(std::move(fresh));
    owner = this;
  }
  return buffer;
}

void Tracer::Record(const Span& span) {
  Buffer* buffer = ThreadBuffer();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->spans.push_back(span);
}

void Tracer::Add(const std::string& counter, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[counter] += value;
}

void Tracer::Sample(const std::string& series, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  series_[series].push_back(value);
}

void Tracer::Phase(int64_t start_ns, int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  phases_.emplace_back(start_ns, end_ns);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

double Tracer::Counter(const std::string& counter) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(counter);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<double> Tracer::Series(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  return it == series_.end() ? std::vector<double>() : it->second;
}

bool Tracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name,start_ns,end_ns,id,parent,request\n");
  for (const Span& s : Spans()) {
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu,%llu\n", NameOf(s.name).c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

Tracer* ActiveTracer() { return g_tracer.load(std::memory_order_acquire); }

void SetActiveTracer(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

ScopedSpan::ScopedSpan(uint32_t name, uint64_t parent, uint64_t request)
    : tracer_(ActiveTracer()) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.parent = parent;
  span_.request = request;
  span_.id = tracer_->NextId();
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tracer_->Record(span_);
}

// ---------------------------------------------------------------------------
// Per-layer derivation.
// ---------------------------------------------------------------------------

namespace {

using Interval = std::pair<int64_t, int64_t>;
constexpr int64_t kMinNs = std::numeric_limits<int64_t>::min();

// Total length of the union of `intervals`, each clipped to [lo, hi).
int64_t UnionLength(std::vector<Interval> intervals, int64_t lo, int64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (!open || iv.first > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = iv.first;
      cur_hi = iv.second;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, iv.second);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Metrics LayerMetrics(const Tracer& tracer) {
  const std::vector<Span> spans = tracer.Spans();
  std::unordered_map<std::string, std::vector<const Span*>> by_name;
  for (const Span& s : spans) by_name[Tracer::NameOf(s.name)].push_back(&s);
  auto count = [&](const std::string& name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.size());
  };
  auto total_ns = [&](const std::string& name) {
    double total = 0.0;
    auto it = by_name.find(name);
    if (it == by_name.end()) return total;
    for (const Span* s : it->second) total += double(s->end_ns - s->start_ns);
    return total;
  };
  auto mean_ns = [&](const std::string& name) {
    return Ratio(total_ns(name), count(name));
  };
  auto durations_us = [&](const std::string& name) {
    std::vector<double> out;
    auto it = by_name.find(name);
    if (it == by_name.end()) return out;
    for (const Span* s : it->second) out.push_back((s->end_ns - s->start_ns) * 1e-3);
    return out;
  };
  auto c = [&](const std::string& name) { return tracer.Counter(name); };

  Metrics m;
  m["knn_graph.build_s"] = mean_ns("knn_graph.build") * 1e-9;
  m["core.train_s"] = mean_ns("core.train") * 1e-9;
  m["core.score_bins_us"] =
      Ratio(total_ns("core.score_bins") * 1e-3, c("core.score_bins_queries"));
  m["core.gather_us"] = mean_ns("core.gather") * 1e-3;
  m["core.candidates_per_query"] =
      Ratio(c("core.candidates"), count("core.gather"));
  const double rerank_ns = total_ns("dist.rerank");
  m["dist.rerank_us"] = mean_ns("dist.rerank") * 1e-3;
  m["dist.ns_per_candidate"] = Ratio(rerank_ns, c("dist.candidates"));
  // Computed bytes: each scored candidate reads one 128-float row.
  m["dist.gb_per_s"] = Ratio(c("dist.candidates") * 128.0 * 4.0, rerank_ns);
  m["quant.pq_train_s"] = mean_ns("quant.pq_train") * 1e-9;
  m["quant.encode_s"] = mean_ns("quant.encode") * 1e-9;
  for (const char* kind : {"unfiltered", "filter1pct", "filter30pct"}) {
    const std::string k(kind);
    const double queries = c("quant.queries." + k);
    m["quant.search_us." + k] =
        Ratio((total_ns("quant.search." + k) - c("quant.score_bins_ns." + k)) *
                  1e-3,
              queries);
    m["quant.candidates_per_query." + k] =
        Ratio(c("quant.candidates." + k), queries);
    m["quant.filtered_out_per_query." + k] =
        Ratio(c("quant.filtered_out." + k), queries);
  }
  m["index.plan_us"] = mean_ns("index.plan") * 1e-3;
  for (const char* kind : {"filter1pct", "filter30pct"}) {
    for (const char* strategy : {"pushdown", "allowed_scan", "post_filter"}) {
      const std::string key =
          std::string("index.plan.") + strategy + "." + kind;
      m[key] = c(key);
    }
  }
  m["radius.us_per_query"] =
      Ratio(total_ns("radius.batch") * 1e-3, c("radius.queries"));
  m["radius.candidates_per_query"] =
      Ratio(c("radius.candidates"), c("radius.queries"));
  m["radius.rows_per_query"] = Ratio(c("radius.rows"), c("radius.queries"));

  const std::vector<double> queue_wait = tracer.Series("serve.queue_wait_us");
  m["serve.executor.queue_wait_us.p50"] = Percentile(queue_wait, 50);
  m["serve.executor.queue_wait_us.p99"] = Percentile(queue_wait, 99);
  const std::vector<double> width = tracer.Series("serve.batch_width");
  m["serve.executor.batch_width.mean"] = Mean(width);
  m["serve.executor.batch_width.p99"] = Percentile(width, 99);
  m["serve.executor.in_flight.p99"] =
      Percentile(tracer.Series("serve.in_flight"), 99);
  m["serve.search_ms"] = mean_ns("serve.batch") * 1e-6;
  m["serve.segment_search_ms"] = mean_ns("serve.segment") * 1e-6;
  // Self time of an executed batch: its duration minus the part its
  // segment searches cover (fan-out, write-segment scan and merge remain).
  {
    std::vector<Interval> segments;
    auto it = by_name.find("serve.segment");
    if (it != by_name.end()) {
      for (const Span* s : it->second) segments.emplace_back(s->start_ns, s->end_ns);
    }
    std::sort(segments.begin(), segments.end());
    double self_ns = 0.0;
    auto bt = by_name.find("serve.batch");
    if (bt != by_name.end()) {
      for (const Span* b : bt->second) {
        auto lo = std::lower_bound(segments.begin(), segments.end(),
                                   Interval(b->start_ns, kMinNs));
        auto hi = std::lower_bound(segments.begin(), segments.end(),
                                   Interval(b->end_ns, kMinNs));
        const std::vector<Interval> inside(lo, hi);
        self_ns += double(b->end_ns - b->start_ns) -
                   double(UnionLength(inside, b->start_ns, b->end_ns));
      }
    }
    m["serve.merge_self_ms"] = Ratio(self_ns, count("serve.batch")) * 1e-6;
  }
  m["serve.segments_per_query"] =
      Ratio(count("serve.segment"), count("serve.batch"));
  m["serve.fetch_per_result"] =
      Ratio(c("serve.rows_requested"), c("serve.rows_returned"));
  const std::vector<double> add_us = durations_us("serve.add");
  const std::vector<double> delete_us = durations_us("serve.delete");
  m["serve.add_us.p50"] = Percentile(add_us, 50);
  m["serve.add_us.p99"] = Percentile(add_us, 99);
  m["serve.delete_us.p50"] = Percentile(delete_us, 50);
  m["serve.delete_us.p99"] = Percentile(delete_us, 99);
  m["serve.seal_ms"] = mean_ns("serve.seal") * 1e-6;
  m["serve.seal_count"] = count("serve.seal");
  m["serve.compact_ms"] = mean_ns("serve.compact") * 1e-6;
  m["serve.compact_count"] = count("serve.compact");
  m["serve.load_s"] = mean_ns("serve.load") * 1e-9;
  m["serve.segments_per_shard"] = Mean(tracer.Series("serve.segments_per_shard"));
  m["serve.tombstones_per_shard"] =
      Mean(tracer.Series("serve.tombstones_per_shard"));
  m["loadgen.late_ms.p99"] = Percentile(tracer.Series("loadgen.late_ms"), 99);

  // Share of measured wall time covered by at least one layer span.
  int64_t covered = 0, wall = 0;
  std::vector<Interval> all;
  all.reserve(spans.size());
  for (const Span& s : spans) all.emplace_back(s.start_ns, s.end_ns);
  for (const auto& phase : tracer.phases()) {
    wall += phase.second - phase.first;
    covered += UnionLength(all, phase.first, phase.second);
  }
  m["trace.coverage"] = Ratio(double(covered), double(wall));
  return m;
}

}  // namespace perfbench
