// Shared scaffolding of the repository benchmark: clocks, seeded inputs,
// percentiles, result accounting, and the span tracer the traced run
// records around every call it makes into a library layer.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "knn/brute_force.h"
#include "tensor/matrix.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Independent sub-seed `stream` of the workload seed (splitmix64), so each
/// random choice of a run (data, filters, arrival gaps, writes) is a pure
/// function of --seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
/// Nearest-rank percentile p of `samples` (kept in time order), taken as the
/// median over up to 10 consecutive equal-count windows. It uses as many
/// windows as leave at least 10 samples beyond p in each: p50 splits into 10
/// from 200 samples on, p99 takes one window per 1000 samples. A stall of the
/// machine then moves one window's value, not the result. Prints `label`
/// with the sample count, windows and samples per window; with fewer than
/// 10 samples beyond p in all of `samples` it also prints a warning.
double WindowedPercentile(const std::vector<double>& samples, double p,
                          const char* label);
double Median(std::vector<double> values);
/// The median latency a run reports: the 10th percentile, over windows of 32
/// consecutive samples (kept in time order), of each window's median. On a
/// virtual machine shared with other tenants, their load slows whole
/// stretches of a run, by up to 3x, and how much of a run it covers varies
/// from run to run; the quick windows of a run track the cost of the code.
/// Prints `label` with the sample and window counts.
double QuickMedianLatency(const std::vector<double>& samples,
                          const char* label);

/// Process peak resident set size.
double PeakRssMib();

/// SIFT-like inputs generated from one seed: `n` base rows, `nq` held-out
/// queries and `extra` further rows from the same distribution (the pool the
/// writer inserts from), plus exact 10-NN truth of the queries over the base
/// and the query radius (median 10th-NN distance). Truth is computed here,
/// outside every timed region.
struct Inputs {
  usp::Matrix base;
  usp::Matrix queries;
  usp::Matrix pool;
  usp::KnnResult truth;
  float radius = 0.0f;
};
Inputs MakeInputs(size_t n, size_t nq, size_t extra, uint64_t seed);

/// Copies rows [first, first + count) of `m` into a new matrix.
usp::Matrix Rows(const usp::Matrix& m, size_t first, size_t count);

/// Shared 10-NN row checks. Every returned id must be a valid distinct id
/// (or trailing kInvalidId padding), distances must be ascending, and
/// `allowed` (when given) must admit every id. Returns the number of truth
/// ids found (recall numerator) or -1 when the row fails a check.
int CheckKnnRow(const uint32_t* ids, const float* distances, size_t k,
                const uint32_t* truth, size_t truth_k, uint32_t id_limit,
                const std::vector<bool>* allowed);

/// Operations attempted and failed, and the correctness verdict.
class Report {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Records `n` failed operations; the first few reasons are printed to
  /// stderr. Any failure makes the run incorrect.
  void Fail(const std::string& why, uint64_t n = 1);
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<int> printed_{0};
};

/// One span: a call the benchmark made into a layer.
struct Span {
  uint32_t name = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< batch or request the span serves
};

/// In-memory span and counter store for the traced run. Spans go to
/// per-thread buffers; counters and sample lists are coarse-grained (one
/// update per batch or request). Everything is written out at exit.
class Tracer {
 public:
  /// Interns a span name; call once per call site (static local).
  static uint32_t Intern(const char* name);
  static const std::string& NameOf(uint32_t name);

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  void Add(const std::string& counter, double value);
  void Sample(const std::string& series, double value);
  /// Marks a measured phase [start, end); trace.coverage is computed over
  /// the union of phases.
  void Phase(int64_t start_ns, int64_t end_ns);

  std::vector<Span> Spans() const;
  double Counter(const std::string& counter) const;
  std::vector<double> Series(const std::string& series) const;
  const std::vector<std::pair<int64_t, int64_t>>& phases() const {
    return phases_;
  }

  /// Writes spans as CSV (name,start_ns,end_ns,id,parent,request).
  bool WriteSpans(const std::string& path) const;

  /// True while the serving phase runs: forwarding wrappers record only
  /// then, so quiescent passes over the same index do not mix in.
  std::atomic<bool> serving{false};

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<Span> spans;
  };
  Buffer* ThreadBuffer();

  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;  ///< guards buffers_, counters_, series_
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> series_;
  std::vector<std::pair<int64_t, int64_t>> phases_;
};

/// The tracer of the traced pass, or nullptr while tracing is off.
Tracer* ActiveTracer();
void SetActiveTracer(Tracer* tracer);

/// RAII span; free when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(uint32_t name, uint64_t parent = 0, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }
  int64_t start_ns() const { return span_.start_ns; }

 private:
  Tracer* tracer_;
  Span span_;
};

/// Derives every per-layer metric from the traced pass's spans and
/// counters. Layers a workload does not reach report 0.
Metrics LayerMetrics(const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
