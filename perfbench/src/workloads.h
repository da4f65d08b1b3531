// The benchmark's workloads and the measured phases they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "index/index.h"
#include "serving.h"

namespace perfbench {

/// One named workload. Prepare generates the inputs and their truth from the
/// seed; Run is one pass: set-up three times (setup_s is the median), then
/// the measured phases for about `seconds`, with every output checked. The
/// traced pass is a second Run with ActiveTracer() set; its results must
/// equal the untraced pass's where the workload is deterministic.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Prepare(uint64_t seed) = 0;
  virtual Metrics Run(double seconds, Report* report) = 0;
};

std::unique_ptr<Workload> MakeUspEnsembleWorkload();
std::unique_ptr<Workload> MakeScannMixedWorkload();
std::unique_ptr<Workload> MakeServeRwWorkload();

constexpr int kSetups = 3;

/// usp-ensemble and scann-mixed run every closed-loop call on the calling
/// thread: SearchOptions::num_threads = 1 and batches of 16 queries, the
/// tensor ops' parallel grain, so no call reaches the pool. On a virtual
/// machine a fork-join of short chunks waits on idle vCPUs, and how long
/// varied within a run and between runs: with the pool, in five usp-ensemble
/// runs the batch slice after the low-rate serving phase ran 14-33% and the
/// radius slice 10-49% slower than the slice before it; on one thread the
/// two slices differed by at most about 15%, either way.
constexpr size_t kClientThreads = 1;

constexpr double kWarmupSeconds = 0.5;

/// Closed-loop throughputs come from short windows of consecutive calls and
/// report a quick window rather than the median one, for the reason
/// QuickMedianLatency gives: the 90th percentile of the window rates
/// (windows of kCallsPerWindow 10-NN or kRadiusCallsPerWindow radius calls).
constexpr size_t kCallsPerWindow = 16;
constexpr size_t kRadiusCallsPerWindow = 4;

/// The throughput a closed loop reports: the 90th percentile of its
/// WindowRates.
double QuickRate(const std::vector<double>& window_rates);

/// Calls `call(slot)` for slots 0, 1, ... (mod `slots`): first for
/// kWarmupSeconds untimed, then until `seconds` have passed and at least
/// `min_calls` timed calls were made. `call` returns the nanoseconds of the
/// one library call it timed; the result holds them in ms, one sample per
/// timed call, and `timed_slots` (optional) the slot of each.
std::vector<double> ClosedLoop(size_t slots, double seconds, size_t min_calls,
                               const std::function<int64_t(size_t)>& call,
                               std::vector<size_t>* timed_slots = nullptr);

/// Throughput (queries per second of call time) of each run of
/// `calls_per_window` consecutive calls, each call serving `per_call`
/// queries; a shorter tail joins the last window.
std::vector<double> WindowRates(const std::vector<double>& call_ms,
                                size_t per_call, size_t calls_per_window);

/// One exact radius batch at full budget on `num_threads` (0 = pool
/// default), compared bit for bit with `expected` (BruteForceRadius). Counts
/// its queries as attempted, records a radius.batch span and the radius.*
/// counters in the traced pass, and returns the nanoseconds of the library
/// call.
int64_t RadiusCall(const usp::Index& index, usp::MatrixView queries,
                   float radius, size_t num_threads,
                   const usp::RadiusResult& expected, uint64_t request,
                   Report* report);

/// RadiusCall over `batch`-row slots of `queries`, cycling for `seconds`.
/// Returns the WindowRates of the phase (radius queries per second).
std::vector<double> RadiusPhase(const usp::Index& index,
                                const usp::Matrix& queries, size_t batch,
                                float radius, size_t num_threads,
                                const std::vector<usp::RadiusResult>& expected,
                                double seconds, Report* report);

/// BruteForceRadius of each `batch`-row slot of `queries` over `base`.
std::vector<usp::RadiusResult> RadiusTruth(const usp::Matrix& base,
                                           const usp::Matrix& queries,
                                           size_t batch, float radius);

/// Serves a trained static index: adopts it as the sealed segment of a
/// DynamicIndex (writes stay in its write segment; nothing seals), runs the
/// low phase of the serving plan at read `budget` against it, then `after`
/// while the index is still alive.
Metrics ServeStatic(std::unique_ptr<usp::Index> index, const usp::Matrix& queries,
                    const usp::Matrix& pool, size_t budget, uint64_t seed,
                    Report* report, const std::function<void()>& after);

/// Records one measured phase window for trace.coverage (traced pass only).
void MarkPhase(int64_t start_ns);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
