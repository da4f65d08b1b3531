// serve-rw: reads next to writes through the serving stack. 100k rows are
// bulk-loaded into a mutable 4-shard ShardedIndex with library defaults
// (DynamicIndex shards, IVF-Flat sealed segments); the serving phase then
// reads through the BatchingExecutor while a writer adds and deletes. A
// low seal threshold gives every timed phase several seals per shard; the
// low and high phases each compact every shard once, staggered evenly
// (one compaction retrains a 25k-row IVF on the whole pool, so the
// library's count trigger would fire all shards at once and decide the
// read percentiles by whether a phase happened to contain that burst).
// Quiescent slices before serving and after the writer stops measure exact
// (full-budget) 10-NN batches through the fan-out, recall at the read budget
// and exact radius search, all against brute force over the live set
// (rebuilt from the benchmark's write log). The timed batches run at full
// budget because the work of a budget-2 read depends on how the seed's data
// falls into IVF lists (candidates per query differ by up to 20% between
// seeds), while a full-budget batch scores every live row on every seed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "serve/sharded_index.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kBase = 100000;
constexpr size_t kQueries = 2048;
constexpr size_t kPoolRows = 8192;
constexpr size_t kReadBudget = 2;
constexpr size_t kFullBudget = 1u << 20;
constexpr size_t kSealThreshold = 50;
constexpr size_t kBatch = 8;  // ~25 ms full-budget calls: many short windows
// qps windows of ~0.1 s, like the radius windows, not kCallsPerWindow (0.4 s
// of these calls, too few windows for a steady 90th percentile).
constexpr size_t kBatchCallsPerWindow = 4;
constexpr size_t kBatchQueries = 512;
constexpr size_t kRecallQueries = 1024;
// The fan-out runs one ~25 ms task per shard on the pool (num_threads 0):
// long enough that waking the pool's threads costs little.
constexpr size_t kFanOutThreads = 0;
constexpr size_t kRadiusBatch = 8;  // ~25 ms calls: many short windows
constexpr size_t kRadiusQueries = 256;

void WaitForMaintenance(const usp::ShardedIndex& index) {
  index.WithFrozenState([](const usp::ShardedIndex::FrozenState& state) {
    for (const auto& shard : state.shards) shard.dynamic->WaitForMaintenance();
    return usp::Status::Ok();
  });
}

// A full-budget row must match brute force over the live set (`want_ids`
// global). Ids are compared as the repo's tests pin them, by reference rank,
// except that two candidates whose distances agree to within float rounding
// may swap.
bool MatchesExact(const uint32_t* ids, const float* distances,
                  const uint32_t* want_ids, const float* want_distances,
                  const std::vector<bool>& live) {
  if (CheckKnnRow(ids, distances, 10, nullptr, 0,
                  static_cast<uint32_t>(live.size()), &live) < 0) {
    return false;
  }
  auto near = [](float a, float b) {
    return std::fabs(a - b) <= 1e-4f * std::max(1.0f, std::fabs(b));
  };
  for (size_t j = 0; j < 10; ++j) {
    if (!near(distances[j], want_distances[j])) return false;
    if (ids[j] == want_ids[j]) continue;
    // Accept only a tie swap: the id must be among the reference row's, or
    // tie with its last distance.
    bool found = false;
    for (size_t t = 0; t < 10; ++t) found |= want_ids[t] == ids[j];
    if (!found && !near(distances[j], want_distances[9])) return false;
  }
  return true;
}

// The live set after the serving phase, in ascending global-id order.
struct LiveSet {
  std::vector<uint32_t> ids;
  usp::Matrix rows;
  std::vector<bool> live;  // indexed by global id
};

LiveSet RebuildLiveSet(const Inputs& in, const WriteLog& log) {
  const size_t limit = kBase + log.added_ids.size();
  LiveSet set;
  set.live.assign(limit, true);
  for (uint32_t id : log.deleted_ids) set.live[id] = false;
  for (uint32_t id = 0; id < limit; ++id) {
    if (set.live[id]) set.ids.push_back(id);
  }
  set.rows = usp::Matrix(set.ids.size(), in.base.cols());
  for (size_t i = 0; i < set.ids.size(); ++i) {
    const uint32_t id = set.ids[i];
    const float* src = id < kBase
                           ? in.base.Row(id)
                           : in.pool.Row(log.added_rows[id - kBase]);
    std::memcpy(set.rows.Row(i), src, in.base.cols() * sizeof(float));
  }
  return set;
}

class ServeRwWorkload final : public Workload {
 public:
  void Prepare(uint64_t seed) override {
    seed_ = seed;
    in_ = MakeInputs(kBase, kQueries, kPoolRows, seed);
    radius_queries_ = Rows(in_.queries, 0, kRadiusQueries);
    base_radius_truth_ =
        RadiusTruth(in_.base, radius_queries_, kRadiusBatch, in_.radius);
  }

  Metrics Run(double seconds, Report* report) override {
    static const uint32_t kLoad = Tracer::Intern("serve.load");
    Tracer* tracer = ActiveTracer();
    Metrics m;

    usp::ShardedIndexConfig config;
    config.num_shards = 4;
    config.shard_config.seal_threshold = kSealThreshold;
    if (tracer != nullptr) {
      config.shard_config.segment_builder = TracedIvfBuilder(kSealThreshold);
    }
    std::vector<double> setup_s;
    std::unique_ptr<usp::ShardedIndex> index;
    for (int rep = 0; rep < kSetups; ++rep) {
      index.reset();
      const int64_t start = NowNs();
      {
        ScopedSpan span(kLoad);
        index = std::make_unique<usp::ShardedIndex>(in_.base.cols(), config);
        index->AddBatch(in_.base);
        WaitForMaintenance(*index);
      }
      setup_s.push_back(SecondsSince(start));
    }
    m["setup_s"] = Median(setup_s);

    ServeTarget target;
    target.index = index.get();
    target.add = [&](const float* row) { return index->Add(row); };
    target.remove = [&](uint32_t id) { return index->Delete(id); };
    target.sample_state = [&](Tracer* t) {
      index->WithFrozenState([t](const usp::ShardedIndex::FrozenState& s) {
        for (const auto& shard : s.shards) {
          t->Sample("serve.segments_per_shard",
                    double(shard.dynamic->num_sealed_segments()));
          t->Sample("serve.tombstones_per_shard",
                    double(shard.dynamic->num_tombstones()));
        }
        return usp::Status::Ok();
      });
    };
    target.compact = [&](size_t s) {
      index->WithFrozenState([s](const usp::ShardedIndex::FrozenState& st) {
        st.shards[s].dynamic->ScheduleCompact();
        return usp::Status::Ok();
      });
    };
    target.num_shards = config.num_shards;

    // Quiescent passes, each in two slices: on the freshly loaded index
    // before serving and on the sealed and compacted index after it, so the
    // samples span the run. Each slice first scores recall at the read budget
    // (untimed), then times full-budget batches, each slot's rows checked
    // once against brute force over the slice's live set (truth rows are the
    // first kRecallQueries queries, ids global; radius rows bit for bit).
    const usp::Matrix recall_queries = Rows(in_.queries, 0, kRecallQueries);
    const size_t slots = kBatchQueries / kBatch;
    std::vector<double> ms, rates;
    size_t hits = 0, rows = 0;
    auto quiescent = [&](const usp::KnnResult& truth,
                         const std::vector<bool>& live) {
      const uint32_t id_limit = static_cast<uint32_t>(live.size());
      const usp::BatchSearchResult r =
          index->SearchBatch(recall_queries, 10, kReadBudget);
      report->Attempt(kRecallQueries);
      for (size_t q = 0; q < kRecallQueries; ++q) {
        const int h = CheckKnnRow(r.Row(q), r.DistanceRow(q), 10,
                                  truth.Row(q), 10, id_limit, &live);
        if (h < 0) report->Fail("serve-rw row failed its check");
        hits += std::max(h, 0);
        ++rows;
      }
      std::vector<bool> checked(slots, false);
      const int64_t start = NowNs();
      const std::vector<double> part =
          ClosedLoop(slots, seconds * 0.15, slots, [&](size_t slot) {
            const usp::MatrixView queries(recall_queries.Row(slot * kBatch),
                                          kBatch, recall_queries.cols());
            const int64_t t0 = NowNs();
            const usp::BatchSearchResult got =
                index->SearchBatch(queries, 10, kFullBudget, kFanOutThreads);
            const int64_t elapsed = NowNs() - t0;
            report->Attempt(kBatch);
            if (!checked[slot]) {
              checked[slot] = true;
              for (size_t q = 0; q < kBatch; ++q) {
                const size_t gq = slot * kBatch + q;
                if (!MatchesExact(got.Row(q), got.DistanceRow(q), truth.Row(gq),
                                  truth.distances.data() + gq * 10, live)) {
                  report->Fail("full-budget row differs from brute force");
                }
              }
            }
            return elapsed;
          });
      MarkPhase(start);
      ms.insert(ms.end(), part.begin(), part.end());
      const std::vector<double> w =
          WindowRates(part, kBatch, kBatchCallsPerWindow);
      rates.insert(rates.end(), w.begin(), w.end());
      std::printf("  quiescent slice: n=%zu full-budget calls of %zu queries, "
                  "ids below %zu\n",
                  part.size(), kBatch, live.size());
    };
    std::vector<double> radius_rates;
    auto radius = [&](const std::vector<usp::RadiusResult>& truth) {
      const std::vector<double> w =
          RadiusPhase(*index, radius_queries_, kRadiusBatch, in_.radius,
                      kFanOutThreads, truth, seconds * 0.075, report);
      radius_rates.insert(radius_rates.end(), w.begin(), w.end());
    };
    quiescent(in_.truth, std::vector<bool>(kBase, true));
    radius(base_radius_truth_);

    ServePlan plan;
    plan.low_reads = 2200;
    plan.budget = kReadBudget;
    plan.high_rate = 1000.0;
    plan.high_seconds = seconds * 0.15;
    plan.ladder_start = 2000.0;
    plan.write_rate = 300.0;
    plan.delete_base_rows = true;
    ServeResult served = RunServing(target, plan, in_.queries, in_.pool,
                                    kBase, seed_, report);
    m.insert(served.metrics.begin(), served.metrics.end());
    // Quiescent: writer stopped, maintenance drained, and every shard sealed
    // and compacted, so the second slice sees the same layout on every run.
    WaitForMaintenance(*index);
    index->WithFrozenState([](const usp::ShardedIndex::FrozenState& state) {
      for (const auto& shard : state.shards) {
        shard.dynamic->Seal();
        shard.dynamic->Compact();
      }
      return usp::Status::Ok();
    });

    // Truth over the live set, outside every timed region.
    const LiveSet live = RebuildLiveSet(in_, served.log);
    if (index->size() != live.ids.size()) {
      report->Fail("live count differs from the write log");
    }
    usp::KnnResult truth = usp::BruteForceKnn(live.rows, recall_queries, 10);
    for (uint32_t& id : truth.indices) id = live.ids[id];
    quiescent(truth, live.live);

    m["qps"] = QuickRate(rates);
    m["batch_p50_ms"] = QuickMedianLatency(ms, "quiescent batch");
    m["batch_p99_ms"] = WindowedPercentile(ms, 99, "quiescent batch");
    m["recall_at_10"] = double(hits) / double(rows * 10);

    // Radius truth over the live rows, ids mapped to global ids (the map is
    // ascending, so the (distance, id) order is kept).
    std::vector<usp::RadiusResult> radius_truth =
        RadiusTruth(live.rows, radius_queries_, kRadiusBatch, in_.radius);
    for (usp::RadiusResult& r : radius_truth) {
      for (uint32_t& id : r.ids) id = live.ids[id];
    }
    radius(radius_truth);
    m["radius_qps"] = QuickRate(radius_rates);
    return m;
  }

 private:
  uint64_t seed_ = 0;
  Inputs in_;
  usp::Matrix radius_queries_;
  std::vector<usp::RadiusResult> base_radius_truth_;  // over the loaded base
};

}  // namespace

std::unique_ptr<Workload> MakeServeRwWorkload() {
  return std::make_unique<ServeRwWorkload>();
}

}  // namespace perfbench
