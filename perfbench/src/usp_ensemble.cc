// usp-ensemble: the paper's Algorithms 1-4. Set-up builds the exact k'-NN
// graph and trains the boosted ensemble; queries are closed-loop
// SearchBatch calls where bin scoring, candidate gather and exact rerank do
// the work. ivf/, quant/ and the planner do no work here; serve/ works only
// in the low-rate serving phase, which puts the trained ensemble behind the
// executor.
#include <algorithm>
#include <atomic>
#include <cstdio>

#include "core/ensemble.h"
#include "dist/distance_computer.h"
#include "util/thread_pool.h"
#include "workload/knn_graph.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kBase = 20000;
constexpr size_t kQueries = 2048;
constexpr size_t kPoolRows = 4096;
constexpr size_t kBatch = 16;  // kClientThreads: no call reaches the pool
constexpr size_t kBudget = 1;
constexpr size_t kRadiusBatch = 16;
constexpr size_t kRadiusSlots = 32;
// Each of the two batch slices runs for this share of --seconds and at
// least kMinCalls timed calls, so batch_p99_ms pools at least 1000.
constexpr double kSliceShare = 0.35;
constexpr size_t kMinCalls = 500;

usp::UspEnsembleConfig EnsembleConfig() {
  usp::UspEnsembleConfig config;
  config.num_models = 3;
  config.model.num_bins = 16;
  config.model.epochs = 3;
  return config;
}

// Traced pass: SearchBatch replayed through the layers it calls, one span
// per call. Must return SearchBatch's rows bit for bit.
usp::BatchSearchResult Replay(const usp::UspEnsemble& ensemble,
                              const usp::DistanceComputer& dist,
                              usp::MatrixView queries, uint64_t batch_no) {
  static const uint32_t kRoot = Tracer::Intern("core.batch");
  static const uint32_t kScore = Tracer::Intern("core.score_bins");
  static const uint32_t kGather = Tracer::Intern("core.gather");
  static const uint32_t kRerank = Tracer::Intern("dist.rerank");
  Tracer* tracer = ActiveTracer();
  const size_t nq = queries.rows();
  const size_t e = ensemble.num_models();
  ScopedSpan root(kRoot, 0, batch_no);
  std::vector<usp::Matrix> scores;
  for (size_t j = 0; j < e; ++j) {
    ScopedSpan span(kScore, root.id(), batch_no);
    scores.push_back(ensemble.model(j).ScoreBins(queries));
  }
  usp::SearchOptions options;
  options.k = 10;
  options.budget = kBudget;
  usp::BatchSearchResult result;
  result.Prepare(nq, options);
  std::atomic<uint64_t> candidates{0};
  usp::ParallelFor(nq, 8, kClientThreads, [&](size_t begin, size_t end,
                                               size_t) {
    std::vector<uint32_t> merged;
    uint64_t local = 0;
    for (size_t q = begin; q < end; ++q) {
      size_t best = 0;
      float best_conf = -1.0f;
      for (size_t j = 0; j < e; ++j) {
        const float* row = scores[j].Row(q);
        const float conf = *std::max_element(row, row + scores[j].cols());
        if (conf > best_conf) {
          best_conf = conf;
          best = j;
        }
      }
      {
        ScopedSpan span(kGather, root.id(), batch_no);
        ensemble.index(best).CollectCandidates(scores[best].Row(q), kBudget,
                                               &merged);
      }
      usp::RerankCounts counts;
      std::vector<usp::Neighbor> row;
      {
        ScopedSpan span(kRerank, root.id(), batch_no);
        row = usp::RerankCandidatesScored(dist, queries.Row(q), merged,
                                          options.k, nullptr, &counts);
      }
      result.SetRow(q, row);
      result.candidate_counts[q] = counts.scored;
      local += counts.scored;
    }
    candidates += local;
  });
  tracer->Add("core.score_bins_queries", double(nq));
  tracer->Add("core.candidates", double(candidates.load()));
  tracer->Add("dist.candidates", double(candidates.load()));
  return result;
}

class UspEnsembleWorkload final : public Workload {
 public:
  void Prepare(uint64_t seed) override {
    seed_ = seed;
    in_ = MakeInputs(kBase, kQueries, kPoolRows, seed);
    radius_queries_ = Rows(in_.queries, 0, kRadiusBatch * kRadiusSlots);
    radius_truth_ = RadiusTruth(in_.base, radius_queries_, kRadiusBatch,
                                in_.radius);
  }

  Metrics Run(double seconds, Report* report) override {
    static const uint32_t kGraph = Tracer::Intern("knn_graph.build");
    static const uint32_t kTrain = Tracer::Intern("core.train");
    Tracer* tracer = ActiveTracer();
    Metrics m;

    // Set-up: exact k'-NN graph, then Algorithm 3 training.
    std::vector<double> setup_s;
    std::unique_ptr<usp::UspEnsemble> ensemble;
    for (int rep = 0; rep < kSetups; ++rep) {
      ensemble.reset();
      const int64_t start = NowNs();
      usp::KnnResult graph;
      {
        ScopedSpan span(kGraph);
        usp::KnnGraphConfig config;
        config.k = 10;
        graph = usp::KnnGraphBuilder(config).BuildExact(in_.base);
      }
      ensemble = std::make_unique<usp::UspEnsemble>(EnsembleConfig());
      {
        ScopedSpan span(kTrain);
        ensemble->Train(in_.base, graph);
      }
      setup_s.push_back(SecondsSince(start));
    }
    m["setup_s"] = Median(setup_s);

    // Closed loop: one client, SearchBatch of kBatch queries at budget 1,
    // and exact radius, each run in two slices, before and after the
    // serving phase, so the samples span the whole run.
    const usp::UspEnsemble* index = ensemble.get();
    const usp::DistanceComputer dist(index->base_view(),
                                     usp::Metric::kSquaredL2);
    const size_t slots = kQueries / kBatch;
    const bool first_pass = rows_.empty();
    if (first_pass) rows_.resize(slots);
    std::vector<bool> scored(slots, false);
    size_t hits = 0, scored_rows = 0;
    uint64_t batch_no = 0;
    std::vector<double> ms, rates, radius_rates;
    auto slice = [&] {
      const int64_t start = NowNs();
      const std::vector<double> part =
          ClosedLoop(slots, seconds * kSliceShare, kMinCalls, [&](size_t slot) {
            usp::SearchRequest request;
            request.queries = usp::MatrixView(in_.queries.Row(slot * kBatch),
                                              kBatch, in_.queries.cols());
            request.options.k = 10;
            request.options.budget = kBudget;
            request.options.num_threads = kClientThreads;
            const int64_t t0 = NowNs();
            usp::BatchSearchResult r =
                tracer != nullptr
                    ? Replay(*index, dist, request.queries, ++batch_no)
                    : index->SearchBatch(request);
            const int64_t elapsed = NowNs() - t0;
            report->Attempt(kBatch);
            if (first_pass && rows_[slot].empty()) {
              rows_[slot] = r.ids;
              dists_[slot] = r.distances;
            } else if (r.ids != rows_[slot] || r.distances != dists_[slot]) {
              report->Fail(tracer != nullptr
                               ? "traced replay rows differ from SearchBatch"
                               : "repeated batch returned different rows",
                           kBatch);
            }
            if (!scored[slot]) {
              scored[slot] = true;
              for (size_t q = 0; q < kBatch; ++q) {
                const size_t gq = slot * kBatch + q;
                const int h =
                    CheckKnnRow(r.Row(q), r.DistanceRow(q), 10,
                                in_.truth.Row(gq), 10, kBase, nullptr);
                if (h < 0) report->Fail("usp-ensemble row failed its check");
                hits += std::max(h, 0);
                ++scored_rows;
              }
            }
            return elapsed;
          });
      MarkPhase(start);
      ms.insert(ms.end(), part.begin(), part.end());
      const std::vector<double> w = WindowRates(part, kBatch, kCallsPerWindow);
      rates.insert(rates.end(), w.begin(), w.end());
      std::printf("  batch slice: n=%zu, p50 %.3f ms, %.0f queries/s\n",
                  part.size(), Percentile(part, 50), QuickRate(w));
      const std::vector<double> rw =
          RadiusPhase(*index, radius_queries_, kRadiusBatch, in_.radius,
                      kClientThreads, radius_truth_, seconds * 0.075, report);
      radius_rates.insert(radius_rates.end(), rw.begin(), rw.end());
    };
    slice();

    const Metrics served = ServeStatic(std::move(ensemble), in_.queries,
                                       in_.pool, kBudget, seed_, report, slice);
    m["qps"] = QuickRate(rates);
    m["batch_p50_ms"] = QuickMedianLatency(ms, "batch");
    m["batch_p99_ms"] = WindowedPercentile(ms, 99, "batch");
    m["recall_at_10"] = double(hits) / double(scored_rows * 10);
    m["radius_qps"] = QuickRate(radius_rates);
    std::printf("  batch: n=%zu calls of %zu queries\n", ms.size(), kBatch);
    m.insert(served.begin(), served.end());
    return m;
  }

 private:
  uint64_t seed_ = 0;
  Inputs in_;
  usp::Matrix radius_queries_;
  std::vector<usp::RadiusResult> radius_truth_;
  std::vector<std::vector<uint32_t>> rows_;  // untraced rows per slot
  std::vector<std::vector<float>> dists_{kQueries / kBatch};
};

}  // namespace

std::unique_ptr<Workload> MakeUspEnsembleWorkload() {
  return std::make_unique<UspEnsembleWorkload>();
}

}  // namespace perfbench
