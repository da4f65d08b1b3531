// scann-mixed: one USP partition inside a ScannIndex with 4-bit fast-scan
// PQ. The closed loop cycles through four batch kinds with equal query
// counts: unfiltered 10-NN (fast-scan ADC), 10-NN under a 1% and a 30%
// bitmap filter (planner, selector pushdown, float-ADC fallback), and exact
// radius queries. Its PQ codes fit in a core's L2; the float rows do not.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/partitioner.h"
#include "index/id_selector.h"
#include "index/query_planner.h"
#include "quant/pq.h"
#include "quant/scann_index.h"
#include "util/rng.h"
#include "workload/knn_graph.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kBase = 20000;
constexpr size_t kQueries = 2048;
constexpr size_t kPoolRows = 4096;
constexpr size_t kBatch = 16;  // kClientThreads: no call reaches the pool
constexpr size_t kSlotsPerKind = kQueries / kBatch;
constexpr size_t kBudget = 1;
constexpr size_t kRerank = 200;
// Each of the two slices runs for this share of --seconds and at least
// kMinCalls timed calls (three quarters of them 10-NN), so batch_p99_ms
// pools at least 1000.
constexpr double kSliceShare = 0.35;
constexpr size_t kMinCalls = 700;
constexpr size_t kKinds = 4;  // unfiltered, filter1pct, filter30pct, radius
const char* const kKindNames[kKinds] = {"unfiltered", "filter1pct",
                                        "filter30pct", "radius"};

// One seeded bitmap filter and the exact filtered truth of the batch slot
// it serves. Each filtered batch draws its own bitmap, so recall averages
// over many draws rather than hanging on which ~200 ids one 1% draw admits.
struct Filter {
  std::unique_ptr<usp::IdSelectorBitmap> selector;
  std::vector<bool> allowed;
  usp::KnnResult truth;  ///< rows are the slot's queries
};

class ScannMixedWorkload final : public Workload {
 public:
  void Prepare(uint64_t seed) override {
    seed_ = seed;
    in_ = MakeInputs(kBase, kQueries, kPoolRows, seed);
    const double selectivity[2] = {0.01, 0.30};
    usp::Rng rng(SubSeed(seed, 2));
    for (int f = 0; f < 2; ++f) {
      filters_[f].resize(kSlotsPerKind);
      for (size_t slot = 0; slot < kSlotsPerKind; ++slot) {
        Filter& filter = filters_[f][slot];
        filter.allowed.assign(kBase, false);
        std::vector<uint32_t> ids;
        for (uint32_t i = 0; i < kBase; ++i) {
          if (rng.Uniform() < selectivity[f]) {
            ids.push_back(i);
            filter.allowed[i] = true;
          }
        }
        filter.selector = std::make_unique<usp::IdSelectorBitmap>(kBase, ids);
        const usp::MatrixView queries(in_.queries.Row(slot * kBatch), kBatch,
                                      in_.queries.cols());
        filter.truth = usp::BruteForceKnn(in_.base, queries, 10,
                                          usp::Metric::kSquaredL2,
                                          filter.selector.get());
      }
    }
    radius_truth_ = RadiusTruth(in_.base, in_.queries, kBatch, in_.radius);
  }

  Metrics Run(double seconds, Report* report) override {
    static const uint32_t kGraph = Tracer::Intern("knn_graph.build");
    static const uint32_t kTrain = Tracer::Intern("core.train");
    static const uint32_t kPqTrain = Tracer::Intern("quant.pq_train");
    static const uint32_t kEncode = Tracer::Intern("quant.encode");
    Tracer* tracer = ActiveTracer();
    Metrics m;

    std::vector<double> setup_s;
    std::unique_ptr<usp::UspPartitioner> partitioner;
    std::unique_ptr<usp::ScannIndex> index;
    for (int rep = 0; rep < kSetups; ++rep) {
      index.reset();
      partitioner.reset();
      const int64_t start = NowNs();
      usp::KnnResult graph;
      {
        ScopedSpan span(kGraph);
        usp::KnnGraphConfig config;
        config.k = 10;
        graph = usp::KnnGraphBuilder(config).BuildExact(in_.base);
      }
      usp::UspTrainConfig train;
      // 16 bins, not 64: at 5 epochs a 64-bin partition leaves 40-50% of the
      // rows in one bin, and how many a budget-1 query scores then swings
      // with the seed (4.3k to 8.1k over ten seeds, qps following it); 16
      // bins balance (1.3k to 1.6k).
      train.num_bins = 16;
      train.epochs = 5;
      partitioner = std::make_unique<usp::UspPartitioner>(train);
      {
        ScopedSpan span(kTrain);
        partitioner->Train(in_.base, graph);
      }
      usp::PqConfig pq_config;
      pq_config.num_subspaces = 32;
      pq_config.codebook_size = 16;
      pq_config.anisotropic_eta = 4.0f;
      usp::ProductQuantizer pq(pq_config);
      {
        ScopedSpan span(kPqTrain);
        pq.Train(in_.base);
      }
      usp::ScannIndexConfig scann_config;
      scann_config.rerank_budget = kRerank;
      {
        ScopedSpan span(kEncode);
        index = std::make_unique<usp::ScannIndex>(
            &in_.base, partitioner.get(), std::move(pq), scann_config);
      }
      setup_s.push_back(SecondsSince(start));
    }
    m["setup_s"] = Median(setup_s);
    if (!index->has_fast_scan()) report->Fail("fast-scan PQ is not in use");

    // Closed loop cycling the four kinds with equal query counts.
    const size_t slots = kKinds * kSlotsPerKind;
    const bool first_pass = ids_.empty();
    if (first_pass) {
      ids_.resize(slots);
      dists_.resize(slots);
    }
    std::vector<bool> scored(slots, false);
    std::vector<double> all_knn_ms, knn_rates, radius_rates;
    size_t radius_calls = 0;
    size_t hits[3] = {0, 0, 0}, rows[3] = {0, 0, 0};
    const usp::ScannIndex* scann = index.get();
    // Run in two slices, before and after the serving phase, so the samples
    // span the whole run.
    auto slice = [&] {
      std::vector<size_t> timed_slots;
      const int64_t start = NowNs();
      const std::vector<double> ms = ClosedLoop(
          slots, seconds * kSliceShare, kMinCalls, [&](size_t slot) -> int64_t {
        const size_t kind = slot % kKinds;
        const size_t batch = slot / kKinds;
        const usp::MatrixView queries(in_.queries.Row(batch * kBatch), kBatch,
                                      in_.queries.cols());
        if (kind == 3) {
          return RadiusCall(*scann, queries, in_.radius, kClientThreads,
                            radius_truth_[batch], batch, report);
        }
        report->Attempt(kBatch);
        const Filter* filter =
            kind == 0 ? nullptr : &filters_[kind - 1][batch];
        usp::SearchRequest request;
        request.queries = queries;
        request.options.k = 10;
        request.options.budget = kBudget;
        request.options.num_threads = kClientThreads;
        request.options.filter = filter ? filter->selector.get() : nullptr;
        const int64_t t0 = NowNs();
        usp::BatchSearchResult r = tracer != nullptr
                                       ? TracedSearch(*scann, request, kind)
                                       : scann->SearchBatch(request);
        const int64_t elapsed = NowNs() - t0;
        if (first_pass && ids_[slot].empty()) {
          ids_[slot] = r.ids;
          dists_[slot] = r.distances;
        } else if (r.ids != ids_[slot] || r.distances != dists_[slot]) {
          report->Fail(tracer != nullptr ? "traced rows differ from untraced"
                                         : "repeated batch returned new rows",
                       kBatch);
        }
        if (!scored[slot]) {
          scored[slot] = true;
          const usp::KnnResult& truth = filter ? filter->truth : in_.truth;
          for (size_t q = 0; q < kBatch; ++q) {
            const size_t truth_row = filter ? q : batch * kBatch + q;
            const int h = CheckKnnRow(r.Row(q), r.DistanceRow(q), 10,
                                      truth.Row(truth_row), 10, kBase,
                                      filter ? &filter->allowed : nullptr);
            if (h < 0) {
              report->Fail(std::string(kKindNames[kind]) +
                           " row failed its check");
            }
            hits[kind] += std::max(h, 0);
            rows[kind] += 1;
          }
        }
        return elapsed;
      }, &timed_slots);
      MarkPhase(start);
      std::vector<double> knn_ms, radius_ms;
      for (size_t i = 0; i < ms.size(); ++i) {
        (timed_slots[i] % kKinds == 3 ? radius_ms : knn_ms).push_back(ms[i]);
      }
      all_knn_ms.insert(all_knn_ms.end(), knn_ms.begin(), knn_ms.end());
      radius_calls += radius_ms.size();
      const std::vector<double> kw = WindowRates(knn_ms, kBatch, kCallsPerWindow);
      const std::vector<double> rw =
          WindowRates(radius_ms, kBatch, kRadiusCallsPerWindow);
      knn_rates.insert(knn_rates.end(), kw.begin(), kw.end());
      radius_rates.insert(radius_rates.end(), rw.begin(), rw.end());
    };
    slice();

    const Metrics served = ServeStatic(std::move(index), in_.queries, in_.pool,
                                       kBudget, seed_, report, slice);
    m["qps"] = QuickRate(knn_rates);
    m["batch_p50_ms"] = QuickMedianLatency(all_knn_ms, "10-NN batch");
    m["batch_p99_ms"] = WindowedPercentile(all_knn_ms, 99, "10-NN batch");
    m["radius_qps"] = QuickRate(radius_rates);
    m["recall_at_10"] = double(hits[0] + hits[1] + hits[2]) /
                        double((rows[0] + rows[1] + rows[2]) * 10);
    std::printf("  batch: n=%zu 10-NN calls and %zu radius calls of %zu "
                "queries; recall unfiltered %.4f, filter1pct %.4f, "
                "filter30pct %.4f\n",
                all_knn_ms.size(), radius_calls, kBatch,
                double(hits[0]) / double(rows[0] * 10),
                double(hits[1]) / double(rows[1] * 10),
                double(hits[2]) / double(rows[2] * 10));
    m.insert(served.begin(), served.end());
    return m;
  }

 private:
  // Traced pass: ScoreBins and the planner timed on the same batch, then
  // SearchBatch with stats.
  usp::BatchSearchResult TracedSearch(const usp::ScannIndex& index,
                                      usp::SearchRequest request,
                                      size_t kind) {
    static const uint32_t kScore = Tracer::Intern("core.score_bins");
    static const uint32_t kPlan = Tracer::Intern("index.plan");
    static const uint32_t kSearch[3] = {
        Tracer::Intern("quant.search.unfiltered"),
        Tracer::Intern("quant.search.filter1pct"),
        Tracer::Intern("quant.search.filter30pct")};
    Tracer* tracer = ActiveTracer();
    const std::string name = kKindNames[kind];
    const double nq = double(request.queries.rows());
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(kScore);
      index.partitioner()->ScoreBins(request.queries);
    }
    const double score_ns = double(NowNs() - t0);
    tracer->Add("core.score_bins_queries", nq);
    bool scores_bins = true;  // an allowed-set scan never scores bins
    if (request.options.filter != nullptr) {
      usp::PlanDecision decision;
      {
        ScopedSpan span(kPlan);
        decision = usp::PlanFilteredSearch(index, request.options);
      }
      tracer->Add(std::string("index.plan.") +
                      usp::PlanStrategyName(decision.strategy) + "." + name,
                  1.0);
      scores_bins = decision.strategy != usp::PlanStrategy::kAllowedScan;
    }
    if (scores_bins) tracer->Add("quant.score_bins_ns." + name, score_ns);
    request.options.stats = true;
    usp::BatchSearchResult r;
    {
      ScopedSpan span(kSearch[kind]);
      r = index.SearchBatch(request);
    }
    double candidates = 0.0, filtered_out = 0.0;
    for (uint32_t c : r.stats->candidates_scored) candidates += c;
    for (uint32_t f : r.stats->filtered_out) filtered_out += f;
    tracer->Add("quant.queries." + name, nq);
    tracer->Add("quant.candidates." + name, candidates);
    tracer->Add("quant.filtered_out." + name, filtered_out);
    return r;
  }

  uint64_t seed_ = 0;
  Inputs in_;
  std::vector<Filter> filters_[2];  // per batch slot: 1% and 30%
  std::vector<usp::RadiusResult> radius_truth_;
  std::vector<std::vector<uint32_t>> ids_;  // untraced rows per slot
  std::vector<std::vector<float>> dists_;
};

}  // namespace

std::unique_ptr<Workload> MakeScannMixedWorkload() {
  return std::make_unique<ScannMixedWorkload>();
}

}  // namespace perfbench
