// Preprocessing-cost workload (Sec. 4.2.1): "Preparing this [k'-NN] matrix
// takes approximately 30 minutes on the million-sized dataset". The
// historical bench timed BuildKnnMatrix alone; this one races it against the
// workload subsystem's KnnGraphBuilder (workload/knn_graph.h) on one
// sift-like base:
//
//   brute    — BuildKnnMatrix(data, k), the original per-row O(n^2 d) scan.
//   exact    — KnnGraphBuilder::BuildExact: symmetric tiles, each scored once
//              for both endpoints. Must be bit-identical to brute.
//   stream   — KnnGraphBuilder::BuildFromStream over a MatrixStream: the
//              out-of-core path, also bit-identical; per-chunk scoring
//              latencies are summarized (p50/p95/p99/mean).
//   approx   — KnnGraphBuilder::BuildApproximate over an IVF-Flat index
//              trained on the same rows, budget = nprobe. Wall clock counts
//              TRAIN + BUILD; recall is measured against the exact graph.
//
// brute and approx alternate over five runs, and each reports its median
// wall clock: a ratio of single runs follows the host's load more than the
// code. The JSON records the run count and both medians
// (brute_force_seconds; approx_total_seconds, the median of the per-run
// train + build sums, next to the medians of each part).
//
// Output: human-readable table plus machine-readable BENCH_graph.json
// (override the path with argv[1]). CI greps "approx_recall_ge_target"
// (recall >= 0.90) and the committed run at n=20000 carries
// "approx_speedup_ge_5x" (median train+build >= 5x faster than the median
// brute force).
//
// Scale knobs: USP_BENCH_GRAPH_N (default 20000), USP_BENCH_GRAPH_DIM (128),
// USP_BENCH_GRAPH_K (10), USP_BENCH_GRAPH_NLIST (0 = ~sqrt(n) * 1.5),
// USP_BENCH_GRAPH_NPROBE (8), USP_BENCH_GRAPH_RESIDENT (4096).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "dataset/fvecs_stream.h"
#include "dataset/synthetic.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "tensor/matrix.h"
#include "util/env.h"
#include "workload/knn_graph.h"

namespace usp::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;

// Alternated runs per timed side (brute, approx).
constexpr size_t kTimingRuns = 5;

double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// ChunkStream decorator that records, for every chunk it hands out, how
/// long the caller spent before asking for the next one — i.e. the per-chunk
/// scoring latency of the streaming build, without instrumenting the builder.
class TimingStream : public ChunkStream {
 public:
  TimingStream(ChunkStream* inner, std::vector<double>* chunk_ms)
      : inner_(inner), chunk_ms_(chunk_ms) {}

  size_t dim() const override { return inner_->dim(); }
  size_t num_rows() const override { return inner_->num_rows(); }

  Status Reset() override {
    armed_ = false;
    return inner_->Reset();
  }

  StatusOr<MatrixView> NextChunk(size_t max_rows) override {
    if (armed_) {
      chunk_ms_->push_back(
          std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                    handed_out_)
              .count());
    }
    StatusOr<MatrixView> chunk = inner_->NextChunk(max_rows);
    armed_ = chunk.ok() && chunk.value().rows() > 0;
    handed_out_ = SteadyClock::now();
    return chunk;
  }

 private:
  ChunkStream* inner_;
  std::vector<double>* chunk_ms_;
  bool armed_ = false;
  SteadyClock::time_point handed_out_;
};

bool SameGraph(const KnnResult& a, const KnnResult& b) {
  return a.k == b.k && a.indices == b.indices &&
         std::memcmp(a.distances.data(), b.distances.data(),
                     a.distances.size() * sizeof(float)) == 0;
}

int Run(const char* out_path) {
  const size_t n = static_cast<size_t>(EnvInt("USP_BENCH_GRAPH_N", 20000));
  const size_t d = static_cast<size_t>(EnvInt("USP_BENCH_GRAPH_DIM", 128));
  const size_t k = static_cast<size_t>(EnvInt("USP_BENCH_GRAPH_K", 10));
  size_t nlist = static_cast<size_t>(EnvInt("USP_BENCH_GRAPH_NLIST", 0));
  if (nlist == 0) {
    while ((nlist + 1) * (nlist + 1) * 4 <= n * 9) ++nlist;  // ~1.5 sqrt(n)
  }
  const size_t nprobe = static_cast<size_t>(EnvInt("USP_BENCH_GRAPH_NPROBE", 5));
  const size_t resident =
      static_cast<size_t>(EnvInt("USP_BENCH_GRAPH_RESIDENT", 4096));
  const double recall_target = 0.90;

  std::printf("=== k-NN graph construction: n=%zu d=%zu k=%zu ===\n", n, d, k);
  const Matrix data = MakeSiftLike(n, 42);
  const double edges = static_cast<double>(n) * static_cast<double>(k);

  // The historical per-row brute-force build against the index-accelerated
  // approximate build, alternated; train time counts for approx.
  KnnGraphConfig config;
  config.k = k;
  const KnnGraphBuilder builder(config);
  IvfConfig ivf_config;
  ivf_config.nlist = nlist;
  // Rough coarse centroids are enough here: graph recall at these probe
  // counts has ~10 points of headroom over the 0.90 target, and every Lloyd
  // iteration costs O(n * nlist * d) — the same order as the whole
  // approximate build.
  ivf_config.kmeans_iterations = 4;
  ivf_config.seed = 7;
  KnnResult brute, approx;
  std::vector<double> brute_runs, train_runs, build_runs, approx_runs;
  for (size_t run = 0; run < kTimingRuns; ++run) {
    auto start = SteadyClock::now();
    KnnResult brute_run = BuildKnnMatrix(data, k);
    brute_runs.push_back(SecondsSince(start));
    start = SteadyClock::now();
    const IvfFlatIndex ivf(&data, ivf_config);
    train_runs.push_back(SecondsSince(start));
    start = SteadyClock::now();
    KnnResult approx_run = builder.BuildApproximate(ivf, data, nprobe);
    build_runs.push_back(SecondsSince(start));
    approx_runs.push_back(train_runs.back() + build_runs.back());
    if (run == 0) {
      brute = std::move(brute_run);
      approx = std::move(approx_run);
    }
  }
  const double brute_s = Median(brute_runs);
  std::printf("  %-28s %8.3f s  %12.0f edges/s  (median of %zu)\n",
              "brute (BuildKnnMatrix)", brute_s, edges / brute_s,
              kTimingRuns);

  // Symmetric exact build — must reproduce brute force bit for bit.
  auto start = SteadyClock::now();
  const KnnResult exact = builder.BuildExact(data);
  const double exact_s = SecondsSince(start);
  const bool exact_identical = SameGraph(exact, brute);
  std::printf("  %-28s %8.3f s  %12.0f edges/s  identical=%s\n",
              "exact (symmetric tiles)", exact_s, edges / exact_s,
              exact_identical ? "yes" : "NO");

  // Out-of-core build over a chunk stream; also bit-identical.
  std::vector<double> chunk_ms;
  MatrixStream matrix_stream(data);
  TimingStream timing_stream(&matrix_stream, &chunk_ms);
  start = SteadyClock::now();
  StatusOr<KnnResult> streamed = builder.BuildFromStream(&timing_stream,
                                                         resident);
  const double stream_s = SecondsSince(start);
  const bool stream_identical = streamed.ok() && SameGraph(streamed.value(),
                                                           brute);
  const LatencySummary chunk_lat = SummarizeLatencies(chunk_ms);
  std::printf("  %-28s %8.3f s  %12.0f edges/s  identical=%s\n",
              "stream (out-of-core)", stream_s, edges / stream_s,
              stream_identical ? "yes" : "NO");
  std::printf("    per-chunk scoring: p50=%.2f ms p95=%.2f ms p99=%.2f ms "
              "mean=%.2f ms (%zu chunks)\n",
              chunk_lat.p50, chunk_lat.p95, chunk_lat.p99, chunk_lat.mean,
              chunk_ms.size());

  // The approximate build's medians: train, build, and their per-run sum.
  const double train_s = Median(train_runs);
  const double build_s = Median(build_runs);
  const double approx_s = Median(approx_runs);
  const double recall = KnnGraphBuilder::GraphRecall(approx, brute);
  const double speedup = brute_s / approx_s;
  std::printf("  %-28s %8.3f s  %12.0f edges/s  (median of %zu; train %.3f "
              "+ build %.3f)\n",
              "approx (IVF-Flat)", approx_s, edges / approx_s, kTimingRuns,
              train_s, build_s);
  std::printf("    nlist=%zu nprobe=%zu  recall=%.4f  speedup vs brute=%.1fx\n",
              nlist, nprobe, recall, speedup);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"n\": %zu, \"dim\": %zu, \"k\": %zu,\n", n, d, k);
  std::fprintf(f, "  \"timing_runs\": %zu,\n", kTimingRuns);
  std::fprintf(f, "  \"brute_force_seconds\": %.4f,\n", brute_s);
  std::fprintf(f, "  \"brute_force_edges_per_sec\": %.0f,\n", edges / brute_s);
  std::fprintf(f, "  \"exact_seconds\": %.4f,\n", exact_s);
  std::fprintf(f, "  \"exact_edges_per_sec\": %.0f,\n", edges / exact_s);
  std::fprintf(f, "  \"exact_identical\": %s,\n",
               exact_identical ? "true" : "false");
  std::fprintf(f, "  \"stream_seconds\": %.4f,\n", stream_s);
  std::fprintf(f, "  \"stream_identical\": %s,\n",
               stream_identical ? "true" : "false");
  std::fprintf(f,
               "  \"stream_chunk_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
               "\"p99\": %.3f, \"mean\": %.3f},\n",
               chunk_lat.p50, chunk_lat.p95, chunk_lat.p99, chunk_lat.mean);
  std::fprintf(f, "  \"approx_nlist\": %zu, \"approx_nprobe\": %zu,\n", nlist,
               nprobe);
  std::fprintf(f, "  \"approx_train_seconds\": %.4f,\n", train_s);
  std::fprintf(f, "  \"approx_build_seconds\": %.4f,\n", build_s);
  std::fprintf(f, "  \"approx_total_seconds\": %.4f,\n", approx_s);
  std::fprintf(f, "  \"approx_edges_per_sec\": %.0f,\n", edges / approx_s);
  std::fprintf(f, "  \"approx_recall\": %.4f,\n", recall);
  std::fprintf(f, "  \"approx_speedup\": %.2f,\n", speedup);
  std::fprintf(f, "  \"approx_speedup_ge_5x\": %s,\n",
               speedup >= 5.0 ? "true" : "false");
  std::fprintf(f, "  \"approx_recall_ge_target\": %s\n",
               recall >= recall_target && exact_identical && stream_identical
                   ? "true"
                   : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", out_path);
  return exact_identical && stream_identical ? 0 : 1;
}

}  // namespace
}  // namespace usp::bench

int main(int argc, char** argv) {
  return usp::bench::Run(argc > 1 ? argv[1] : "BENCH_graph.json");
}
