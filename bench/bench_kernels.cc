// Microbenchmark for the src/dist/ kernel layer: 1-vs-1 scalar vs dispatched
// vs batched ScoreBlock / gather ScoreIds, at d in {32, 128, 960}, plus the
// compressed-domain kernels of dist/quant_kernels.h (4-bit PQ fast-scan vs
// the per-code float-ADC walk, SQ8 int8 scans vs the fp32 loop) and a
// whole-index Sq8-vs-IVF-Flat QPS comparison at matched recall@10. Writes
// machine-readable results to BENCH_kernels.json (override the path with
// argv[1]) to seed the perf trajectory; the headline numbers are the speedup
// of the dispatched batched kernels over the scalar 1-vs-1 loop and of the
// pq4 shuffle kernel over the per-code ADC loop.
//
// Scale knobs: USP_BENCH_KERNEL_MB (working set, default 64) and
// USP_BENCH_KERNEL_REPS (timed repetitions, default 5); the index comparison
// follows the shared bench scale (USP_BENCH_SIFT_N / USP_BENCH_QUERIES).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/partition_index.h"
#include "dist/distance_kernels.h"
#include "dist/quant_kernels.h"
#include "ivf/ivf.h"
#include "knn/top_k.h"
#include "quant/fastscan.h"
#include "quant/pq.h"
#include "quant/sq8_index.h"
#include "util/env.h"
#include "util/timer.h"

namespace usp::bench {
namespace {

struct BenchResult {
  std::string kernel;
  std::string impl;
  size_t dim;
  size_t rows;
  double ns_per_row;
  double gb_per_sec;
  double speedup_vs_scalar_1v1;  // 0 when it IS the baseline
};

/// Whole-index operating points of the Sq8-vs-IVF-Flat comparison.
struct IndexQps {
  double sq8_recall = 0.0;
  double sq8_qps = 0.0;
  double ivf_recall = 0.0;
  double ivf_qps = 0.0;
  size_t ivf_probes = 0;
  double qps_ratio = 0.0;  // sq8_qps / ivf_qps at matched recall
};

double BestOfReps(size_t reps, const std::function<void()>& fn) {
  double best = 1e100;
  for (size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// Sq8Index vs IVF-Flat at matched recall@10 on the default bench workload:
/// measures the exhaustive quantized scan against the probe count IVF-Flat
/// needs to reach the same recall.
IndexQps RunIndexComparison(size_t reps) {
  const Workload& w = SiftLikeWorkload();
  IndexQps out;
  const size_t nq = w.queries.rows();
  const size_t k = 10;

  Sq8IndexConfig sq8_config;
  const Sq8Index sq8(&w.base, sq8_config);
  SearchRequest request;
  request.queries = w.queries;
  request.options.k = k;
  request.options.budget = 1;  // the SQ8 scan is exhaustive regardless
  const BatchSearchResult sq8_result = sq8.SearchBatch(request);
  out.sq8_recall =
      KnnAccuracy(sq8_result, w.ground_truth.indices, w.ground_truth.k);
  out.sq8_qps = static_cast<double>(nq) /
                BestOfReps(reps, [&] { sq8.SearchBatch(request); });

  IvfConfig ivf_config;
  ivf_config.nlist = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(w.base.rows()))));
  const IvfFlatIndex ivf(&w.base, ivf_config);

  // Smallest probe budget whose recall matches SQ8's (all lists if it never
  // gets there — then the comparison is against exact search).
  out.ivf_probes = ivf_config.nlist;
  for (size_t probes = 1; probes <= ivf_config.nlist; ++probes) {
    request.options.budget = probes;
    const double recall = KnnAccuracy(ivf.SearchBatch(request),
                                      w.ground_truth.indices,
                                      w.ground_truth.k);
    if (recall >= out.sq8_recall) {
      out.ivf_probes = probes;
      out.ivf_recall = recall;
      break;
    }
    out.ivf_recall = recall;
  }
  request.options.budget = out.ivf_probes;
  out.ivf_qps = static_cast<double>(nq) /
                BestOfReps(reps, [&] { ivf.SearchBatch(request); });
  out.qps_ratio = out.ivf_qps > 0.0 ? out.sq8_qps / out.ivf_qps : 0.0;
  return out;
}

int Run(const char* out_path) {
  const size_t budget_floats =
      static_cast<size_t>(EnvInt("USP_BENCH_KERNEL_MB", 64)) * (1u << 20) / 4;
  const size_t reps = static_cast<size_t>(EnvInt("USP_BENCH_KERNEL_REPS", 5));
  const DistanceKernels& scalar = ScalarKernels();
  const DistanceKernels& dispatched = GetDistanceKernels();
  const QuantKernels& quant_scalar = ScalarQuantKernels();
  const QuantKernels& quant = GetQuantKernels();
  std::printf("dispatched kernel set: %s (quantized: %s)\n", dispatched.name,
              quant.name);

  std::vector<BenchResult> results;
  float sink = 0.0f;      // defeats dead-code elimination
  uint64_t isink = 0;     // same, integer domain

  auto record = [&](const std::string& kernel, const std::string& impl,
                    size_t d, size_t rows, double bytes, double seconds,
                    double baseline_seconds) {
    BenchResult r;
    r.kernel = kernel;
    r.impl = impl;
    r.dim = d;
    r.rows = rows;
    r.ns_per_row = seconds * 1e9 / static_cast<double>(rows);
    r.gb_per_sec = bytes / seconds / 1e9;
    r.speedup_vs_scalar_1v1 =
        baseline_seconds > 0.0 ? baseline_seconds / seconds : 0.0;
    results.push_back(r);
    std::printf("%-18s %-7s d=%-4zu rows=%-7zu %8.2f ns/row %7.2f GB/s%s\n",
                kernel.c_str(), impl.c_str(), d, rows, r.ns_per_row,
                r.gb_per_sec,
                baseline_seconds > 0.0
                    ? ("  (" + std::to_string(r.speedup_vs_scalar_1v1) +
                       "x vs baseline)")
                          .c_str()
                    : "");
  };

  for (const size_t d : {size_t{32}, size_t{128}, size_t{960}}) {
    const size_t rows = std::min<size_t>(200000, budget_floats / d);
    std::vector<float> base(rows * d), query(d);
    std::mt19937 gen(42);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    for (auto& v : base) v = dist(gen);
    for (auto& v : query) v = dist(gen);
    std::vector<uint32_t> ids(rows);
    std::iota(ids.begin(), ids.end(), 0u);
    std::shuffle(ids.begin(), ids.end(), gen);
    std::vector<float> out(rows);
    const double bytes = static_cast<double>(rows) * d * sizeof(float);

    // Baseline: scalar 1-vs-1 loop (the pre-refactor call-site shape).
    const double scalar_1v1 = BestOfReps(reps, [&] {
      for (size_t i = 0; i < rows; ++i) {
        out[i] = scalar.squared_l2(query.data(), base.data() + i * d, d);
      }
      sink += out[rows / 2];
    });
    record("l2_1v1", "scalar", d, rows, bytes, scalar_1v1, 0.0);

    record("l2_1v1", dispatched.name, d, rows, bytes, BestOfReps(reps, [&] {
             for (size_t i = 0; i < rows; ++i) {
               out[i] =
                   dispatched.squared_l2(query.data(), base.data() + i * d, d);
             }
             sink += out[rows / 2];
           }),
           scalar_1v1);

    record("l2_score_block", dispatched.name, d, rows, bytes,
           BestOfReps(reps, [&] {
             dispatched.score_block_l2(query.data(), base.data(), rows, d,
                                       out.data());
             sink += out[rows / 2];
           }),
           scalar_1v1);

    record("l2_score_ids", dispatched.name, d, rows, bytes,
           BestOfReps(reps, [&] {
             dispatched.score_ids_l2(query.data(), base.data(), d, ids.data(),
                                     rows, out.data());
             sink += out[rows / 2];
           }),
           scalar_1v1);

    record("dot_score_block", dispatched.name, d, rows, bytes,
           BestOfReps(reps, [&] {
             dispatched.score_block_dot(query.data(), base.data(), rows, d,
                                        out.data());
             sink += out[rows / 2];
           }),
           scalar_1v1);

    record("dot_score_ids", dispatched.name, d, rows, bytes,
           BestOfReps(reps, [&] {
             dispatched.score_ids_dot(query.data(), base.data(), d, ids.data(),
                                      rows, out.data());
             sink += out[rows / 2];
           }),
           scalar_1v1);
  }

  // --- 4-bit PQ fast-scan vs the per-code float-ADC walk -------------------
  // Baseline is the historical ADC inner loop (one table lookup + add per
  // subspace code); the contender scores 32 codes per 16-byte LUT shuffle.
  for (const size_t m : {size_t{8}, size_t{16}}) {
    constexpr size_t kCodebook = 16;
    const size_t rows = 256 * 1024;  // multiple of the 32-code block
    std::mt19937 gen(7);
    std::uniform_int_distribution<uint32_t> code_dist(0, kCodebook - 1);
    std::uniform_real_distribution<float> val_dist(0.0f, 4.0f);
    std::vector<uint8_t> codes(rows * m);
    for (auto& c : codes) c = static_cast<uint8_t>(code_dist(gen));
    std::vector<float> table(m * kCodebook);
    for (auto& v : table) v = val_dist(gen);

    const PackedCodes packed = PackCodes4(codes.data(), rows, m);
    const QuantizedLut qlut = QuantizeAdcTable(table.data(), m, kCodebook);
    std::vector<float> fscores(rows);
    std::vector<uint16_t> qsums(packed.num_blocks() * kPq4BlockSize);
    const double code_bytes = static_cast<double>(rows) * m;

    const double adc_float = BestOfReps(reps, [&] {
      for (size_t i = 0; i < rows; ++i) {
        const uint8_t* code = codes.data() + i * m;
        float sum = 0.0f;
        for (size_t s = 0; s < m; ++s) {
          sum += table[s * kCodebook + code[s]];
        }
        fscores[i] = sum;
      }
      sink += fscores[rows / 2];
    });
    record("pq4_adc", "float", m, rows, code_bytes, adc_float, 0.0);

    record("pq4_fastscan", quant_scalar.name, m, rows, code_bytes,
           BestOfReps(reps, [&] {
             quant_scalar.pq4_scan(packed.data.data(), qlut.lut.data(), m,
                                   packed.num_blocks(), qsums.data());
             isink += qsums[rows / 2];
           }),
           adc_float);

    record("pq4_fastscan", quant.name, m, rows, code_bytes,
           BestOfReps(reps, [&] {
             quant.pq4_scan(packed.data.data(), qlut.lut.data(), m,
                            packed.num_blocks(), qsums.data());
             isink += qsums[rows / 2];
           }),
           adc_float);
  }

  // --- The ADC stage around the kernel: shortlist select, LUT build --------
  // One scann-mixed query's shapes (m = 32, k = 16, rerank budget 200): the
  // select of a probed bucket's 1,368 pq4 sums and of 411 float ADC scores
  // (a 30%-filtered bucket) down to 200, in ns per candidate against a
  // TopK(200) heap over the same pairs; and the per-query LUT, one-pass float
  // table plus its uint8 quantization, in ns per query (`rows` = queries).
  {
    constexpr size_t kM = 32, kCodebook = 16, kKeep = 200;
    constexpr size_t kSelects = 2000;
    std::mt19937 gen(5);
    std::uniform_int_distribution<uint32_t> code_dist(0, kCodebook - 1);
    std::uniform_real_distribution<float> val_dist(0.0f, 4.0f);
    std::vector<float> table(kM * kCodebook);
    for (auto& v : table) v = val_dist(gen);
    const QuantizedLut qlut = QuantizeAdcTable(table.data(), kM, kCodebook);
    const size_t quantized = 1368, floats = 411;
    std::vector<uint8_t> codes(quantized * kM);
    for (auto& c : codes) c = static_cast<uint8_t>(code_dist(gen));
    const PackedCodes packed = PackCodes4(codes.data(), quantized, kM);
    std::vector<uint16_t> sums(packed.num_blocks() * kPq4BlockSize);
    quant.pq4_scan(packed.data.data(), qlut.lut.data(), kM,
                   packed.num_blocks(), sums.data());
    std::vector<uint32_t> ids(quantized);
    std::iota(ids.begin(), ids.end(), 0u);
    std::vector<float> adc(floats);
    for (size_t i = 0; i < floats; ++i) {
      float sum = 0.0f;
      for (size_t s = 0; s < kM; ++s) {
        sum += table[s * kCodebook + codes[i * kM + s]];
      }
      adc[i] = sum;
    }
    const auto score = [&qlut](uint16_t sum) { return qlut.Score(sum); };
    Shortlist shortlist;
    const auto heap_select = [&](size_t n, const auto& distance_at) {
      return BestOfReps(reps, [&] {
        for (size_t r = 0; r < kSelects; ++r) {
          TopK heap(kKeep);
          for (size_t i = 0; i < n; ++i) heap.Push(distance_at(i), ids[i]);
          isink += heap.TakeSorted().back().id;
        }
      });
    };
    const double sums_heap =
        heap_select(quantized, [&](size_t i) { return qlut.Score(sums[i]); });
    record("select_pq4_sums", "topk_heap", kKeep, quantized * kSelects,
           static_cast<double>(quantized * kSelects) * sizeof(uint16_t),
           sums_heap, 0.0);
    record("select_pq4_sums", "shortlist", kKeep, quantized * kSelects,
           static_cast<double>(quantized * kSelects) * sizeof(uint16_t),
           BestOfReps(reps, [&] {
             for (size_t r = 0; r < kSelects; ++r) {
               shortlist.Reset(kKeep);
               shortlist.Push(sums.data(), score, ids.data(), quantized);
               isink += shortlist.Take().back().id;
             }
           }),
           sums_heap);
    const double floats_heap =
        heap_select(floats, [&](size_t i) { return adc[i]; });
    record("select_adc_floats", "topk_heap", kKeep, floats * kSelects,
           static_cast<double>(floats * kSelects) * sizeof(float),
           floats_heap, 0.0);
    record("select_adc_floats", "shortlist", kKeep, floats * kSelects,
           static_cast<double>(floats * kSelects) * sizeof(float),
           BestOfReps(reps, [&] {
             for (size_t r = 0; r < kSelects; ++r) {
               shortlist.Reset(kKeep);
               shortlist.Push(adc.data(), ids.data(), floats);
               isink += shortlist.Take().back().id;
             }
           }),
           floats_heap);

    // A trained quantizer of the same shape (d = 128, four dims per
    // subspace) for the table build.
    const size_t d = 128, train_rows = 2000;
    Matrix train(train_rows, d);
    std::normal_distribution<float> normal(0.0f, 1.0f);
    for (size_t i = 0; i < train_rows; ++i) {
      for (size_t j = 0; j < d; ++j) train.Row(i)[j] = normal(gen);
    }
    PqConfig pq_config;
    pq_config.num_subspaces = kM;
    pq_config.codebook_size = kCodebook;
    pq_config.kmeans_iterations = 4;
    ProductQuantizer pq(pq_config);
    pq.Train(train);
    std::vector<float> query(d), lut_table(kM * kCodebook);
    for (auto& v : query) v = normal(gen);
    QuantizedLut lut;
    constexpr size_t kQueries = 20000;
    const double table_bytes =
        static_cast<double>(kQueries) * kM * kCodebook * sizeof(float);
    // Baseline: one score_block_l2 call per subspace, the loop the one-pass
    // table replaced.
    const double per_subspace = BestOfReps(reps, [&] {
      for (size_t r = 0; r < kQueries; ++r) {
        query[r % d] += 1e-3f;
        for (size_t s = 0; s < kM; ++s) {
          const Matrix& cb = pq.codebook(s);
          const size_t off = pq.subspace_offsets()[s];
          dispatched.score_block_l2(query.data() + off, cb.data(), cb.rows(),
                                    cb.cols(), lut_table.data() + s * kCodebook);
        }
        sink += lut_table[r % lut_table.size()];
      }
    });
    record("adc_table_build", "per_subspace", kM, kQueries, table_bytes,
           per_subspace, 0.0);
    record("adc_table_build", dispatched.name, kM, kQueries, table_bytes,
           BestOfReps(reps, [&] {
             for (size_t r = 0; r < kQueries; ++r) {
               query[r % d] += 1e-3f;
               pq.BuildTable(query.data(), AdcTableKind::kSquaredL2,
                             lut_table.data());
               sink += lut_table[r % lut_table.size()];
             }
           }),
           per_subspace);
    for (const QuantKernels* set : {&quant_scalar, &quant}) {
      record("adc_lut_quantize", set->name, kM, kQueries, table_bytes,
             BestOfReps(reps, [&] {
               for (size_t r = 0; r < kQueries; ++r) {
                 lut_table[r % lut_table.size()] += 1e-3f;
                 lut.lut.resize(kM * 16);
                 set->quantize_lut(lut_table.data(), kM, kCodebook,
                                   lut.lut.data(), &lut.bias, &lut.delta);
                 isink += lut.lut[r % lut.lut.size()];
               }
             }),
             0.0);
    }
  }

  // --- SQ8 int8 scans vs the scalar fp32 loop ------------------------------
  // Same logical workload (rows x d distances); the int8 rows move 4x fewer
  // bytes and go through the widening madd kernels.
  {
    const size_t d = 128;
    const size_t rows = std::min<size_t>(200000, budget_floats / d);
    std::mt19937 gen(11);
    std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
    std::vector<float> fbase(rows * d), fquery(d);
    for (auto& v : fbase) v = dist(gen);
    for (auto& v : fquery) v = dist(gen);
    std::vector<uint8_t> qbase(rows * d), qquery(d);
    auto encode = [](float v) {
      return static_cast<uint8_t>((v + 1.0f) * 127.5f);
    };
    for (size_t i = 0; i < fbase.size(); ++i) qbase[i] = encode(fbase[i]);
    for (size_t j = 0; j < d; ++j) qquery[j] = encode(fquery[j]);
    std::vector<float> fout(rows);
    std::vector<uint32_t> qout(rows);
    const double qbytes = static_cast<double>(rows) * d;

    const double fp32_l2 = BestOfReps(reps, [&] {
      for (size_t i = 0; i < rows; ++i) {
        fout[i] = scalar.squared_l2(fquery.data(), fbase.data() + i * d, d);
      }
      sink += fout[rows / 2];
    });
    record("sq8_scan_l2", "fp32", d, rows,
           static_cast<double>(rows) * d * sizeof(float), fp32_l2, 0.0);

    record("sq8_scan_l2", quant.name, d, rows, qbytes, BestOfReps(reps, [&] {
             quant.sq8_scan_l2(qquery.data(), qbase.data(), rows, d,
                               qout.data());
             isink += qout[rows / 2];
           }),
           fp32_l2);

    record("sq8_scan_dot", quant.name, d, rows, qbytes, BestOfReps(reps, [&] {
             quant.sq8_scan_dot(qquery.data(), qbase.data(), rows, d,
                                qout.data());
             isink += qout[rows / 2];
           }),
           fp32_l2);
  }

  std::printf("index comparison (Sq8 vs IVF-Flat at matched recall@10)...\n");
  const IndexQps qps = RunIndexComparison(reps);
  std::printf(
      "sq8: recall=%.3f qps=%.0f | ivf_flat: probes=%zu recall=%.3f "
      "qps=%.0f | qps ratio %.2fx\n",
      qps.sq8_recall, qps.sq8_qps, qps.ivf_probes, qps.ivf_recall, qps.ivf_qps,
      qps.qps_ratio);

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"dispatched\": \"%s\",\n", dispatched.name);
  std::fprintf(f,
               "  \"machine\": {\"dispatched_isa\": \"%s\", "
               "\"quant_isa\": \"%s\", \"cores\": %u},\n",
               dispatched.name, quant.name,
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"impl\": \"%s\", \"dim\": %zu, "
                 "\"rows\": %zu, \"ns_per_row\": %.3f, \"gb_per_sec\": %.3f, "
                 "\"speedup_vs_scalar_1v1\": %.3f}%s\n",
                 r.kernel.c_str(), r.impl.c_str(), r.dim, r.rows, r.ns_per_row,
                 r.gb_per_sec, r.speedup_vs_scalar_1v1,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"index_qps\": {\"sq8_recall\": %.4f, \"sq8_qps\": %.1f, "
               "\"ivf_flat_probes\": %zu, \"ivf_flat_recall\": %.4f, "
               "\"ivf_flat_qps\": %.1f, \"qps_ratio\": %.3f}\n",
               qps.sq8_recall, qps.sq8_qps, qps.ivf_probes, qps.ivf_recall,
               qps.ivf_qps, qps.qps_ratio);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (sink=%g isink=%llu)\n", out_path,
              static_cast<double>(sink),
              static_cast<unsigned long long>(isink));
  return 0;
}

}  // namespace
}  // namespace usp::bench

int main(int argc, char** argv) {
  return usp::bench::Run(argc > 1 ? argv[1] : "BENCH_kernels.json");
}
