// Table 3: offline training time of the USP method per configuration (the
// paper reports MNIST/16: 2min, MNIST/256: 12min, SIFT/16: 6min, SIFT/256:
// 40min for 3-model ensembles on a K80 GPU; our absolute numbers are CPU
// wall-clock at reduced n — the row ORDERING and the eta values are the
// comparable content). Also reports the Neural LSH preprocessing split for
// the Sec. 5.3 comparison ("significantly lower than the several hours of
// preprocessing needed for Neural LSH").
//
// Output: the table plus machine-readable BENCH_training.json (or the path
// given as the first argument): the scale, each configuration's training
// seconds, and the Neural LSH split.
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "core/ensemble.h"
#include "core/hierarchical.h"
#include "graphpart/neural_lsh.h"
#include "util/timer.h"

namespace usp::bench {
namespace {

double TrainFlatEnsemble(const Workload& w, size_t bins, float eta,
                         size_t epochs) {
  UspEnsembleConfig config;
  config.model.num_bins = bins;
  config.model.eta = eta;
  config.model.epochs = epochs;
  config.model.batch_size = 512;
  config.model.seed = 31;
  config.num_models = 3;  // Table 3 times cover the 3-model ensemble
  UspEnsemble ensemble(config);
  WallTimer timer;
  ensemble.Train(w.base, w.knn_matrix);
  return timer.ElapsedSeconds();
}

double TrainHierarchical(const Workload& w, float eta, size_t epochs) {
  HierarchicalConfig config;
  config.fanouts = {16, 16};
  config.model.eta = eta;
  config.model.epochs = epochs;
  config.model.batch_size = 512;
  config.model.seed = 31;
  HierarchicalUspPartitioner tree(config);
  WallTimer timer;
  tree.Train(w.base, w.knn_matrix);
  return timer.ElapsedSeconds();
}

struct TrainingRow {
  const char* dataset;
  const Workload* workload;
  size_t bins;
  const char* model;
  float eta;
  const char* paper;
  double seconds;
};

int Run(const char* out_path) {
  const BenchScale scale = GetScale();
  const Workload& sift = SiftLikeWorkload();
  const Workload& mnist = MnistLikeWorkload();

  std::printf(
      "=== Table 3: USP offline training times (3-model ensembles / 16x16 "
      "tree) ===\n");
  std::printf("  %-12s %-9s %-14s %-8s %s\n", "dataset", "bins",
              "training time", "eta", "paper (K80 GPU, full-size data)");

  // 16 bins: a flat 3-model ensemble; 256 bins: a 16x16 tree.
  std::vector<TrainingRow> rows = {
      {"mnist-like", &mnist, 16, "ensemble3", 7.0f, "2 min", 0.0},
      {"mnist-like", &mnist, 256, "tree16x16", 30.0f, "12 min", 0.0},
      {"sift-like", &sift, 16, "ensemble3", 7.0f, "6 min", 0.0},
      {"sift-like", &sift, 256, "tree16x16", 10.0f, "40 min", 0.0},
  };
  for (TrainingRow& row : rows) {
    row.seconds =
        row.bins == 16
            ? TrainFlatEnsemble(*row.workload, row.bins, row.eta, scale.epochs)
            : TrainHierarchical(*row.workload, row.eta, scale.epochs);
    std::printf("  %-12s %-9zu %10.1fs   %-8.0f %s\n", row.dataset, row.bins,
                row.seconds, row.eta, row.paper);
  }

  // Sec. 5.3 comparison: Neural LSH's label-generation preprocessing.
  NeuralLshConfig nlsh_config;
  nlsh_config.num_bins = 256;
  nlsh_config.hidden_dim = 512;
  nlsh_config.epochs = scale.epochs;
  nlsh_config.seed = 5;
  NeuralLsh nlsh(nlsh_config);
  nlsh.Train(sift.base, sift.knn_matrix);
  std::printf(
      "\n  Neural LSH (sift-like, 256 bins): graph partition %.1fs + "
      "classifier %.1fs\n",
      nlsh.partition_seconds(), nlsh.train_seconds());
  std::printf(
      "  (paper: graph-partition preprocessing takes hours on 1M points; our "
      "USP needs none)\n");

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"scale\": {\"sift_n\": %zu, \"mnist_n\": %zu, "
               "\"epochs\": %zu, \"batch_size\": 512},\n",
               scale.sift_n, scale.mnist_n, scale.epochs);
  std::fprintf(f, "  \"training\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const TrainingRow& row = rows[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"bins\": %zu, \"model\": "
                 "\"%s\", \"eta\": %.1f, \"train_seconds\": %.4f}%s\n",
                 row.dataset, row.bins, row.model, row.eta, row.seconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"neural_lsh\": {\"dataset\": \"sift-like\", \"bins\": 256, "
               "\"partition_seconds\": %.4f, \"classifier_seconds\": %.4f}\n",
               nlsh.partition_seconds(), nlsh.train_seconds());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);
  return 0;
}

}  // namespace
}  // namespace usp::bench

int main(int argc, char** argv) {
  return usp::bench::Run(argc > 1 ? argv[1] : "BENCH_training.json");
}
