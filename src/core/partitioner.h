// The USP model trainer: Algorithm 1 of the paper. Couples partitioning and
// learning-to-search in one unsupervised training loop driven by the loss in
// core/loss.h.
#ifndef USP_CORE_PARTITIONER_H_
#define USP_CORE_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/bin_scorer.h"
#include "core/loss.h"
#include "knn/brute_force.h"
#include "nn/sequential.h"
#include "tensor/matrix.h"
#include "util/io.h"

namespace usp {

/// Which model architecture learns the partition (Sec. 5.2).
enum class UspModelKind {
  kMlp,                 ///< Linear -> BatchNorm -> ReLU -> Dropout -> Linear
  kLogisticRegression,  ///< single Linear (hyperplane partitions)
};

/// Training hyperparameters. Defaults follow the paper where it states them
/// (k' = 10, hidden 128, dropout 0.1, Adam, ~100 epochs for the MLP).
struct UspTrainConfig {
  size_t num_bins = 16;              ///< m
  float eta = 7.0f;                  ///< loss balance parameter
  UspModelKind model = UspModelKind::kMlp;
  size_t hidden_dim = 128;
  float dropout = 0.1f;
  bool use_batchnorm = true;
  size_t epochs = 40;
  size_t batch_size = 512;           ///< ~4% of a 12.8k dataset (Sec. 4.2.2)
  float learning_rate = 1e-3f;
  bool soft_targets = false;         ///< ablation: expected vs argmax targets
  uint64_t seed = 1;
};

/// Per-epoch training telemetry.
struct EpochStats {
  LossParts loss;        ///< mean over batches
  double balance_ratio;  ///< largest bin / ideal size after the epoch
};

/// An USP partition model: trains unsupervised on a dataset + its k'-NN
/// matrix, then scores bins for arbitrary points (BinScorer).
class UspPartitioner : public BinScorer {
 public:
  explicit UspPartitioner(UspTrainConfig config);

  /// Runs Algorithm 1 steps 2-3: trains the model on `data` using its k'-NN
  /// matrix. `point_weights` are the ensembling weights of Eq. 14 (nullptr =
  /// uniform). Neighbor-bin targets are refreshed from the current model once
  /// per epoch (a stabilized version of the paper's per-batch recomputation;
  /// identical in the limit and far cheaper, see DESIGN.md).
  void Train(const Matrix& data, const KnnResult& knn_matrix,
             const std::vector<float>* point_weights = nullptr);

  // BinScorer: scores are softmax probabilities over bins.
  size_t num_bins() const override { return config_.num_bins; }
  Matrix ScoreBins(MatrixView points) const override;

  /// Learnable parameter count (Table 2).
  size_t ParameterCount() const { return model_.ParameterCount(); }

  const std::vector<EpochStats>& epoch_stats() const { return epoch_stats_; }
  const UspTrainConfig& config() const { return config_; }
  /// Width of the rows the model scores (0 until trained or loaded).
  size_t input_dim() const { return input_dim_; }

  /// Persists the trained model (config + every state tensor, including
  /// batch-norm running statistics) so the offline phase can run once and the
  /// online phase can load the partition anywhere. Binary, versioned.
  Status Save(const std::string& path) const;

  /// Restores a partitioner saved with Save(). The returned object scores and
  /// assigns bins identically to the original.
  static StatusOr<UspPartitioner> Load(const std::string& path);

  /// Same record format over an arbitrary byte stream, so the model can live
  /// in a standalone file or embedded as an index-container section
  /// (index/serialize.h). `context` names the destination in error messages.
  Status SaveTo(Writer* writer, const std::string& context) const;
  static StatusOr<UspPartitioner> LoadFrom(Reader* reader,
                                           const std::string& context);

 private:
  /// Instantiates the configured architecture for `input_dim` features.
  void BuildModel(size_t input_dim);

  UspTrainConfig config_;
  size_t input_dim_ = 0;
  mutable Sequential model_;  // Forward(eval) mutates layer caches only
  std::vector<EpochStats> epoch_stats_;
  bool trained_ = false;
};

}  // namespace usp

#endif  // USP_CORE_PARTITIONER_H_
