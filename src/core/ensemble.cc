#include "core/ensemble.h"

#include <algorithm>
#include <memory>

#include "index/query_planner.h"

namespace usp {

UspEnsemble::UspEnsemble(UspEnsembleConfig config)
    : config_(std::move(config)) {
  USP_CHECK(config_.num_models >= 1);
}

UspEnsemble::UspEnsemble(UspEnsembleConfig config, MatrixView base,
                         std::vector<std::unique_ptr<UspPartitioner>> models,
                         std::vector<std::unique_ptr<PartitionIndex>> indexes,
                         std::vector<float> weights)
    : config_(std::move(config)),
      base_(base),
      dist_(DistanceComputer(base, Metric::kSquaredL2)),
      models_(std::move(models)),
      indexes_(std::move(indexes)),
      weights_(std::move(weights)) {
  USP_CHECK(!models_.empty() && models_.size() == indexes_.size());
}

void UspEnsemble::Train(const Matrix& data, const KnnResult& knn_matrix) {
  base_ = MatrixView(data);
  dist_.emplace(base_, Metric::kSquaredL2);
  const size_t n = data.rows();
  const size_t kp = knn_matrix.k;
  models_.clear();
  indexes_.clear();
  weights_.assign(n, 1.0f);  // W_1: equal weights (Alg. 3 input)

  for (size_t j = 0; j < config_.num_models; ++j) {
    UspTrainConfig model_config = config_.model;
    model_config.seed = config_.model.seed + 0x9E37 * (j + 1);
    auto model = std::make_unique<UspPartitioner>(model_config);
    model->Train(data, knn_matrix, &weights_);
    auto index = std::make_unique<PartitionIndex>(&data, model.get());

    if (j + 1 < config_.num_models) {
      // Alg. 3b: raw weight = number of the point's k' neighbors placed in a
      // different bin by this model; multiply into the running weights so only
      // points *every* previous model failed keep high weight.
      const std::vector<uint32_t>& bins = index->assignments();
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        uint32_t misplaced = 0;
        const uint32_t* nbrs = knn_matrix.Row(i);
        for (size_t t = 0; t < kp; ++t) {
          if (bins[nbrs[t]] != bins[i]) ++misplaced;
        }
        weights_[i] *= static_cast<float>(misplaced) + config_.weight_floor;
        sum += weights_[i];
      }
      // Normalize to mean 1 so the quality term keeps the same scale as the
      // balance term across ensemble stages.
      const float scale =
          sum > 0.0 ? static_cast<float>(n / sum) : 1.0f;
      for (auto& w : weights_) w *= scale;
    }

    models_.push_back(std::move(model));
    indexes_.push_back(std::move(index));
  }
}

size_t UspEnsemble::EstimateCandidates(size_t budget) const {
  size_t total = 0;
  for (const auto& index : indexes_) {
    total += index->EstimateCandidates(budget);
    if (total >= size()) return size();
  }
  return total;
}

std::optional<uint32_t> UspEnsemble::FullScanBins(size_t budget) const {
  const size_t bins = indexes_.front()->num_bins();
  for (const auto& index : indexes_) {
    // The chosen model's bin count is known without scoring only when every
    // model has the same count.
    if (index->num_bins() != bins || budget < bins) return std::nullopt;
  }
  const size_t probed = config_.combine == EnsembleCombine::kUnion
                            ? bins * indexes_.size()
                            : bins;
  return static_cast<uint32_t>(probed);
}

CandidateSource UspEnsemble::Candidates(MatrixView queries,
                                        size_t budget) const {
  auto scores = std::make_shared<std::vector<Matrix>>();
  scores->reserve(models_.size());
  for (const auto& model : models_) {
    scores->push_back(model->ScoreBins(queries));
  }
  return [this, scores, budget](size_t q, std::vector<uint32_t>* ids) {
    const size_t e = models_.size();
    if (config_.combine == EnsembleCombine::kUnion) {
      // Overlapping per-model probes may repeat ids; the gather stage
      // dedupes before scoring.
      std::vector<uint32_t> candidates;
      size_t probes = 0;
      for (size_t j = 0; j < e; ++j) {
        indexes_[j]->CollectCandidates((*scores)[j].Row(q), budget,
                                       &candidates);
        probes += std::min(budget, indexes_[j]->num_bins());
        ids->insert(ids->end(), candidates.begin(), candidates.end());
      }
      return static_cast<uint32_t>(probes);
    }
    // Alg. 4 steps 3-4: confidence = the model's top bin probability.
    size_t best_model = 0;
    float best_conf = -1.0f;
    for (size_t j = 0; j < e; ++j) {
      const Matrix& model_scores = (*scores)[j];
      const float* row = model_scores.Row(q);
      const float conf = *std::max_element(row, row + model_scores.cols());
      if (conf > best_conf) {
        best_conf = conf;
        best_model = j;
      }
    }
    indexes_[best_model]->CollectCandidates((*scores)[best_model].Row(q),
                                            budget, ids);
    return static_cast<uint32_t>(
        std::min(budget, indexes_[best_model]->num_bins()));
  };
}

BatchSearchResult UspEnsemble::SearchBatch(const SearchRequest& request) const {
  USP_CHECK(!base_.empty() && !models_.empty());
  // Planner hook: sparse selectors skip the whole score/merge/rerank pipeline
  // in favor of an allowed-set scan (index/query_planner.h).
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  if (const auto bins = FullScanBins(request.options.budget)) {
    return FlatScan(*dist_, request, *bins);
  }
  return Gather(*dist_, request,
                Candidates(request.queries, request.options.budget));
}

RadiusResult UspEnsemble::RadiusSearchBatch(const RadiusRequest& request) const {
  USP_CHECK(!base_.empty() && !models_.empty());
  if (const auto bins = FullScanBins(request.options.budget)) {
    return FlatScan(*dist_, request, *bins);
  }
  return Gather(*dist_, request,
                Candidates(request.queries, request.options.budget));
}

size_t UspEnsemble::ParameterCount() const {
  size_t total = 0;
  for (const auto& model : models_) total += model->ParameterCount();
  return total;
}

}  // namespace usp
