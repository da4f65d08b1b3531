#include "quant/scann_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "dist/quant_kernels.h"
#include "index/query_planner.h"
#include "knn/brute_force.h"
#include "knn/top_k.h"
#include "quant/fastscan.h"
#include "tensor/ops.h"

namespace usp {

ScannIndex::ScannIndex(const Matrix* base, const BinScorer* partitioner,
                       ProductQuantizer quantizer, ScannIndexConfig config,
                       Metric metric,
                       const std::vector<uint32_t>* assignments)
    : base_(*base), quantizer_(std::move(quantizer)), config_(config) {
  if (partitioner == nullptr) {
    flat_dist_.emplace(base_, metric);
  } else if (assignments != nullptr) {
    partition_ = std::make_unique<PartitionIndex>(base, partitioner,
                                                  *assignments, metric);
  } else {
    partition_ = std::make_unique<PartitionIndex>(base, partitioner, metric);
  }
  if (metric == Metric::kCosine) {
    // Codes approximate the unit sphere: ADC dot tables against a normalized
    // query then rank by approximate cosine similarity.
    Matrix normalized = base->Clone();
    NormalizeRows(&normalized);
    owned_codes_ = quantizer_.Encode(normalized);
  } else {
    owned_codes_ = quantizer_.Encode(*base);
  }
  codes_ = owned_codes_.data();
  SetUpFastScan(nullptr);
}

ScannIndex::ScannIndex(MatrixView base, const BinScorer* partitioner,
                       ProductQuantizer quantizer, ScannIndexConfig config,
                       const uint8_t* codes,
                       const std::vector<uint32_t>& assignments, Metric metric,
                       const uint8_t* packed)
    : base_(base),
      quantizer_(std::move(quantizer)),
      config_(config),
      codes_(codes) {
  USP_CHECK(codes_ != nullptr);
  if (partitioner == nullptr) {
    flat_dist_.emplace(base_, metric);
  } else {
    partition_ = std::make_unique<PartitionIndex>(base_, partitioner,
                                                  assignments, metric);
  }
  SetUpFastScan(packed);
}

void ScannIndex::SetUpFastScan(const uint8_t* packed) {
  if (quantizer_.codebook_size() > 16) return;
  const size_t m = quantizer_.num_subspaces();
  // Per-bucket block offsets: each bucket's members pack contiguously so a
  // probe scans whole blocks (one implicit all-rows bucket without a
  // partition).
  bucket_block_offsets_.clear();
  if (partition_ == nullptr) {
    bucket_block_offsets_ = {
        0, (base_.rows() + kPq4BlockSize - 1) / kPq4BlockSize};
  } else {
    bucket_block_offsets_.reserve(partition_->num_bins() + 1);
    size_t off = 0;
    for (const auto& bucket : partition_->buckets()) {
      bucket_block_offsets_.push_back(off);
      off += (bucket.size() + kPq4BlockSize - 1) / kPq4BlockSize;
    }
    bucket_block_offsets_.push_back(off);
  }
  if (packed != nullptr) {
    packed_ = packed;  // external (mmap'd) blocks; loader validated the size
    return;
  }
  owned_packed_.assign(bucket_block_offsets_.back() * 16 * m, 0);
  if (partition_ == nullptr) {
    PackedCodes pc = PackCodes4(codes_, base_.rows(), m);
    owned_packed_ = std::move(pc.data);
  } else {
    const auto& buckets = partition_->buckets();
    for (size_t b = 0; b < buckets.size(); ++b) {
      if (buckets[b].empty()) continue;
      PackedCodes pc = PackCodes4(codes_, buckets[b], m);
      std::memcpy(owned_packed_.data() + bucket_block_offsets_[b] * 16 * m,
                  pc.data.data(), pc.data.size());
    }
  }
  packed_ = owned_packed_.data();
}

size_t ScannIndex::PackedBytes() const {
  if (packed_ == nullptr) return 0;
  return bucket_block_offsets_.back() * 16 * quantizer_.num_subspaces();
}

void ScannIndex::BuildMetricTable(const float* prepared_query,
                                  std::vector<float>* table) const {
  // IP/cosine minimize the negated dot-product sum; the exact rerank restores
  // the metric's true distances on the shortlist.
  table->resize(quantizer_.num_subspaces() * quantizer_.codebook_size());
  quantizer_.BuildTable(prepared_query,
                        metric() == Metric::kSquaredL2
                            ? AdcTableKind::kSquaredL2
                            : AdcTableKind::kNegatedDot,
                        table->data());
}

BatchSearchResult ScannIndex::SearchBatch(const SearchRequest& request) const {
  // Planner hook: filtered requests may reroute away from the ADC pipeline
  // entirely (index/query_planner.h) — e.g. a sparse selector is cheaper to
  // satisfy by exact brute force over the allowed rows than by probing.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  const SearchOptions& options = request.options;
  const size_t m_sub = quantizer_.num_subspaces();
  Matrix scores;
  if (partition_ != nullptr) scores = partition_->ScoreQueries(request.queries);

  // Fast-scan engages for unfiltered requests when the packed blocks exist;
  // filtered requests prune candidates below block granularity and keep the
  // float per-code path (and its filtered bit-identity contracts).
  const bool fast_scan = packed_ != nullptr && options.filter == nullptr;
  const QuantKernels& kq = GetQuantKernels();

  // One worker's ADC stage. Its tables and buffers are that worker's
  // scratch, so no query allocates here.
  const auto make_scorer = [&]() -> ShortlistScorer {
    return [&, order = std::vector<uint32_t>(),
            candidates = std::vector<uint32_t>(),
            sums = std::vector<uint16_t>(), adc = std::vector<float>(),
            table = std::vector<float>(), qlut = QuantizedLut()](
               size_t q, const float* prepared, Shortlist* shortlist) mutable {
      QueryCounters counters;
      // Probed-bucket order, which the partition's radius search shares.
      if (partition_ != nullptr) {
        counters.bins_probed = static_cast<uint32_t>(
            std::min(options.budget, partition_->num_bins()));
        RankBins(scores.Row(q), partition_->num_bins(), counters.bins_probed,
                 &order);
      }
      BuildMetricTable(prepared, &table);
      if (fast_scan) {
        // Quantize the per-query float table once, then score whole packed
        // buckets through the pq4 shuffle kernel; each bucket's sums go to
        // the shortlist as one block, selected on the sums themselves.
        QuantizeAdcTable(table.data(), m_sub, quantizer_.codebook_size(),
                         &qlut);
        const auto score = [&qlut](uint16_t sum) { return qlut.Score(sum); };
        const auto scan_group = [&](size_t first_block, const uint32_t* ids,
                                    size_t count) {
          const size_t blocks = (count + kPq4BlockSize - 1) / kPq4BlockSize;
          sums.resize(blocks * kPq4BlockSize);
          kq.pq4_scan(packed_ + first_block * m_sub * 16, qlut.lut.data(),
                      m_sub, blocks, sums.data());
          shortlist->Push(sums.data(), score, ids, count);
          counters.scored += static_cast<uint32_t>(count);
        };
        if (partition_ == nullptr) {
          scan_group(0, nullptr, base_.rows());
        } else {
          for (size_t p = 0; p < counters.bins_probed; ++p) {
            const auto& bucket = partition_->buckets()[order[p]];
            if (bucket.empty()) continue;
            scan_group(bucket_block_offsets_[order[p]], bucket.data(),
                       bucket.size());
          }
        }
        return counters;
      }
      // Float path: candidate generation, selector pushdown, per-code walk.
      candidates.clear();
      if (partition_ == nullptr) {
        candidates.resize(base_.rows());
        std::iota(candidates.begin(), candidates.end(), 0u);
      } else {
        for (size_t p = 0; p < counters.bins_probed; ++p) {
          const auto& bucket = partition_->buckets()[order[p]];
          candidates.insert(candidates.end(), bucket.begin(), bucket.end());
        }
      }
      // Selector pushdown ahead of the ADC stage: disallowed rows cost no
      // table lookups and cannot crowd allowed rows out of the shortlist.
      if (options.filter != nullptr) {
        counters.filtered_out = static_cast<uint32_t>(
            KeepMembers(*options.filter, &candidates));
      }
      counters.scored = static_cast<uint32_t>(candidates.size());
      adc.resize(candidates.size());
      quantizer_.AdcDistances(table, codes_, candidates.data(),
                              candidates.size(), adc.data());
      shortlist->Push(adc.data(), candidates.data(), candidates.size());
      return counters;
    };
  };
  return ShortlistKnn(dist(), request, config_.rerank_budget, make_scorer);
}

RadiusResult ScannIndex::RadiusSearchBatch(const RadiusRequest& request) const {
  if (partition_ != nullptr) return partition_->RadiusSearchBatch(request);
  // Without a partition the candidates are the whole base.
  return FlatScan(dist(), request, /*bins_probed=*/0);
}

}  // namespace usp
