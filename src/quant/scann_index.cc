#include "quant/scann_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "dist/quant_kernels.h"
#include "index/query_planner.h"
#include "knn/brute_force.h"
#include "knn/top_k.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace usp {

ScannIndex::ScannIndex(const Matrix* base, const BinScorer* partitioner,
                       ProductQuantizer quantizer, ScannIndexConfig config,
                       Metric metric,
                       const std::vector<uint32_t>* assignments)
    : base_(*base),
      partitioner_(partitioner),
      metric_(metric),
      dist_(MatrixView(*base), metric),
      quantizer_(std::move(quantizer)),
      config_(config) {
  if (metric_ == Metric::kCosine) {
    // Codes approximate the unit sphere: ADC dot tables against a normalized
    // query then rank by approximate cosine similarity.
    Matrix normalized = base->Clone();
    NormalizeRows(&normalized);
    owned_codes_ = quantizer_.Encode(normalized);
  } else {
    owned_codes_ = quantizer_.Encode(*base);
  }
  codes_ = owned_codes_.data();
  if (partitioner_ != nullptr) {
    if (assignments != nullptr) {
      BuildBuckets(*assignments);
    } else {
      BuildBuckets(partitioner_->AssignBins(*base));
    }
  }
  SetUpFastScan(nullptr);
}

ScannIndex::ScannIndex(MatrixView base, const BinScorer* partitioner,
                       ProductQuantizer quantizer, ScannIndexConfig config,
                       const uint8_t* codes,
                       const std::vector<uint32_t>& assignments, Metric metric,
                       const uint8_t* packed)
    : base_(base),
      partitioner_(partitioner),
      metric_(metric),
      dist_(base, metric),
      quantizer_(std::move(quantizer)),
      config_(config),
      codes_(codes) {
  USP_CHECK(codes_ != nullptr);
  if (partitioner_ != nullptr) {
    USP_CHECK(assignments.size() == base_.rows());
    BuildBuckets(assignments);
  }
  SetUpFastScan(packed);
}

void ScannIndex::BuildBuckets(const std::vector<uint32_t>& assignments) {
  buckets_.resize(partitioner_->num_bins());
  for (size_t i = 0; i < assignments.size(); ++i) {
    USP_CHECK(assignments[i] < buckets_.size());
    buckets_[assignments[i]].push_back(static_cast<uint32_t>(i));
  }
}

void ScannIndex::SetUpFastScan(const uint8_t* packed) {
  if (config_.adc == AdcMode::kFastScan) {
    USP_CHECK(quantizer_.codebook_size() <= 16);
  }
  if (config_.adc == AdcMode::kFloat || quantizer_.codebook_size() > 16) {
    return;
  }
  const size_t m = quantizer_.num_subspaces();
  // Per-bucket block offsets: each bucket's members pack contiguously so a
  // probe scans whole blocks (one implicit all-rows bucket without a
  // partition).
  bucket_block_offsets_.clear();
  if (partitioner_ == nullptr) {
    bucket_block_offsets_ = {
        0, (base_.rows() + kPq4BlockSize - 1) / kPq4BlockSize};
  } else {
    bucket_block_offsets_.reserve(buckets_.size() + 1);
    size_t off = 0;
    for (const auto& bucket : buckets_) {
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
  if (partitioner_ == nullptr) {
    PackedCodes pc = PackCodes4(codes_, base_.rows(), m);
    owned_packed_ = std::move(pc.data);
  } else {
    for (size_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b].empty()) continue;
      PackedCodes pc = PackCodes4(codes_, buckets_[b], m);
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

std::vector<uint32_t> ScannIndex::Assignments() const {
  std::vector<uint32_t> assignments;
  if (buckets_.empty()) return assignments;
  assignments.resize(base_.rows());
  for (size_t b = 0; b < buckets_.size(); ++b) {
    for (uint32_t id : buckets_[b]) {
      assignments[id] = static_cast<uint32_t>(b);
    }
  }
  return assignments;
}

size_t ScannIndex::EstimateCandidates(size_t budget) const {
  if (buckets_.empty()) return size();
  const size_t probes = std::min(std::max<size_t>(budget, 1), buckets_.size());
  return (size() * probes + buckets_.size() - 1) / buckets_.size();
}

void ScannIndex::BuildMetricTable(const float* prepared_query,
                                  std::vector<float>* table) const {
  // IP/cosine minimize the negated dot-product sum; the exact rerank restores
  // the metric's true distances on the shortlist.
  table->resize(quantizer_.num_subspaces() * quantizer_.codebook_size());
  quantizer_.BuildTable(prepared_query,
                        metric_ == Metric::kSquaredL2
                            ? AdcTableKind::kSquaredL2
                            : AdcTableKind::kNegatedDot,
                        table->data());
}

BatchSearchResult ScannIndex::SearchBatch(const SearchRequest& request) const {
  // Planner hook: filtered requests may reroute away from the ADC pipeline
  // entirely (index/query_planner.h) — e.g. a sparse selector is cheaper to
  // satisfy by exact brute force over the allowed rows than by probing.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  const MatrixView queries = request.queries;
  const SearchOptions& options = request.options;
  const size_t k = options.k;
  const size_t nq = queries.rows();
  const size_t m_sub = quantizer_.num_subspaces();
  BatchSearchResult result;
  result.Prepare(nq, options);

  Matrix scores;
  if (partitioner_ != nullptr) {
    scores = partitioner_->ScoreBins(queries);
  }

  // Fast-scan engages for unfiltered requests when the packed blocks exist;
  // filtered requests prune candidates below block granularity and keep the
  // float per-code path (and its filtered bit-identity contracts).
  const bool fast_scan = packed_ != nullptr && options.filter == nullptr;
  const QuantKernels& kq = GetQuantKernels();

  ParallelFor(nq, 4, options.num_threads, [&](size_t begin, size_t end,
                                              size_t) {
    // Per-worker scratch: no query allocates in the ADC stage.
    std::vector<uint32_t> candidates;
    std::vector<uint32_t> shortlist;
    std::vector<uint32_t> order;
    std::vector<uint16_t> sums;
    std::vector<float> adc;
    std::vector<float> table;
    std::vector<float> query_scratch;
    QuantizedLut qlut;
    Shortlist approx;
    for (size_t q = begin; q < end; ++q) {
      const float* query = queries.Row(q);
      const float* prepared = dist_.PrepareQuery(query, &query_scratch);

      // Probed-bucket order (shared by both ADC modes and radius).
      size_t probes = 0;
      if (partitioner_ != nullptr) {
        probes = std::min(options.budget, buckets_.size());
        RankBins(scores.Row(q), buckets_.size(), probes, &order);
      }

      approx.Reset(std::max(k, config_.rerank_budget));
      size_t scored = 0, dropped = 0;

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
          approx.Push(sums.data(), score, ids, count);
          scored += count;
        };
        if (partitioner_ == nullptr) {
          scan_group(0, nullptr, base_.rows());
        } else {
          for (size_t p = 0; p < probes; ++p) {
            const auto& bucket = buckets_[order[p]];
            if (bucket.empty()) continue;
            scan_group(bucket_block_offsets_[order[p]], bucket.data(),
                       bucket.size());
          }
        }
      } else {
        // Float path: candidate generation, selector pushdown, per-code walk.
        candidates.clear();
        if (partitioner_ == nullptr) {
          candidates.resize(base_.rows());
          std::iota(candidates.begin(), candidates.end(), 0u);
        } else {
          for (size_t p = 0; p < probes; ++p) {
            const auto& bucket = buckets_[order[p]];
            candidates.insert(candidates.end(), bucket.begin(), bucket.end());
          }
        }

        // Selector pushdown ahead of the ADC stage: disallowed rows cost no
        // table lookups and cannot crowd allowed rows out of the shortlist.
        if (options.filter != nullptr) {
          dropped = KeepMembers(*options.filter, &candidates);
        }
        scored = candidates.size();

        adc.resize(candidates.size());
        quantizer_.AdcDistances(table, codes_, candidates.data(),
                                candidates.size(), adc.data());
        approx.Push(adc.data(), candidates.data(), candidates.size());
      }
      QueryCounters counters;
      counters.scored = static_cast<uint32_t>(scored);
      counters.bins_probed = static_cast<uint32_t>(probes);
      counters.filtered_out = static_cast<uint32_t>(dropped);
      SetCounters(q, counters, &result);

      shortlist.clear();
      for (const Neighbor& cand : approx.Take()) shortlist.push_back(cand.id);

      // Exact re-rank of the shortlist through the batched gather-by-id
      // kernels (already filtered in the float stage; fast-scan requests are
      // unfiltered by construction). The shortlist keeps arrival order, so
      // one probed bucket's ids arrive ascending and the rerank skips its
      // sort.
      result.SetRow(q, RerankCandidatesScored(dist_, query, shortlist, k));
    }
  });
  return result;
}

RadiusResult ScannIndex::RadiusSearchBatch(const RadiusRequest& request) const {
  const size_t probes =
      partitioner_ == nullptr
          ? 0
          : std::min(request.options.budget, buckets_.size());
  // Without a partition, or with probes that cover every bin, the candidates
  // are the whole base: a flat scan in id order gives the same rows.
  if (probes == buckets_.size()) {
    return FlatScanRadius(dist_, request, static_cast<uint32_t>(probes));
  }
  const Matrix scores = partitioner_->ScoreBins(request.queries);
  return GatherRadius(dist_, request,
                      [&](size_t q, std::vector<uint32_t>* ids) {
                        std::vector<uint32_t> order;
                        RankBins(scores.Row(q), buckets_.size(), probes,
                                 &order);
                        for (size_t p = 0; p < probes; ++p) {
                          const auto& bucket = buckets_[order[p]];
                          ids->insert(ids->end(), bucket.begin(),
                                      bucket.end());
                        }
                        return static_cast<uint32_t>(probes);
                      });
}

}  // namespace usp
