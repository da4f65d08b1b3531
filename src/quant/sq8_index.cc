#include "quant/sq8_index.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dist/quant_kernels.h"
#include "index/query_planner.h"
#include "knn/brute_force.h"
#include "knn/top_k.h"
#include "tensor/ops.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace usp {

namespace {
// Rows scored per kernel call: bounds the per-thread u32 score buffer while
// keeping calls long enough to amortize dispatch.
constexpr size_t kScanChunk = 4096;
}  // namespace

void Sq8RangeFit::Add(MatrixView rows) {
  const size_t d = rows.cols();
  size_t first = 0;
  if (mins.empty() && rows.rows() > 0) {
    mins.assign(rows.Row(0), rows.Row(0) + d);
    maxs = mins;
    first = 1;
  }
  for (size_t i = first; i < rows.rows(); ++i) {
    const float* row = rows.Row(i);
    for (size_t j = 0; j < d; ++j) {
      mins[j] = std::min(mins[j], row[j]);
      maxs[j] = std::max(maxs[j], row[j]);
    }
  }
}

std::vector<float> Sq8RangeFit::Scales() const {
  std::vector<float> scales(mins.size());
  for (size_t j = 0; j < mins.size(); ++j) {
    scales[j] = (maxs[j] - mins[j]) / 255.0f;
  }
  return scales;
}

void EncodeSq8(const float* x, const float* mins, const float* scales,
               size_t dim, uint8_t* out) {
  for (size_t j = 0; j < dim; ++j) {
    if (scales[j] <= 0.0f) {
      out[j] = 0;
      continue;
    }
    const long code = std::lround((x[j] - mins[j]) / scales[j]);
    out[j] = static_cast<uint8_t>(std::min<long>(std::max<long>(code, 0), 255));
  }
}

Sq8Index::Sq8Index(const Matrix* base, Sq8IndexConfig config)
    : base_(*base), config_(config), dist_(MatrixView(*base), config.metric) {
  const size_t n = base_.rows(), d = base_.cols();
  USP_CHECK(n > 0);
  // Under kCosine the codes quantize the unit sphere; queries are normalized
  // before encoding.
  Matrix normalized;
  MatrixView rows = base_;
  if (config_.metric == Metric::kCosine) {
    normalized = base->Clone();
    NormalizeRows(&normalized);
    rows = MatrixView(normalized);
  }
  Sq8RangeFit fit;
  fit.Add(rows);
  scales_ = fit.Scales();
  mins_ = std::move(fit.mins);
  owned_codes_.resize(n * d);
  ParallelFor(n, 256, [&](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) {
      EncodeVector(rows.Row(i), owned_codes_.data() + i * d);
    }
  });
  codes_ = owned_codes_.data();
}

Sq8Index::Sq8Index(MatrixView base, Sq8IndexConfig config,
                   std::vector<float> mins, std::vector<float> scales,
                   const uint8_t* codes)
    : base_(base),
      config_(config),
      dist_(base, config.metric),
      mins_(std::move(mins)),
      scales_(std::move(scales)),
      codes_(codes) {
  USP_CHECK(codes_ != nullptr);
  USP_CHECK(mins_.size() == base_.cols());
  USP_CHECK(scales_.size() == base_.cols());
}

void Sq8Index::DecodeVector(const uint8_t* code, float* out) const {
  const size_t d = base_.cols();
  for (size_t j = 0; j < d; ++j) {
    out[j] = mins_[j] + scales_[j] * static_cast<float>(code[j]);
  }
}

BatchSearchResult Sq8Index::SearchBatch(const SearchRequest& request) const {
  // Planner hook: a sparse selector is cheaper by exact brute force over the
  // allowed rows than by a full quantized scan plus rerank.
  if (auto planned = MaybeReroute(*this, request)) return std::move(*planned);
  const SearchOptions& options = request.options;
  const size_t n = base_.rows(), d = base_.cols();
  const QuantKernels& kq = GetQuantKernels();
  const bool use_l2 = config_.metric == Metric::kSquaredL2;
  // Selector pushdown, once per request: the allowed rows in id order.
  // Disallowed rows cost no kernel work.
  std::vector<uint32_t> allowed;
  if (options.filter != nullptr) {
    allowed.resize(n);
    std::iota(allowed.begin(), allowed.end(), 0u);
    KeepMembers(*options.filter, &allowed);
  }
  const size_t rows = options.filter == nullptr ? n : allowed.size();
  QueryCounters counters;
  counters.scored = static_cast<uint32_t>(rows);
  counters.filtered_out = static_cast<uint32_t>(n - rows);

  // One worker's scan, over its own query code and score buffers.
  const auto make_scorer = [&]() -> ShortlistScorer {
    return [&, qcode = std::vector<uint8_t>(d),
            proxy_scores = std::vector<uint32_t>(kScanChunk),
            proxies = std::vector<float>(kScanChunk),
            chunk_ids = std::vector<uint32_t>(kScanChunk)](
               size_t, const float* prepared, Shortlist* shortlist) mutable {
      EncodeVector(prepared, qcode.data());
      // The scan runs in chunks of kScanChunk rows (all rows, or the allowed
      // ones), each pushed to the shortlist as one block of proxies: the
      // code-space L2, or the negated code dot product.
      for (size_t first = 0; first < rows; first += kScanChunk) {
        const size_t count = std::min(kScanChunk, rows - first);
        const uint32_t* ids;
        if (options.filter == nullptr) {
          if (use_l2) {
            kq.sq8_scan_l2(qcode.data(), codes_ + first * d, count, d,
                           proxy_scores.data());
          } else {
            kq.sq8_scan_dot(qcode.data(), codes_ + first * d, count, d,
                            proxy_scores.data());
          }
          std::iota(chunk_ids.begin(), chunk_ids.begin() + count,
                    static_cast<uint32_t>(first));
          ids = chunk_ids.data();
        } else {
          ids = allowed.data() + first;
          for (size_t r = 0; r < count; ++r) {
            const uint8_t* row = codes_ + size_t{ids[r]} * d;
            proxy_scores[r] = use_l2 ? kq.sq8_l2(qcode.data(), row, d)
                                     : kq.sq8_dot(qcode.data(), row, d);
          }
        }
        for (size_t r = 0; r < count; ++r) {
          const float proxy = static_cast<float>(proxy_scores[r]);
          proxies[r] = use_l2 ? proxy : -proxy;
        }
        shortlist->Push(proxies.data(), ids, count);
      }
      return counters;
    };
  };
  return ShortlistKnn(dist_, request, config_.rerank_budget, make_scorer);
}

RadiusResult Sq8Index::RadiusSearchBatch(const RadiusRequest& request) const {
  return FlatScan(dist_, request, /*bins_probed=*/0);
}

}  // namespace usp
