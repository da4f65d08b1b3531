#include "serve/fan_out.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "util/thread_pool.h"

namespace usp {

std::unique_ptr<Index> BuildSegmentIndex(const SegmentBuilder& builder,
                                         const Matrix& base, Metric metric) {
  std::unique_ptr<Index> index;
  if (builder) {
    index = builder(base, metric);
  } else {
    IvfConfig ivf;
    ivf.metric = metric;
    const size_t n = base.rows();
    ivf.nlist = std::max<size_t>(
        1, std::min(n, static_cast<size_t>(
                           std::lround(std::sqrt(static_cast<double>(n))))));
    index = std::make_unique<IvfFlatIndex>(&base, ivf);
  }
  USP_CHECK(index != nullptr);
  USP_CHECK(index->dim() == base.cols());
  USP_CHECK(index->metric() == metric);
  USP_CHECK(index->size() == base.rows());
  // Nesting another router would break the one-level container embedding.
  USP_CHECK(index->type() != IndexType::kSharded &&
            index->type() != IndexType::kDynamic);
  return index;
}

namespace {

/// Lazy local view of the caller's global selector composed with the
/// tombstone set (when given). Reads the part's id map and the tombstones
/// safely because the caller holds its lock for the whole fan-out.
class LocalSelector final : public IdSelector {
 public:
  LocalSelector(const IdSelector* global,
                const std::vector<uint32_t>& global_ids,
                const std::unordered_set<uint32_t>* tombstones)
      : global_(global), global_ids_(global_ids), tombstones_(tombstones) {}

  bool is_member(uint32_t local) const override {
    const uint32_t gid = global_ids_[local];
    return global_->is_member(gid) &&
           (tombstones_ == nullptr || tombstones_->count(gid) == 0);
  }

 private:
  const IdSelector* global_;
  const std::vector<uint32_t>& global_ids_;
  const std::unordered_set<uint32_t>* tombstones_;
};

/// Splits `total` threads over parts of `rows` rows: one per part, and the
/// rest in proportion to rows, the threads left after rounding down going
/// to the largest remainders (the first part on a tie). With `total` a
/// multiple of the part count, equal parts get total / live each.
void SplitThreadsByRows(const std::vector<size_t>& rows, size_t total,
                        std::vector<size_t>* threads) {
  const size_t live = rows.size();
  if (total <= live) return;  // one thread per part
  const size_t spare = total - live;
  size_t sum = 0;
  for (size_t r : rows) sum += r;
  std::vector<std::pair<size_t, size_t>> remainders;  // (remainder, part)
  size_t given = 0;
  for (size_t i = 0; i < live; ++i) {
    const size_t share = spare * rows[i];  // threads scaled by `sum`
    (*threads)[i] += share / sum;
    given += share / sum;
    remainders.emplace_back(share % sum, i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (size_t i = 0; given < spare; ++i, ++given) {
    ++(*threads)[remainders[i].second];
  }
}

/// The parts that hold rows, in order, and each one's sub-result.
template <typename Result>
struct Scattered {
  std::vector<const FanOutPart*> parts;
  std::vector<Result> hits;
};

/// Runs `search(part, rows, num_threads)` for every part that holds rows,
/// under the thread rule of the file comment.
template <typename Result, typename Search>
Scattered<Result> Scatter(const std::vector<FanOutPart>& parts,
                          size_t num_threads, const Search& search) {
  Scattered<Result> out;
  std::vector<size_t> rows;
  for (const FanOutPart& part : parts) {
    const size_t n = part.index != nullptr ? part.index->size()
                                           : part.flat->base().rows();
    if (n == 0) continue;
    out.parts.push_back(&part);
    rows.push_back(n);
  }
  const size_t live = out.parts.size();
  out.hits.resize(live);
  std::vector<size_t> threads(live, 1);
  if (num_threads != 1 && live > 0) {
    const size_t total =
        num_threads == 0 ? ThreadPool::Global().num_threads() : num_threads;
    SplitThreadsByRows(rows, total, &threads);
  }
  auto run = [&](size_t i) {
    out.hits[i] = search(*out.parts[i], rows[i], threads[i]);
  };
  if (num_threads != 1 && live > 1) {
    ParallelInvoke(live, run);
  } else {
    for (size_t i = 0; i < live; ++i) run(i);
  }
  return out;
}

/// Query q's counters summed over the parts.
template <typename Result>
QueryCounters SumCounters(const std::vector<Result>& hits, size_t q) {
  QueryCounters sum;
  for (const Result& r : hits) {
    sum.scored += r.candidate_counts[q];
    if (!r.stats) continue;
    sum.bins_probed += r.stats->bins_probed[q];
    sum.filtered_out += r.stats->filtered_out[q];
    sum.nodes_visited += r.stats->nodes_visited[q];
  }
  return sum;
}

/// True when the merge must drop `gid`. Filtered hits were screened by the
/// local selector, so only the unfiltered path looks the tombstones up.
bool DroppedAtMerge(const IdSelector* filter,
                    const std::unordered_set<uint32_t>* tombstones,
                    uint32_t gid) {
  return filter == nullptr && tombstones != nullptr &&
         tombstones->count(gid) > 0;
}

/// The k of a part's k-NN sub-request: at most the part's rows, plus the
/// over-fetch `extra`. A radius row holds every in-range hit, so a radius
/// sub-request needs no over-fetch.
void FitToPart(size_t rows, size_t extra, SearchRequest* sub) {
  sub->options.k = std::min(rows, sub->options.k + extra);
}
void FitToPart(size_t, size_t, RadiusRequest*) {}

BatchSearchResult SearchPart(const Index& index, const SearchRequest& sub) {
  return index.SearchBatch(sub);
}
RadiusResult SearchPart(const Index& index, const RadiusRequest& sub) {
  return index.RadiusSearchBatch(sub);
}

/// Query q's row of a part's result: `size` (distance, local id) pairs, a
/// k-NN row ending at its first kInvalidId padding slot.
struct PartRow {
  const uint32_t* ids;
  const float* distances;
  size_t size;
};
PartRow RowOf(const BatchSearchResult& r, size_t q) {
  return {r.Row(q), r.DistanceRow(q), r.k};
}
PartRow RowOf(const RadiusResult& r, size_t q) {
  return {r.RowIds(q), r.RowDistances(q), r.RowSize(q)};
}

/// The composite search of either query shape (see the file comment).
template <typename Collector>
typename Collector::Result FanOut(
    const std::vector<FanOutPart>& parts,
    const std::unordered_set<uint32_t>* tombstones,
    const typename Collector::Request& request) {
  using Result = typename Collector::Result;
  const IdSelector* filter = request.options.filter;
  const size_t nq = request.queries.rows();
  Collector out(request);
  if (nq == 0) return out.Take();

  const Scattered<Result> scattered = Scatter<Result>(
      parts, request.options.num_threads,
      [&](const FanOutPart& part, size_t rows, size_t num_threads) {
        // The local view is only consulted during this synchronous call.
        const LocalSelector local(filter, *part.global_ids, tombstones);
        typename Collector::Request sub = request;
        sub.options.num_threads = num_threads;
        if (filter != nullptr) sub.options.filter = &local;
        // Unfiltered parts over-fetch by their own tombstones, so dropping
        // them at the merge never surfaces fewer than k live neighbors while
        // deeper live ones exist in the part.
        FitToPart(rows, filter != nullptr ? 0 : part.tombstoned, &sub);
        return part.index != nullptr
                   ? SearchPart(*part.index, sub)
                   : FlatScan(*part.flat, sub, /*bins_probed=*/0);
      });

  ParallelFor(nq, 8, request.options.num_threads,
              [&](size_t begin, size_t end, size_t) {
    for (size_t q = begin; q < end; ++q) {
      size_t offered = 0;
      for (const Result& hits : scattered.hits) offered += RowOf(hits, q).size;
      auto keep = out.Keep(offered);
      // Tombstoned hits dropped here count as filtered out.
      QueryCounters counters = SumCounters(scattered.hits, q);
      for (size_t i = 0; i < scattered.parts.size(); ++i) {
        const PartRow row = RowOf(scattered.hits[i], q);
        const std::vector<uint32_t>& to_global =
            *scattered.parts[i]->global_ids;
        for (size_t j = 0; j < row.size && row.ids[j] != kInvalidId; ++j) {
          const uint32_t gid = to_global[row.ids[j]];
          if (DroppedAtMerge(filter, tombstones, gid)) {
            ++counters.filtered_out;
            continue;
          }
          keep.Push(row.distances[j], gid);
        }
      }
      out.Set(q, keep.TakeSorted(), counters);
    }
  });
  return out.Take();
}

}  // namespace

BatchSearchResult FanOutSearch(const std::vector<FanOutPart>& parts,
                               const std::unordered_set<uint32_t>* tombstones,
                               const SearchRequest& request) {
  // k = 0 asks for no neighbor: no part is searched.
  if (request.options.k == 0) return TopKCollector(request).Take();
  return FanOut<TopKCollector>(parts, tombstones, request);
}

RadiusResult FanOutSearch(const std::vector<FanOutPart>& parts,
                          const std::unordered_set<uint32_t>* tombstones,
                          const RadiusRequest& request) {
  return FanOut<RadiusCollector>(parts, tombstones, request);
}

}  // namespace usp
