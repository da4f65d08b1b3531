#include "index/query_planner.h"

#include <algorithm>
#include <limits>

#include "core/partition_index.h"
#include "knn/brute_force.h"

namespace usp {
namespace {

/// Relative cost of one selector membership test vs one exact/ADC distance
/// evaluation (the model's unit). A membership test is a few loads and
/// compares while a distance evaluation is dim() FLOPs; 0.05 is deliberately
/// generous to membership so the planner abandons pushdown only on clear
/// wins.
constexpr double kCostMembershipTest = 0.05;

constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// Over-fetch window of the post-filter strategy: the unfiltered k' expected
/// to contain k allowed rows — ceil(k/s) — plus k slack against unlucky
/// ordering, floored at 2k and capped at n. `allowed` may be a lower bound
/// (bounded probe); the true window only shrinks as the real count grows, so
/// the estimate errs toward over-fetching, never toward escalation.
size_t PostFilterWindow(size_t n, size_t k, size_t allowed) {
  if (allowed == 0) return std::min(n, 2 * k);
  const size_t expected_window = (k * n + allowed - 1) / allowed + k;
  return std::min(n, std::max(2 * k, expected_window));
}

}  // namespace

const char* PlanStrategyName(PlanStrategy strategy) {
  switch (strategy) {
    case PlanStrategy::kPushdown:
      return "pushdown";
    case PlanStrategy::kAllowedScan:
      return "allowed_scan";
    case PlanStrategy::kPostFilter:
      return "post_filter";
  }
  return "unknown";
}

PlanDecision PlanFilteredSearch(const Index& index,
                                const SearchOptions& options) {
  USP_CHECK(options.filter != nullptr);
  PlanDecision decision;
  // No base to scan means a router (DynamicIndex, ShardedIndex): its ids are
  // not dense, so it plans nothing and each of its parts plans its own
  // sub-request over its own ids.
  if (index.base_view().data() == nullptr) {
    decision.cost_allowed_scan = kInfiniteCost;
    return decision;
  }
  const size_t n = index.size();
  if (n == 0) return decision;  // every path returns pure padding

  const size_t budget = std::max<size_t>(options.budget, 1);
  const size_t expected =
      std::max<size_t>(std::min(index.EstimateCandidates(budget), n), 1);

  // Selectivity probe, bounded where allowed-scan can no longer win: once
  // the selector admits >= 2E + k ids, an allowed scan costs at least 2E
  // while pushdown costs at most ~1.05E, so the exact count is irrelevant.
  // Counting selectors answer in O(1)/O(log) (id_selector.h count); others
  // pay at most probe_limit-ish membership tests — bounded by the very work
  // the probe arbitrates.
  const size_t probe_limit = std::min(n, 2 * expected + options.k + 1);
  size_t allowed = options.filter->count(n);
  if (allowed != kUnknownCount) {
    decision.allowed_exact = true;
  } else {
    allowed = CountUpTo(*options.filter, n, probe_limit);
    decision.allowed_exact = allowed < probe_limit;
  }
  decision.allowed_count = allowed;
  decision.selectivity =
      static_cast<double>(allowed) / static_cast<double>(n);

  const double s = decision.selectivity;
  const double e = static_cast<double>(expected);
  if (index.type() == IndexType::kHnsw) {
    // HNSW scores every node it visits, and its visit-but-don't-return
    // filtering falls off a cliff when the selector admits fewer nodes than
    // the beam: the ef-bound never engages and traversal degrades to the
    // whole connected component — O(n) per query (hnsw.h SearchBatch).
    const size_t beam = std::max(options.k, options.budget);
    decision.cost_pushdown = allowed < beam ? static_cast<double>(n) : e;
  } else {
    // Test every generated candidate, score the allowed fraction.
    decision.cost_pushdown = e * (kCostMembershipTest + s);
  }
  decision.cost_allowed_scan = static_cast<double>(allowed);
  // Post-filter guarantees per-row escalation when the window cannot hold k
  // allowed rows, so it is never auto-picked with allowed < k.
  const size_t window = PostFilterWindow(n, options.k, allowed);
  decision.cost_post_filter =
      allowed < options.k
          ? kInfiniteCost
          : e + static_cast<double>(window) * kCostMembershipTest;

  switch (options.plan) {
    case PlanMode::kForcePushdown:
      decision.strategy = PlanStrategy::kPushdown;
      return decision;
    case PlanMode::kForceAllowedScan:
      decision.strategy = PlanStrategy::kAllowedScan;
      return decision;
    case PlanMode::kForcePostFilter:
      decision.strategy = PlanStrategy::kPostFilter;
      return decision;
    case PlanMode::kAuto:
      break;
  }

  // Minimum modeled cost; ties keep the historical pushdown path, then
  // prefer allowed-scan (exact at any budget) over post-filter.
  decision.strategy = PlanStrategy::kPushdown;
  double best = decision.cost_pushdown;
  if (decision.cost_allowed_scan < best) {
    decision.strategy = PlanStrategy::kAllowedScan;
    best = decision.cost_allowed_scan;
  }
  if (decision.cost_post_filter < best) {
    decision.strategy = PlanStrategy::kPostFilter;
  }
  return decision;
}

std::optional<BatchSearchResult> MaybeReroute(const Index& index,
                                              const SearchRequest& request) {
  const SearchOptions& options = request.options;
  if (options.filter == nullptr) return std::nullopt;
  if (options.plan == PlanMode::kForcePushdown) return std::nullopt;
  const PlanDecision decision = PlanFilteredSearch(index, options);
  switch (decision.strategy) {
    case PlanStrategy::kPushdown:
      return std::nullopt;
    case PlanStrategy::kAllowedScan:
      return AllowedScanSearch(index, request);
    case PlanStrategy::kPostFilter:
      return PostFilterSearch(index, request);
  }
  return std::nullopt;
}

BatchSearchResult AllowedScanSearch(const Index& index,
                                    const SearchRequest& request) {
  USP_CHECK(request.options.filter != nullptr);
  const MatrixView base = index.base_view();
  USP_CHECK(base.data() != nullptr);
  // The reference path itself: the scan filtered brute force runs, so the
  // result is bit-identical to the acceptance suite's ground truth at *any*
  // budget. It scores every allowed row and counts the rest as filtered out.
  return FlatScan(DistanceComputer(base, index.metric()), request,
                  /*bins_probed=*/0);
}

BatchSearchResult PostFilterSearch(const Index& index,
                                   const SearchRequest& request) {
  const SearchOptions& options = request.options;
  USP_CHECK(options.filter != nullptr);
  const size_t n = index.size();
  const size_t k = options.k;
  const size_t nq = request.queries.rows();

  BatchSearchResult result;
  result.Prepare(nq, options);
  if (n == 0 || nq == 0) return result;

  // Window-sizing probe, bounded at ~16k members: past that the window is
  // within [2k, n/16 + k] and a lower bound on the count only enlarges it.
  size_t allowed = options.filter->count(n);
  if (allowed == kUnknownCount) {
    allowed = CountUpTo(*options.filter, n, std::min(n, 16 * k + 1));
  }
  const size_t window = PostFilterWindow(n, k, allowed);

  // One unfiltered sub-search, k widened to the window. plan is irrelevant
  // without a filter but pinned anyway so the intent is explicit.
  SearchRequest sub;
  sub.queries = request.queries;
  sub.options = options;
  sub.options.filter = nullptr;
  sub.options.k = window;
  sub.options.plan = PlanMode::kForcePushdown;
  const BatchSearchResult raw = index.SearchBatch(sub);

  std::vector<size_t> escalate;
  for (size_t q = 0; q < nq; ++q) {
    const uint32_t* row = raw.Row(q);
    const float* dist = raw.DistanceRow(q);
    size_t kept = 0;
    uint32_t dropped = 0;
    bool exhausted = false;  // the index returned fewer than `window` rows
    for (size_t j = 0; j < window && kept < k; ++j) {
      if (row[j] == kInvalidId) {
        exhausted = true;
        break;
      }
      if (options.filter->is_member(row[j])) {
        result.ids[q * k + kept] = row[j];
        result.distances[q * k + kept] = dist[j];
        ++kept;
      } else {
        ++dropped;
      }
    }
    result.candidate_counts[q] = raw.candidate_counts[q];
    if (result.stats) {
      result.stats->candidates_scored[q] =
          raw.stats->candidates_scored[q];
      result.stats->bins_probed[q] = raw.stats->bins_probed[q];
      result.stats->nodes_visited[q] = raw.stats->nodes_visited[q];
      result.stats->filtered_out[q] = dropped;
    }
    // Exactness backstop: the window was filled with < k allowed rows and
    // more candidates existed beyond it — only genuine pushdown can tell
    // whether allowed rows hide there. An exhausted window already saw every
    // candidate this budget generates, so filtering it IS the pushdown
    // result; window == n is the degenerate exhaustive case.
    if (kept < k && !exhausted && window < n) escalate.push_back(q);
  }

  for (size_t q : escalate) {
    SearchRequest esc;
    esc.queries = MatrixView(request.queries.Row(q), 1, request.queries.cols());
    esc.options = options;
    esc.options.plan = PlanMode::kForcePushdown;
    const BatchSearchResult fixed = index.SearchBatch(esc);
    std::copy(fixed.ids.begin(), fixed.ids.begin() + k,
              result.ids.begin() + q * k);
    std::copy(fixed.distances.begin(), fixed.distances.begin() + k,
              result.distances.begin() + q * k);
    // Count the escalation's work on top of the wasted window pass — the
    // planner's honesty about its mispredictions.
    result.candidate_counts[q] += fixed.candidate_counts[0];
    if (result.stats) {
      result.stats->candidates_scored[q] +=
          fixed.stats->candidates_scored[0];
      result.stats->bins_probed[q] += fixed.stats->bins_probed[0];
      result.stats->nodes_visited[q] += fixed.stats->nodes_visited[0];
      result.stats->filtered_out[q] += fixed.stats->filtered_out[0];
    }
  }
  return result;
}

Status QueryPlanner::Calibrate(MatrixView sample_queries, size_t k) {
  USP_CHECK(index_ != nullptr);
  if (sample_queries.rows() == 0 || k == 0) {
    return Status::InvalidArgument(
        "QueryPlanner::Calibrate: empty query sample or k == 0");
  }
  if (sample_queries.cols() != index_->dim()) {
    return Status::InvalidArgument(
        "QueryPlanner::Calibrate: query dim does not match index dim");
  }
  const MatrixView base = index_->base_view();
  if (base.data() == nullptr || base.rows() == 0) {
    return Status::FailedPrecondition(
        "QueryPlanner::Calibrate: index exposes no base_view to take exact "
        "ground truth from");
  }
  // k <= n keeps the ground truth free of padding, which KnnAccuracy needs.
  if (k > base.rows()) {
    return Status::InvalidArgument(
        "QueryPlanner::Calibrate: k exceeds the index size");
  }

  k_ = k;
  curve_.clear();
  const KnnResult truth =
      BruteForceKnn(base, sample_queries, k, index_->metric());
  const size_t nq = sample_queries.rows();

  // Doubling budget schedule: stop at perfect recall or once the budget
  // covers the index (bins saturate well before size(); HNSW's ef == size()
  // explores the whole component).
  size_t budget = 1;
  while (true) {
    SearchRequest request;
    request.queries = sample_queries;
    request.options.k = k;
    request.options.budget = budget;
    request.options.stats = true;
    const BatchSearchResult result = index_->SearchBatch(request);

    CalibrationPoint point;
    point.budget = budget;
    point.recall = KnnAccuracy(result, truth.indices, k);
    double sum = 0.0;
    for (size_t q = 0; q < nq; ++q) {
      sum += static_cast<double>(result.stats->candidates_scored[q]);
    }
    point.mean_candidates = sum / static_cast<double>(nq);
    curve_.push_back(point);

    if (point.recall >= 1.0 - 1e-9 || budget >= index_->size()) break;
    budget = std::min(budget * 2, index_->size());
  }
  return Status::Ok();
}

size_t QueryPlanner::BudgetForRecall(double target_recall) const {
  USP_CHECK(!curve_.empty());  // Calibrate() first
  for (const CalibrationPoint& point : curve_) {
    if (point.recall >= target_recall) return point.budget;
  }
  return curve_.back().budget;
}

BatchSearchResult QueryPlanner::Search(const SearchRequest& request,
                                       double target_recall) const {
  SearchRequest tuned = request;
  tuned.options.budget = BudgetForRecall(target_recall);
  return index_->SearchBatch(tuned);
}

}  // namespace usp
