// The selectivity-aware query planner for predicate-filtered search.
//
// Motivation (BENCH_filtered.json, ROADMAP item 4): selector *pushdown* —
// run the index's normal traversal and test membership before scoring — is
// the right plan at moderate selectivity, but collapses at low selectivity.
// The worst case is HNSW: its visit-but-don't-return filtering means that
// whenever the selector admits fewer nodes than ef, the ef-bound never
// engages and every query degrades to an O(n) traversal of the connected
// component, while brute force over the ~s*n allowed rows would be strictly
// cheaper. The planner fixes the cliff generically instead of patching HNSW:
// for each filtered request it probes the selector's cardinality (O(1) for
// counting selectors, bounded otherwise — id_selector.h CountUpTo) and picks
// the cheapest of three strategies under a per-index-type cost model:
//
//   kPushdown     the historical path: the index's own traversal with the
//                 selector applied before scoring.
//   kAllowedScan  filtered BruteForceKnn over base_view() — cost is exactly
//                 the allowed count, independent of index structure, and the
//                 result is exact at any budget. The low-selectivity escape
//                 hatch.
//   kPostFilter   unfiltered search with an enlarged k, then drop disallowed
//                 rows; underfilled rows are re-run with real pushdown, so
//                 exactness at full budget is never lost. Wins at very high
//                 selectivity, where membership tests on the candidate
//                 stream cost more than over-fetching.
//
// Every strategy returns results bit-identical to filtered brute force at
// full budget (tests/query_planner_test.cc pins all strategies x all seven
// index types), so the planner is purely a cost decision. SearchOptions::plan
// overrides it per request (kForce* modes); docs/ARCHITECTURE.md "Query path"
// has the decision table.
//
// Cost model. Unit = one exact/ADC distance evaluation (C_score = 1); a
// selector membership test costs C_test = 0.05 of that. With n = index size,
// s = allowed/n, E = Index::EstimateCandidates(budget) the expected
// unfiltered candidate volume, and k' the post-filter over-fetch window:
//
//   pushdown:      E * (C_test + s)            [test E candidates, score s*E]
//                  ... except HNSW, which scores every visited node and falls
//                  off the cliff when allowed < ef: cost ≈ n there, E else.
//   allowed-scan:  allowed                     [score exactly the allowed set]
//   post-filter:   E + k' * C_test             [full unfiltered work + tests]
//
// A second layer, QueryPlanner, closes the recall/cost loop of Eq. 4: it
// calibrates budget -> (recall, mean candidates) on a query sample against
// exact ground truth, then serves requests at the smallest budget whose
// calibrated recall meets a caller-supplied target.
#ifndef USP_INDEX_QUERY_PLANNER_H_
#define USP_INDEX_QUERY_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "index/index.h"
#include "util/status.h"

namespace usp {

/// The three execution strategies for a filtered request; see file comment.
enum class PlanStrategy : uint8_t {
  kPushdown = 0,
  kAllowedScan = 1,
  kPostFilter = 2,
};

/// "pushdown" / "allowed_scan" / "post_filter" (bench JSON + sweep labels).
const char* PlanStrategyName(PlanStrategy strategy);

/// Outcome of planning one filtered request: the chosen strategy plus the
/// probe and cost-model inputs that led to it (surfaced in BENCH_planner.json
/// so decisions are auditable).
struct PlanDecision {
  PlanStrategy strategy = PlanStrategy::kPushdown;

  /// Selector cardinality inside [0, size()). When `allowed_exact` is false
  /// the probe hit its bound and this is a lower bound (>= probe_limit means
  /// "dense enough that pushdown wins regardless").
  size_t allowed_count = 0;
  bool allowed_exact = false;

  /// allowed_count / max(1, n); a lower bound when !allowed_exact.
  double selectivity = 1.0;

  /// Modeled costs in distance-evaluation units (see file comment). The
  /// chosen strategy minimizes these; ties prefer pushdown, then
  /// allowed-scan. +inf marks an unavailable strategy (e.g. allowed-scan on
  /// an index with an empty base_view).
  double cost_pushdown = 0.0;
  double cost_allowed_scan = 0.0;
  double cost_post_filter = 0.0;
};

/// Plans one filtered request against `index` without executing it: probes
/// the selector (bounded; never more expensive than the work it arbitrates),
/// evaluates the cost model, and applies any kForce* override in
/// `options.plan`. Requires options.filter != nullptr. An index with no
/// base_view is a router (DynamicIndex, ShardedIndex) whose ids are not
/// dense: it gets pushdown, with no probe and cost_allowed_scan = +inf,
/// whatever `options.plan` says, because each of its parts plans its own
/// sub-request over its own ids.
PlanDecision PlanFilteredSearch(const Index& index,
                                const SearchOptions& options);

/// The planner's hook into every leaf index's SearchBatch: returns a full
/// result when the plan routes the request away from pushdown (allowed-scan
/// or post-filter, executed here), or std::nullopt when the implementation
/// should proceed with its own pushdown path (unfiltered requests,
/// kForcePushdown, or a plan that picked pushdown). Sub-searches issued by
/// the executors pin plan = kForcePushdown, so implementations calling this
/// first cannot recurse. Routers do not call it: the filter and
/// options.plan reach every part, and each part calls it.
std::optional<BatchSearchResult> MaybeReroute(const Index& index,
                                              const SearchRequest& request);

/// Executes the allowed-scan strategy: the flat scan of filtered
/// BruteForceKnn (FlatScan, knn/brute_force.h) over base_view(), exact at
/// any budget, with zero-width rows at k = 0. candidate_counts /
/// candidates_scored report the allowed count (the rows actually scored),
/// bins_probed is 0 and filtered_out is n - allowed. Requires a non-empty
/// base_view (callers check; PlanFilteredSearch never picks this strategy
/// without one).
BatchSearchResult AllowedScanSearch(const Index& index,
                                    const SearchRequest& request);

/// Executes the post-filter strategy: one unfiltered sub-search with k
/// enlarged to min(n, max(2k, ceil(k/s) + k)), then per-row selector
/// filtering. Rows left with fewer than k allowed hits (the over-fetch
/// window was too small) are collected into one escalation sub-batch and
/// re-run with genuine pushdown, so full-budget results stay bit-identical
/// to filtered brute force. candidate_counts reports the sub-search's scored
/// work; filtered_out counts window rows the selector dropped (plus
/// escalation drops).
BatchSearchResult PostFilterSearch(const Index& index,
                                   const SearchRequest& request);

/// Recall-target search: the Eq. 4 feedback loop as a serving policy.
/// Calibrate() sweeps budget over a doubling schedule on a sample of
/// queries, measuring recall@k (KnnAccuracy, Eq. 1) against exact brute
/// force (via base_view) and the mean candidate volume S(R);
/// BudgetForRecall() then answers "smallest calibrated budget whose recall
/// meets the target", and Search() serves a request at that budget (planner
/// still active for filtered requests).
/// Calibration is offline/amortized; serving adds zero per-query overhead.
class QueryPlanner {
 public:
  /// One calibration measurement at a fixed budget.
  struct CalibrationPoint {
    size_t budget = 0;
    double recall = 0.0;           ///< recall@k vs exact ground truth
    double mean_candidates = 0.0;  ///< S(R): mean candidates scored per query
  };

  /// Non-owning; `index` must outlive the planner.
  explicit QueryPlanner(const Index* index) : index_(index) {}

  /// Calibrates on `sample_queries` at recall@`k`. Budgets double from 1
  /// until recall reaches 1.0 or the budget covers the index (bins for
  /// partition types, size() for HNSW's ef). Fails when the index has no
  /// base_view to take ground truth from, the sample is empty, or k is 0 or
  /// exceeds size().
  Status Calibrate(MatrixView sample_queries, size_t k);

  /// Smallest calibrated budget with recall >= target; the largest
  /// calibrated budget when none reaches the target. Requires Calibrate().
  size_t BudgetForRecall(double target_recall) const;

  /// Serves `request` with options.budget replaced by
  /// BudgetForRecall(target_recall). Other options (k, filter, plan, stats)
  /// pass through; the filtered-request planner applies as usual.
  BatchSearchResult Search(const SearchRequest& request,
                           double target_recall) const;

  /// The calibrated budget -> (recall, S(R)) curve, ascending by budget.
  const std::vector<CalibrationPoint>& curve() const { return curve_; }

 private:
  const Index* index_;
  size_t k_ = 0;
  std::vector<CalibrationPoint> curve_;
};

}  // namespace usp

#endif  // USP_INDEX_QUERY_PLANNER_H_
