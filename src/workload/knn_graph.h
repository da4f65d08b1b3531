// Fast k-NN graph construction: the workload behind the paper's offline
// phase (Sec. 4.2.1 — "Preparing this [k'-NN] matrix takes approximately 30
// minutes on the million-sized dataset"). BuildKnnMatrix (knn/brute_force.h)
// answers each row independently, re-scoring every (i, j) pair twice; the
// builder here exploits the symmetry d(i, j) == d(j, i) — each off-diagonal
// tile of the distance matrix is scored once and its distances feed BOTH
// endpoints' heaps — which halves the exact GEMM work, and parallelizes over
// tiles instead of rows.
//
// Three build paths share the KnnResult output shape (and therefore feed
// graphpart/ directly, like BuildKnnMatrix always has):
//   * BuildExact: in-memory symmetric blocked scan, bit-identical to
//     BuildKnnMatrix(data, k) (same norm-trick arithmetic; the (distance, id)
//     k-best set is push-order independent, so tile order cannot change it).
//     A pair reaches a row's heap only when its distance is at most the
//     row's bound, the kept worst of a full local or global heap: a pair
//     above it can never be kept, so the gate leaves the set unchanged.
//   * BuildApproximate: index-accelerated — each row queries a prebuilt ANN
//     index over the same rows at a caller-chosen budget; recall is measured
//     against an exact graph with GraphRecall. Rows the budget leaves short
//     are padded by cycling real neighbors (FilterKnnToSubset's convention),
//     never with the kInvalidId sentinel, so BuildKnnGraph's id checks hold.
//   * BuildFromStream: out-of-core exact build over a ChunkStream
//     (dataset/fvecs_stream.h) holding only O(resident_rows + chunk) vectors
//     in memory; bit-identical to BuildExact at every resident/chunk split
//     because per-pair arithmetic never depends on chunk boundaries.
#ifndef USP_WORKLOAD_KNN_GRAPH_H_
#define USP_WORKLOAD_KNN_GRAPH_H_

#include <cstddef>
#include <cstdint>

#include "knn/brute_force.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace usp {

class ChunkStream;
class Index;

/// Graph-construction knobs.
struct KnnGraphConfig {
  /// Neighbors per row (the paper's k'). Must be < number of points.
  size_t k = 10;

  /// Caps tile/row parallelism (0 = pool default, 1 = serial). Results are
  /// bit-identical at every setting.
  size_t num_threads = 0;

  /// Rows per tile of the symmetric exact scan. A tile pair scores
  /// block_rows^2 distances from one dot-product block; the default keeps a
  /// tile's dots + two local heaps comfortably in cache while leaving enough
  /// tiles to parallelize over.
  size_t block_rows = 1024;
};

/// Builds k-NN graphs (self-matches excluded: row i never contains i) with
/// rows sorted by ascending (distance, id), as a KnnResult ready for
/// BuildKnnGraph / graphpart training.
class KnnGraphBuilder {
 public:
  explicit KnnGraphBuilder(KnnGraphConfig config = {});

  /// Exact graph over `data` (squared L2). Bit-identical — indices AND
  /// distances — to BuildKnnMatrix(data, config.k); roughly half the
  /// distance work thanks to tile symmetry, scheduled tile-parallel.
  KnnResult BuildExact(MatrixView data) const;

  /// Approximate graph: row i's neighbors come from `index` (built over
  /// exactly the rows of `data`, id == row) queried with k+1 at `budget`
  /// search effort, self-match dropped. Short rows — a budget that probed
  /// too few bins — are padded by cycling the row's real neighbors (or the
  /// row id itself when none were found). Exactness is the budget's choice:
  /// measure with GraphRecall against an exact build.
  KnnResult BuildApproximate(const Index& index, MatrixView data,
                             size_t budget) const;

  /// Exact out-of-core graph over a ChunkStream: resident blocks of up to
  /// `resident_rows` rows are copied in one at a time, and for each the
  /// stream is re-scanned chunk-wise to score resident-vs-chunk tiles (row
  /// norms are precomputed in one extra pass). Memory stays
  /// O(resident_rows * dim), independent of stream length. Bit-identical to
  /// BuildExact over the same rows at every (resident_rows, chunk) split.
  /// Errors propagate from the stream (malformed .fvecs, I/O failure).
  StatusOr<KnnResult> BuildFromStream(ChunkStream* stream,
                                      size_t resident_rows) const;

  /// Fraction of `exact`'s edges present in `graph` (intersection over n*k,
  /// id-set semantics per row). 1.0 means every exact neighbor was found.
  static double GraphRecall(const KnnResult& graph, const KnnResult& exact);

  const KnnGraphConfig& config() const { return config_; }

 private:
  const KnnGraphConfig config_;
};

}  // namespace usp

#endif  // USP_WORKLOAD_KNN_GRAPH_H_
