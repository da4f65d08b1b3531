#include "workload/knn_graph.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "dataset/fvecs_stream.h"
#include "dist/distance_kernels.h"
#include "index/index.h"
#include "knn/top_k.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace usp {

namespace {

constexpr float kNoBound = std::numeric_limits<float>::infinity();

// Bounded max-heaps on (distance, id), one per row in one flat allocation,
// each keeping its row's k best pairs exactly as a TopK(k) does. bound(r)
// is +inf, or a caller's seed, until row r holds k pairs, then the smaller
// of the seed and the kept worst's distance. A pair whose distance is above
// the bound can never be kept, so the builders skip its Push; a pair at the
// bound must still reach Push, which breaks the distance tie by id.
class RowHeaps {
 public:
  RowHeaps(size_t rows, size_t k)
      : k_(k), pairs_(rows * k), sizes_(rows, 0), bounds_(rows, kNoBound) {}

  float bound(size_t r) const { return bounds_[r]; }

  /// Empties row r and seeds its bound.
  void Reset(size_t r, float bound) {
    sizes_[r] = 0;
    bounds_[r] = bound;
  }

  void Push(size_t r, float distance, uint32_t id) {
    Neighbor* heap = &pairs_[r * k_];
    size_t& size = sizes_[r];
    const Neighbor pair{distance, id};
    if (size < k_) {
      heap[size++] = pair;
      std::push_heap(heap, heap + size);
      if (size < k_) return;
    } else if (pair < heap[0]) {
      std::pop_heap(heap, heap + k_);
      heap[k_ - 1] = pair;
      std::push_heap(heap, heap + k_);
    } else {
      return;
    }
    bounds_[r] = std::min(bounds_[r], heap[0].distance);
  }

  /// Row r's kept pairs, in heap order.
  const Neighbor* begin(size_t r) const { return &pairs_[r * k_]; }
  const Neighbor* end(size_t r) const { return begin(r) + sizes_[r]; }

  /// Writes row r, sorted ascending by (distance, id), to output row `row`;
  /// row r is no longer a heap afterwards.
  void Drain(size_t r, size_t row, KnnResult* result) {
    Neighbor* heap = &pairs_[r * k_];
    std::sort_heap(heap, heap + sizes_[r]);
    for (size_t j = 0; j < k_; ++j) {
      result->indices[row * k_ + j] = heap[j].id;
      result->distances[row * k_ + j] = heap[j].distance;
    }
  }

 private:
  size_t k_;
  std::vector<Neighbor> pairs_;
  std::vector<size_t> sizes_;
  std::vector<float> bounds_;
};

// out[j] = max(0, ||x||^2 + ||y_j||^2 - 2 <x, y_j>) over the `count` rows
// y_j = rows[j * d ..]: the norm-trick arithmetic of BuildKnnMatrix.
void BlockDistances(const DistanceKernels& kd, const float* x, float x_norm,
                    const float* rows, const float* row_norms, size_t count,
                    size_t d, float* out) {
  kd.score_block_dot(x, rows, count, d, out);
  for (size_t j = 0; j < count; ++j) {
    out[j] = std::max(0.0f, x_norm + row_norms[j] - 2.0f * out[j]);
  }
}

}  // namespace

KnnGraphBuilder::KnnGraphBuilder(KnnGraphConfig config)
    : config_(config) {
  USP_CHECK(config_.k > 0);
  USP_CHECK(config_.block_rows > 0);
}

KnnResult KnnGraphBuilder::BuildExact(MatrixView data) const {
  const size_t n = data.rows(), d = data.cols(), k = config_.k;
  const size_t bs = config_.block_rows;
  USP_CHECK(k < n);
  const size_t nblocks = (n + bs - 1) / bs;

  std::vector<float> norms;
  RowSquaredNorms(data, &norms);
  const DistanceKernels& kd = GetDistanceKernels();

  // Global per-row heaps, guarded per row-block: a tile gates and fills its
  // own row heaps lock-free and merges them under at most two block locks.
  // The (distance, id) k-best set is push-order independent and the
  // distance values are the same bits BuildKnnMatrix computes (dot and + are
  // commutative, so d(i, j) from tile (bi, bj) equals d(j, i) bit for bit),
  // which is what makes the tile schedule invisible in the output.
  RowHeaps heaps(n, k);
  std::vector<std::mutex> locks(nblocks);

  // All tile pairs of the upper triangle, one band at a time outward from
  // the diagonal: the diagonal tiles first, so every row's bound is seeded
  // by its own block before the first cross-block tile. A row then meets
  // the blocks around it before and after its own in turn, so equal
  // distances reach it in both id orders, and only Push's id tie-break
  // keeps the set the same as in any other order.
  std::vector<std::pair<uint32_t, uint32_t>> tiles;
  for (uint32_t band = 0; band < nblocks; ++band) {
    for (uint32_t bi = 0; bi + band < nblocks; ++bi) {
      tiles.emplace_back(bi, bi + band);
    }
  }

  ParallelFor(
      tiles.size(), 1, config_.num_threads,
      [&](size_t t_begin, size_t t_end, size_t) {
        std::vector<float> dist(bs);
        RowHeaps local_i(bs, k), local_j(bs, k);
        // Seeds each local row's bound with its global row's, read under the
        // block lock the merge takes. Global heaps only tighten, so a pair
        // above that bound cannot be among the row's k best, now or later.
        const auto seed = [&](uint32_t block, size_t r0, size_t r1,
                              RowHeaps* local) {
          std::lock_guard<std::mutex> guard(locks[block]);
          for (size_t r = r0; r < r1; ++r) {
            local->Reset(r - r0, heaps.bound(r));
          }
        };
        const auto merge = [&](uint32_t block, size_t r0, size_t r1,
                               const RowHeaps& local) {
          std::lock_guard<std::mutex> guard(locks[block]);
          for (size_t r = r0; r < r1; ++r) {
            for (const Neighbor* nb = local.begin(r - r0);
                 nb != local.end(r - r0); ++nb) {
              heaps.Push(r, nb->distance, nb->id);
            }
          }
        };
        for (size_t t = t_begin; t < t_end; ++t) {
          const uint32_t bi = tiles[t].first, bj = tiles[t].second;
          const size_t i0 = bi * bs, i1 = std::min(n, i0 + bs);
          const size_t j0 = bj * bs, j1 = std::min(n, j0 + bs);
          const bool diagonal = bi == bj;

          seed(bi, i0, i1, &local_i);
          if (!diagonal) seed(bj, j0, j1, &local_j);
          for (size_t i = i0; i < i1; ++i) {
            BlockDistances(kd, data.Row(i), norms[i], data.Row(j0), &norms[j0],
                           j1 - j0, d, dist.data());
            const uint32_t id_i = static_cast<uint32_t>(i);
            for (size_t j = j0; j < j1; ++j) {
              const float dij = dist[j - j0];
              if (dij <= local_i.bound(i - i0) && i != j) {
                local_i.Push(i - i0, dij, static_cast<uint32_t>(j));
              }
              // A diagonal tile iterates both (i, j) and (j, i), so only
              // off-diagonal tiles push the mirrored edge.
              if (!diagonal && dij <= local_j.bound(j - j0)) {
                local_j.Push(j - j0, dij, id_i);
              }
            }
          }
          merge(bi, i0, i1, local_i);
          if (!diagonal) merge(bj, j0, j1, local_j);
        }
      });

  KnnResult result;
  result.k = k;
  result.indices.resize(n * k);
  result.distances.resize(n * k);
  for (size_t i = 0; i < n; ++i) heaps.Drain(i, i, &result);
  return result;
}

KnnResult KnnGraphBuilder::BuildApproximate(const Index& index,
                                            MatrixView data,
                                            size_t budget) const {
  const size_t n = data.rows(), k = config_.k;
  USP_CHECK(k < n);
  USP_CHECK(index.size() == n);
  USP_CHECK(index.dim() == data.cols());

  // k+1 because every row is its own nearest neighbor under any metric the
  // index serves; the self-match is dropped below.
  SearchRequest request;
  request.queries = data;
  request.options.k = k + 1;
  request.options.budget = budget;
  request.options.num_threads = config_.num_threads;
  const BatchSearchResult batch = index.SearchBatch(request);

  KnnResult result;
  result.k = k;
  result.indices.resize(n * k);
  result.distances.resize(n * k);
  std::vector<Neighbor> kept;
  for (size_t q = 0; q < n; ++q) {
    kept.clear();
    for (size_t j = 0; j < batch.k && kept.size() < k; ++j) {
      const uint32_t id = batch.ids[q * batch.k + j];
      if (id == kInvalidId || id == static_cast<uint32_t>(q)) continue;
      kept.push_back(Neighbor{batch.distances[q * batch.k + j], id});
    }
    // Budget-starved rows pad by cycling the real neighbors (the
    // FilterKnnToSubset convention — BuildKnnGraph rejects sentinel ids);
    // a row with no hits at all falls back to itself at distance 0.
    if (kept.empty()) {
      kept.push_back(Neighbor{0.0f, static_cast<uint32_t>(q)});
    }
    for (size_t j = 0; j < k; ++j) {
      const Neighbor& nb = kept[j % kept.size()];
      result.indices[q * k + j] = nb.id;
      result.distances[q * k + j] = nb.distance;
    }
  }
  return result;
}

StatusOr<KnnResult> KnnGraphBuilder::BuildFromStream(
    ChunkStream* stream, size_t resident_rows) const {
  USP_CHECK(stream != nullptr);
  USP_CHECK(resident_rows > 0);
  const size_t n = stream->num_rows(), d = stream->dim(), k = config_.k;
  USP_CHECK(k < n);
  const size_t io_rows = config_.block_rows;

  // Pass 1: row norms. RowSquaredNorms is a per-row reduction, so computing
  // it chunk by chunk yields the same bits as one whole-matrix pass — the
  // root of the bit-identity-with-BuildExact contract.
  std::vector<float> norms(n);
  Status st = stream->Reset();
  if (!st.ok()) return st;
  size_t filled = 0;
  std::vector<float> chunk_norms;
  for (;;) {
    StatusOr<MatrixView> chunk = stream->NextChunk(io_rows);
    if (!chunk.ok()) return chunk.status();
    const MatrixView view = chunk.value();
    if (view.rows() == 0) break;
    if (filled + view.rows() > n) {
      return Status::FailedPrecondition(
          "stream yielded more rows than advertised");
    }
    RowSquaredNorms(view, &chunk_norms);
    std::copy(chunk_norms.begin(), chunk_norms.end(), norms.begin() + filled);
    filled += view.rows();
  }
  // Streams are external input: a length lie is a Status, not a crash.
  if (filled != n) {
    return Status::FailedPrecondition(
        "stream ended before yielding all advertised rows");
  }

  KnnResult result;
  result.k = k;
  result.indices.resize(n * k);
  result.distances.resize(n * k);
  const DistanceKernels& kd = GetDistanceKernels();

  // Pass 2: one resident block at a time. For each block, rewind and copy
  // its rows in, then rewind again and score resident-vs-chunk tiles across
  // the whole stream. Memory is O(resident_rows * d); the stream is read
  // ceil(n / resident_rows) + 1 times.
  for (size_t r0 = 0; r0 < n; r0 += resident_rows) {
    const size_t r1 = std::min(n, r0 + resident_rows);
    Matrix resident(r1 - r0, d);

    st = stream->Reset();
    if (!st.ok()) return st;
    size_t cursor = 0;
    while (cursor < r1) {
      StatusOr<MatrixView> chunk = stream->NextChunk(io_rows);
      if (!chunk.ok()) return chunk.status();
      const MatrixView view = chunk.value();
      if (view.rows() == 0) {
        return Status::FailedPrecondition(
            "stream ended before yielding all advertised rows");
      }
      // Copy the overlap of [cursor, cursor + rows) with [r0, r1).
      const size_t lo = std::max(cursor, r0);
      const size_t hi = std::min(cursor + view.rows(), r1);
      for (size_t g = lo; g < hi; ++g) {
        const float* src = view.Row(g - cursor);
        std::copy(src, src + d, resident.Row(g - r0));
      }
      cursor += view.rows();
    }

    RowHeaps heaps(r1 - r0, k);

    st = stream->Reset();
    if (!st.ok()) return st;
    size_t b_start = 0;
    for (;;) {
      StatusOr<MatrixView> chunk = stream->NextChunk(io_rows);
      if (!chunk.ok()) return chunk.status();
      const MatrixView view = chunk.value();
      if (view.rows() == 0) break;
      ParallelFor(
          r1 - r0, 8, config_.num_threads,
          [&](size_t begin, size_t end, size_t) {
            std::vector<float> dist(view.rows());
            for (size_t i = begin; i < end; ++i) {
              const size_t gi = r0 + i;
              BlockDistances(kd, resident.Row(i), norms[gi], view.data(),
                             &norms[b_start], view.rows(), d, dist.data());
              for (size_t j = 0; j < view.rows(); ++j) {
                const size_t gj = b_start + j;
                if (dist[j] <= heaps.bound(i) && gi != gj) {
                  heaps.Push(i, dist[j], static_cast<uint32_t>(gj));
                }
              }
            }
          });
      b_start += view.rows();
    }
    for (size_t i = r0; i < r1; ++i) heaps.Drain(i - r0, i, &result);
  }
  return result;
}

double KnnGraphBuilder::GraphRecall(const KnnResult& graph,
                                    const KnnResult& exact) {
  USP_CHECK(graph.k == exact.k);
  USP_CHECK(graph.indices.size() == exact.indices.size());
  const size_t k = exact.k;
  USP_CHECK(k > 0);
  const size_t n = exact.indices.size() / k;
  size_t hits = 0;
  std::vector<uint32_t> row;
  for (size_t q = 0; q < n; ++q) {
    row.assign(graph.Row(q), graph.Row(q) + k);
    std::sort(row.begin(), row.end());
    for (size_t j = 0; j < k; ++j) {
      if (std::binary_search(row.begin(), row.end(), exact.Row(q)[j])) ++hits;
    }
  }
  return n == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(n * k);
}

}  // namespace usp
