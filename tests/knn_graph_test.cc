// Pins the KnnGraphBuilder contracts (workload/knn_graph.h):
//
//   - BuildExact is bit-identical (indices AND distances) to BuildKnnMatrix,
//     including when n is not a multiple of block_rows, at every thread
//     count, and on inputs with exact distance ties at the k-th place —
//     tile symmetry, scheduling and the bound gate must be invisible in the
//     output.
//   - BuildFromStream is bit-identical to BuildExact at ragged
//     resident-block / chunk-size splits, and fails cleanly on a stream that
//     ends short.
//   - BuildApproximate at an exhaustive budget recovers the exact graph;
//     at a partial budget its rows stay valid input for BuildKnnGraph
//     (no sentinel ids, no self-matches) and GraphRecall degrades sanely.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/fvecs_stream.h"
#include "dataset/synthetic.h"
#include "graphpart/graph.h"
#include "ivf/ivf.h"
#include "knn/brute_force.h"
#include "workload/knn_graph.h"

namespace usp {
namespace {

bool SameGraph(const KnnResult& a, const KnnResult& b) {
  return a.k == b.k && a.indices == b.indices &&
         a.distances.size() == b.distances.size() &&
         std::memcmp(a.distances.data(), b.distances.data(),
                     a.distances.size() * sizeof(float)) == 0;
}

Matrix TestData(size_t n, uint64_t seed) { return MakeSiftLike(n, seed); }

// Every row of a `copies`-times smaller base repeated `copies` times, the
// copies `n / copies` rows apart: each row has exact distance ties (0 to its
// own copies, and equal distances to a neighbor's copies), so the k-th
// place often falls inside a tie that only the id order decides. BuildExact
// meets the tile bands around a row out of id order, so its bound gate must
// let a pair exactly at the bound reach the heap (a gate written `<` fails
// ExactMatchesBruteForceBitwise here, with one thread or many). A streamed
// row meets its candidates in id order, where a tie at the bound always
// loses, so there the tied input checks agreement with BuildExact only.
Matrix TiedData(size_t n, size_t copies, uint64_t seed) {
  const Matrix unique = MakeSiftLike(n / copies, seed);
  Matrix data(n, unique.cols());
  for (size_t i = 0; i < n; ++i) {
    const float* src = unique.Row(i % unique.rows());
    std::copy(src, src + unique.cols(), data.Row(i));
  }
  return data;
}

TEST(KnnGraphBuilderTest, ExactMatchesBruteForceBitwise) {
  // Not a tile multiple; then the same n with three-way ties, where k = 7
  // ends inside the second neighbor's group of three copies.
  const Matrix data = TestData(/*n=*/777, /*seed=*/5);
  const Matrix tied = TiedData(/*n=*/777, /*copies=*/3, /*seed=*/5);
  for (const auto& [input, k] : {std::pair<const Matrix*, size_t>{&data, 8},
                                 {&tied, 7}}) {
    const KnnResult brute = BuildKnnMatrix(*input, k);
    KnnGraphConfig config;
    config.k = k;
    for (const size_t block_rows : {64u, 100u, 777u, 4096u}) {
      config.block_rows = block_rows;
      const KnnResult exact = KnnGraphBuilder(config).BuildExact(*input);
      EXPECT_TRUE(SameGraph(exact, brute))
          << "k=" << k << " block_rows=" << block_rows;
    }
  }
}

TEST(KnnGraphBuilderTest, ExactThreadCountInvariant) {
  const Matrix data = TestData(/*n=*/500, /*seed=*/6);
  KnnGraphConfig config;
  config.k = 10;
  config.block_rows = 96;
  config.num_threads = 1;
  const KnnResult serial = KnnGraphBuilder(config).BuildExact(data);
  config.num_threads = 0;
  const KnnResult pooled = KnnGraphBuilder(config).BuildExact(data);
  EXPECT_TRUE(SameGraph(serial, pooled));
}

TEST(KnnGraphBuilderTest, ExactExcludesSelfAndSortsRows) {
  const Matrix data = TestData(/*n=*/300, /*seed=*/7);
  KnnGraphConfig config;
  config.k = 6;
  const KnnResult graph = KnnGraphBuilder(config).BuildExact(data);
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = 0; j < config.k; ++j) {
      EXPECT_NE(graph.indices[i * config.k + j], i);
      if (j + 1 < config.k) {
        const float a = graph.distances[i * config.k + j];
        const float b = graph.distances[i * config.k + j + 1];
        EXPECT_TRUE(a < b || (a == b && graph.indices[i * config.k + j] <
                                            graph.indices[i * config.k + j + 1]));
      }
    }
  }
}

TEST(KnnGraphBuilderTest, StreamMatchesExactAtRaggedSplits) {
  // Prime-ish n; then three-way ties, with k = 7 ending inside a tie group.
  for (const Matrix& data : {TestData(/*n=*/613, /*seed=*/8),
                             TiedData(/*n=*/612, /*copies=*/3, /*seed=*/8)}) {
    KnnGraphConfig config;
    config.k = 7;
    const KnnGraphBuilder builder(config);
    const KnnResult exact = builder.BuildExact(data);
    EXPECT_TRUE(SameGraph(exact, BuildKnnMatrix(data, config.k)));

    for (const size_t resident : {50u, 128u, 613u, 1000u}) {
      for (const size_t chunk : {37u, 256u}) {
        KnnGraphConfig stream_config = config;
        stream_config.block_rows = chunk;
        MatrixStream stream(data);
        StatusOr<KnnResult> streamed =
            KnnGraphBuilder(stream_config).BuildFromStream(&stream, resident);
        ASSERT_TRUE(streamed.ok()) << streamed.status().message();
        EXPECT_TRUE(SameGraph(streamed.value(), exact))
            << "n=" << data.rows() << " resident=" << resident
            << " chunk=" << chunk;
      }
    }
  }
}

// A stream advertising more rows than it yields must produce a Status, not
// a partial graph or a crash.
TEST(KnnGraphBuilderTest, StreamEndingShortFails) {
  const Matrix data = TestData(/*n=*/100, /*seed=*/9);

  class ShortStream final : public ChunkStream {
   public:
    explicit ShortStream(const Matrix& data) : inner_(data) {}
    size_t dim() const override { return inner_.dim(); }
    size_t num_rows() const override { return inner_.num_rows() + 50; }
    Status Reset() override { return inner_.Reset(); }
    StatusOr<MatrixView> NextChunk(size_t max_rows) override {
      return inner_.NextChunk(max_rows);
    }

   private:
    MatrixStream inner_;
  };

  ShortStream stream(data);
  KnnGraphConfig config;
  config.k = 5;
  StatusOr<KnnResult> result =
      KnnGraphBuilder(config).BuildFromStream(&stream, /*resident_rows=*/64);
  EXPECT_FALSE(result.ok());
}

TEST(KnnGraphBuilderTest, ApproximateAtFullBudgetRecoversExactGraph) {
  const Matrix data = TestData(/*n=*/400, /*seed=*/10);
  KnnGraphConfig config;
  config.k = 10;
  const KnnGraphBuilder builder(config);
  const KnnResult exact = builder.BuildExact(data);

  IvfConfig ivf_config;
  ivf_config.nlist = 8;
  ivf_config.seed = 3;
  const IvfFlatIndex ivf(&data, ivf_config);
  // Budget >= nlist probes every list: the candidate set is the whole base,
  // so every true neighbor is found. (Distances are not compared bitwise —
  // the index rerank path and the exact build's norm-trick tiles round
  // differently; ids can only differ where that last-ulp wobble flips an
  // exact tie at the k boundary.)
  const KnnResult approx =
      builder.BuildApproximate(ivf, data, /*budget=*/ivf_config.nlist);
  EXPECT_GE(KnnGraphBuilder::GraphRecall(approx, exact), 0.999);
}

TEST(KnnGraphBuilderTest, ApproximatePartialBudgetStaysValidForGraphBuild) {
  const size_t n = 400;
  const Matrix data = TestData(n, /*seed=*/11);
  KnnGraphConfig config;
  config.k = 10;
  const KnnGraphBuilder builder(config);
  const KnnResult exact = builder.BuildExact(data);

  IvfConfig ivf_config;
  ivf_config.nlist = 16;
  ivf_config.seed = 3;
  const IvfFlatIndex ivf(&data, ivf_config);
  const KnnResult approx = builder.BuildApproximate(ivf, data, /*budget=*/2);

  // Rows are always full and valid: in-range ids, no kInvalidId sentinel,
  // no self-matches except the self-fallback pad for a row with zero hits.
  ASSERT_EQ(approx.indices.size(), n * config.k);
  for (size_t i = 0; i < n; ++i) {
    bool has_non_self = false;
    for (size_t j = 0; j < config.k; ++j) {
      const uint32_t id = approx.indices[i * config.k + j];
      ASSERT_LT(id, n);
      if (id != i) has_non_self = true;
    }
    // A 2-probe search over this workload always finds someone.
    EXPECT_TRUE(has_non_self) << "row " << i;
  }

  // The approximate output feeds the partitioning pipeline unchanged.
  const Graph graph = BuildKnnGraph(approx, n);
  EXPECT_EQ(graph.num_vertices(), n);

  const double recall = KnnGraphBuilder::GraphRecall(approx, exact);
  EXPECT_GT(recall, 0.3);  // 2 of 16 lists still finds most neighbors
  EXPECT_LT(recall, 1.0);  // ...but not all of them at this budget
}

TEST(KnnGraphBuilderTest, GraphRecallCountsOverlapPerRow) {
  KnnResult exact;
  exact.k = 2;
  exact.indices = {1, 2, 0, 2};  // two rows
  exact.distances = {0, 0, 0, 0};
  KnnResult graph = exact;
  EXPECT_EQ(KnnGraphBuilder::GraphRecall(graph, exact), 1.0);
  graph.indices = {1, 3, 3, 3};  // 1 of 2 hits in row 0, 0 of 2 in row 1
  EXPECT_EQ(KnnGraphBuilder::GraphRecall(graph, exact), 0.25);
}

}  // namespace
}  // namespace usp
