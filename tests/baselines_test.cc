// Tests for baselines/: K-means invariants, cross-polytope LSH hashing
// properties, and the partition-tree family (all Fig. 6 split rules).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "baselines/cross_polytope_lsh.h"
#include "baselines/kmeans.h"
#include "baselines/partition_tree.h"
#include "core/partition_index.h"
#include "dataset/fvecs_stream.h"
#include "dataset/io.h"
#include "dataset/synthetic.h"
#include "dataset/workload.h"
#include "tensor/ops.h"

namespace usp {
namespace {

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  const LabeledDataset ds = MakeGaussianMixture(600, 4, 3, 100.0f, 0.5f, 1);
  KMeansConfig config;
  config.num_clusters = 3;
  config.seed = 2;
  const KMeansResult result = RunKMeans(ds.points, config);
  // Each predicted cluster should map 1:1 onto a generative cluster.
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (size_t i = 0; i < 600; ++i) {
    pairs.insert({ds.labels[i], result.assignments[i]});
  }
  EXPECT_EQ(pairs.size(), 3u);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  const LabeledDataset ds = MakeGaussianMixture(500, 6, 8, 20.0f, 1.0f, 3);
  double prev = 1e300;
  for (size_t k : {2, 4, 8}) {
    KMeansConfig config;
    config.num_clusters = k;
    config.seed = 4;
    const double inertia = RunKMeans(ds.points, config).inertia;
    EXPECT_LT(inertia, prev);
    prev = inertia;
  }
}

TEST(KMeansTest, AssignmentsAreNearestCentroid) {
  Rng rng(5);
  const Matrix data = Matrix::RandomGaussian(200, 5, &rng);
  KMeansConfig config;
  config.num_clusters = 7;
  config.seed = 5;
  const KMeansResult result = RunKMeans(data, config);
  for (size_t i = 0; i < 200; ++i) {
    const float own = SquaredDistance(
        data.Row(i), result.centroids.Row(result.assignments[i]), 5);
    for (size_t c = 0; c < 7; ++c) {
      EXPECT_LE(own, SquaredDistance(data.Row(i), result.centroids.Row(c), 5) +
                         1e-4f);
    }
  }
}

TEST(KMeansTest, NoEmptyClustersAfterReseeding) {
  // Pathological init chance is handled by reseeding from farthest points.
  Rng rng(6);
  const Matrix data = Matrix::RandomGaussian(100, 3, &rng);
  KMeansConfig config;
  config.num_clusters = 16;
  config.max_iterations = 30;
  config.seed = 6;
  const KMeansResult result = RunKMeans(data, config);
  std::set<uint32_t> used(result.assignments.begin(),
                          result.assignments.end());
  EXPECT_GE(used.size(), 14u);  // nearly all clusters in use
}

TEST(KMeansTest, KLargerThanNClamps) {
  Rng rng(7);
  const Matrix data = Matrix::RandomGaussian(5, 2, &rng);
  KMeansConfig config;
  config.num_clusters = 50;
  const KMeansResult result = RunKMeans(data, config);
  EXPECT_EQ(result.centroids.rows(), 5u);
}

TEST(MiniBatchKMeansTest, OneEpochWholeStreamChunkIsALloydIteration) {
  // The mini-batch trainer's anchor contract: seeded from the full dataset
  // with a chunk spanning the whole stream, one epoch must be bit-identical
  // to one Lloyd iteration — same k-means++ draws, same kernels, same
  // accumulation order, same empty-cluster reseed.
  const LabeledDataset ds = MakeGaussianMixture(300, 8, 6, 15.0f, 1.0f, 31);
  KMeansConfig lc;
  lc.num_clusters = 10;
  lc.max_iterations = 1;
  lc.seed = 31;
  const KMeansResult lloyd = RunKMeans(ds.points, lc);

  MiniBatchKMeansConfig mc;
  mc.num_clusters = 10;
  mc.epochs = 1;
  mc.chunk_rows = 1000;  // > n: one chunk per epoch
  mc.seed = 31;
  MatrixStream stream(ds.points);
  auto mini = RunMiniBatchKMeans(&stream, ds.points, mc);
  ASSERT_TRUE(mini.ok()) << mini.status().ToString();

  EXPECT_EQ(mini.value().epochs_run, 1u);
  EXPECT_EQ(mini.value().inertia, lloyd.inertia);
  ASSERT_EQ(mini.value().centroids.rows(), lloyd.centroids.rows());
  for (size_t i = 0; i < lloyd.centroids.size(); ++i) {
    ASSERT_EQ(mini.value().centroids.data()[i], lloyd.centroids.data()[i])
        << "centroid float " << i << " diverged";
  }
}

TEST(MiniBatchKMeansTest, MultiEpochWholeStreamChunkMatchesLloyd) {
  // Same equivalence across epochs: per-epoch count resets make epoch t a
  // Lloyd iteration t, including the early-stop rule, so a multi-epoch run
  // tracks multi-iteration Lloyd bit for bit.
  const LabeledDataset ds = MakeGaussianMixture(400, 6, 8, 10.0f, 1.5f, 32);
  KMeansConfig lc;
  lc.num_clusters = 12;
  lc.max_iterations = 7;
  lc.tolerance = 1e-6;
  lc.seed = 32;
  const KMeansResult lloyd = RunKMeans(ds.points, lc);

  MiniBatchKMeansConfig mc;
  mc.num_clusters = 12;
  mc.epochs = 7;
  mc.chunk_rows = ds.points.rows();
  mc.tolerance = 1e-6;
  mc.seed = 32;
  MatrixStream stream(ds.points);
  auto mini = RunMiniBatchKMeans(&stream, ds.points, mc);
  ASSERT_TRUE(mini.ok()) << mini.status().ToString();

  EXPECT_EQ(mini.value().epochs_run, lloyd.iterations);
  EXPECT_EQ(mini.value().inertia, lloyd.inertia);
  for (size_t i = 0; i < lloyd.centroids.size(); ++i) {
    ASSERT_EQ(mini.value().centroids.data()[i], lloyd.centroids.data()[i]);
  }
}

TEST(MiniBatchKMeansTest, ChunkedObjectiveWithinFactorOfBatchLloyd) {
  // Genuinely chunked training (8 chunks/epoch, sample seeding) is an
  // approximation; pin how loose it is allowed to get. Both objectives are
  // measured with StreamInertia over the same stream so the comparison is
  // apples to apples.
  const LabeledDataset ds = MakeGaussianMixture(4096, 16, 32, 8.0f, 1.0f, 33);
  KMeansConfig lc;
  lc.num_clusters = 32;
  lc.max_iterations = 10;
  lc.seed = 33;
  const KMeansResult lloyd = RunKMeans(ds.points, lc);

  MiniBatchKMeansConfig mc;
  mc.num_clusters = 32;
  mc.epochs = 10;
  mc.chunk_rows = 512;
  mc.seed = 33;
  MatrixStream stream(ds.points);
  auto sample = ReservoirSample(&stream, 1024, 33);
  ASSERT_TRUE(sample.ok());
  auto mini = RunMiniBatchKMeans(&stream, sample.value(), mc);
  ASSERT_TRUE(mini.ok()) << mini.status().ToString();

  auto mini_obj = StreamInertia(&stream, mini.value().centroids, 512);
  auto lloyd_obj = StreamInertia(&stream, lloyd.centroids, 512);
  ASSERT_TRUE(mini_obj.ok());
  ASSERT_TRUE(lloyd_obj.ok());
  EXPECT_GT(mini_obj.value(), 0.0);
  EXPECT_LE(mini_obj.value(), 1.25 * lloyd_obj.value())
      << "mini-batch " << mini_obj.value() << " vs Lloyd "
      << lloyd_obj.value();
}

TEST(MiniBatchKMeansTest, DiskStreamMatchesMatrixStream) {
  // The trainer sees only the ChunkStream interface; the same rows through
  // an .fvecs reader must give bit-identical centroids.
  const LabeledDataset ds = MakeGaussianMixture(700, 5, 4, 12.0f, 1.0f, 34);
  const std::string path = testing::TempDir() + "/minibatch_train.fvecs";
  ASSERT_TRUE(WriteFvecs(path, ds.points).ok());
  auto reader = FvecsReader::Open(path);
  ASSERT_TRUE(reader.ok());
  MatrixStream mem(ds.points);

  MiniBatchKMeansConfig mc;
  mc.num_clusters = 8;
  mc.epochs = 4;
  mc.chunk_rows = 128;
  mc.seed = 34;
  auto sample_disk = ReservoirSample(&reader.value(), 256, 34);
  auto sample_mem = ReservoirSample(&mem, 256, 34);
  ASSERT_TRUE(sample_disk.ok());
  ASSERT_TRUE(sample_mem.ok());
  auto from_disk = RunMiniBatchKMeans(&reader.value(), sample_disk.value(), mc);
  auto from_mem = RunMiniBatchKMeans(&mem, sample_mem.value(), mc);
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  ASSERT_TRUE(from_mem.ok());

  EXPECT_EQ(from_disk.value().inertia, from_mem.value().inertia);
  EXPECT_EQ(from_disk.value().epochs_run, from_mem.value().epochs_run);
  for (size_t i = 0; i < from_mem.value().centroids.size(); ++i) {
    ASSERT_EQ(from_disk.value().centroids.data()[i],
              from_mem.value().centroids.data()[i]);
  }
  std::remove(path.c_str());
}

TEST(KMeansPartitionerTest, ScoreArgmaxMatchesNearestCentroid) {
  Rng rng(8);
  const Matrix data = Matrix::RandomGaussian(300, 8, &rng);
  KMeansConfig config;
  config.num_clusters = 6;
  config.seed = 8;
  KMeansPartitioner partitioner(data, config);
  const Matrix queries = Matrix::RandomGaussian(20, 8, &rng);
  const auto bins = partitioner.AssignBins(queries);
  for (size_t q = 0; q < 20; ++q) {
    float best = 1e30f;
    uint32_t best_c = 0;
    for (size_t c = 0; c < 6; ++c) {
      const float dist = SquaredDistance(
          queries.Row(q), partitioner.centroids().Row(c), 8);
      if (dist < best) {
        best = dist;
        best_c = static_cast<uint32_t>(c);
      }
    }
    EXPECT_EQ(bins[q], best_c);
  }
}

TEST(CrossPolytopeLshTest, RequiresEvenBins) {
  // Even bins work; scores have the +/- structure.
  CrossPolytopeLsh lsh(16, 8, 1);
  EXPECT_EQ(lsh.num_bins(), 8u);
}

TEST(CrossPolytopeLshTest, ScoresAreAntisymmetric) {
  CrossPolytopeLsh lsh(10, 6, 2);
  Rng rng(9);
  const Matrix points = Matrix::RandomGaussian(5, 10, &rng);
  const Matrix scores = lsh.ScoreBins(points);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_FLOAT_EQ(scores(i, j), -scores(i, 3 + j));
    }
  }
}

TEST(CrossPolytopeLshTest, ScaleInvariantHash) {
  CrossPolytopeLsh lsh(12, 8, 3);
  Rng rng(10);
  Matrix point(1, 12);
  rng.FillGaussian(point.data(), 12);
  Matrix scaled = point.Clone();
  for (size_t j = 0; j < 12; ++j) scaled(0, j) *= 7.5f;
  EXPECT_EQ(lsh.AssignBins(point)[0], lsh.AssignBins(scaled)[0]);
}

TEST(CrossPolytopeLshTest, NearbyPointsOftenCollide) {
  CrossPolytopeLsh lsh(16, 8, 4);
  Rng rng(11);
  size_t collisions = 0;
  const size_t trials = 200;
  for (size_t t = 0; t < trials; ++t) {
    Matrix pair(2, 16);
    rng.FillGaussian(pair.data(), 16);
    for (size_t j = 0; j < 16; ++j) {
      pair(1, j) = pair(0, j) + 0.05f * static_cast<float>(rng.Gaussian());
    }
    const auto bins = lsh.AssignBins(pair);
    if (bins[0] == bins[1]) ++collisions;
  }
  // Tightly correlated pairs should nearly always hash together.
  EXPECT_GT(collisions, trials * 8 / 10);
}

// ---- Partition trees ----

struct TreeCase {
  const char* name;
  bool needs_knn;
};

// Without a printer gtest lists the param as raw bytes, which include the
// address of `name` and so change from run to run; print the case name so
// the listed test IDs stay stable.
void PrintTo(const TreeCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class PartitionTreeTest : public ::testing::TestWithParam<TreeCase> {
 protected:
  static HyperplaneSplitFn MakeSplit(const std::string& name) {
    if (name == "rp") return RandomProjectionSplit();
    if (name == "pca") return PcaSplit();
    if (name == "two_means") return TwoMeansSplit();
    if (name == "learned_kd") return LearnedKdSplit();
    return BoostedSearchSplit();
  }
};

TEST_P(PartitionTreeTest, BuildsBalancedLeavesAndSearches) {
  const TreeCase test_case = GetParam();
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kGaussian;
  spec.num_base = 800;
  spec.num_queries = 60;
  spec.gt_k = 10;
  spec.knn_k = 8;
  spec.seed = 17;
  const Workload w = MakeWorkload(spec);

  PartitionTreeConfig config;
  config.depth = 4;  // 16 leaves
  config.seed = 21;
  PartitionTree tree(w.base, config, MakeSplit(test_case.name),
                     &w.knn_matrix);
  EXPECT_GE(tree.num_bins(), 8u);
  EXPECT_LE(tree.num_bins(), 16u);

  // Leaves partition the dataset without starvation.
  const auto bins = tree.AssignBins(w.base);
  const auto histogram = BinHistogram(bins, tree.num_bins());
  size_t nonempty = 0;
  for (size_t count : histogram) {
    if (count > 0) ++nonempty;
  }
  EXPECT_GE(nonempty, tree.num_bins() / 2);

  // Multi-probe search reaches decent recall well below a full scan.
  PartitionIndex index(&w.base, &tree);
  const auto result = index.SearchBatch(w.queries, 10, tree.num_bins() / 2);
  const double accuracy =
      KnnAccuracy(result, w.ground_truth.indices, w.ground_truth.k);
  EXPECT_GT(accuracy, 0.5) << test_case.name;
  EXPECT_LT(result.MeanCandidates(), 0.95 * w.base.rows());
}

INSTANTIATE_TEST_SUITE_P(
    Splits, PartitionTreeTest,
    ::testing::Values(TreeCase{"rp", false}, TreeCase{"pca", false},
                      TreeCase{"two_means", false},
                      TreeCase{"learned_kd", true},
                      TreeCase{"boosted", true}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      return std::string(info.param.name);
    });

TEST(PartitionTreeTest, MedianSplitsAreBalanced) {
  Rng rng(22);
  const Matrix data = Matrix::RandomGaussian(512, 6, &rng);
  PartitionTreeConfig config;
  config.depth = 3;  // 8 leaves of 64 each under perfect median splits
  PartitionTree tree(data, config, RandomProjectionSplit());
  const auto bins = tree.AssignBins(data);
  EXPECT_LT(BalanceRatio(bins, tree.num_bins()), 1.3);
}

TEST(PartitionTreeTest, ScoresFormDistributionOverLeaves) {
  Rng rng(23);
  const Matrix data = Matrix::RandomGaussian(256, 4, &rng);
  PartitionTreeConfig config;
  config.depth = 3;
  PartitionTree tree(data, config, PcaSplit());
  const Matrix scores = tree.ScoreBins(data.GatherRows({0, 1, 2}));
  for (size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < tree.num_bins(); ++j) {
      EXPECT_GE(scores(i, j), 0.0f);
      sum += scores(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-3);  // sigmoid products over a full binary tree
  }
}

TEST(PartitionTreeTest, MinLeafSizeStopsSplitting) {
  Rng rng(24);
  const Matrix data = Matrix::RandomGaussian(40, 4, &rng);
  PartitionTreeConfig config;
  config.depth = 10;
  config.min_leaf_size = 16;
  PartitionTree tree(data, config, RandomProjectionSplit());
  // 40 points with min leaf 16 -> at most 2 levels of splits.
  EXPECT_LE(tree.num_bins(), 4u);
}

TEST(PartitionTreeTest, ParameterCountScalesWithInternalNodes) {
  Rng rng(25);
  const Matrix data = Matrix::RandomGaussian(256, 10, &rng);
  PartitionTreeConfig config;
  config.depth = 2;  // 3 internal nodes
  PartitionTree tree(data, config, RandomProjectionSplit());
  EXPECT_EQ(tree.ParameterCount(), 3u * 11u);
}

}  // namespace
}  // namespace usp
