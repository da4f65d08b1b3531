// Tests for persistence: a saved-and-reloaded partitioner must behave
// identically to the original (including batch-norm running statistics); every
// index type must round-trip through the container format (docs/FORMAT.md)
// with bit-identical search results under both the streaming and the
// zero-copy mmap loader; and malformed inputs must fail with clear Status
// codes, never crash.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <unistd.h>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/ensemble.h"
#include "core/partition_index.h"
#include "core/partitioner.h"
#include "dataset/workload.h"
#include "hnsw/hnsw.h"
#include "index/container.h"
#include "index/serialize.h"
#include "ivf/ivf.h"
#include "quant/scann_index.h"
#include "quant/sq8_index.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"

namespace usp {
namespace {

const Workload& SerializeWorkload() {
  static const Workload* w = [] {
    WorkloadSpec spec;
    spec.kind = WorkloadKind::kGaussian;
    spec.num_base = 800;
    spec.num_queries = 60;
    spec.gt_k = 10;
    spec.knn_k = 8;
    spec.seed = 91;
    return new Workload(MakeWorkload(spec));
  }();
  return *w;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

UspPartitioner TrainSmall(UspModelKind kind) {
  UspTrainConfig config;
  config.num_bins = 8;
  config.model = kind;
  config.eta = 8.0f;
  config.epochs = 10;
  config.batch_size = 256;
  config.hidden_dim = 32;
  config.seed = 17;
  UspPartitioner partitioner(config);
  const Workload& w = SerializeWorkload();
  partitioner.Train(w.base, w.knn_matrix);
  return partitioner;
}

TEST(SerializeTest, MlpRoundTripScoresIdentically) {
  const Workload& w = SerializeWorkload();
  const UspPartitioner original = TrainSmall(UspModelKind::kMlp);
  const std::string path = TempPath("model.uspm");
  ASSERT_TRUE(original.Save(path).ok());

  auto loaded = UspPartitioner::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Matrix a = original.ScoreBins(w.queries);
  const Matrix b = loaded.value().ScoreBins(w.queries);
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << "score mismatch at " << i;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ReloadedModelDrivesIdenticalIndex) {
  const Workload& w = SerializeWorkload();
  const UspPartitioner original = TrainSmall(UspModelKind::kMlp);
  const std::string path = TempPath("index_model.uspm");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = UspPartitioner::Load(path);
  ASSERT_TRUE(loaded.ok());

  PartitionIndex original_index(&w.base, &original);
  PartitionIndex loaded_index(&w.base, &loaded.value());
  EXPECT_EQ(original_index.assignments(), loaded_index.assignments());
  const auto ra = original_index.SearchBatch(w.queries, 10, 2);
  const auto rb = loaded_index.SearchBatch(w.queries, 10, 2);
  EXPECT_EQ(ra.ids, rb.ids);
  std::remove(path.c_str());
}

TEST(SerializeTest, LogisticRoundTrip) {
  const Workload& w = SerializeWorkload();
  const UspPartitioner original = TrainSmall(UspModelKind::kLogisticRegression);
  const std::string path = TempPath("logistic.uspm");
  ASSERT_TRUE(original.Save(path).ok());
  auto loaded = UspPartitioner::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(original.AssignBins(w.base), loaded.value().AssignBins(w.base));
  EXPECT_EQ(loaded.value().ParameterCount(), original.ParameterCount());
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveUntrainedFailsPrecondition) {
  UspTrainConfig config;
  config.num_bins = 4;
  UspPartitioner untrained(config);
  const Status status = untrained.Save(TempPath("untrained.uspm"));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SerializeTest, LoadMissingFileIsIoError) {
  auto result = UspPartitioner::Load(TempPath("nope.uspm"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(SerializeTest, LoadGarbageIsInvalidArgument) {
  const std::string path = TempPath("garbage.uspm");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[128] = "definitely not a model";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto result = UspPartitioner::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadTruncatedIsError) {
  // Save a valid model, truncate it, expect a clean IO/argument error — never
  // a crash and never a silently half-loaded model.
  const UspPartitioner original = TrainSmall(UspModelKind::kMlp);
  const std::string path = TempPath("truncated.uspm");
  ASSERT_TRUE(original.Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(0, truncate(path.c_str(), size / 2));
  auto result = UspPartitioner::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().code() == StatusCode::kIoError ||
              result.status().code() == StatusCode::kInvalidArgument)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadTruncatedHeaderIsIoError) {
  // Cut inside the fixed-size header: the first read itself comes up short.
  const UspPartitioner original = TrainSmall(UspModelKind::kMlp);
  const std::string path = TempPath("truncated_header.uspm");
  ASSERT_TRUE(original.Save(path).ok());
  ASSERT_EQ(0, truncate(path.c_str(), 40));
  auto result = UspPartitioner::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadTruncatedTensorDataIsIoError) {
  // Cut a few bytes off the end: header parses, the last tensor record is
  // short.
  const UspPartitioner original = TrainSmall(UspModelKind::kMlp);
  const std::string path = TempPath("truncated_tensor.uspm");
  ASSERT_TRUE(original.Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 7);
  ASSERT_EQ(0, truncate(path.c_str(), size - 7));
  auto result = UspPartitioner::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadWrongMagicIsInvalidArgument) {
  // A structurally complete file whose magic bytes are wrong must be rejected
  // as not-a-model, before any tensor data is interpreted.
  const UspPartitioner original = TrainSmall(UspModelKind::kMlp);
  const std::string path = TempPath("wrong_magic.uspm");
  ASSERT_TRUE(original.Save(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint64_t bogus_magic = 0xDEADBEEFDEADBEEFULL;
  ASSERT_EQ(sizeof(bogus_magic),
            std::fwrite(&bogus_magic, 1, sizeof(bogus_magic), f));
  std::fclose(f);
  auto result = UspPartitioner::Load(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Container format: save -> LoadIndex / MmapIndex round trips for every index
// type, with bit-identical search results, plus corruption rejection.
// ---------------------------------------------------------------------------

// Compares SearchBatch outputs element-wise (ids and candidate counts).
void ExpectSameResults(const Index& original, const Index& reopened,
                       const Matrix& queries, size_t k, size_t budget,
                       const std::string& label) {
  const BatchSearchResult a = original.SearchBatch(queries, k, budget);
  const BatchSearchResult b = reopened.SearchBatch(queries, k, budget);
  ASSERT_EQ(a.ids.size(), b.ids.size()) << label;
  EXPECT_EQ(a.ids, b.ids) << label;
  EXPECT_EQ(a.candidate_counts, b.candidate_counts) << label;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Saves `index`, reopens it through both loaders, and checks searches are
// bit-identical to the in-memory original in both modes, that interface
// metadata survives, and that saving either loaded index reproduces the
// saved bytes.
void ExpectRoundTrip(const Index& index, const Matrix& queries, size_t k,
                     size_t budget, const std::string& name) {
  const std::string path = TempPath(name + ".uspidx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  const std::string saved = FileBytes(path);

  auto heap = LoadIndex(path);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  auto mapped = MmapIndex(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  for (const auto* reopened : {&heap, &mapped}) {
    const Index& loaded = *reopened->value();
    EXPECT_EQ(loaded.type(), index.type());
    EXPECT_EQ(loaded.dim(), index.dim());
    EXPECT_EQ(loaded.size(), index.size());
    EXPECT_EQ(loaded.metric(), index.metric());
    EXPECT_EQ(loaded.underlying().type(), index.type());
    StatusOr<std::string> resaved = SerializeIndex(loaded);
    ASSERT_TRUE(resaved.ok()) << resaved.status().ToString();
    EXPECT_TRUE(resaved.value() == saved) << name;
  }
  ExpectSameResults(index, *heap.value(), queries, k, budget, name + "/heap");
  ExpectSameResults(index, *mapped.value(), queries, k, budget,
                    name + "/mmap");

  // Single-query path agrees with the batch path on the loaded index.
  std::vector<uint32_t> single =
      mapped.value()->Search(queries.Row(0), k, budget);
  const BatchSearchResult batch = index.SearchBatch(queries, k, budget);
  ASSERT_LE(single.size(), k);
  for (size_t j = 0; j < single.size(); ++j) {
    EXPECT_EQ(single[j], batch.Row(0)[j]) << name;
  }

  // A loaded index can be re-saved: the save path reads through underlying().
  const std::string resaved = TempPath(name + "_resaved.uspidx");
  ASSERT_TRUE(SaveIndex(*mapped.value(), resaved).ok()) << name;
  auto reopened = LoadIndex(resaved);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameResults(index, *reopened.value(), queries, k, budget,
                    name + "/resaved");
  std::remove(resaved.c_str());
  std::remove(path.c_str());
}

TEST(IndexContainerTest, PartitionIndexWithUspScorerRoundTrips) {
  const Workload& w = SerializeWorkload();
  const UspPartitioner scorer = TrainSmall(UspModelKind::kMlp);
  PartitionIndex index(&w.base, &scorer);
  ExpectRoundTrip(index, w.queries, 10, 3, "partition_usp");
}

TEST(IndexContainerTest, PartitionIndexWithKMeansScorerRoundTrips) {
  const Workload& w = SerializeWorkload();
  KMeansConfig kc;
  kc.num_clusters = 8;
  kc.seed = 5;
  const KMeansPartitioner scorer(w.base, kc);
  PartitionIndex index(&w.base, &scorer);
  ExpectRoundTrip(index, w.queries, 10, 3, "partition_kmeans");
}

TEST(IndexContainerTest, PartitionIndexCosineRoundTrips) {
  // Cosine stresses the no-renormalization contract of
  // KMeansPartitioner::FromTrainedCentroids: a second normalization pass on
  // reload would drift the stored unit centroids by an ulp.
  const Workload& w = SerializeWorkload();
  KMeansConfig kc;
  kc.num_clusters = 8;
  kc.seed = 5;
  const KMeansResult km = RunKMeans(w.base, kc);
  const KMeansPartitioner scorer(km.centroids.Clone(), Metric::kCosine);
  PartitionIndex index(&w.base, &scorer, Metric::kCosine);
  ExpectRoundTrip(index, w.queries, 10, 3, "partition_cosine");
}

TEST(IndexContainerTest, IvfFlatRoundTripsUnderEveryMetric) {
  const Workload& w = SerializeWorkload();
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    IvfConfig config;
    config.nlist = 16;
    config.seed = 3;
    config.metric = metric;
    IvfFlatIndex index(&w.base, config);
    ExpectRoundTrip(index, w.queries, 10, 4,
                    std::string("ivf_flat_") + MetricName(metric));
  }
}

TEST(IndexContainerTest, IvfPqRoundTripsUnderEveryMetric) {
  // codebook_size = 16 also exercises the kPqPackedCodes fast-scan section.
  const Workload& w = SerializeWorkload();
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    IvfConfig config;
    config.nlist = 16;
    config.seed = 3;
    config.metric = metric;
    config.pq.num_subspaces = 4;
    config.pq.codebook_size = 16;
    config.rerank_budget = 50;
    IvfPqIndex index(&w.base, config);
    ExpectRoundTrip(index, w.queries, 10, 4,
                    std::string("ivf_pq_") + MetricName(metric));
  }
}

TEST(IndexContainerTest, IvfPqWideCodebookRoundTripsWithoutPackedSection) {
  // codebook_size > 16 has no fast-scan form: the container must omit
  // kPqPackedCodes and still round-trip through the float ADC path.
  const Workload& w = SerializeWorkload();
  IvfConfig config;
  config.nlist = 16;
  config.seed = 3;
  config.pq.num_subspaces = 4;
  config.pq.codebook_size = 32;
  config.rerank_budget = 50;
  IvfPqIndex index(&w.base, config);
  EXPECT_FALSE(index.has_fast_scan());
  ExpectRoundTrip(index, w.queries, 10, 4, "ivf_pq_wide");

  const std::string path = TempPath("ivf_pq_wide_section.uspidx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  auto container = ContainerReader::OpenMmap(path);
  ASSERT_TRUE(container.ok());
  EXPECT_FALSE(container.value()->Has(SectionTag::kPqPackedCodes, 0));
  std::remove(path.c_str());
}

TEST(IndexContainerTest, PackedCodesSectionIsSavedAndAdoptedOnLoad) {
  const Workload& w = SerializeWorkload();
  IvfConfig config;
  config.nlist = 16;
  config.seed = 3;
  config.pq.num_subspaces = 4;
  config.pq.codebook_size = 16;
  IvfPqIndex index(&w.base, config);
  ASSERT_TRUE(index.has_fast_scan());

  const std::string path = TempPath("ivf_pq_packed.uspidx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  auto container = ContainerReader::OpenMmap(path);
  ASSERT_TRUE(container.ok());
  EXPECT_TRUE(container.value()->Has(SectionTag::kPqPackedCodes, 0));

  // A mapped load serves the saved blocks zero-copy; the loaded index still
  // fast-scans and answers identically (covered by the round-trip test, but
  // pin the fast-scan state explicitly here).
  auto mapped = MmapIndex(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const auto& loaded =
      static_cast<const IvfPqIndex&>(mapped.value()->underlying());
  EXPECT_TRUE(loaded.has_fast_scan());
  EXPECT_EQ(loaded.PackedBytes(), index.PackedBytes());
  std::remove(path.c_str());
}

TEST(IndexContainerTest, Sq8RoundTripsUnderEveryMetric) {
  const Workload& w = SerializeWorkload();
  for (const Metric metric :
       {Metric::kSquaredL2, Metric::kInnerProduct, Metric::kCosine}) {
    Sq8IndexConfig config;
    config.metric = metric;
    config.rerank_budget = 40;
    Sq8Index index(&w.base, config);
    ExpectRoundTrip(index, w.queries, 10, 1,
                    std::string("sq8_") + MetricName(metric));
  }
}

TEST(IndexContainerTest, ScannWithPartitionRoundTrips) {
  const Workload& w = SerializeWorkload();
  const UspPartitioner scorer = TrainSmall(UspModelKind::kLogisticRegression);
  PqConfig pc;
  pc.num_subspaces = 4;
  pc.codebook_size = 16;
  pc.anisotropic_eta = 2.0f;
  ProductQuantizer pq(pc);
  pq.Train(w.base);
  ScannIndexConfig sc;
  sc.rerank_budget = 40;
  ScannIndex index(&w.base, &scorer, std::move(pq), sc);
  ExpectRoundTrip(index, w.queries, 10, 3, "scann_partitioned");
}

TEST(IndexContainerTest, ScannWithoutPartitionRoundTrips) {
  const Workload& w = SerializeWorkload();
  PqConfig pc;
  pc.num_subspaces = 4;
  pc.codebook_size = 16;
  ProductQuantizer pq(pc);
  pq.Train(w.base);
  ScannIndex index(&w.base, nullptr, std::move(pq), ScannIndexConfig{});
  ExpectRoundTrip(index, w.queries, 10, 1, "scann_flat");
}

TEST(IndexContainerTest, HnswRoundTrips) {
  const Workload& w = SerializeWorkload();
  HnswConfig config;
  config.max_neighbors = 8;
  config.ef_construction = 40;
  HnswIndex index(config);
  index.Build(w.base);
  ExpectRoundTrip(index, w.queries, 10, 30, "hnsw");
}

TEST(IndexContainerTest, EnsembleRoundTrips) {
  const Workload& w = SerializeWorkload();
  UspEnsembleConfig config;
  config.num_models = 2;
  config.model.num_bins = 8;
  config.model.epochs = 6;
  config.model.hidden_dim = 16;
  config.model.seed = 11;
  UspEnsemble ensemble(config);
  ensemble.Train(w.base, w.knn_matrix);
  ExpectRoundTrip(ensemble, w.queries, 10, 2, "ensemble");

  // Union combining survives the round trip too (stored in the config
  // record, not implied by the default).
  config.combine = EnsembleCombine::kUnion;
  UspEnsemble union_ensemble(config);
  union_ensemble.Train(w.base, w.knn_matrix);
  ExpectRoundTrip(union_ensemble, w.queries, 10, 2, "ensemble_union");
}

TEST(IndexContainerTest, RegistryCoversEveryType) {
  EXPECT_EQ(IndexLoaderRegistry().size(), 9u);
  for (const IndexLoaderEntry& entry : IndexLoaderRegistry()) {
    EXPECT_EQ(FindIndexLoader(static_cast<uint32_t>(entry.type)), &entry);
    EXPECT_STREQ(IndexTypeName(entry.type), entry.name);
  }
  EXPECT_EQ(FindIndexLoader(0), nullptr);
  EXPECT_EQ(FindIndexLoader(999), nullptr);
}

TEST(IndexContainerTest, SaveRejectsUnserializableScorer) {
  // A scorer type with no on-disk representation must be rejected with a
  // Status, not silently written as garbage.
  class OddEvenScorer : public BinScorer {
   public:
    size_t num_bins() const override { return 2; }
    Matrix ScoreBins(MatrixView points) const override {
      Matrix scores(points.rows(), 2);
      for (size_t i = 0; i < points.rows(); ++i) {
        scores(i, i % 2) = 1.0f;
      }
      return scores;
    }
  };
  const Workload& w = SerializeWorkload();
  OddEvenScorer scorer;
  PartitionIndex index(&w.base, &scorer);
  const Status status = SaveIndex(index, TempPath("odd_even.uspidx"));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(IndexContainerTest, IvfPqValidateConfigAcceptsAllMetrics) {
  // The dot-ADC tables lifted the historical L2-only restriction: every
  // metric validates; only malformed shape parameters are rejected.
  IvfConfig config;
  config.metric = Metric::kInnerProduct;
  EXPECT_TRUE(IvfPqIndex::ValidateConfig(config).ok());
  config.metric = Metric::kCosine;
  EXPECT_TRUE(IvfPqIndex::ValidateConfig(config).ok());
  config.metric = Metric::kSquaredL2;
  EXPECT_TRUE(IvfPqIndex::ValidateConfig(config).ok());
  config.pq.codebook_size = 300;  // does not fit a one-byte code
  EXPECT_EQ(IvfPqIndex::ValidateConfig(config).code(),
            StatusCode::kInvalidArgument);
  config.pq.codebook_size = 16;
  config.nlist = 0;
  EXPECT_EQ(IvfPqIndex::ValidateConfig(config).code(),
            StatusCode::kInvalidArgument);
}

// Writes a small valid container and returns its path.
std::string WriteValidContainer(const std::string& name) {
  const Workload& w = SerializeWorkload();
  KMeansConfig kc;
  kc.num_clusters = 8;
  kc.seed = 5;
  static const KMeansPartitioner* scorer =
      new KMeansPartitioner(SerializeWorkload().base, kc);
  PartitionIndex index(&w.base, scorer);
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveIndex(index, path).ok());
  return path;
}

void PatchFile(const std::string& path, long offset, uint32_t value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(0, std::fseek(f, offset, SEEK_SET));
  ASSERT_EQ(sizeof(value), std::fwrite(&value, 1, sizeof(value), f));
  std::fclose(f);
}

TEST(IndexContainerTest, OpenMissingFileIsIoError) {
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto result = OpenIndex(TempPath("does_not_exist.uspidx"), mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
}

TEST(IndexContainerTest, OpenGarbageIsInvalidArgument) {
  const std::string path = TempPath("garbage.uspidx");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[256] = "not a container at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto result = OpenIndex(path, mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(IndexContainerTest, TruncatedContainerIsRejectedEverywhere) {
  // Chop the file at many depths: the header file_size check must catch every
  // one of them with a Status, never a crash or an out-of-bounds read.
  const std::string path = WriteValidContainer("truncate_sweep.uspidx");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  for (const long cut : {4L, 32L, 63L, 64L, 200L, full / 2, full - 1}) {
    ASSERT_LT(cut, full);
    const std::string copy = TempPath("truncated_cut.uspidx");
    std::FILE* in = std::fopen(path.c_str(), "rb");
    std::FILE* out = std::fopen(copy.c_str(), "wb");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(out, nullptr);
    std::vector<char> buffer(cut);
    ASSERT_EQ(static_cast<size_t>(cut),
              std::fread(buffer.data(), 1, cut, in));
    ASSERT_EQ(static_cast<size_t>(cut),
              std::fwrite(buffer.data(), 1, cut, out));
    std::fclose(in);
    std::fclose(out);
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      auto result = OpenIndex(copy, mode);
      ASSERT_FALSE(result.ok()) << "cut at " << cut;
      EXPECT_TRUE(result.status().code() == StatusCode::kIoError ||
                  result.status().code() == StatusCode::kInvalidArgument)
          << "cut at " << cut << ": " << result.status().ToString();
    }
    std::remove(copy.c_str());
  }
  std::remove(path.c_str());
}

TEST(IndexContainerTest, TrailingGarbageIsRejected) {
  const std::string path = WriteValidContainer("padded.uspidx");
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char extra[16] = {};
  std::fwrite(extra, 1, sizeof(extra), f);
  std::fclose(f);
  auto result = LoadIndex(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IndexContainerTest, WrongVersionIsInvalidArgument) {
  const std::string path = WriteValidContainer("skewed_version.uspidx");
  PatchFile(path, 8, 999);  // header.version
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto result = OpenIndex(path, mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(IndexContainerTest, UnknownTypeTagIsInvalidArgument) {
  const std::string path = WriteValidContainer("unknown_type.uspidx");
  PatchFile(path, 12, 77);  // header.index_type
  auto result = LoadIndex(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("type tag"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IndexContainerTest, UnknownMetricIsInvalidArgument) {
  const std::string path = WriteValidContainer("bad_metric.uspidx");
  PatchFile(path, 16, 9);  // header.metric
  auto result = LoadIndex(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

void PatchFile64(const std::string& path, long offset, uint64_t value) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(0, std::fseek(f, offset, SEEK_SET));
  ASSERT_EQ(sizeof(value), std::fwrite(&value, 1, sizeof(value), f));
  std::fclose(f);
}

// Locates a section's payload offset through the public reader API so the
// corruption tests don't hard-code the save-side section order.
long SectionOffset(const std::string& path, SectionTag tag,
                   uint32_t ordinal = 0) {
  auto reader = ContainerReader::OpenFile(path);
  EXPECT_TRUE(reader.ok());
  auto entry = reader.value()->Find(tag, ordinal);
  EXPECT_TRUE(entry.ok());
  return static_cast<long>(entry.value().offset);
}

template <typename T>
T ReadField(const std::string& path, long offset) {
  T value{};
  std::ifstream in(path, std::ios::binary);
  in.seekg(offset);
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return value;
}

TEST(IndexContainerTest, CorruptNlistIsStatusNotBadAlloc) {
  // A patched shape field must never drive an allocation: the loader checks
  // the stored section size against the shape before allocating.
  const Workload& w = SerializeWorkload();
  IvfConfig config;
  config.nlist = 16;
  IvfFlatIndex index(&w.base, config);
  const std::string path = TempPath("huge_nlist.uspidx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  // IvfFlatConfigRecord.nlist is the first field of the config payload.
  PatchFile64(path, SectionOffset(path, SectionTag::kConfig), 1ULL << 40);
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto result = OpenIndex(path, mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(IndexContainerTest, CorruptEmbeddedModelHeaderIsStatusNotBadAlloc) {
  const Workload& w = SerializeWorkload();
  const UspPartitioner scorer = TrainSmall(UspModelKind::kMlp);
  PartitionIndex index(&w.base, &scorer);
  const std::string path = TempPath("huge_hidden.uspidx");
  ASSERT_TRUE(SaveIndex(index, path).ok());
  // The embedded model record stores hidden_dim as header word 4 (byte 32).
  PatchFile64(path, SectionOffset(path, SectionTag::kUspModel) + 32,
              1ULL << 40);
  for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
    auto result = OpenIndex(path, mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

// One patched field of a saved container.
struct Corruption {
  const char* name;
  std::function<void(const std::string& path)> apply;
};

// Applies each corruption to a fresh copy of the container at `saved`;
// OpenIndex must return kInvalidArgument in both load modes.
void ExpectCorruptionsRejected(const std::string& saved,
                               const std::vector<Corruption>& corruptions) {
  const std::string bytes = FileBytes(saved);
  for (const Corruption& corruption : corruptions) {
    const std::string path = TempPath(std::string("corrupt_") +
                                      corruption.name + ".uspidx");
    std::ofstream(path, std::ios::binary) << bytes;
    corruption.apply(path);
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      auto result = OpenIndex(path, mode);
      ASSERT_FALSE(result.ok()) << corruption.name;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << corruption.name << ": " << result.status().ToString();
    }
    std::remove(path.c_str());
  }
}

// Adds `delta` to the 64-bit field at `offset`.
void BumpField64(const std::string& path, long offset, int64_t delta) {
  PatchFile64(path, offset,
              ReadField<uint64_t>(path, offset) + static_cast<uint64_t>(delta));
}

// Field offsets inside the nested-container records (docs/FORMAT.md):
// DynamicConfigRecord {next_global_id, num_sealed, write_rows,
// tombstone_count, ...}, DynamicSegmentEntry {rows, index_type, ...},
// ShardedConfigRecord {next_global_id, num_shards} and ShardManifestEntry
// {rows, id_entries, index_type, ...}.
constexpr long kNumPointsOffset = offsetof(ContainerHeader, num_points);

TEST(IndexContainerTest, CorruptDynamicContainerIsInvalidArgument) {
  const Workload& w = SerializeWorkload();
  const size_t n = w.base.rows(), d = w.base.cols();
  DynamicIndex index(d);
  index.AddBatch(MatrixView(w.base.Row(0), 200, d));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(200), 200, d));
  index.Seal();
  index.AddBatch(MatrixView(w.base.Row(400), n - 400, d));
  ASSERT_TRUE(index.Delete(5));
  ASSERT_TRUE(index.Delete(205));
  ASSERT_TRUE(index.Delete(450));
  const std::string saved = TempPath("dynamic_intact.uspidx");
  ASSERT_TRUE(SaveIndex(index, saved).ok());
  const long config = SectionOffset(saved, SectionTag::kConfig);
  const long manifest = SectionOffset(saved, SectionTag::kManifest);
  const long ids0 = SectionOffset(saved, SectionTag::kIdMap, 0);
  const long ids1 = SectionOffset(saved, SectionTag::kIdMap, 1);
  ExpectCorruptionsRejected(
      saved,
      {{"num_sealed_5000",
        [&](const std::string& p) { PatchFile64(p, config + 8, 5000); }},
       {"tombstone_count_plus_1",
        [&](const std::string& p) { BumpField64(p, config + 24, 1); }},
       {"manifest_type_dynamic",
        [&](const std::string& p) {
          PatchFile(p, manifest + 8,
                    static_cast<uint32_t>(IndexType::kDynamic));
        }},
       {"manifest_rows_plus_1",
        [&](const std::string& p) { BumpField64(p, manifest, 1); }},
       {"id_repeated_across_segments",
        [&](const std::string& p) {
          PatchFile(p, ids1, ReadField<uint32_t>(p, ids0));
        }},
       {"id_equal_to_next_global_id",
        [&](const std::string& p) {
          PatchFile(p, ids0,
                    static_cast<uint32_t>(ReadField<uint64_t>(p, config)));
        }},
       {"header_num_points_plus_1",
        [&](const std::string& p) { BumpField64(p, kNumPointsOffset, 1); }},
       {"next_global_id_2_31",
        [&](const std::string& p) {
          PatchFile64(p, config, uint64_t{1} << 31);
        }}});
  std::remove(saved.c_str());
}

// A 400-row static sharded container over three shards.
std::string SaveShardedContainer(const std::string& name) {
  const Workload& w = SerializeWorkload();
  ShardedIndexConfig config;
  config.num_shards = 3;
  const ShardedIndex index(MatrixView(w.base.data(), 400, w.base.cols()),
                           config);
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveIndex(index, path).ok());
  return path;
}

TEST(IndexContainerTest, CorruptShardedContainerIsInvalidArgument) {
  const std::string saved = SaveShardedContainer("sharded_intact.uspidx");
  const long config = SectionOffset(saved, SectionTag::kConfig);
  const long manifest = SectionOffset(saved, SectionTag::kManifest);
  const long ids = SectionOffset(saved, SectionTag::kIdMap, 0);
  ASSERT_NE(ReadField<uint32_t>(saved, manifest + 16), 0u);  // shard 0 present
  const uint32_t id0 = ReadField<uint32_t>(saved, ids);
  const uint32_t id1 = ReadField<uint32_t>(saved, ids + 4);
  uint32_t foreign = 0;  // an id below id1 that hashes to another shard
  while (foreign < id1 && ShardedIndex::Place(foreign, 3) == 0) ++foreign;
  ASSERT_LT(foreign, id1);
  ExpectCorruptionsRejected(
      saved,
      {{"num_shards_0",
        [&](const std::string& p) { PatchFile64(p, config + 8, 0); }},
       {"manifest_type_sharded",
        [&](const std::string& p) {
          PatchFile(p, manifest + 16,
                    static_cast<uint32_t>(IndexType::kSharded));
        }},
       {"id_entries_minus_1",
        [&](const std::string& p) { BumpField64(p, manifest + 8, -1); }},
       {"ids_not_ascending",
        [&](const std::string& p) {
          PatchFile(p, ids, id1);
          PatchFile(p, ids + 4, id0);
        }},
       {"id_in_wrong_shard",
        [&](const std::string& p) { PatchFile(p, ids, foreign); }},
       {"header_num_points_plus_1",
        [&](const std::string& p) { BumpField64(p, kNumPointsOffset, 1); }}});
  std::remove(saved.c_str());
}

TEST(IndexContainerTest, ShardedNextGlobalIdBeyondIdMapsIsInvalidArgument) {
  // next_global_id sizes the loader's id tables; it may not exceed the id-map
  // entries the file holds (400 here: one per row).
  const std::string saved = SaveShardedContainer("sharded_next_id.uspidx");
  const long config = SectionOffset(saved, SectionTag::kConfig);
  ExpectCorruptionsRejected(
      saved, {{"next_global_id_n_plus_1",
               [&](const std::string& p) { PatchFile64(p, config, 401); }},
              {"next_global_id_2_24", [&](const std::string& p) {
                 PatchFile64(p, config, uint64_t{1} << 24);
               }}});
  std::remove(saved.c_str());
}

TEST(IndexContainerTest, MisalignedSectionOffsetIsInvalidArgument) {
  const std::string path = WriteValidContainer("misaligned.uspidx");
  // First section-table entry: tag(4) + ordinal(4), then offset at 64 + 8.
  PatchFile(path, 64 + 8, 65);
  auto result = LoadIndex(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace usp
