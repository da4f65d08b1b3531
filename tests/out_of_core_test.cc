// Tests for serve/out_of_core_builder.h: the disk-direct build must be
// byte-identical to SaveIndex of the in-memory reference build and must
// answer searches bit-identically through both load modes — and its working
// set must stay bounded while the base does not fit the budget an in-memory
// build would need.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "dataset/fvecs_stream.h"
#include "dataset/io.h"
#include "dataset/synthetic.h"
#include "index/id_selector.h"
#include "index/serialize.h"
#include "serve/out_of_core_builder.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace usp {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Process peak RSS in KiB (Linux ru_maxrss), a monotone high-water mark.
size_t PeakRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss);
}

/// Address/thread sanitizers keep shadow memory resident; the RSS cap only
/// means something in an unsanitized build.
constexpr bool SanitizerActive() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Writes `rows` Gaussian rows of width `dim` to an .fvecs file chunk by
/// chunk, so even the test fixture never materializes the full base.
void WriteGaussianFvecs(const std::string& path, size_t rows, size_t dim,
                        uint64_t seed, size_t chunk_rows) {
  Rng rng(seed);
  FvecsWriter writer(path);
  ASSERT_TRUE(writer.ok());
  for (size_t done = 0; done < rows; done += chunk_rows) {
    const size_t count = std::min(chunk_rows, rows - done);
    const Matrix chunk = Matrix::RandomGaussian(count, dim, &rng);
    ASSERT_TRUE(writer.Append(chunk).ok());
  }
  ASSERT_TRUE(writer.Close().ok());
}

std::vector<uint8_t> ReadAllBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void ExpectSameResults(const BatchSearchResult& a, const BatchSearchResult& b,
                       const std::string& label) {
  ASSERT_EQ(a.k, b.k) << label;
  ASSERT_EQ(a.ids, b.ids) << label;
  ASSERT_EQ(a.distances, b.distances) << label;
}

// ---------------------------------------------------------------------------
// Bounded-memory guard. Runs first (ctest isolates it in its own process, so
// the process-wide peak-RSS high-water mark is a clean baseline): building a
// 200k x 64d base (51.2 MB of fp32) with small chunks must fit in a budget
// the in-memory path provably exceeds — it would need the full 51.2 MB
// resident for the base matrix alone before any index structure.
// ---------------------------------------------------------------------------

TEST(OutOfCoreRssGuardTest, BuildPeakRssStaysFarBelowBaseSize) {
  const size_t rows = 200000, dim = 64;
  const std::string fvecs = TempPath("rss_guard.fvecs");
  const std::string index = TempPath("rss_guard.usp");
  WriteGaussianFvecs(fvecs, rows, dim, 77, 8192);

  OutOfCoreConfig config;
  config.kind = OutOfCoreKind::kIvfFlat;
  config.chunk_rows = 8192;
  config.nlist = 128;
  config.train_epochs = 1;
  config.sample_rows = 8192;
  config.seed = 77;

  const size_t before_kb = PeakRssKb();
  auto stats = OutOfCoreBuilder(config).Build(fvecs, index);
  const size_t after_kb = PeakRssKb();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().rows, rows);

  const size_t delta_kb = after_kb - before_kb;
  const size_t base_kb = rows * dim * sizeof(float) / 1024;  // 51200 KiB
  // Generous fixed cap: chunk buffers + sample + centroids + posting
  // buffers sum to ~15 MB at these knobs; 40 MB leaves allocator headroom
  // while staying well under the 51.2 MB the base alone would cost.
  const size_t cap_kb = SanitizerActive() ? 8 * 40960 : 40960;
  EXPECT_LT(delta_kb, cap_kb)
      << "build RSS delta " << delta_kb << " KiB, base is " << base_kb
      << " KiB";

  // The file it produced under that budget is a real, openable index.
  auto opened = MmapIndex(index);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value()->size(), rows);
  EXPECT_EQ(opened.value()->dim(), dim);
  std::remove(fvecs.c_str());
  std::remove(index.c_str());
}

// ---------------------------------------------------------------------------
// Bit-identity acceptance: disk-direct container == SaveIndex(BuildInMemory)
// byte for byte, and searches through heap and mmap loads match the
// in-memory index exactly, filtered and unfiltered, at full budget.
// ---------------------------------------------------------------------------

struct AcceptanceCase {
  const char* name;
  OutOfCoreKind kind;
  Metric metric;
};

// Without a printer gtest lists the param as raw bytes, which include the
// address of `name` and so change from build to build; print the case name
// so the listed test IDs stay stable.
void PrintTo(const AcceptanceCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class OutOfCoreAcceptanceTest
    : public testing::TestWithParam<AcceptanceCase> {};

TEST_P(OutOfCoreAcceptanceTest, DiskBuildMatchesInMemoryBuildBitForBit) {
  const AcceptanceCase& param = GetParam();
  const size_t rows = 20000, dim = 32;
  const LabeledDataset ds =
      MakeGaussianMixture(rows, dim, 40, 12.0f, 1.0f, 91);
  const std::string fvecs = TempPath(std::string(param.name) + ".fvecs");
  const std::string index_path = TempPath(std::string(param.name) + ".usp");
  const std::string saved_path =
      TempPath(std::string(param.name) + "_saved.usp");
  ASSERT_TRUE(WriteFvecs(fvecs, ds.points).ok());

  OutOfCoreConfig config;
  config.kind = param.kind;
  config.metric = param.metric;
  config.chunk_rows = 4096;  // 5 chunks: genuinely multi-chunk
  config.nlist = 64;
  config.train_epochs = 3;
  config.sample_rows = 4096;
  config.seed = 91;
  config.rerank_budget = 150;
  const OutOfCoreBuilder builder(config);

  auto stats = builder.Build(fvecs, index_path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().rows, rows);
  EXPECT_EQ(stats.value().dim, dim);
  EXPECT_EQ(stats.value().chunks, 5u);
  if (param.kind == OutOfCoreKind::kIvfFlat) {
    EXPECT_EQ(stats.value().nlist, 64u);
    EXPECT_GE(stats.value().epochs_run, 1u);
    EXPECT_GT(stats.value().train_inertia, 0.0);
    EXPECT_GE(stats.value().max_list, stats.value().min_list);
  }

  auto in_memory = builder.BuildInMemory(ds.points);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ASSERT_TRUE(SaveIndex(*in_memory.value(), saved_path).ok());

  // The disk-direct file and the saved in-memory build are the same bytes.
  const std::vector<uint8_t> direct = ReadAllBytes(index_path);
  const std::vector<uint8_t> saved = ReadAllBytes(saved_path);
  ASSERT_EQ(direct.size(), saved.size());
  ASSERT_EQ(stats.value().file_size, direct.size());
  EXPECT_EQ(std::memcmp(direct.data(), saved.data(), direct.size()), 0)
      << "disk-direct container diverges from SaveIndex(BuildInMemory)";

  // Full-budget searches agree bit for bit across in-memory, heap-loaded,
  // and mmap'd forms — unfiltered and under a selective predicate.
  auto heap = OpenIndex(index_path, LoadMode::kHeap);
  auto mapped = OpenIndex(index_path, LoadMode::kMmap);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  Rng rng(17);
  const Matrix queries = Matrix::RandomGaussian(64, dim, &rng);
  const IdSelectorRange filter(rows / 4, rows / 2);
  for (const bool filtered : {false, true}) {
    SearchRequest request;
    request.queries = queries;
    request.options.k = 10;
    request.options.budget = config.nlist;  // full budget: probe every list
    if (filtered) request.options.filter = &filter;
    const std::string label =
        std::string(param.name) + (filtered ? "/filtered" : "/unfiltered");

    const BatchSearchResult want = in_memory.value()->SearchBatch(request);
    ExpectSameResults(heap.value()->SearchBatch(request), want,
                      label + "/heap");
    ExpectSameResults(mapped.value()->SearchBatch(request), want,
                      label + "/mmap");
  }

  std::remove(fvecs.c_str());
  std::remove(index_path.c_str());
  std::remove(saved_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndMetrics, OutOfCoreAcceptanceTest,
    testing::Values(
        AcceptanceCase{"ivf_l2", OutOfCoreKind::kIvfFlat,
                       Metric::kSquaredL2},
        AcceptanceCase{"ivf_cosine", OutOfCoreKind::kIvfFlat,
                       Metric::kCosine},
        AcceptanceCase{"sq8_l2", OutOfCoreKind::kSq8, Metric::kSquaredL2},
        AcceptanceCase{"sq8_ip", OutOfCoreKind::kSq8,
                       Metric::kInnerProduct}),
    [](const testing::TestParamInfo<AcceptanceCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Error handling.
// ---------------------------------------------------------------------------

TEST(OutOfCoreBuilderTest, MissingBaseFileFails) {
  OutOfCoreConfig config;
  auto stats = OutOfCoreBuilder(config).Build(TempPath("no_such.fvecs"),
                                              TempPath("no_such.usp"));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
}

TEST(OutOfCoreBuilderTest, ZeroChunkRowsIsRejected) {
  Rng rng(3);
  const Matrix base = Matrix::RandomGaussian(50, 4, &rng);
  OutOfCoreConfig config;
  config.chunk_rows = 0;
  MatrixStream stream(base);
  auto stats = OutOfCoreBuilder(config).BuildFromStream(
      &stream, TempPath("zero_chunk.usp"));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
}

// nlist = 0 asks the mini-batch k-means for no clusters: every entry point
// that trains the coarse quantizer returns kInvalidArgument instead of
// aborting the process.
TEST(OutOfCoreBuilderTest, ZeroNlistIsRejected) {
  Rng rng(3);
  const Matrix base = Matrix::RandomGaussian(50, 4, &rng);
  OutOfCoreConfig config;
  config.nlist = 0;
  MatrixStream stream(base);
  auto stats = OutOfCoreBuilder(config).BuildFromStream(
      &stream, TempPath("zero_nlist.usp"));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);

  auto index = OutOfCoreBuilder(config).BuildInMemory(base);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);

  MiniBatchKMeansConfig mc;
  mc.num_clusters = 0;
  MatrixStream kmeans_stream(base);
  auto trained = RunMiniBatchKMeans(&kmeans_stream, base, mc);
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.status().code(), StatusCode::kInvalidArgument);
}

TEST(OutOfCoreBuilderTest, FailedBuildRemovesPartialOutput) {
  // A base that turns ragged mid-stream: the build must fail and must not
  // leave a half-written container behind.
  const std::string fvecs = TempPath("ragged_base.fvecs");
  const std::string index_path = TempPath("ragged_base.usp");
  std::FILE* f = std::fopen(fvecs.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const float values[3] = {1.0f, 2.0f, 3.0f};
  int32_t dim = 3;
  for (int rec = 0; rec < 3; ++rec) {
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fwrite(values, sizeof(float), 3, f);
  }
  dim = 2;  // ragged record, grid-preserving padding after it
  std::fwrite(&dim, sizeof(dim), 1, f);
  std::fwrite(values, sizeof(float), 2, f);
  const float pad = 0.0f;
  std::fwrite(&pad, sizeof(float), 1, f);
  std::fclose(f);

  OutOfCoreConfig config;
  config.chunk_rows = 2;
  config.nlist = 2;
  config.sample_rows = 2;
  auto stats = OutOfCoreBuilder(config).Build(fvecs, index_path);
  ASSERT_FALSE(stats.ok());
  std::FILE* leftover = std::fopen(index_path.c_str(), "rb");
  EXPECT_EQ(leftover, nullptr) << "partial container left behind";
  if (leftover != nullptr) std::fclose(leftover);
  std::remove(fvecs.c_str());
}

TEST(OutOfCoreBuilderTest, SuccessfulBuildLeavesOnlyTheContainer) {
  // The build's temp files (.assign.tmp) live next to the container; a
  // finished build must have removed every one of them.
  const LabeledDataset ds = MakeGaussianMixture(2000, 8, 6, 9.0f, 1.0f, 21);
  const std::string fvecs = TempPath("clean_dir.fvecs");
  ASSERT_TRUE(WriteFvecs(fvecs, ds.points).ok());
  std::string dir = TempPath("clean_dir_XXXXXX");
  ASSERT_NE(mkdtemp(&dir[0]), nullptr);
  OutOfCoreConfig config;
  config.chunk_rows = 300;
  config.nlist = 32;
  config.sample_rows = 1000;
  auto stats = OutOfCoreBuilder(config).Build(fvecs, dir + "/index.usp");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  std::vector<std::string> entries;
  DIR* listing = opendir(dir.c_str());
  ASSERT_NE(listing, nullptr);
  while (const dirent* entry = readdir(listing)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") entries.push_back(name);
  }
  closedir(listing);
  EXPECT_EQ(entries, std::vector<std::string>{"index.usp"});
  for (const std::string& name : entries) {
    std::remove((dir + "/" + name).c_str());
  }
  rmdir(dir.c_str());
  std::remove(fvecs.c_str());
}

// ---------------------------------------------------------------------------
// Chunk-size sensitivity: different chunk sizes may legitimately train
// different centroids (mini-batch updates depend on batch boundaries), but
// every resulting container must load and answer exact-budget searches
// consistently with ITS OWN in-memory twin.
// ---------------------------------------------------------------------------

TEST(OutOfCoreBuilderTest, EveryChunkSizeMatchesItsInMemoryTwin) {
  const size_t rows = 3000, dim = 16;
  const LabeledDataset ds = MakeGaussianMixture(rows, dim, 10, 9.0f, 1.0f, 55);
  const std::string fvecs = TempPath("chunk_sweep.fvecs");
  ASSERT_TRUE(WriteFvecs(fvecs, ds.points).ok());

  for (size_t chunk_rows : {size_t{100}, size_t{999}, size_t{3000}}) {
    OutOfCoreConfig config;
    config.chunk_rows = chunk_rows;
    config.nlist = 16;
    config.train_epochs = 2;
    config.sample_rows = 1024;
    config.seed = 55;
    const OutOfCoreBuilder builder(config);
    const std::string index_path =
        TempPath("chunk_sweep_" + std::to_string(chunk_rows) + ".usp");

    auto stats = builder.Build(fvecs, index_path);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    auto in_memory = builder.BuildInMemory(ds.points);
    ASSERT_TRUE(in_memory.ok());

    const std::string saved_path = index_path + ".saved";
    ASSERT_TRUE(SaveIndex(*in_memory.value(), saved_path).ok());
    const std::vector<uint8_t> direct = ReadAllBytes(index_path);
    const std::vector<uint8_t> saved = ReadAllBytes(saved_path);
    ASSERT_EQ(direct.size(), saved.size()) << "chunk_rows=" << chunk_rows;
    EXPECT_EQ(std::memcmp(direct.data(), saved.data(), direct.size()), 0)
        << "chunk_rows=" << chunk_rows;
    std::remove(index_path.c_str());
    std::remove(saved_path.c_str());
  }
  std::remove(fvecs.c_str());
}

}  // namespace
}  // namespace usp
