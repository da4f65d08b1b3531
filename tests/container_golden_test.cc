// Golden bytes of the index container (docs/FORMAT.md). Every index type and
// layout is rehydrated from fixed in-test arrays through its deserialization
// constructor, so no training and no distance arithmetic runs: the saved
// bytes depend only on the format, and they are the same in every build
// (Debug, Release, the scalar kernel set, sanitizers). Each SerializeIndex
// result is hashed (64-bit FNV-1a) against a constant; a change to any saved
// byte fails here. The other tests reopen every container in heap and mmap
// mode: saving the loaded index reproduces the same bytes, and a patched
// header or embedded model is rejected with a Status. The search outputs of
// every layout under L2 and inner product (rows, distance bits and counters,
// at k = 5 and k = 0, k-NN and radius, at num_threads 1 and the pool
// default) are hashed the same way; the inputs are multiples of 1/8, so
// their arithmetic is exact and the hashes hold in every build too.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "core/ensemble.h"
#include "core/partition_index.h"
#include "core/partitioner.h"
#include "hnsw/hnsw.h"
#include "index/container.h"
#include "index/id_selector.h"
#include "index/serialize.h"
#include "ivf/ivf.h"
#include "quant/scann_index.h"
#include "quant/sq8_index.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "util/io.h"

namespace usp {
namespace {

constexpr size_t kRows = 24;
constexpr size_t kDim = 8;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// A deterministic (rows x cols) matrix of small multiples of 1/8, all
/// exactly representable.
Matrix Grid(size_t rows, size_t cols, size_t salt) {
  std::vector<float> data(rows * cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      const int v = static_cast<int>((i * 37 + j * 11 + salt * 5) % 29) - 14;
      data[i * cols + j] = static_cast<float>(v) * 0.125f;
    }
  }
  return Matrix(rows, cols, std::move(data));
}

std::vector<uint32_t> Cyclic(size_t count, uint32_t bins, uint32_t shift) {
  std::vector<uint32_t> out(count);
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<uint32_t>((i * 5 + shift) % bins);
  }
  return out;
}

std::vector<uint8_t> CodeBytes(size_t count, uint32_t modulus, size_t salt) {
  std::vector<uint8_t> out(count);
  for (size_t i = 0; i < count; ++i) {
    out[i] = static_cast<uint8_t>((i * 13 + salt * 7) % modulus);
  }
  return out;
}

/// The record UspPartitioner::SaveTo writes for a logistic-regression model:
/// an 8-word header, eta and dropout, then the (input_dim x num_bins) weight
/// and (1 x num_bins) bias tensors.
UspPartitioner LogisticModel(size_t input_dim, size_t num_bins, size_t salt) {
  StringWriter record;
  const uint64_t header[] = {0x5553504Du, 1, num_bins, 1, 0, 0, input_dim,
                             salt};
  record.Write(header, sizeof(header));
  record.WritePod(2.0f);  // eta
  record.WritePod(0.0f);  // dropout
  record.WritePod(uint64_t{2});
  const Matrix weight = Grid(input_dim, num_bins, salt);
  const Matrix bias = Grid(1, num_bins, salt + 1);
  for (const Matrix* tensor : {&weight, &bias}) {
    record.WritePod(static_cast<uint64_t>(tensor->rows()));
    record.WritePod(static_cast<uint64_t>(tensor->cols()));
    record.Write(tensor->data(), tensor->size() * sizeof(float));
  }
  MemReader reader(record.bytes().data(), record.bytes().size());
  StatusOr<UspPartitioner> model = UspPartitioner::LoadFrom(&reader, "golden");
  USP_CHECK(model.ok());
  return std::move(model).value();
}

ProductQuantizer Pq(size_t codebook_size) {
  PqConfig config;
  config.num_subspaces = 4;
  config.codebook_size = codebook_size;
  config.kmeans_iterations = 7;
  config.anisotropic_eta = 1.5f;
  config.seed = 19;
  std::vector<Matrix> codebooks;
  for (size_t s = 0; s < 4; ++s) {
    codebooks.push_back(Grid(codebook_size, 2, 40 + s));
  }
  return ProductQuantizer(config, kDim, {0, 2, 4, 6, 8}, std::move(codebooks));
}

/// An index plus the storage it points into (declared first, destroyed last).
struct Built {
  std::vector<std::shared_ptr<void>> keep;
  std::unique_ptr<Index> index;

  template <typename T>
  T* Keep(T value) {
    auto owned = std::make_shared<T>(std::move(value));
    keep.push_back(owned);
    return owned.get();
  }
};

std::unique_ptr<Index> IvfFlat(MatrixView base, Metric metric, size_t salt) {
  IvfConfig config;
  config.nlist = 3;
  config.kmeans_iterations = 9;
  config.seed = 23;
  config.metric = metric;
  return std::make_unique<IvfFlatIndex>(base, config, Grid(3, kDim, salt),
                                        Cyclic(base.rows(), 3, salt));
}

std::unique_ptr<Index> Sq8(MatrixView base, Metric metric, Built* b) {
  Sq8IndexConfig config;
  config.metric = metric;
  config.rerank_budget = 17;
  std::vector<float> mins(kDim), scales(kDim);
  for (size_t j = 0; j < kDim; ++j) {
    mins[j] = -2.0f + 0.25f * static_cast<float>(j);
    scales[j] = 0.015625f * static_cast<float>(j + 1);
  }
  const auto* codes = b->Keep(CodeBytes(base.rows() * kDim, 256, 3));
  return std::make_unique<Sq8Index>(base, config, std::move(mins),
                                    std::move(scales), codes->data());
}

std::unique_ptr<Index> IvfPq(MatrixView base, size_t codebook_size,
                             Built* b) {
  IvfConfig config;
  config.nlist = 3;
  config.kmeans_iterations = 9;
  config.seed = 23;
  config.pq.num_subspaces = 4;
  config.pq.codebook_size = codebook_size;
  config.rerank_budget = 21;
  const auto* codes =
      b->Keep(CodeBytes(base.rows() * 4, static_cast<uint32_t>(codebook_size),
                        codebook_size));
  return std::make_unique<IvfPqIndex>(base, config, Grid(3, kDim, 6),
                                      Pq(codebook_size), codes->data(),
                                      Cyclic(base.rows(), 3, 1));
}

enum class ScannScorer { kNone, kKMeans, kUsp };

std::unique_ptr<Index> Scann(MatrixView base, ScannScorer kind, Built* b) {
  const BinScorer* scorer = nullptr;
  std::vector<uint32_t> assignments;
  if (kind == ScannScorer::kKMeans) {
    scorer = b->Keep(KMeansPartitioner::FromTrainedCentroids(
        Grid(4, kDim, 8), Metric::kInnerProduct));
    assignments = Cyclic(base.rows(), 4, 2);
  } else if (kind == ScannScorer::kUsp) {
    scorer = b->Keep(LogisticModel(kDim, 4, 9));
    assignments = Cyclic(base.rows(), 4, 3);
  }
  ScannIndexConfig config;
  config.rerank_budget = 13;
  const auto* codes = b->Keep(CodeBytes(base.rows() * 4, 16, 5));
  return std::make_unique<ScannIndex>(base, scorer, Pq(16), config,
                                      codes->data(), assignments,
                                      Metric::kSquaredL2);
}

std::unique_ptr<Index> Hnsw(MatrixView base) {
  const size_t n = base.rows();
  std::vector<int> levels(n, 0);
  levels[5] = 1;
  levels[11] = 1;
  std::vector<std::vector<std::vector<uint32_t>>> links(n);
  for (size_t i = 0; i < n; ++i) {
    links[i].resize(levels[i] + 1);
    links[i][0] = {static_cast<uint32_t>((i + 1) % n),
                   static_cast<uint32_t>((i + n - 1) % n),
                   static_cast<uint32_t>((i + 7) % n)};
  }
  links[5][1] = {11};
  links[11][1] = {5};
  HnswConfig config;
  config.max_neighbors = 4;
  config.ef_construction = 16;
  config.seed = 3;
  return std::make_unique<HnswIndex>(config, base, std::move(links),
                                     std::move(levels), 1, 11);
}

std::unique_ptr<Index> Ensemble(MatrixView base) {
  UspEnsembleConfig config;
  config.num_models = 2;
  config.model.num_bins = 4;
  config.model.hidden_dim = 12;
  config.model.epochs = 5;
  config.model.batch_size = 64;
  config.model.seed = 29;
  config.model.model = UspModelKind::kLogisticRegression;
  config.weight_floor = 0.25f;
  config.combine = EnsembleCombine::kUnion;
  std::vector<std::unique_ptr<UspPartitioner>> models;
  std::vector<std::unique_ptr<PartitionIndex>> indexes;
  for (size_t j = 0; j < 2; ++j) {
    models.push_back(
        std::make_unique<UspPartitioner>(LogisticModel(kDim, 4, 11 + j)));
    indexes.push_back(std::make_unique<PartitionIndex>(
        base, models.back().get(),
        Cyclic(base.rows(), 4, static_cast<uint32_t>(j)),
        Metric::kSquaredL2));
  }
  std::vector<float> weights(base.rows());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 0.5f + 0.25f * static_cast<float>(i % 3);
  }
  return std::make_unique<UspEnsemble>(config, base, std::move(models),
                                       std::move(indexes), std::move(weights));
}

/// Two sealed segments (IVF-Flat and SQ8), a write segment, tombstones and
/// an id space with holes, as compaction leaves it.
std::unique_ptr<Index> Dynamic(Built* b) {
  std::vector<std::unique_ptr<DynamicIndex::SealedSegment>> sealed;
  for (size_t s = 0; s < 2; ++s) {
    auto segment = std::make_unique<DynamicIndex::SealedSegment>();
    segment->storage = Grid(8, kDim, 50 + s);
    segment->index =
        s == 0 ? IvfFlat(MatrixView(segment->storage), Metric::kSquaredL2, 4)
               : Sq8(MatrixView(segment->storage), Metric::kSquaredL2, b);
    for (uint32_t i = 0; i < 8; ++i) {
      segment->global_ids.push_back(2 * i + static_cast<uint32_t>(s));
    }
    sealed.push_back(std::move(segment));
  }
  std::vector<uint32_t> write_ids;
  for (uint32_t id = 16; id < 22; ++id) write_ids.push_back(id);
  DynamicIndexConfig config;
  config.seal_threshold = 40;
  config.max_sealed_segments = 6;
  return std::make_unique<DynamicIndex>(kDim, config, std::move(sealed),
                                        Grid(6, kDim, 52), write_ids,
                                        std::vector<uint32_t>{3, 10, 20}, 26);
}

/// A static sharded index over kRows rows in 8 shards; at least one shard
/// receives no row and is saved as absent.
std::unique_ptr<Index> StaticSharded(const Matrix& base) {
  ShardedIndexConfig config;
  config.num_shards = 8;
  std::vector<ShardedIndex::Shard> shards(config.num_shards);
  std::vector<std::vector<float>> rows(config.num_shards);
  const size_t n = 6;
  for (uint32_t gid = 0; gid < n; ++gid) {
    const uint32_t s = ShardedIndex::Place(gid, config.num_shards);
    shards[s].local_to_global.push_back(gid);
    rows[s].insert(rows[s].end(), base.Row(gid), base.Row(gid) + kDim);
  }
  size_t absent = 0;
  for (size_t s = 0; s < shards.size(); ++s) {
    ShardedIndex::Shard& shard = shards[s];
    if (shard.local_to_global.empty()) {
      ++absent;
      continue;
    }
    const size_t m = shard.local_to_global.size();
    shard.storage = Matrix(m, kDim, std::move(rows[s]));
    IvfConfig ivf;
    ivf.nlist = 1;
    shard.index = std::make_unique<IvfFlatIndex>(
        MatrixView(shard.storage), ivf, Grid(1, kDim, s),
        std::vector<uint32_t>(m, 0));
  }
  USP_CHECK(absent > 0);
  return std::make_unique<ShardedIndex>(kDim, config, std::move(shards),
                                        static_cast<uint32_t>(n));
}

/// A mutable sharded index: every shard a DynamicIndex holding its rows in
/// the write segment, one of them tombstoned.
std::unique_ptr<Index> MutableSharded(const Matrix& base) {
  ShardedIndexConfig config;
  config.num_shards = 2;
  std::vector<ShardedIndex::Shard> shards(config.num_shards);
  std::vector<std::vector<float>> rows(config.num_shards);
  const size_t n = 9;
  for (uint32_t gid = 0; gid < n; ++gid) {
    const uint32_t s = ShardedIndex::Place(gid, config.num_shards);
    shards[s].local_to_global.push_back(gid);
    rows[s].insert(rows[s].end(), base.Row(gid), base.Row(gid) + kDim);
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    ShardedIndex::Shard& shard = shards[s];
    const size_t m = shard.local_to_global.size();
    USP_CHECK(m > 1);
    std::vector<uint32_t> local_ids(m);
    for (size_t i = 0; i < m; ++i) local_ids[i] = static_cast<uint32_t>(i);
    auto dynamic = std::make_unique<DynamicIndex>(
        kDim, DynamicIndexConfig{}, std::vector<std::unique_ptr<
                                        DynamicIndex::SealedSegment>>{},
        Matrix(m, kDim, std::move(rows[s])), std::move(local_ids),
        std::vector<uint32_t>{s == 0 ? 1u : 0u}, static_cast<uint32_t>(m));
    shard.dynamic = dynamic.get();
    shard.index = std::move(dynamic);
  }
  return std::make_unique<ShardedIndex>(kDim, config, std::move(shards),
                                        static_cast<uint32_t>(n));
}

struct GoldenCase {
  const char* name;
  std::function<void(const Matrix& base, Built* b)> build;
  uint64_t hash;
};

std::vector<GoldenCase> GoldenCases() {
  return {
      {"partition_kmeans",
       [](const Matrix& base, Built* b) {
         const auto* scorer = b->Keep(KMeansPartitioner::FromTrainedCentroids(
             Grid(4, kDim, 1), Metric::kSquaredL2));
         b->index = std::make_unique<PartitionIndex>(
             MatrixView(base), scorer, Cyclic(kRows, 4, 0), Metric::kSquaredL2);
       },
       0x24353fdc1d75e7d8ull},
      {"partition_usp",
       [](const Matrix& base, Built* b) {
         const auto* scorer = b->Keep(LogisticModel(kDim, 4, 2));
         b->index = std::make_unique<PartitionIndex>(
             MatrixView(base), scorer, Cyclic(kRows, 4, 1), Metric::kCosine);
       },
       0xf8a9461fdc33a5b3ull},
      {"ivf_flat_l2",
       [](const Matrix& base, Built* b) {
         b->index = IvfFlat(MatrixView(base), Metric::kSquaredL2, 0);
       },
       0x3bb1f5bd88418b09ull},
      {"ivf_flat_ip",
       [](const Matrix& base, Built* b) {
         b->index = IvfFlat(MatrixView(base), Metric::kInnerProduct, 1);
       },
       0xfe2f156a4c7a8c56ull},
      {"ivf_flat_cosine",
       [](const Matrix& base, Built* b) {
         b->index = IvfFlat(MatrixView(base), Metric::kCosine, 2);
       },
       0xb2b3d74c5c9d9c06ull},
      {"ivf_pq_4bit",
       [](const Matrix& base, Built* b) {
         b->index = IvfPq(MatrixView(base), 16, b);
       },
       0x8a88547d649e4924ull},
      {"ivf_pq_8bit",
       [](const Matrix& base, Built* b) {
         b->index = IvfPq(MatrixView(base), 32, b);
       },
       0xbe0ee3e9df17a4b4ull},
      {"scann_flat",
       [](const Matrix& base, Built* b) {
         b->index = Scann(MatrixView(base), ScannScorer::kNone, b);
       },
       0xd5cd6c4ea30b15a7ull},
      {"scann_kmeans",
       [](const Matrix& base, Built* b) {
         b->index = Scann(MatrixView(base), ScannScorer::kKMeans, b);
       },
       0xf5064d8c2466c438ull},
      {"scann_usp",
       [](const Matrix& base, Built* b) {
         b->index = Scann(MatrixView(base), ScannScorer::kUsp, b);
       },
       0xac7f8d4ee5440050ull},
      {"sq8_l2",
       [](const Matrix& base, Built* b) {
         b->index = Sq8(MatrixView(base), Metric::kSquaredL2, b);
       },
       0xf11363bc74a20951ull},
      {"sq8_ip",
       [](const Matrix& base, Built* b) {
         b->index = Sq8(MatrixView(base), Metric::kInnerProduct, b);
       },
       0x71de48be8560b74cull},
      {"sq8_cosine",
       [](const Matrix& base, Built* b) {
         b->index = Sq8(MatrixView(base), Metric::kCosine, b);
       },
       0xbbbf91d66427b11full},
      {"hnsw",
       [](const Matrix& base, Built* b) { b->index = Hnsw(MatrixView(base)); },
       0x9f190f60852f7700ull},
      {"ensemble",
       [](const Matrix& base, Built* b) {
         b->index = Ensemble(MatrixView(base));
       },
       0x284b606fab7705baull},
      {"dynamic",
       [](const Matrix& base, Built* b) {
         (void)base;
         b->index = Dynamic(b);
       },
       0x88263bc299ae4e78ull},
      {"sharded_static",
       [](const Matrix& base, Built* b) { b->index = StaticSharded(base); },
       0xbb844195e24a206bull},
      {"sharded_mutable",
       [](const Matrix& base, Built* b) { b->index = MutableSharded(base); },
       0x200b4e5e5c7e1db3ull},
  };
}

TEST(ContainerGoldenTest, SavedBytesMatchRecordedHashes) {
  const Matrix base = Grid(kRows, kDim, 0);
  for (const GoldenCase& golden : GoldenCases()) {
    Built built;
    golden.build(base, &built);
    StatusOr<std::string> bytes = SerializeIndex(*built.index);
    ASSERT_TRUE(bytes.ok()) << golden.name << ": "
                            << bytes.status().ToString();
    EXPECT_EQ(Fnv1a(bytes.value()), golden.hash)
        << golden.name << " hashes to 0x" << std::hex
        << Fnv1a(bytes.value()) << " over " << std::dec
        << bytes.value().size() << " bytes";
  }
}

/// Search inputs on the same grid as the base (multiples of 1/8), so every
/// product and sum of the distance and bin-scoring arithmetic is exact and
/// the outputs are the same in both kernel sets.
Matrix GoldenQueries() {
  std::vector<float> data(10 * kDim);
  for (size_t i = 0; i < 10; ++i) {
    for (size_t j = 0; j < kDim; ++j) {
      const int v = static_cast<int>((i * 23 + j * 13 + 7) % 31) - 15;
      data[i * kDim + j] = static_cast<float>(v) * 0.125f;
    }
  }
  return Matrix(10, kDim, std::move(data));
}

template <typename T>
void AppendBytes(const std::vector<T>& values, std::string* out) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(T));
}

void AppendStats(const SearchStats& stats, std::string* out) {
  AppendBytes(stats.candidates_scored, out);
  AppendBytes(stats.bins_probed, out);
  AppendBytes(stats.filtered_out, out);
  AppendBytes(stats.nodes_visited, out);
}

constexpr size_t kFull = size_t{1} << 20;

/// The bitmap every filtered search runs under: two of every three ids.
IdSelectorBitmap GoldenBitmap() {
  IdSelectorBitmap bitmap(kRows);
  for (uint32_t id = 0; id < kRows; ++id) {
    if (id % 3 != 1) bitmap.Set(id);
  }
  return bitmap;
}

/// Appends the k-NN ids, distance bits, candidate_counts and stats of
/// `index` over GoldenQueries() at budgets 1, 2 and full, unfiltered and,
/// for k > 0, under GoldenBitmap() with the planner's choice and with
/// pushdown forced.
void AppendKnn(const Index& index, size_t k, size_t threads,
               std::string* bytes) {
  const Matrix queries = GoldenQueries();
  const IdSelectorBitmap bitmap = GoldenBitmap();
  for (const size_t budget : {size_t{1}, size_t{2}, kFull}) {
    for (const IdSelector* filter :
         {static_cast<const IdSelector*>(nullptr),
          static_cast<const IdSelector*>(&bitmap)}) {
      if (filter != nullptr && k == 0) continue;
      for (const PlanMode plan : {PlanMode::kAuto, PlanMode::kForcePushdown}) {
        if (filter == nullptr && plan != PlanMode::kAuto) continue;
        SearchRequest request;
        request.queries = queries;
        request.options.k = k;
        request.options.budget = budget;
        request.options.num_threads = threads;
        request.options.filter = filter;
        request.options.plan = plan;
        request.options.stats = true;
        const BatchSearchResult r = index.SearchBatch(request);
        AppendBytes(r.ids, bytes);
        AppendBytes(r.distances, bytes);
        AppendBytes(r.candidate_counts, bytes);
        AppendStats(*r.stats, bytes);
      }
    }
  }
}

/// Appends the radius offsets, ids, distance bits and candidate_counts of
/// `index` over GoldenQueries() at budget 1 and full, unfiltered and under
/// GoldenBitmap(), and with `stats` the stats block too.
void AppendRadius(const Index& index, size_t threads, bool stats,
                  std::string* bytes) {
  const Matrix queries = GoldenQueries();
  const IdSelectorBitmap bitmap = GoldenBitmap();
  const float radius = index.metric() == Metric::kSquaredL2 ? 9.0f : -1.0f;
  for (const size_t budget : {size_t{1}, kFull}) {
    for (const IdSelector* filter :
         {static_cast<const IdSelector*>(nullptr),
          static_cast<const IdSelector*>(&bitmap)}) {
      RadiusOptions options;
      options.budget = budget;
      options.num_threads = threads;
      options.filter = filter;
      options.stats = stats;
      const RadiusResult r = index.RadiusSearch(queries, radius, options);
      const std::vector<uint64_t> offsets(r.offsets.begin(), r.offsets.end());
      AppendBytes(offsets, bytes);
      AppendBytes(r.ids, bytes);
      AppendBytes(r.distances, bytes);
      AppendBytes(r.candidate_counts, bytes);
      if (stats) AppendStats(*r.stats, bytes);
    }
  }
}

/// FNV-1a of the k = 5 k-NN outputs and the radius rows and counts, at the
/// pool's default thread count.
uint64_t SearchHash(const Index& index) {
  std::string bytes;
  AppendKnn(index, 5, /*threads=*/0, &bytes);
  AppendRadius(index, /*threads=*/0, /*stats=*/false, &bytes);
  return Fnv1a(bytes);
}

/// FNV-1a of what SearchHash leaves out, at num_threads 1 and at the pool
/// default: unfiltered k = 0 requests (zero-width rows; their counters), the
/// k = 5 outputs again, and the radius outputs with their stats blocks.
uint64_t CountersHash(const Index& index) {
  std::string bytes;
  for (const size_t threads : {size_t{1}, size_t{0}}) {
    AppendKnn(index, 0, threads, &bytes);
    AppendKnn(index, 5, threads, &bytes);
    AppendRadius(index, threads, /*stats=*/true, &bytes);
  }
  return Fnv1a(bytes);
}

// The search outputs of every layout whose search runs one of the shared
// stages: the flat scan, the gather, the shortlist, the HNSW walk and the
// serving fan-out, against constants recorded before those stages were
// shared. Each layout has two hashes: SearchHash and CountersHash. The
// cosine layouts (partition_usp among them) are left out: normalizing
// rounds, and a build that may fuse multiply-adds (-march=native) rounds it
// differently, so their distance bits are not the same in every build.
TEST(ContainerGoldenTest, SearchOutputsMatchRecordedHashes) {
  struct Expected {
    const char* name;
    uint64_t search;
    uint64_t counters;
  };
  const std::vector<Expected> expected = {
      {"partition_kmeans", 0x4b5f54459ce99d89ull, 0x4313d099e33b09a5ull},
      {"ivf_flat_l2", 0x84dac23bcba3ba62ull, 0xc1f9b0f48e790d09ull},
      {"ivf_flat_ip", 0x426427850aced6a3ull, 0x39662aa5ae2df87dull},
      {"ivf_pq_4bit", 0xd3173bffb3b904e8ull, 0x04a742f8a51bafd5ull},
      {"ivf_pq_8bit", 0xfe07b01b232f06c8ull, 0x0f97f155d9828fe5ull},
      {"scann_flat", 0xb997b0ec3de47583ull, 0x598a6f6da2392cb5ull},
      {"scann_kmeans", 0x27f1ff8acfb9a41bull, 0xf19dcb5fb8ffc3f5ull},
      {"scann_usp", 0xef55f5798d5b0bb8ull, 0x2018483c2f766ba9ull},
      {"sq8_l2", 0xf949d2e647ca8cc1ull, 0x322121888c3cb695ull},
      {"sq8_ip", 0xdc0f580f794e61fbull, 0x63a3ee5076ede74dull},
      {"hnsw", 0x6942dbdd3651188eull, 0x6ef0b6c93485105dull},
      {"ensemble", 0x5b9cec2e9c0d82ddull, 0x64e51d630b59e7c5ull},
      {"dynamic", 0x93c7ea9989eb8b3eull, 0xe97a7e8bb38b079dull},
      {"sharded_static", 0x6ce9faf7b0d1da84ull, 0x6b83780a982329e9ull},
      {"sharded_mutable", 0xaf974928dec8b522ull, 0xd11a576dc35a5969ull},
  };
  const Matrix base = Grid(kRows, kDim, 0);
  const std::vector<GoldenCase> cases = GoldenCases();
  for (const Expected& want : expected) {
    const auto golden =
        std::find_if(cases.begin(), cases.end(), [&](const GoldenCase& c) {
          return std::string(c.name) == want.name;
        });
    ASSERT_NE(golden, cases.end()) << want.name;
    Built built;
    golden->build(base, &built);
    const uint64_t search = SearchHash(*built.index);
    EXPECT_EQ(search, want.search)
        << want.name << " search outputs hash to 0x" << std::hex << search;
    const uint64_t counters = CountersHash(*built.index);
    EXPECT_EQ(counters, want.counters)
        << want.name << " counters hash to 0x" << std::hex << counters;
  }
}

TEST(ContainerGoldenTest, ReopenedIndexResavesSameBytes) {
  const Matrix base = Grid(kRows, kDim, 0);
  for (const GoldenCase& golden : GoldenCases()) {
    Built built;
    golden.build(base, &built);
    StatusOr<std::string> bytes = SerializeIndex(*built.index);
    ASSERT_TRUE(bytes.ok()) << golden.name;
    const std::string path =
        testing::TempDir() + "/golden_" + golden.name + ".uspidx";
    ASSERT_TRUE(SaveIndex(*built.index, path).ok()) << golden.name;
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      StatusOr<std::unique_ptr<Index>> loaded = OpenIndex(path, mode);
      ASSERT_TRUE(loaded.ok()) << golden.name << ": "
                               << loaded.status().ToString();
      StatusOr<std::string> resaved = SerializeIndex(*loaded.value());
      ASSERT_TRUE(resaved.ok()) << golden.name;
      EXPECT_TRUE(resaved.value() == bytes.value())
          << golden.name << " in mode " << static_cast<int>(mode);
    }
    std::remove(path.c_str());
  }
}

TEST(ContainerGoldenTest, UnknownMetricTagIsInvalidArgumentForEveryType) {
  const Matrix base = Grid(kRows, kDim, 0);
  for (const GoldenCase& golden : GoldenCases()) {
    Built built;
    golden.build(base, &built);
    const std::string path =
        testing::TempDir() + "/bad_metric_" + golden.name + ".uspidx";
    ASSERT_TRUE(SaveIndex(*built.index, path).ok()) << golden.name;
    {
      std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
      file.seekp(offsetof(ContainerHeader, metric));
      const uint32_t metric = 9;
      file.write(reinterpret_cast<const char*>(&metric), sizeof(metric));
    }
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      StatusOr<std::unique_ptr<Index>> loaded = OpenIndex(path, mode);
      ASSERT_FALSE(loaded.ok()) << golden.name;
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << golden.name << ": " << loaded.status().ToString();
    }
    std::remove(path.c_str());
  }
}

TEST(ContainerGoldenTest, UspModelOfAnotherWidthIsInvalidArgument) {
  // 8-d models inside 16-d containers must not open: the first search would
  // abort in the model's first layer.
  const Matrix base = Grid(kRows, 2 * kDim, 0);
  Built partition;
  partition.index = std::make_unique<PartitionIndex>(
      MatrixView(base), partition.Keep(LogisticModel(kDim, 4, 2)),
      Cyclic(kRows, 4, 1), Metric::kSquaredL2);
  Built ensemble;
  ensemble.index = Ensemble(MatrixView(base));
  for (const Built* built : {&partition, &ensemble}) {
    const std::string path = testing::TempDir() + "/usp_width.uspidx";
    ASSERT_TRUE(SaveIndex(*built->index, path).ok());
    for (const LoadMode mode : {LoadMode::kHeap, LoadMode::kMmap}) {
      StatusOr<std::unique_ptr<Index>> loaded = OpenIndex(path, mode);
      ASSERT_FALSE(loaded.ok()) << IndexTypeName(built->index->type());
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
          << loaded.status().ToString();
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace usp
