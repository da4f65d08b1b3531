#include "index/serialize.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "baselines/kmeans.h"
#include "core/ensemble.h"
#include "core/partition_index.h"
#include "core/partitioner.h"
#include "dist/quant_kernels.h"
#include "hnsw/hnsw.h"
#include "index/index_records.h"
#include "ivf/ivf.h"
#include "quant/scann_index.h"
#include "quant/sq8_index.h"
#include "serve/dynamic_index.h"
#include "serve/sharded_index.h"
#include "util/io.h"

namespace usp {

namespace {

// ---------------------------------------------------------------------------
// POD config records (kConfig / kPqMeta section payloads). Layouts are part
// of the on-disk contract (docs/FORMAT.md): fixed-width little-endian fields,
// no implicit padding — never reorder or resize, only append on a version
// bump.
// ---------------------------------------------------------------------------

enum ScorerKind : uint32_t {
  kScorerNone = 0,
  kScorerKMeans = 1,
  kScorerUsp = 2,
};

struct PartitionConfigRecord {
  uint32_t scorer_kind;
  uint32_t scorer_metric;
};
static_assert(sizeof(PartitionConfigRecord) == 8, "on-disk contract");

// IvfFlatConfigRecord and Sq8ConfigRecord moved to index/index_records.h:
// the out-of-core builder writes them too.

struct IvfPqConfigRecord {
  uint64_t nlist;
  uint64_t kmeans_iterations;
  uint64_t seed;
  uint64_t rerank_budget;
};
static_assert(sizeof(IvfPqConfigRecord) == 32, "on-disk contract");

struct ScannConfigRecord {
  uint64_t rerank_budget;
  uint32_t scorer_kind;
  uint32_t scorer_metric;
};
static_assert(sizeof(ScannConfigRecord) == 16, "on-disk contract");

struct HnswConfigRecord {
  uint64_t max_neighbors;
  uint64_t ef_construction;
  uint64_t seed;
  int32_t max_level;
  uint32_t entry_point;
};
static_assert(sizeof(HnswConfigRecord) == 32, "on-disk contract");

struct PqMetaRecord {
  uint64_t num_subspaces;
  uint64_t codebook_size;
  uint64_t kmeans_iterations;
  uint64_t seed;
  uint64_t codebook_rows;  ///< trained rows per codebook (<= codebook_size)
  uint64_t dims;
  float anisotropic_eta;
  uint32_t reserved;
};
static_assert(sizeof(PqMetaRecord) == 56, "on-disk contract");

struct UspTrainRecord {
  uint64_t num_bins;
  uint64_t hidden_dim;
  uint64_t epochs;
  uint64_t batch_size;
  uint64_t seed;
  float eta;
  float dropout;
  float learning_rate;
  uint32_t model_kind;
  uint32_t use_batchnorm;
  uint32_t soft_targets;
};
static_assert(sizeof(UspTrainRecord) == 64, "on-disk contract");

struct EnsembleConfigRecord {
  UspTrainRecord model;
  uint64_t num_models;
  float weight_floor;
  uint32_t combine;
};
static_assert(sizeof(EnsembleConfigRecord) == 80, "on-disk contract");

struct DynamicConfigRecord {
  uint64_t next_global_id;
  uint64_t num_sealed;
  uint64_t write_rows;
  uint64_t tombstone_count;
  uint64_t seal_threshold;
  uint64_t max_sealed_segments;
};
static_assert(sizeof(DynamicConfigRecord) == 48, "on-disk contract");

/// One kManifest row describing a sealed segment (its payload lives in the
/// kSegmentBlob section of the same ordinal).
struct DynamicSegmentEntry {
  uint64_t rows;
  uint32_t index_type;  ///< IndexType tag of the embedded container
  uint32_t reserved;
};
static_assert(sizeof(DynamicSegmentEntry) == 16, "on-disk contract");

struct ShardedConfigRecord {
  uint64_t next_global_id;
  uint64_t num_shards;
};
static_assert(sizeof(ShardedConfigRecord) == 16, "on-disk contract");

/// One kManifest row describing a shard (payload in the kSegmentBlob /
/// kIdMap sections of the same ordinal). index_type 0 marks an absent shard
/// (its hash partition received no rows): no blob, no id map.
struct ShardManifestEntry {
  uint64_t rows;        ///< live rows (sub-index size())
  uint64_t id_entries;  ///< local_to_global length (> rows when a dynamic
                        ///< shard carries tombstoned ids)
  uint32_t index_type;  ///< IndexType tag of the embedded container; 0 absent
  uint32_t reserved;
};
static_assert(sizeof(ShardManifestEntry) == 24, "on-disk contract");

UspTrainRecord PackTrainConfig(const UspTrainConfig& c) {
  UspTrainRecord r{};
  r.num_bins = c.num_bins;
  r.hidden_dim = c.hidden_dim;
  r.epochs = c.epochs;
  r.batch_size = c.batch_size;
  r.seed = c.seed;
  r.eta = c.eta;
  r.dropout = c.dropout;
  r.learning_rate = c.learning_rate;
  r.model_kind = c.model == UspModelKind::kMlp ? 0 : 1;
  r.use_batchnorm = c.use_batchnorm ? 1 : 0;
  r.soft_targets = c.soft_targets ? 1 : 0;
  return r;
}

UspTrainConfig UnpackTrainConfig(const UspTrainRecord& r) {
  UspTrainConfig c;
  c.num_bins = static_cast<size_t>(r.num_bins);
  c.hidden_dim = static_cast<size_t>(r.hidden_dim);
  c.epochs = static_cast<size_t>(r.epochs);
  c.batch_size = static_cast<size_t>(r.batch_size);
  c.seed = r.seed;
  c.eta = r.eta;
  c.dropout = r.dropout;
  c.learning_rate = r.learning_rate;
  c.model = r.model_kind == 0 ? UspModelKind::kMlp
                              : UspModelKind::kLogisticRegression;
  c.use_batchnorm = r.use_batchnorm != 0;
  c.soft_targets = r.soft_targets != 0;
  return c;
}

// ---------------------------------------------------------------------------
// Shared save helpers.
// ---------------------------------------------------------------------------

Status CheckMetricValue(uint32_t metric, const std::string& path) {
  if (metric > static_cast<uint32_t>(Metric::kCosine)) {
    return Status::InvalidArgument("unknown metric tag " +
                                   std::to_string(metric) + " in " + path);
  }
  return Status::Ok();
}

/// Classifies a scorer for serialization and appends its payload section.
/// Returns kInvalidArgument for scorer types with no on-disk representation.
Status AppendScorerSections(const BinScorer* scorer, uint32_t ordinal,
                            ContainerWriter* writer, uint32_t* kind,
                            uint32_t* scorer_metric) {
  if (const auto* kmeans = dynamic_cast<const KMeansPartitioner*>(scorer)) {
    *kind = kScorerKMeans;
    *scorer_metric = static_cast<uint32_t>(kmeans->metric());
    const Matrix& centroids = kmeans->centroids();
    writer->AddSection(SectionTag::kCentroids, ordinal, centroids.data(),
                       centroids.size() * sizeof(float));
    return Status::Ok();
  }
  if (const auto* usp = dynamic_cast<const UspPartitioner*>(scorer)) {
    *kind = kScorerUsp;
    *scorer_metric = 0;
    StringWriter blob;
    Status status = usp->SaveTo(&blob, "embedded model");
    if (!status.ok()) return status;
    writer->AddOwnedSection(SectionTag::kUspModel, ordinal, blob.TakeBytes());
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "cannot serialize this BinScorer type: only KMeansPartitioner and "
      "UspPartitioner have an on-disk representation");
}

void AppendBaseSection(MatrixView base, ContainerWriter* writer) {
  writer->AddSection(SectionTag::kBaseVectors, 0, base.data(),
                     base.size() * sizeof(float));
}

void AppendAssignments(const std::vector<uint32_t>& assignments,
                       uint32_t ordinal, ContainerWriter* writer) {
  writer->AddSection(SectionTag::kAssignments, ordinal, assignments.data(),
                     assignments.size() * sizeof(uint32_t));
}

/// Adds kPqMeta / kPqOffsets / kPqCodebooks. The returned buffers back the
/// referenced sections and must stay alive until WriteTo.
struct PqSections {
  PqMetaRecord meta;
  std::vector<uint64_t> offsets;
  std::vector<float> codebooks;
};

PqSections AppendPqSections(const ProductQuantizer& pq,
                            ContainerWriter* writer) {
  PqSections out;
  out.meta = PqMetaRecord{};
  out.meta.num_subspaces = pq.num_subspaces();
  out.meta.codebook_size = pq.codebook_size();
  out.meta.kmeans_iterations = pq.config().kmeans_iterations;
  out.meta.seed = pq.config().seed;
  out.meta.codebook_rows = pq.codebook(0).rows();
  out.meta.dims = pq.dims();
  out.meta.anisotropic_eta = pq.config().anisotropic_eta;

  out.offsets.assign(pq.subspace_offsets().begin(),
                     pq.subspace_offsets().end());
  for (size_t s = 0; s < pq.num_subspaces(); ++s) {
    const Matrix& codebook = pq.codebook(s);
    out.codebooks.insert(out.codebooks.end(), codebook.data(),
                         codebook.data() + codebook.size());
  }
  writer->AddSection(SectionTag::kPqMeta, 0, &out.meta, sizeof(out.meta));
  writer->AddSection(SectionTag::kPqOffsets, 0, out.offsets.data(),
                     out.offsets.size() * sizeof(uint64_t));
  writer->AddSection(SectionTag::kPqCodebooks, 0, out.codebooks.data(),
                     out.codebooks.size() * sizeof(float));
  return out;
}

// ---------------------------------------------------------------------------
// Per-type savers. Locals referenced by AddSection live until WriteTo.
// ---------------------------------------------------------------------------

Status SavePartition(const PartitionIndex& index, Writer* out,
            const std::string& name) {
  ContainerWriter writer(IndexType::kPartition, index.metric(), index.dim(),
                         index.size());
  PartitionConfigRecord config{};
  Status status = AppendScorerSections(index.scorer(), 0, &writer,
                                       &config.scorer_kind,
                                       &config.scorer_metric);
  if (!status.ok()) return status;
  writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
  AppendBaseSection(index.base(), &writer);
  AppendAssignments(index.assignments(), 0, &writer);
  return writer.WriteTo(out, name);
}

Status SaveIvfFlat(const IvfFlatIndex& index, Writer* out,
            const std::string& name) {
  ContainerWriter writer(IndexType::kIvfFlat, index.metric(), index.dim(),
                         index.size());
  IvfFlatConfigRecord config{};
  config.nlist = index.config().nlist;
  config.kmeans_iterations = index.config().kmeans_iterations;
  config.seed = index.config().seed;
  writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
  const Matrix& centroids = index.coarse_quantizer().centroids();
  writer.AddSection(SectionTag::kCentroids, 0, centroids.data(),
                    centroids.size() * sizeof(float));
  AppendBaseSection(index.base(), &writer);
  AppendAssignments(index.assignments(), 0, &writer);
  return writer.WriteTo(out, name);
}

/// Appends the fast-scan block section when the index carries packed codes,
/// so mmap'd loads serve them zero-copy instead of re-packing kPqCodes.
void AppendPackedCodes(const ScannIndex& scann, ContainerWriter* writer) {
  if (!scann.has_fast_scan()) return;
  writer->AddSection(SectionTag::kPqPackedCodes, 0, scann.packed_codes(),
                     scann.PackedBytes());
}

Status SaveIvfPq(const IvfPqIndex& index, Writer* out,
            const std::string& name) {
  ContainerWriter writer(IndexType::kIvfPq, index.metric(), index.dim(),
                         index.size());
  IvfPqConfigRecord config{};
  config.nlist = index.ivf_config().nlist;
  config.kmeans_iterations = index.ivf_config().kmeans_iterations;
  config.seed = index.ivf_config().seed;
  config.rerank_budget = index.ivf_config().rerank_budget;
  writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
  const Matrix& centroids = index.coarse_quantizer().centroids();
  writer.AddSection(SectionTag::kCentroids, 0, centroids.data(),
                    centroids.size() * sizeof(float));
  AppendBaseSection(index.base(), &writer);
  AppendAssignments(index.partition()->assignments(), 0, &writer);
  const PqSections pq = AppendPqSections(index.quantizer(), &writer);
  writer.AddSection(SectionTag::kPqCodes, 0, index.codes(),
                    index.size() * index.quantizer().num_subspaces());
  AppendPackedCodes(index, &writer);
  return writer.WriteTo(out, name);
}

Status SaveScann(const ScannIndex& index, Writer* out,
            const std::string& name) {
  ContainerWriter writer(IndexType::kScann, index.metric(), index.dim(),
                         index.size());
  ScannConfigRecord config{};
  config.rerank_budget = index.config().rerank_budget;
  config.scorer_kind = kScorerNone;
  if (index.partition() != nullptr) {
    Status status = AppendScorerSections(index.partitioner(), 0, &writer,
                                         &config.scorer_kind,
                                         &config.scorer_metric);
    if (!status.ok()) return status;
    AppendAssignments(index.partition()->assignments(), 0, &writer);
  }
  writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
  AppendBaseSection(index.base(), &writer);
  const PqSections pq = AppendPqSections(index.quantizer(), &writer);
  writer.AddSection(SectionTag::kPqCodes, 0, index.codes(),
                    index.size() * index.quantizer().num_subspaces());
  AppendPackedCodes(index, &writer);
  return writer.WriteTo(out, name);
}

Status SaveSq8(const Sq8Index& index, Writer* out, const std::string& name) {
  ContainerWriter writer(IndexType::kSq8, index.metric(), index.dim(),
                         index.size());
  Sq8ConfigRecord config{};
  config.rerank_budget = index.config().rerank_budget;
  writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
  AppendBaseSection(index.base_view(), &writer);
  std::vector<float> params;
  params.reserve(2 * index.dim());
  params.insert(params.end(), index.mins().begin(), index.mins().end());
  params.insert(params.end(), index.scales().begin(), index.scales().end());
  writer.AddSection(SectionTag::kSq8Params, 0, params.data(),
                    params.size() * sizeof(float));
  writer.AddSection(SectionTag::kSq8Codes, 0, index.codes(),
                    index.size() * index.dim());
  return writer.WriteTo(out, name);
}

Status SaveHnsw(const HnswIndex& index, Writer* out,
            const std::string& name) {
  if (index.max_level() < 0) {
    return Status::FailedPrecondition("HNSW index not built");
  }
  ContainerWriter writer(IndexType::kHnsw, Metric::kSquaredL2, index.dim(),
                         index.size());
  HnswConfigRecord config{};
  config.max_neighbors = index.config().max_neighbors;
  config.ef_construction = index.config().ef_construction;
  config.seed = index.config().seed;
  config.max_level = index.max_level();
  config.entry_point = index.entry_point();
  writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
  AppendBaseSection(index.base(), &writer);

  std::vector<int32_t> levels(index.node_levels().begin(),
                              index.node_levels().end());
  writer.AddSection(SectionTag::kHnswLevels, 0, levels.data(),
                    levels.size() * sizeof(int32_t));
  StringWriter links;
  for (const auto& node_links : index.links()) {
    for (const auto& level_links : node_links) {
      const uint32_t count = static_cast<uint32_t>(level_links.size());
      links.WritePod(count);
      links.Write(level_links.data(), level_links.size() * sizeof(uint32_t));
    }
  }
  writer.AddOwnedSection(SectionTag::kHnswLinks, 0, links.TakeBytes());
  return writer.WriteTo(out, name);
}

Status SaveEnsemble(const UspEnsemble& index, Writer* out,
            const std::string& name) {
  ContainerWriter writer(IndexType::kUspEnsemble, Metric::kSquaredL2,
                         index.dim(), index.size());
  EnsembleConfigRecord config{};
  config.model = PackTrainConfig(index.config().model);
  config.num_models = index.num_models();
  config.weight_floor = index.config().weight_floor;
  config.combine = static_cast<uint32_t>(index.config().combine);
  writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
  AppendBaseSection(index.index(0).base(), &writer);
  for (size_t j = 0; j < index.num_models(); ++j) {
    StringWriter blob;
    Status status = index.model(j).SaveTo(&blob, "embedded ensemble model");
    if (!status.ok()) return status;
    writer.AddOwnedSection(SectionTag::kUspModel, static_cast<uint32_t>(j),
                           blob.TakeBytes());
    AppendAssignments(index.index(j).assignments(), static_cast<uint32_t>(j),
                      &writer);
  }
  writer.AddSection(SectionTag::kWeights, 0, index.final_weights().data(),
                    index.final_weights().size() * sizeof(float));
  return writer.WriteTo(out, name);
}

/// Appends part j of a nested (dynamic or sharded) container: the part's
/// full container as kSegmentBlob j and its local -> global id map as
/// kIdMap j.
Status AppendPart(const Index& part, const std::vector<uint32_t>& ids,
                  size_t j, ContainerWriter* writer) {
  StatusOr<std::string> blob = SerializeIndex(part);
  if (!blob.ok()) return blob.status();
  const uint32_t ordinal = static_cast<uint32_t>(j);
  writer->AddOwnedSection(SectionTag::kSegmentBlob, ordinal,
                          std::move(blob).value());
  writer->AddSection(SectionTag::kIdMap, ordinal, ids.data(),
                     ids.size() * sizeof(uint32_t));
  return Status::Ok();
}

Status SaveDynamic(const DynamicIndex& index, Writer* out,
                   const std::string& name) {
  // WithFrozenState holds the index's reader lock for the whole save, so the
  // container is one consistent snapshot even while writers run.
  return index.WithFrozenState([&](const DynamicIndex::FrozenState& state)
                                   -> Status {
    uint64_t total_rows = state.write_rows;
    std::vector<DynamicSegmentEntry> manifest;
    for (const auto& segment : state.sealed) {
      DynamicSegmentEntry entry{};
      entry.rows = segment->index->size();
      entry.index_type = static_cast<uint32_t>(segment->index->type());
      manifest.push_back(entry);
      total_rows += entry.rows;
    }
    ContainerWriter writer(IndexType::kDynamic, index.metric(), index.dim(),
                           total_rows);

    DynamicConfigRecord config{};
    config.next_global_id = state.next_global_id;
    config.num_sealed = state.sealed.size();
    config.write_rows = state.write_rows;
    config.tombstone_count = state.tombstones.size();
    config.seal_threshold = index.config().seal_threshold;
    config.max_sealed_segments = index.config().max_sealed_segments;
    writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
    writer.AddSection(SectionTag::kManifest, 0, manifest.data(),
                      manifest.size() * sizeof(DynamicSegmentEntry));

    for (size_t j = 0; j < state.sealed.size(); ++j) {
      const DynamicIndex::SealedSegment& segment = *state.sealed[j];
      Status status =
          AppendPart(*segment.index, segment.global_ids, j, &writer);
      if (!status.ok()) return status;
    }
    writer.AddSection(SectionTag::kIdMap,
                      static_cast<uint32_t>(state.sealed.size()),
                      state.write_ids.data(),
                      state.write_ids.size() * sizeof(uint32_t));
    writer.AddSection(SectionTag::kBaseVectors, 0, state.write_data,
                      state.write_rows * index.dim() * sizeof(float));

    std::vector<uint64_t> bitmap((state.next_global_id + 63) / 64, 0);
    for (uint32_t id : state.tombstones) {
      bitmap[id / 64] |= uint64_t{1} << (id % 64);
    }
    writer.AddSection(SectionTag::kTombstones, 0, bitmap.data(),
                      bitmap.size() * sizeof(uint64_t));
    return writer.WriteTo(out, name);
  });
}

Status SaveSharded(const ShardedIndex& index, Writer* out,
                   const std::string& name) {
  // The frozen state pins the placement (shard set, id maps, next id); each
  // embedded SerializeIndex then snapshots its own shard under the shard's
  // lock (a dynamic shard's background seal/compact reorganizes rows but
  // never changes ids or the live count, so the manifest stays consistent).
  return index.WithFrozenState([&](const ShardedIndex::FrozenState& state)
                                   -> Status {
    uint64_t total_rows = 0;
    std::vector<ShardManifestEntry> manifest;
    for (const ShardedIndex::Shard& shard : state.shards) {
      ShardManifestEntry entry{};
      if (shard.index != nullptr) {
        entry.rows = shard.index->size();
        entry.id_entries = shard.local_to_global.size();
        entry.index_type = static_cast<uint32_t>(shard.index->type());
      }
      manifest.push_back(entry);
      total_rows += entry.rows;
    }
    ContainerWriter writer(IndexType::kSharded, index.metric(), index.dim(),
                           total_rows);

    ShardedConfigRecord config{};
    config.next_global_id = state.next_global_id;
    config.num_shards = state.shards.size();
    writer.AddSection(SectionTag::kConfig, 0, &config, sizeof(config));
    writer.AddSection(SectionTag::kManifest, 0, manifest.data(),
                      manifest.size() * sizeof(ShardManifestEntry));

    for (size_t j = 0; j < state.shards.size(); ++j) {
      const ShardedIndex::Shard& shard = state.shards[j];
      if (shard.index == nullptr) continue;  // absent: manifest row only
      Status status =
          AppendPart(*shard.index, shard.local_to_global, j, &writer);
      if (!status.ok()) return status;
    }
    return writer.WriteTo(out, name);
  });
}

// ---------------------------------------------------------------------------
// Load side: bundle (owned storage) + typed section helpers.
// ---------------------------------------------------------------------------

/// Multiplies size components with overflow detection.
bool ByteCount(uint64_t count, uint64_t elem_size, uint64_t* out) {
  if (elem_size != 0 && count > UINT64_MAX / elem_size) return false;
  *out = count * elem_size;
  return true;
}

/// Checks that section (tag, ordinal) holds exactly `bytes` bytes. Loaders
/// call it BEFORE allocating anything sized from the file: sizes in the table
/// are bounded by file_size, so a matching size bounds the allocation and a
/// corrupt shape field fails with a Status, not a bad_alloc.
Status CheckSectionSize(const ContainerReader& c, SectionTag tag,
                        uint32_t ordinal, uint64_t bytes,
                        const std::string& what) {
  StatusOr<SectionEntry> entry = c.Find(tag, ordinal);
  if (!entry.ok()) return entry.status();
  if (entry.value().size != bytes) {
    return Status::InvalidArgument(what + " section size mismatch in " +
                                   c.path());
  }
  return Status::Ok();
}

}  // namespace

/// Everything a loaded index needs to stay alive: the container (holding the
/// mmap in zero-copy mode), heap copies of payloads in streaming mode, and
/// the ownership of scorers the concrete index only points at.
struct IndexBundle {
  std::unique_ptr<ContainerReader> container;
  std::vector<std::vector<uint8_t>> copies;  ///< streaming-mode payloads
  MatrixView base;
  const uint8_t* codes = nullptr;  ///< PQ code matrix (kPqCodes)
  std::unique_ptr<BinScorer> scorer;
  std::unique_ptr<Index> index;
};

namespace {

/// The self-contained object OpenIndex returns: delegates every query to the
/// concrete index while owning all backing storage.
class LoadedIndex : public Index {
 public:
  explicit LoadedIndex(std::unique_ptr<IndexBundle> bundle)
      : bundle_(std::move(bundle)) {}

  using Index::SearchBatch;
  BatchSearchResult SearchBatch(const SearchRequest& request) const override {
    return bundle_->index->SearchBatch(request);
  }
  RadiusResult RadiusSearchBatch(const RadiusRequest& request) const override {
    return bundle_->index->RadiusSearchBatch(request);
  }
  size_t dim() const override { return bundle_->index->dim(); }
  size_t size() const override { return bundle_->index->size(); }
  Metric metric() const override { return bundle_->index->metric(); }
  IndexType type() const override { return bundle_->index->type(); }
  MatrixView base_view() const override { return bundle_->index->base_view(); }
  size_t EstimateCandidates(size_t budget) const override {
    return bundle_->index->EstimateCandidates(budget);
  }
  const Index& underlying() const override { return *bundle_->index; }

 private:
  std::unique_ptr<IndexBundle> bundle_;
};

/// The payload of section (tag, ordinal), whose stored size must be `count`
/// elements of `elem_size` bytes: a view into the mapping or the in-memory
/// container, otherwise a heap copy the bundle keeps alive.
StatusOr<const uint8_t*> MapPayload(IndexBundle* bundle, SectionTag tag,
                                    uint32_t ordinal, uint64_t count,
                                    uint64_t elem_size,
                                    const std::string& what) {
  ContainerReader* c = bundle->container.get();
  uint64_t bytes = 0;
  if (!ByteCount(count, elem_size, &bytes)) {
    return Status::InvalidArgument("implausible " + what + " shape in " +
                                   c->path());
  }
  Status status = CheckSectionSize(*c, tag, ordinal, bytes, what);
  if (!status.ok()) return status;
  if (c->zero_copy()) return c->SectionData(tag, ordinal);
  std::vector<uint8_t> copy(bytes);
  status = c->ReadSection(tag, ordinal, copy.data(), bytes);
  if (!status.ok()) return status;
  bundle->copies.push_back(std::move(copy));
  return static_cast<const uint8_t*>(bundle->copies.back().data());
}

/// Reads a float-matrix section into owned heap memory (small payloads:
/// centroids, codebooks, weights).
StatusOr<Matrix> ReadMatrixSection(ContainerReader* container, SectionTag tag,
                                   uint32_t ordinal, uint64_t rows,
                                   uint64_t cols) {
  uint64_t bytes = 0;
  if (cols == 0 || rows > UINT64_MAX / cols ||
      !ByteCount(rows * cols, sizeof(float), &bytes)) {
    return Status::InvalidArgument("implausible matrix shape in " +
                                   container->path());
  }
  Status status = CheckSectionSize(*container, tag, ordinal, bytes, "matrix");
  if (!status.ok()) return status;
  std::vector<float> data(rows * cols);
  status = container->ReadSection(tag, ordinal, data.data(), bytes);
  if (!status.ok()) return status;
  return Matrix(rows, cols, std::move(data));
}

StatusOr<std::vector<uint32_t>> ReadU32Section(ContainerReader* container,
                                               SectionTag tag,
                                               uint32_t ordinal,
                                               uint64_t count) {
  std::vector<uint32_t> values(count);
  Status status = container->ReadSection(tag, ordinal, values.data(),
                                         count * sizeof(uint32_t));
  if (!status.ok()) return status;
  return values;
}

/// Maps the base-vector payload into bundle->base (MapPayload: zero-copy
/// when mapped, a heap copy otherwise).
Status LoadBase(IndexBundle* bundle) {
  ContainerReader* container = bundle->container.get();
  const uint64_t rows = container->header().num_points;
  const uint64_t cols = container->header().dim;  // in [1, 2^24]
  if (rows == 0 || rows > (1ULL << 40)) {
    return Status::InvalidArgument("implausible index shape in " +
                                   container->path());
  }
  StatusOr<const uint8_t*> data = MapPayload(
      bundle, SectionTag::kBaseVectors, 0, rows, cols * sizeof(float),
      "base-vector");
  if (!data.ok()) return data.status();
  bundle->base =
      MatrixView(reinterpret_cast<const float*>(data.value()), rows, cols);
  return Status::Ok();
}

/// Loads the header's num_points residency assignments and checks every bin
/// id against `num_bins` (the index constructors USP_CHECK this; a corrupt
/// file must fail with a Status instead).
StatusOr<std::vector<uint32_t>> LoadAssignments(ContainerReader* container,
                                                uint32_t ordinal,
                                                uint64_t num_bins) {
  StatusOr<std::vector<uint32_t>> assignments =
      ReadU32Section(container, SectionTag::kAssignments, ordinal,
                     container->header().num_points);
  if (!assignments.ok()) return assignments.status();
  for (uint32_t bin : assignments.value()) {
    if (bin >= num_bins) {
      return Status::InvalidArgument("assignment bin out of range in " +
                                     container->path());
    }
  }
  return assignments;
}

/// Rebuilds a serialized scorer; its input dimensionality must be the
/// header's dim.
StatusOr<std::unique_ptr<BinScorer>> LoadScorer(ContainerReader* container,
                                                uint32_t kind,
                                                uint32_t scorer_metric,
                                                uint32_t ordinal) {
  const uint64_t dim = container->header().dim;
  if (kind == kScorerKMeans) {
    Status status = CheckMetricValue(scorer_metric, container->path());
    if (!status.ok()) return status;
    StatusOr<SectionEntry> entry =
        container->Find(SectionTag::kCentroids, ordinal);
    if (!entry.ok()) return entry.status();
    const uint64_t row_bytes = dim * sizeof(float);
    if (row_bytes == 0 || entry.value().size == 0 ||
        entry.value().size % row_bytes != 0) {
      return Status::InvalidArgument("centroid section size mismatch in " +
                                     container->path());
    }
    const uint64_t nlist = entry.value().size / row_bytes;
    StatusOr<Matrix> centroids = ReadMatrixSection(
        container, SectionTag::kCentroids, ordinal, nlist, dim);
    if (!centroids.ok()) return centroids.status();
    return std::unique_ptr<BinScorer>(
        new KMeansPartitioner(KMeansPartitioner::FromTrainedCentroids(
            std::move(centroids).value(),
            static_cast<Metric>(scorer_metric))));
  }
  if (kind == kScorerUsp) {
    StatusOr<std::vector<uint8_t>> blob =
        container->ReadSectionBytes(SectionTag::kUspModel, ordinal);
    if (!blob.ok()) return blob.status();
    MemReader reader(blob.value().data(), blob.value().size());
    StatusOr<UspPartitioner> model =
        UspPartitioner::LoadFrom(&reader, container->path());
    if (!model.ok()) return model.status();
    // A model trained on rows of another width would abort at its first
    // forward pass.
    if (model.value().input_dim() != dim) {
      return Status::InvalidArgument(
          "embedded model input dim " +
          std::to_string(model.value().input_dim()) + " does not match dim " +
          std::to_string(dim) + " of " + container->path());
    }
    return std::unique_ptr<BinScorer>(
        new UspPartitioner(std::move(model).value()));
  }
  return Status::InvalidArgument("unknown scorer kind " +
                                 std::to_string(kind) + " in " +
                                 container->path());
}

/// Loads PQ metadata + codebooks into a rehydrated quantizer, and maps the
/// code bytes into bundle->codes.
StatusOr<ProductQuantizer> LoadPq(IndexBundle* bundle) {
  ContainerReader* container = bundle->container.get();
  const std::string& path = container->path();
  PqMetaRecord meta{};
  Status status =
      container->ReadSection(SectionTag::kPqMeta, 0, &meta, sizeof(meta));
  if (!status.ok()) return status;
  const uint64_t dim = container->header().dim;
  const uint64_t n = container->header().num_points;
  if (meta.dims != dim || meta.num_subspaces == 0 || meta.num_subspaces > dim ||
      meta.codebook_size == 0 || meta.codebook_size > 256 ||
      meta.codebook_rows == 0 || meta.codebook_rows > meta.codebook_size) {
    return Status::InvalidArgument("corrupt PQ metadata in " + path);
  }

  std::vector<uint64_t> offsets(meta.num_subspaces + 1);
  status = container->ReadSection(SectionTag::kPqOffsets, 0, offsets.data(),
                                  offsets.size() * sizeof(uint64_t));
  if (!status.ok()) return status;
  if (offsets.front() != 0 || offsets.back() != dim) {
    return Status::InvalidArgument("corrupt PQ subspace offsets in " + path);
  }
  for (size_t s = 0; s + 1 < offsets.size(); ++s) {
    if (offsets[s] >= offsets[s + 1]) {
      return Status::InvalidArgument("corrupt PQ subspace offsets in " + path);
    }
  }

  StatusOr<Matrix> concat =
      ReadMatrixSection(container, SectionTag::kPqCodebooks, 0,
                        meta.codebook_rows, dim);
  if (!concat.ok()) return concat.status();
  // The concatenated payload stores subspace blocks back to back (each
  // codebook_rows x subspace_dim), not an interleaved (rows x dim) matrix, so
  // split by walking the flat buffer.
  std::vector<Matrix> codebooks;
  codebooks.reserve(meta.num_subspaces);
  const float* cursor = concat.value().data();
  for (size_t s = 0; s < meta.num_subspaces; ++s) {
    const size_t sd = offsets[s + 1] - offsets[s];
    const size_t count = meta.codebook_rows * sd;
    codebooks.push_back(Matrix(meta.codebook_rows, sd,
                               std::vector<float>(cursor, cursor + count)));
    cursor += count;
  }

  PqConfig config;
  config.num_subspaces = static_cast<size_t>(meta.num_subspaces);
  config.codebook_size = static_cast<size_t>(meta.codebook_size);
  config.kmeans_iterations = static_cast<size_t>(meta.kmeans_iterations);
  config.anisotropic_eta = meta.anisotropic_eta;
  config.seed = meta.seed;

  // Code bytes: (n x M) uint8.
  StatusOr<const uint8_t*> codes = MapPayload(
      bundle, SectionTag::kPqCodes, 0, n, meta.num_subspaces, "PQ code");
  if (!codes.ok()) return codes.status();
  bundle->codes = codes.value();

  return ProductQuantizer(config, static_cast<size_t>(dim),
                          std::vector<size_t>(offsets.begin(), offsets.end()),
                          std::move(codebooks));
}

/// Maps the optional kPqPackedCodes section. The stored size must equal the
/// bucket-grouped block layout the index derives from `assignments`
/// (quant/scann_index.cc SetUpFastScan); a missing section maps to nullptr
/// and the blocks are rebuilt from kPqCodes. Sections saved for a wide
/// codebook are impossible (the saver only packs 4-bit codes), so
/// codebook_size > 16 skips the read.
StatusOr<const uint8_t*> LoadPackedCodes(
    IndexBundle* bundle, const ProductQuantizer& pq,
    const std::vector<uint32_t>& assignments, uint64_t num_bins) {
  ContainerReader* c = bundle->container.get();
  if (pq.codebook_size() > 16 || !c->Has(SectionTag::kPqPackedCodes, 0)) {
    return static_cast<const uint8_t*>(nullptr);
  }
  const uint64_t n = c->header().num_points;
  uint64_t blocks = 0;
  if (assignments.empty()) {
    blocks = (n + kPq4BlockSize - 1) / kPq4BlockSize;
  } else {
    std::vector<uint64_t> counts(num_bins, 0);
    for (uint32_t bin : assignments) ++counts[bin];
    for (uint64_t count : counts) {
      blocks += (count + kPq4BlockSize - 1) / kPq4BlockSize;
    }
  }
  return MapPayload(bundle, SectionTag::kPqPackedCodes, 0, blocks,
                    16 * pq.num_subspaces(), "packed-code");
}

// ---------------------------------------------------------------------------
// Per-type loaders (registry targets). OpenIndexFromContainer has already
// checked the header's metric tag and dim; each loader fills bundle->index.
// ---------------------------------------------------------------------------

Status LoadPartition(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  Status status = LoadBase(bundle);
  if (!status.ok()) return status;

  PartitionConfigRecord config{};
  status = c->ReadSection(SectionTag::kConfig, 0, &config, sizeof(config));
  if (!status.ok()) return status;
  StatusOr<std::unique_ptr<BinScorer>> scorer =
      LoadScorer(c, config.scorer_kind, config.scorer_metric, 0);
  if (!scorer.ok()) return scorer.status();
  bundle->scorer = std::move(scorer).value();

  StatusOr<std::vector<uint32_t>> assignments =
      LoadAssignments(c, 0, bundle->scorer->num_bins());
  if (!assignments.ok()) return assignments.status();

  bundle->index = std::make_unique<PartitionIndex>(
      bundle->base, bundle->scorer.get(), std::move(assignments).value(),
      static_cast<Metric>(c->header().metric));
  return Status::Ok();
}

Status LoadIvfFlat(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  Status status = LoadBase(bundle);
  if (!status.ok()) return status;

  IvfFlatConfigRecord record{};
  status = c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;
  if (record.nlist == 0) {
    return Status::InvalidArgument("corrupt IVF config in " + c->path());
  }
  StatusOr<Matrix> centroids = ReadMatrixSection(
      c, SectionTag::kCentroids, 0, record.nlist, c->header().dim);
  if (!centroids.ok()) return centroids.status();
  StatusOr<std::vector<uint32_t>> assignments =
      LoadAssignments(c, 0, record.nlist);
  if (!assignments.ok()) return assignments.status();

  IvfConfig config;
  config.nlist = static_cast<size_t>(record.nlist);
  config.kmeans_iterations = static_cast<size_t>(record.kmeans_iterations);
  config.seed = record.seed;
  config.metric = static_cast<Metric>(c->header().metric);
  bundle->index = std::make_unique<IvfFlatIndex>(
      bundle->base, config, std::move(centroids).value(),
      std::move(assignments).value());
  return Status::Ok();
}

Status LoadIvfPq(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  Status status = LoadBase(bundle);
  if (!status.ok()) return status;

  IvfPqConfigRecord record{};
  status = c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;
  StatusOr<ProductQuantizer> pq = LoadPq(bundle);
  if (!pq.ok()) return pq.status();

  IvfConfig config;
  config.nlist = static_cast<size_t>(record.nlist);
  config.kmeans_iterations = static_cast<size_t>(record.kmeans_iterations);
  config.seed = record.seed;
  config.metric = static_cast<Metric>(c->header().metric);
  config.rerank_budget = static_cast<size_t>(record.rerank_budget);
  config.pq = pq.value().config();
  status = IvfPqIndex::ValidateConfig(config);
  if (!status.ok()) return status;

  StatusOr<Matrix> centroids = ReadMatrixSection(
      c, SectionTag::kCentroids, 0, record.nlist, c->header().dim);
  if (!centroids.ok()) return centroids.status();
  StatusOr<std::vector<uint32_t>> assignments =
      LoadAssignments(c, 0, record.nlist);
  if (!assignments.ok()) return assignments.status();
  StatusOr<const uint8_t*> packed = LoadPackedCodes(
      bundle, pq.value(), assignments.value(), record.nlist);
  if (!packed.ok()) return packed.status();

  bundle->index = std::make_unique<IvfPqIndex>(
      bundle->base, config, std::move(centroids).value(),
      std::move(pq).value(), bundle->codes, assignments.value(),
      packed.value());
  return Status::Ok();
}

Status LoadScann(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  Status status = LoadBase(bundle);
  if (!status.ok()) return status;

  ScannConfigRecord record{};
  status = c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;
  StatusOr<ProductQuantizer> pq = LoadPq(bundle);
  if (!pq.ok()) return pq.status();

  std::vector<uint32_t> assignments;
  if (record.scorer_kind != kScorerNone) {
    StatusOr<std::unique_ptr<BinScorer>> scorer =
        LoadScorer(c, record.scorer_kind, record.scorer_metric, 0);
    if (!scorer.ok()) return scorer.status();
    bundle->scorer = std::move(scorer).value();
    StatusOr<std::vector<uint32_t>> loaded =
        LoadAssignments(c, 0, bundle->scorer->num_bins());
    if (!loaded.ok()) return loaded.status();
    assignments = std::move(loaded).value();
  }
  StatusOr<const uint8_t*> packed = LoadPackedCodes(
      bundle, pq.value(), assignments,
      bundle->scorer != nullptr ? bundle->scorer->num_bins() : 0);
  if (!packed.ok()) return packed.status();

  ScannIndexConfig config;
  config.rerank_budget = static_cast<size_t>(record.rerank_budget);
  bundle->index = std::make_unique<ScannIndex>(
      bundle->base, bundle->scorer.get(), std::move(pq).value(), config,
      bundle->codes, assignments, static_cast<Metric>(c->header().metric),
      packed.value());
  return Status::Ok();
}

Status LoadSq8(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  Status status = LoadBase(bundle);
  if (!status.ok()) return status;
  const uint64_t n = c->header().num_points;
  const uint64_t dim = c->header().dim;

  Sq8ConfigRecord record{};
  status = c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;

  std::vector<float> params(2 * dim);
  status = c->ReadSection(SectionTag::kSq8Params, 0, params.data(),
                          params.size() * sizeof(float));
  if (!status.ok()) return status;
  std::vector<float> mins(params.begin(), params.begin() + dim);
  std::vector<float> scales(params.begin() + dim, params.end());

  StatusOr<const uint8_t*> codes =
      MapPayload(bundle, SectionTag::kSq8Codes, 0, n, dim, "SQ8 code");
  if (!codes.ok()) return codes.status();

  Sq8IndexConfig config;
  config.metric = static_cast<Metric>(c->header().metric);
  config.rerank_budget = static_cast<size_t>(record.rerank_budget);
  bundle->index = std::make_unique<Sq8Index>(bundle->base, config,
                                             std::move(mins),
                                             std::move(scales), codes.value());
  return Status::Ok();
}

Status LoadHnsw(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  const std::string& path = c->path();
  Status status = LoadBase(bundle);
  if (!status.ok()) return status;
  const uint64_t n = c->header().num_points;

  HnswConfigRecord record{};
  status = c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;
  if (record.max_neighbors < 2 || record.max_level < 0 ||
      record.max_level > 63 || record.entry_point >= n) {
    return Status::InvalidArgument("corrupt HNSW config in " + path);
  }

  std::vector<int32_t> levels(n);
  status = c->ReadSection(SectionTag::kHnswLevels, 0, levels.data(),
                          n * sizeof(int32_t));
  if (!status.ok()) return status;
  int32_t observed_max = -1;
  for (int32_t level : levels) {
    if (level < 0 || level > record.max_level) {
      return Status::InvalidArgument("corrupt HNSW levels in " + path);
    }
    observed_max = std::max(observed_max, level);
  }
  if (observed_max != record.max_level ||
      levels[record.entry_point] != record.max_level) {
    return Status::InvalidArgument("corrupt HNSW levels in " + path);
  }

  StatusOr<std::vector<uint8_t>> link_bytes =
      c->ReadSectionBytes(SectionTag::kHnswLinks, 0);
  if (!link_bytes.ok()) return link_bytes.status();
  MemReader reader(link_bytes.value().data(), link_bytes.value().size());
  std::vector<std::vector<std::vector<uint32_t>>> links(n);
  for (uint64_t i = 0; i < n; ++i) {
    links[i].resize(levels[i] + 1);
    for (int32_t l = 0; l <= levels[i]; ++l) {
      uint32_t count = 0;
      if (!reader.ReadPod(&count) || count >= n) {
        return Status::InvalidArgument("corrupt HNSW links in " + path);
      }
      std::vector<uint32_t>& ids = links[i][l];
      ids.resize(count);
      if (count > 0 && !reader.Read(ids.data(), count * sizeof(uint32_t))) {
        return Status::InvalidArgument("corrupt HNSW links in " + path);
      }
      for (uint32_t id : ids) {
        // Every link target must exist on this layer, otherwise search would
        // index past a node's level vector.
        if (id >= n || levels[id] < l) {
          return Status::InvalidArgument("corrupt HNSW links in " + path);
        }
      }
    }
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing HNSW link bytes in " + path);
  }

  HnswConfig config;
  config.max_neighbors = static_cast<size_t>(record.max_neighbors);
  config.ef_construction = static_cast<size_t>(record.ef_construction);
  config.seed = record.seed;
  bundle->index = std::make_unique<HnswIndex>(
      config, bundle->base, std::move(links),
      std::vector<int>(levels.begin(), levels.end()), record.max_level,
      record.entry_point);
  return Status::Ok();
}

Status LoadEnsemble(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  const std::string& path = c->path();
  Status status = LoadBase(bundle);
  if (!status.ok()) return status;
  const uint64_t n = c->header().num_points;

  EnsembleConfigRecord record{};
  status = c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;
  if (record.num_models == 0 || record.num_models > 1024 ||
      record.combine > 1) {
    return Status::InvalidArgument("corrupt ensemble config in " + path);
  }

  std::vector<std::unique_ptr<UspPartitioner>> models;
  std::vector<std::unique_ptr<PartitionIndex>> indexes;
  for (uint32_t j = 0; j < record.num_models; ++j) {
    StatusOr<std::unique_ptr<BinScorer>> scorer =
        LoadScorer(c, kScorerUsp, 0, j);
    if (!scorer.ok()) return scorer.status();
    auto model = std::unique_ptr<UspPartitioner>(
        static_cast<UspPartitioner*>(scorer.value().release()));
    StatusOr<std::vector<uint32_t>> assignments =
        LoadAssignments(c, j, model->num_bins());
    if (!assignments.ok()) return assignments.status();
    indexes.push_back(std::make_unique<PartitionIndex>(
        bundle->base, model.get(), std::move(assignments).value(),
        Metric::kSquaredL2));
    models.push_back(std::move(model));
  }

  std::vector<float> weights(n);
  status = c->ReadSection(SectionTag::kWeights, 0, weights.data(),
                          n * sizeof(float));
  if (!status.ok()) return status;

  UspEnsembleConfig config;
  config.model = UnpackTrainConfig(record.model);
  config.num_models = static_cast<size_t>(record.num_models);
  config.weight_floor = record.weight_floor;
  config.combine = static_cast<EnsembleCombine>(record.combine);
  bundle->index = std::make_unique<UspEnsemble>(
      config, bundle->base, std::move(models), std::move(indexes),
      std::move(weights));
  return Status::Ok();
}

/// One part (segment or shard) of a nested container, opened.
struct NestedPart {
  std::unique_ptr<Index> index;
  std::vector<uint32_t> ids;        ///< local id -> global id
  DynamicIndex* dynamic = nullptr;  ///< the index, when it is mutable
};

/// Opens part j of a nested (dynamic or sharded) container: reads and opens
/// the embedded container in kSegmentBlob j, matches its type tag against
/// the manifest's `type_tag` and rejects the parent's own type (nesting
/// would break the one-level embedding), dispatches it, matches its dim,
/// metric and `rows` against the parent, and reads the `id_entries`-long id
/// map in kIdMap j.
StatusOr<NestedPart> OpenPart(ContainerReader* c, uint32_t j,
                              uint32_t type_tag, uint64_t rows,
                              uint64_t id_entries) {
  const ContainerHeader& header = c->header();
  const bool dynamic_parent =
      header.index_type == static_cast<uint32_t>(IndexType::kDynamic);
  const std::string corrupt =
      std::string("corrupt ") + (dynamic_parent ? "dynamic" : "sharded");
  StatusOr<std::vector<uint8_t>> blob =
      c->ReadSectionBytes(SectionTag::kSegmentBlob, j);
  if (!blob.ok()) return blob.status();
  StatusOr<std::unique_ptr<ContainerReader>> sub = ContainerReader::OpenMem(
      std::move(blob).value(), c->path() + (dynamic_parent ? " [segment "
                                                            : " [shard ") +
                                   std::to_string(j) + "]");
  if (!sub.ok()) return sub.status();
  if (sub.value()->header().index_type != type_tag ||
      type_tag == header.index_type) {
    return Status::InvalidArgument(corrupt + " manifest in " + c->path());
  }
  NestedPart part;
  StatusOr<std::unique_ptr<Index>> index =
      OpenIndexFromContainer(std::move(sub).value());
  if (!index.ok()) return index.status();
  part.index = std::move(index).value();
  if (part.index->dim() != header.dim ||
      part.index->metric() != static_cast<Metric>(header.metric) ||
      part.index->size() != rows) {
    return Status::InvalidArgument(corrupt + " manifest in " + c->path());
  }
  // A dynamic part stays mutable after load. The const_cast is sound — the
  // loaded wrapper owns the object non-const and DynamicIndex's mutators are
  // thread-safe. Its local ids span [0, next_global_id), tombstoned ones
  // included; every one needs a global mapping or a remapped result could
  // index past the table.
  part.dynamic = dynamic_cast<DynamicIndex*>(
      const_cast<Index*>(&part.index->underlying()));
  if (id_entries !=
      (part.dynamic != nullptr ? part.dynamic->next_global_id() : rows)) {
    return Status::InvalidArgument(corrupt + " id map in " + c->path());
  }
  StatusOr<std::vector<uint32_t>> ids =
      ReadU32Section(c, SectionTag::kIdMap, j, id_entries);
  if (!ids.ok()) return ids.status();
  part.ids = std::move(ids).value();
  return part;
}

Status LoadDynamic(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  const std::string& path = c->path();
  const uint64_t dim = c->header().dim;

  DynamicConfigRecord record{};
  Status status =
      c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;
  if (record.num_sealed > 4096 || record.next_global_id > 0xFFFFFFFFull ||
      record.write_rows > record.next_global_id ||
      record.tombstone_count > record.next_global_id) {
    return Status::InvalidArgument("corrupt dynamic config in " + path);
  }

  std::vector<DynamicSegmentEntry> manifest(record.num_sealed);
  status = c->ReadSection(SectionTag::kManifest, 0, manifest.data(),
                          record.num_sealed * sizeof(DynamicSegmentEntry));
  if (!status.ok()) return status;

  // Bound the id space by the tombstone bitmap the file actually carries
  // before allocating anything sized by next_global_id.
  const uint64_t tombstone_words = (record.next_global_id + 63) / 64;
  status = CheckSectionSize(*c, SectionTag::kTombstones, 0,
                            tombstone_words * sizeof(uint64_t),
                            "tombstone bitmap");
  if (!status.ok()) return status;

  // `seen` tracks which global ids physically exist (for uniqueness and for
  // validating the tombstone bitmap against real rows).
  std::vector<bool> seen(record.next_global_id, false);
  auto claim_ids = [&](const std::vector<uint32_t>& ids) -> bool {
    for (uint32_t id : ids) {
      if (id >= record.next_global_id || seen[id]) return false;
      seen[id] = true;
    }
    return true;
  };

  std::vector<std::unique_ptr<DynamicIndex::SealedSegment>> sealed;
  sealed.reserve(record.num_sealed);
  uint64_t total_rows = record.write_rows;
  for (uint32_t j = 0; j < record.num_sealed; ++j) {
    StatusOr<NestedPart> part = OpenPart(c, j, manifest[j].index_type,
                                         manifest[j].rows, manifest[j].rows);
    if (!part.ok()) return part.status();
    auto segment = std::make_unique<DynamicIndex::SealedSegment>();
    segment->index = std::move(part.value().index);
    segment->global_ids = std::move(part.value().ids);
    if (!claim_ids(segment->global_ids)) {
      return Status::InvalidArgument("corrupt dynamic id map in " + path);
    }
    total_rows += manifest[j].rows;
    sealed.push_back(std::move(segment));
  }
  if (c->header().num_points != total_rows) {
    return Status::InvalidArgument("corrupt dynamic manifest in " + path);
  }

  StatusOr<Matrix> write_rows = ReadMatrixSection(
      c, SectionTag::kBaseVectors, 0, record.write_rows, dim);
  if (!write_rows.ok()) return write_rows.status();
  StatusOr<std::vector<uint32_t>> write_ids =
      ReadU32Section(c, SectionTag::kIdMap,
                     static_cast<uint32_t>(record.num_sealed),
                     record.write_rows);
  if (!write_ids.ok()) return write_ids.status();
  if (!claim_ids(write_ids.value())) {
    return Status::InvalidArgument("corrupt dynamic id map in " + path);
  }

  std::vector<uint64_t> bitmap(tombstone_words);
  status = c->ReadSection(SectionTag::kTombstones, 0, bitmap.data(),
                          tombstone_words * sizeof(uint64_t));
  if (!status.ok()) return status;
  std::vector<uint32_t> tombstones;
  for (uint64_t id = 0; id < record.next_global_id; ++id) {
    if ((bitmap[id / 64] >> (id % 64)) & 1) {
      if (!seen[id]) {
        return Status::InvalidArgument("tombstone for unknown id in " + path);
      }
      tombstones.push_back(static_cast<uint32_t>(id));
    }
  }
  if (tombstones.size() != record.tombstone_count) {
    return Status::InvalidArgument("tombstone count mismatch in " + path);
  }

  DynamicIndexConfig config;
  config.metric = static_cast<Metric>(c->header().metric);
  config.seal_threshold = static_cast<size_t>(record.seal_threshold);
  config.max_sealed_segments =
      static_cast<size_t>(record.max_sealed_segments);
  bundle->index = std::make_unique<DynamicIndex>(
      static_cast<size_t>(dim), std::move(config), std::move(sealed),
      std::move(write_rows).value(), std::move(write_ids).value(),
      std::move(tombstones), static_cast<uint32_t>(record.next_global_id));
  return Status::Ok();
}

Status LoadSharded(IndexBundle* bundle) {
  ContainerReader* c = bundle->container.get();
  const std::string& path = c->path();

  ShardedConfigRecord record{};
  Status status =
      c->ReadSection(SectionTag::kConfig, 0, &record, sizeof(record));
  if (!status.ok()) return status;
  if (record.num_shards == 0 || record.num_shards > 4096 ||
      record.next_global_id > 0xFFFFFFFFull) {
    return Status::InvalidArgument("corrupt sharded config in " + path);
  }

  std::vector<ShardManifestEntry> manifest(record.num_shards);
  status = c->ReadSection(SectionTag::kManifest, 0, manifest.data(),
                          record.num_shards * sizeof(ShardManifestEntry));
  if (!status.ok()) return status;

  // Every id below next_global_id was issued to exactly one shard and keeps
  // its id-map entry (tombstoned ones too), so next_global_id cannot exceed
  // the entries the present shards' id maps hold. Counting them from the
  // section table bounds every allocation sized by next_global_id by the
  // file size.
  uint64_t id_map_entries = 0;
  for (uint32_t j = 0; j < record.num_shards; ++j) {
    StatusOr<SectionEntry> ids = c->Find(SectionTag::kIdMap, j);
    if (manifest[j].index_type != 0 && ids.ok()) {
      id_map_entries += ids.value().size / sizeof(uint32_t);
    }
  }
  if (record.next_global_id > id_map_entries) {
    return Status::InvalidArgument("corrupt sharded config in " + path);
  }

  // Uniqueness of global ids across shards; every validation below fails
  // with a Status (never an allocation or a crash) before the rehydrate
  // constructor's own invariant checks run.
  std::vector<bool> seen(record.next_global_id, false);
  std::vector<ShardedIndex::Shard> shards(record.num_shards);
  uint64_t total_rows = 0;
  for (uint32_t j = 0; j < record.num_shards; ++j) {
    ShardedIndex::Shard& shard = shards[j];
    if (manifest[j].index_type == 0) {
      if (manifest[j].rows != 0 || manifest[j].id_entries != 0) {
        return Status::InvalidArgument("corrupt sharded manifest in " + path);
      }
      continue;  // absent shard
    }
    if (manifest[j].id_entries < manifest[j].rows ||
        manifest[j].id_entries > record.next_global_id) {
      return Status::InvalidArgument("corrupt sharded manifest in " + path);
    }
    // Shards may be any type including kDynamic (a mutable sharded index
    // round-trips as mutable).
    StatusOr<NestedPart> part =
        OpenPart(c, j, manifest[j].index_type, manifest[j].rows,
                 manifest[j].id_entries);
    if (!part.ok()) return part.status();
    shard.index = std::move(part.value().index);
    shard.local_to_global = std::move(part.value().ids);
    shard.dynamic = part.value().dynamic;
    uint32_t prev = 0;
    for (size_t i = 0; i < shard.local_to_global.size(); ++i) {
      const uint32_t gid = shard.local_to_global[i];
      // Ascending (which also implies per-shard uniqueness), hash-consistent
      // placement, and cross-shard uniqueness — the rehydrate constructor's
      // invariants, enforced here as Status.
      if (gid >= record.next_global_id || (i > 0 && gid <= prev) ||
          ShardedIndex::Place(gid, record.num_shards) != j || seen[gid]) {
        return Status::InvalidArgument("corrupt sharded id map in " + path);
      }
      seen[gid] = true;
      prev = gid;
    }
    total_rows += manifest[j].rows;
  }
  if (c->header().num_points != total_rows) {
    return Status::InvalidArgument("corrupt sharded manifest in " + path);
  }

  ShardedIndexConfig config;
  config.metric = static_cast<Metric>(c->header().metric);
  config.num_shards = static_cast<size_t>(record.num_shards);
  bundle->index = std::make_unique<ShardedIndex>(
      static_cast<size_t>(c->header().dim), std::move(config),
      std::move(shards), static_cast<uint32_t>(record.next_global_id));
  return Status::Ok();
}

/// Registry saver adapter: `Save` takes the concrete type the entry's tag
/// names.
template <typename T, Status (*Save)(const T&, Writer*, const std::string&)>
Status SaveAs(const Index& index, Writer* out, const std::string& name) {
  return Save(static_cast<const T&>(index), out, name);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

const std::vector<IndexLoaderEntry>& IndexLoaderRegistry() {
  static const std::vector<IndexLoaderEntry>* registry =
      new std::vector<IndexLoaderEntry>{
          {IndexType::kPartition, "partition", &LoadPartition,
           &SaveAs<PartitionIndex, &SavePartition>},
          {IndexType::kIvfFlat, "ivf_flat", &LoadIvfFlat,
           &SaveAs<IvfFlatIndex, &SaveIvfFlat>},
          {IndexType::kIvfPq, "ivf_pq", &LoadIvfPq,
           &SaveAs<IvfPqIndex, &SaveIvfPq>},
          {IndexType::kScann, "scann", &LoadScann,
           &SaveAs<ScannIndex, &SaveScann>},
          {IndexType::kHnsw, "hnsw", &LoadHnsw, &SaveAs<HnswIndex, &SaveHnsw>},
          {IndexType::kUspEnsemble, "usp_ensemble", &LoadEnsemble,
           &SaveAs<UspEnsemble, &SaveEnsemble>},
          {IndexType::kDynamic, "dynamic", &LoadDynamic,
           &SaveAs<DynamicIndex, &SaveDynamic>},
          {IndexType::kSq8, "sq8", &LoadSq8, &SaveAs<Sq8Index, &SaveSq8>},
          {IndexType::kSharded, "sharded", &LoadSharded,
           &SaveAs<ShardedIndex, &SaveSharded>},
      };
  return *registry;
}

const IndexLoaderEntry* FindIndexLoader(uint32_t type_tag) {
  for (const IndexLoaderEntry& entry : IndexLoaderRegistry()) {
    if (static_cast<uint32_t>(entry.type) == type_tag) return &entry;
  }
  return nullptr;
}

Status SaveIndexTo(const Index& index, Writer* out,
                   const std::string& name) {
  const Index& concrete = index.underlying();
  const IndexLoaderEntry* entry =
      FindIndexLoader(static_cast<uint32_t>(concrete.type()));
  if (entry == nullptr) return Status::InvalidArgument("unknown index type");
  return entry->save(concrete, out, name);
}

Status SaveIndex(const Index& index, const std::string& path) {
  FileWriter writer(path);
  if (!writer.ok()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  Status status = SaveIndexTo(index, &writer, path);
  if (!status.ok()) return status;
  if (!writer.Close()) return Status::IoError("short write to " + path);
  return Status::Ok();
}

StatusOr<std::string> SerializeIndex(const Index& index) {
  StringWriter writer;
  Status status = SaveIndexTo(index, &writer, "<in-memory container>");
  if (!status.ok()) return status;
  return writer.TakeBytes();
}

StatusOr<std::unique_ptr<Index>> OpenIndexFromContainer(
    std::unique_ptr<ContainerReader> container) {
  const ContainerHeader& header = container->header();
  const std::string& path = container->path();
  const IndexLoaderEntry* loader = FindIndexLoader(header.index_type);
  if (loader == nullptr) {
    return Status::InvalidArgument("unknown index type tag " +
                                   std::to_string(header.index_type) +
                                   " in " + path);
  }
  // The prelude every type shares: the header's metric tag and dim must be
  // plausible before any loader interprets a payload.
  Status status = CheckMetricValue(header.metric, path);
  if (!status.ok()) return status;
  if (header.dim == 0 || header.dim > (1ULL << 24)) {
    return Status::InvalidArgument("implausible index shape in " + path);
  }
  auto bundle = std::make_unique<IndexBundle>();
  bundle->container = std::move(container);
  status = loader->load(bundle.get());
  if (!status.ok()) return status;
  return std::unique_ptr<Index>(new LoadedIndex(std::move(bundle)));
}

StatusOr<std::unique_ptr<Index>> OpenIndex(const std::string& path,
                                           LoadMode mode) {
  StatusOr<std::unique_ptr<ContainerReader>> container =
      mode == LoadMode::kMmap ? ContainerReader::OpenMmap(path)
                              : ContainerReader::OpenFile(path);
  if (!container.ok()) return container.status();
  return OpenIndexFromContainer(std::move(container).value());
}

StatusOr<std::unique_ptr<Index>> LoadIndex(const std::string& path) {
  return OpenIndex(path, LoadMode::kHeap);
}

StatusOr<std::unique_ptr<Index>> MmapIndex(const std::string& path) {
  return OpenIndex(path, LoadMode::kMmap);
}

}  // namespace usp
