#include "serve/out_of_core_builder.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "baselines/kmeans.h"
#include "index/container.h"
#include "index/index_records.h"
#include "ivf/ivf.h"
#include "quant/sq8_index.h"
#include "tensor/ops.h"
#include "util/io.h"

namespace usp {

namespace {

// Bytes per Append when relaying a temp file into a container section.
constexpr size_t kRelayBytes = 1u << 20;

/// The trained coarse model of an IVF build: the exact centroid payload to
/// persist plus the scorer residency assignment runs through.
struct IvfModel {
  Matrix centroids;  ///< bytes of the kCentroids section
  std::unique_ptr<KMeansPartitioner> assigner;
  bool assign_normalized = false;  ///< cosine: assign over unit rows
  double train_inertia = 0.0;
  size_t epochs_run = 0;
};

/// ChunkStream decorator yielding unit-normalized copies of the inner
/// stream's chunks (spherical k-means training under kCosine).
class NormalizingStream : public ChunkStream {
 public:
  explicit NormalizingStream(ChunkStream* inner) : inner_(inner) {}

  size_t dim() const override { return inner_->dim(); }
  size_t num_rows() const override { return inner_->num_rows(); }
  Status Reset() override { return inner_->Reset(); }

  StatusOr<MatrixView> NextChunk(size_t max_rows) override {
    StatusOr<MatrixView> chunk = inner_->NextChunk(max_rows);
    if (!chunk.ok()) return chunk;
    buffer_ = chunk.value().Clone();
    NormalizeRows(&buffer_);
    return MatrixView(buffer_);
  }

 private:
  ChunkStream* inner_;
  Matrix buffer_;
};

StatusOr<IvfModel> TrainIvf(ChunkStream* base, const OutOfCoreConfig& config) {
  StatusOr<Matrix> sample =
      ReservoirSample(base, config.sample_rows, config.seed);
  if (!sample.ok()) return sample.status();
  const bool cosine = config.metric == Metric::kCosine;
  if (cosine) NormalizeRows(&sample.value());

  MiniBatchKMeansConfig mc;
  mc.num_clusters = config.nlist;
  mc.epochs = config.train_epochs;
  mc.chunk_rows = config.chunk_rows;
  mc.tolerance = config.tolerance;
  mc.seed = config.seed;
  NormalizingStream normalized(base);
  ChunkStream* train_stream = cosine ? &normalized : base;
  StatusOr<MiniBatchKMeansResult> trained =
      RunMiniBatchKMeans(train_stream, sample.value(), mc);
  if (!trained.ok()) return trained.status();

  IvfModel model;
  model.train_inertia = trained.value().inertia;
  model.epochs_run = trained.value().epochs_run;
  model.assign_normalized = cosine;
  if (cosine) {
    // Mirror the in-memory cosine IVF: unit-normalized centroids are both
    // the residency scorer and the persisted payload.
    model.assigner = std::make_unique<KMeansPartitioner>(
        std::move(trained.value().centroids), Metric::kCosine);
    model.centroids = model.assigner->centroids().Clone();
  } else {
    // L2 and IP both keep L2 list residency (standard IVF-IP); the metric
    // only changes probe/rerank behavior at load time.
    model.centroids = std::move(trained.value().centroids);
    model.assigner =
        std::make_unique<KMeansPartitioner>(KMeansPartitioner::FromTrainedCentroids(
            model.centroids.Clone(), Metric::kSquaredL2));
  }
  return model;
}

/// One pass over the base: assigns every chunk through the model's scorer
/// and hands (raw chunk, assignments, first row id) to `fn`, which returns a
/// Status. Bit-deterministic for a given chunk size, which is why the
/// disk-direct and in-memory paths share it.
template <typename Fn>
Status ForEachAssignedChunk(ChunkStream* base, const IvfModel& model,
                            size_t chunk_rows, Fn&& fn) {
  Status status = base->Reset();
  if (!status.ok()) return status;
  // AssignBins materializes a rows x nlist score matrix, so assignment runs
  // in fixed sub-blocks: the score buffer stays O(block * nlist) however
  // large the streaming chunk is. The block size is a constant — part of the
  // deterministic pipeline both build paths share, never config-dependent.
  constexpr size_t kAssignBlockRows = 4096;
  size_t row_base = 0;
  for (;;) {
    StatusOr<MatrixView> chunk_or = base->NextChunk(chunk_rows);
    if (!chunk_or.ok()) return chunk_or.status();
    const MatrixView chunk = chunk_or.value();
    if (chunk.rows() == 0) break;
    Matrix normalized;
    MatrixView assign_rows = chunk;
    if (model.assign_normalized) {
      normalized = chunk.Clone();
      NormalizeRows(&normalized);
      assign_rows = MatrixView(normalized);
    }
    std::vector<uint32_t> assignments(chunk.rows());
    for (size_t start = 0; start < assign_rows.rows();
         start += kAssignBlockRows) {
      const size_t count =
          std::min(kAssignBlockRows, assign_rows.rows() - start);
      const MatrixView block(assign_rows.Row(start), count,
                             assign_rows.cols());
      const std::vector<uint32_t> bins = model.assigner->AssignBins(block);
      std::copy(bins.begin(), bins.end(), assignments.begin() + start);
    }
    status = fn(chunk, assignments, row_base);
    if (!status.ok()) return status;
    row_base += chunk.rows();
  }
  return Status::Ok();
}

/// Relays an entire temp file into the current container section.
Status RelayFile(const std::string& path, StreamingContainerWriter* writer) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::vector<uint8_t> buffer(kRelayBytes);
  Status status = Status::Ok();
  for (;;) {
    const size_t got = std::fread(buffer.data(), 1, buffer.size(), f);
    if (got == 0) {
      if (std::ferror(f) != 0) status = Status::IoError("short read of " + path);
      break;
    }
    status = writer->Append(buffer.data(), got);
    if (!status.ok()) break;
  }
  std::fclose(f);
  return status;
}

StatusOr<OutOfCoreBuildStats> BuildIvfFlat(ChunkStream* base,
                                           const std::string& index_path,
                                           const OutOfCoreConfig& config) {
  StatusOr<IvfModel> model = TrainIvf(base, config);
  if (!model.ok()) return model.status();
  const uint64_t n = base->num_rows();
  const uint64_t d = base->dim();
  const size_t nlist = model.value().centroids.rows();

  IvfFlatConfigRecord record{};
  record.nlist = nlist;
  record.kmeans_iterations = config.train_epochs;
  record.seed = config.seed;

  // SaveIvfFlat's exact section order; all sizes are known before the encode
  // pass starts, so the container streams out front to back.
  StreamingContainerWriter writer(IndexType::kIvfFlat, config.metric, d, n);
  writer.PlanSection(SectionTag::kConfig, 0, sizeof(record));
  writer.PlanSection(SectionTag::kCentroids, 0,
                     model.value().centroids.size() * sizeof(float));
  writer.PlanSection(SectionTag::kBaseVectors, 0, n * d * sizeof(float));
  writer.PlanSection(SectionTag::kAssignments, 0, n * sizeof(uint32_t));

  FileWriter out(index_path);
  if (!out.ok()) {
    return Status::IoError("cannot open " + index_path + " for writing");
  }
  Status status = writer.Start(&out, index_path);
  if (!status.ok()) return status;
  status = writer.Append(&record, sizeof(record));
  if (!status.ok()) return status;
  status = writer.Append(model.value().centroids.data(),
                         model.value().centroids.size() * sizeof(float));
  if (!status.ok()) return status;

  // Encode pass: base rows go straight into the container; assignments spill
  // row-ordered to one temp file (relayed into kAssignments afterwards) and
  // are counted per list for the balance stats.
  const std::string assign_path = index_path + ".assign.tmp";
  std::FILE* assign_file = std::fopen(assign_path.c_str(), "wb");
  if (assign_file == nullptr) {
    return Status::IoError("cannot open " + assign_path + " for writing");
  }
  std::vector<size_t> counts(nlist, 0);
  size_t chunks = 0;
  status = ForEachAssignedChunk(
      base, model.value(), config.chunk_rows,
      [&](MatrixView chunk, const std::vector<uint32_t>& assignments,
          size_t) {
        ++chunks;
        Status st = writer.Append(chunk.data(), chunk.size() * sizeof(float));
        if (!st.ok()) return st;
        if (std::fwrite(assignments.data(), sizeof(uint32_t),
                        assignments.size(),
                        assign_file) != assignments.size()) {
          return Status::IoError("short write to " + assign_path);
        }
        for (const uint32_t list : assignments) ++counts[list];
        return Status::Ok();
      });
  const bool close_ok = std::fclose(assign_file) == 0;
  if (status.ok() && !close_ok) {
    status = Status::IoError("short write to " + assign_path);
  }
  if (!status.ok()) {
    std::remove(assign_path.c_str());
    return status;
  }

  status = RelayFile(assign_path, &writer);
  std::remove(assign_path.c_str());
  if (!status.ok()) return status;
  status = writer.Finish();
  if (!status.ok()) return status;
  if (!out.Close()) return Status::IoError("short write to " + index_path);

  OutOfCoreBuildStats stats;
  stats.rows = n;
  stats.dim = d;
  stats.chunks = chunks;
  stats.file_size = writer.file_size();
  stats.nlist = nlist;
  stats.epochs_run = model.value().epochs_run;
  stats.train_inertia = model.value().train_inertia;
  stats.min_list = *std::min_element(counts.begin(), counts.end());
  stats.max_list = *std::max_element(counts.begin(), counts.end());
  stats.empty_lists = std::count(counts.begin(), counts.end(), size_t{0});
  return stats;
}

StatusOr<OutOfCoreBuildStats> BuildSq8(ChunkStream* base,
                                       const std::string& index_path,
                                       const OutOfCoreConfig& config) {
  const uint64_t n = base->num_rows();
  const uint64_t d = base->dim();
  const bool cosine = config.metric == Metric::kCosine;

  Sq8ConfigRecord record{};
  record.rerank_budget = config.rerank_budget;

  // SaveSq8's exact section order.
  StreamingContainerWriter writer(IndexType::kSq8, config.metric, d, n);
  writer.PlanSection(SectionTag::kConfig, 0, sizeof(record));
  writer.PlanSection(SectionTag::kBaseVectors, 0, n * d * sizeof(float));
  writer.PlanSection(SectionTag::kSq8Params, 0, 2 * d * sizeof(float));
  writer.PlanSection(SectionTag::kSq8Codes, 0, n * d);

  FileWriter out(index_path);
  if (!out.ok()) {
    return Status::IoError("cannot open " + index_path + " for writing");
  }
  Status status = writer.Start(&out, index_path);
  if (!status.ok()) return status;
  status = writer.Append(&record, sizeof(record));
  if (!status.ok()) return status;

  // Pass 1: raw rows into kBaseVectors while the range fit accumulates
  // (over unit-normalized copies under cosine, like the in-memory trainer).
  status = base->Reset();
  if (!status.ok()) return status;
  Sq8RangeFit ranges;
  size_t chunks = 0;
  for (;;) {
    StatusOr<MatrixView> chunk_or = base->NextChunk(config.chunk_rows);
    if (!chunk_or.ok()) return chunk_or.status();
    const MatrixView chunk = chunk_or.value();
    if (chunk.rows() == 0) break;
    ++chunks;
    status = writer.Append(chunk.data(), chunk.size() * sizeof(float));
    if (!status.ok()) return status;
    if (cosine) {
      Matrix normalized = chunk.Clone();
      NormalizeRows(&normalized);
      ranges.Add(normalized);
    } else {
      ranges.Add(chunk);
    }
  }
  if (ranges.mins.empty()) {
    return Status::InvalidArgument("cannot build an SQ8 index from 0 rows");
  }
  const std::vector<float> scales = ranges.Scales();
  status = writer.Append(ranges.mins.data(), d * sizeof(float));
  if (!status.ok()) return status;
  status = writer.Append(scales.data(), d * sizeof(float));
  if (!status.ok()) return status;

  // Pass 2: re-stream (unit-normalized under cosine) and encode.
  NormalizingStream normalized(base);
  ChunkStream* rows = cosine ? &normalized : base;
  status = rows->Reset();
  if (!status.ok()) return status;
  std::vector<uint8_t> codes;
  for (;;) {
    StatusOr<MatrixView> chunk_or = rows->NextChunk(config.chunk_rows);
    if (!chunk_or.ok()) return chunk_or.status();
    const MatrixView chunk = chunk_or.value();
    if (chunk.rows() == 0) break;
    codes.resize(chunk.size());
    for (size_t i = 0; i < chunk.rows(); ++i) {
      EncodeSq8(chunk.Row(i), ranges.mins.data(), scales.data(), d,
                codes.data() + i * d);
    }
    status = writer.Append(codes.data(), chunk.size());
    if (!status.ok()) return status;
  }
  status = writer.Finish();
  if (!status.ok()) return status;
  if (!out.Close()) return Status::IoError("short write to " + index_path);

  OutOfCoreBuildStats stats;
  stats.rows = n;
  stats.dim = d;
  stats.chunks = chunks;
  stats.file_size = writer.file_size();
  return stats;
}

}  // namespace

StatusOr<OutOfCoreBuildStats> OutOfCoreBuilder::Build(
    const std::string& fvecs_path, const std::string& index_path) const {
  StatusOr<FvecsReader> reader = FvecsReader::Open(fvecs_path);
  if (!reader.ok()) return reader.status();
  return BuildFromStream(&reader.value(), index_path);
}

StatusOr<OutOfCoreBuildStats> OutOfCoreBuilder::BuildFromStream(
    ChunkStream* base, const std::string& index_path) const {
  if (base->num_rows() == 0 || base->dim() == 0) {
    return Status::InvalidArgument("cannot build an index from an empty base");
  }
  if (config_.chunk_rows == 0) {
    return Status::InvalidArgument("OutOfCoreConfig::chunk_rows must be > 0");
  }
  StatusOr<OutOfCoreBuildStats> stats =
      config_.kind == OutOfCoreKind::kIvfFlat
          ? BuildIvfFlat(base, index_path, config_)
          : BuildSq8(base, index_path, config_);
  if (!stats.ok()) std::remove(index_path.c_str());
  return stats;
}

StatusOr<std::unique_ptr<Index>> OutOfCoreBuilder::BuildInMemory(
    const Matrix& base) const {
  if (base.rows() == 0 || base.cols() == 0) {
    return Status::InvalidArgument("cannot build an index from an empty base");
  }
  if (config_.chunk_rows == 0) {
    return Status::InvalidArgument("OutOfCoreConfig::chunk_rows must be > 0");
  }
  if (config_.kind == OutOfCoreKind::kSq8) {
    // The in-memory trainer already matches the streamed ranges/codes bit
    // for bit (same row order, same arithmetic).
    Sq8IndexConfig sc;
    sc.metric = config_.metric;
    sc.rerank_budget = config_.rerank_budget;
    return std::unique_ptr<Index>(std::make_unique<Sq8Index>(&base, sc));
  }
  MatrixStream stream(base);
  StatusOr<IvfModel> model = TrainIvf(&stream, config_);
  if (!model.ok()) return model.status();
  std::vector<uint32_t> assignments(base.rows());
  Status status = ForEachAssignedChunk(
      &stream, model.value(), config_.chunk_rows,
      [&](MatrixView chunk, const std::vector<uint32_t>& chunk_assignments,
          size_t row_base) {
        std::memcpy(assignments.data() + row_base, chunk_assignments.data(),
                    chunk_assignments.size() * sizeof(uint32_t));
        (void)chunk;
        return Status::Ok();
      });
  if (!status.ok()) return status;
  IvfConfig config;
  config.nlist = model.value().centroids.rows();
  config.kmeans_iterations = config_.train_epochs;
  config.seed = config_.seed;
  config.metric = config_.metric;
  return std::unique_ptr<Index>(std::make_unique<IvfFlatIndex>(
      MatrixView(base), config, std::move(model.value().centroids),
      std::move(assignments)));
}

}  // namespace usp
