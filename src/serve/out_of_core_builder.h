// Disk-direct index construction for bases that exceed RAM. The builder
// streams an .fvecs base through bounded-memory passes — reservoir-sampled
// k-means++ seeding, mini-batch k-means training (baselines/kmeans.h), a
// chunked assignment/encode pass — and writes a sealed IVF-Flat or SQ8
// container file section by section (StreamingContainerWriter), spilling the
// row assignments to one temp file instead of holding them (posting lists are
// only counted, for the list-balance stats). The working set stays
// O(chunk_rows * dim + nlist * dim), never O(n * dim); the finished file
// opens through the ordinary OpenIndex heap/mmap paths and is byte-identical
// to SaveIndex of the equivalent in-memory build (BuildInMemory), which is
// how the acceptance tests pin the whole pipeline (tests/out_of_core_test.cc).
#ifndef USP_SERVE_OUT_OF_CORE_BUILDER_H_
#define USP_SERVE_OUT_OF_CORE_BUILDER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "dataset/fvecs_stream.h"
#include "dist/metric.h"
#include "index/index.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace usp {

/// Which sealed segment type the builder produces.
enum class OutOfCoreKind {
  kIvfFlat,  ///< mini-batch-trained coarse quantizer + exact lists
  kSq8,      ///< int8 scalar quantization (streaming range fit, 2 passes)
};

/// Out-of-core build knobs. Defaults target ~1M x 64-128d bases.
struct OutOfCoreConfig {
  OutOfCoreKind kind = OutOfCoreKind::kIvfFlat;

  /// All three metrics are supported; cosine trains/assigns/encodes on
  /// per-chunk unit-normalized rows (NormalizeRows is row-local, so chunking
  /// does not change the result).
  Metric metric = Metric::kSquaredL2;

  /// Rows per streaming pass step; bounds the resident chunk buffer.
  size_t chunk_rows = 65536;

  // IVF-Flat only:
  size_t nlist = 256;          ///< coarse lists (clamped to the sample size)
  size_t train_epochs = 5;     ///< mini-batch passes over the base
  size_t sample_rows = 65536;  ///< reservoir sample for k-means++ seeding
  double tolerance = 1e-4;     ///< mini-batch early-stop threshold
  uint64_t seed = 1;

  // SQ8 only:
  size_t rerank_budget = 100;
};

/// What a build did — reported, not persisted.
struct OutOfCoreBuildStats {
  size_t rows = 0;
  size_t dim = 0;
  size_t chunks = 0;        ///< encode-pass chunks streamed
  uint64_t file_size = 0;   ///< finished container bytes
  // IVF-Flat only:
  size_t nlist = 0;         ///< actual coarse lists (post sample clamp)
  size_t epochs_run = 0;    ///< mini-batch epochs before early stop
  double train_inertia = 0; ///< last epoch's streaming k-means objective
  size_t min_list = 0;      ///< smallest posting list
  size_t max_list = 0;      ///< largest posting list
  size_t empty_lists = 0;
};

/// Streams a base from disk into a sealed index container. Stateless apart
/// from its config; one builder can run many builds.
class OutOfCoreBuilder {
 public:
  explicit OutOfCoreBuilder(OutOfCoreConfig config) : config_(config) {}

  /// Builds `index_path` from the .fvecs file at `fvecs_path` without ever
  /// materializing the base in RAM. The assignment temp file lives next to
  /// `index_path` and is removed on exit; on error the partial output is
  /// removed too.
  StatusOr<OutOfCoreBuildStats> Build(const std::string& fvecs_path,
                                      const std::string& index_path) const;

  /// Same pipeline over any ChunkStream (how Build runs after opening the
  /// reader; also lets tests drive an in-memory MatrixStream through the
  /// disk-direct writer).
  StatusOr<OutOfCoreBuildStats> BuildFromStream(
      ChunkStream* base, const std::string& index_path) const;

  /// The bit-identity reference: the same pipeline over an in-memory
  /// MatrixStream with the same chunk boundaries, returned as a live index
  /// (no file involved). SaveIndex of this index produces a byte-identical
  /// container to Build on the same rows, and its SearchBatch results match
  /// the opened out-of-core index bit for bit. `base` must outlive the
  /// returned index.
  StatusOr<std::unique_ptr<Index>> BuildInMemory(const Matrix& base) const;

  const OutOfCoreConfig& config() const { return config_; }

 private:
  OutOfCoreConfig config_;
};

}  // namespace usp

#endif  // USP_SERVE_OUT_OF_CORE_BUILDER_H_
