// The versioned on-disk container every index serializes into. One file =
// one header + a section table + 64-byte-aligned section payloads; the byte
// layout is a documented contract (docs/FORMAT.md), little-endian throughout.
// ContainerWriter assembles and writes a file; ContainerReader opens one
// either streaming (stdio, payloads copied to the heap) or zero-copy (mmap,
// payload views served straight from the page cache).
#ifndef USP_INDEX_CONTAINER_H_
#define USP_INDEX_CONTAINER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "index/index.h"
#include "util/io.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace usp {

/// First 8 bytes of every index container.
inline constexpr char kContainerMagic[8] = {'U', 'S', 'P', 'I',
                                            'N', 'D', 'X', '1'};

/// Bumped on any incompatible layout change; readers reject other versions.
/// Version 2 added the dynamic-index manifest sections (kManifest,
/// kSegmentBlob, kIdMap, kTombstones); the bump is deliberate even though
/// static-type layouts are unchanged, because a version-1 reader that
/// tolerated unknown sections could open a dynamic container and serve
/// deleted points (it would not know to honor the tombstone bitmap).
inline constexpr uint32_t kContainerVersion = 2;

/// Every section payload starts on a multiple of this (so mmap'd float/int
/// payloads are aligned far beyond what any SIMD load needs).
inline constexpr uint64_t kSectionAlignment = 64;

/// Section payload kinds. Values are a persistence contract — never reuse or
/// renumber. `ordinal` distinguishes repeated tags (ensemble member j).
enum class SectionTag : uint32_t {
  kConfig = 1,       ///< per-index-type POD config record
  kBaseVectors = 2,  ///< (num_points x dim) float32 base matrix
  kAssignments = 3,  ///< num_points uint32 residency bins
  kCentroids = 4,    ///< (nlist x dim) float32 coarse centroids
  kUspModel = 5,     ///< embedded UspPartitioner record (core/partitioner.h)
  kPqMeta = 6,       ///< PqMetaRecord
  kPqOffsets = 7,    ///< (num_subspaces + 1) uint64 subspace boundaries
  kPqCodebooks = 8,  ///< concatenated per-subspace codeword matrices, float32
  kPqCodes = 9,      ///< (num_points x num_subspaces) uint8 PQ codes
  kHnswLevels = 10,  ///< num_points int32 node levels
  kHnswLinks = 11,   ///< per node, per level: uint32 count + count uint32 ids
  kWeights = 12,     ///< num_points float32 ensemble training weights
  // Dynamic-index (serve/dynamic_index.h) sections, container version 2.
  // Sharded containers (serve/sharded_index.h, type tag kSharded, no version
  // bump — the new type tag gates readers) reuse kManifest (ShardManifestEntry
  // rows), kSegmentBlob (ordinal j: embedded container of shard j) and kIdMap
  // (ordinal j: shard-local id -> global id):
  kManifest = 13,     ///< per-sealed-segment table (DynamicSegmentEntry) or
                      ///< per-shard table (ShardManifestEntry)
  kSegmentBlob = 14,  ///< ordinal j: embedded full container of segment j
  kIdMap = 15,        ///< ordinal j: segment-local row -> global id (uint32);
                      ///< ordinal num_sealed is the write segment's map
  kTombstones = 16,   ///< deleted-id bitmap, ceil(next_id/64) uint64 words
  // Quantized-scan sections (no version bump: readers that ignore them still
  // rebuild equivalent state from kPqCodes, and kSq8* only appear under the
  // new kSq8 index type tag):
  kPqPackedCodes = 17,  ///< bucket-grouped 4-bit fast-scan blocks
                        ///< (quant/fastscan.h layout)
  kSq8Params = 18,      ///< 2 x dim float32: per-dim mins then scales
  kSq8Codes = 19,       ///< (num_points x dim) uint8 SQ8 codes
};

/// Fixed 64-byte file header.
struct ContainerHeader {
  char magic[8];
  uint32_t version;
  uint32_t index_type;  ///< IndexType value
  uint32_t metric;      ///< Metric value of the exact-rerank stage
  uint32_t section_count;
  uint64_t dim;
  uint64_t num_points;
  uint64_t file_size;  ///< total container bytes; cheap truncation check
  uint8_t reserved[16];
};
static_assert(sizeof(ContainerHeader) == 64, "header layout is a contract");

/// One section-table row (the table immediately follows the header).
struct SectionEntry {
  uint32_t tag;      ///< SectionTag value
  uint32_t ordinal;  ///< repeated-tag discriminator (0 when unique)
  uint64_t offset;   ///< absolute byte offset, kSectionAlignment-aligned
  uint64_t size;     ///< payload bytes (padding excluded)
};
static_assert(sizeof(SectionEntry) == 24, "table layout is a contract");

/// Writes a container front to back without ever holding a payload: section
/// sizes are declared up front (PlanSection, in payload order), Start lays
/// out the offsets and emits header + table, then payload bytes are streamed
/// in with Append — split across as many calls as the producer likes, e.g.
/// one call per base chunk. This is the only place the layout is computed:
/// ContainerWriter streams through it too, so given identical payload bytes
/// the out-of-core build path (serve/out_of_core_builder.h) writes the same
/// file as SaveIndex. Finish verifies every declared byte arrived.
class StreamingContainerWriter {
 public:
  StreamingContainerWriter(IndexType type, Metric metric, uint64_t dim,
                           uint64_t num_points);

  /// Declares the next section; call once per section, in the order payload
  /// bytes will be appended. Must precede Start.
  void PlanSection(SectionTag tag, uint32_t ordinal, uint64_t size);

  /// Lays out section offsets and writes the header and section table to
  /// `out`, which must stay valid through Finish. `name` labels errors.
  Status Start(Writer* out, const std::string& name);

  /// Appends payload bytes in planned order. Alignment padding before each
  /// section is inserted automatically; a call may span section boundaries.
  Status Append(const void* data, uint64_t size);

  /// Checks all planned payload bytes were appended and writes any trailing
  /// alignment padding. The writer cannot be reused afterwards.
  Status Finish();

  /// Total container bytes; valid after Start.
  uint64_t file_size() const { return header_.file_size; }

 private:
  Status Pad(uint64_t target);  ///< zero-fill from written_ to target

  ContainerHeader header_;
  std::vector<SectionEntry> sections_;
  Writer* out_ = nullptr;
  std::string name_;
  bool started_ = false;
  size_t current_ = 0;            ///< index of the section being filled
  uint64_t section_written_ = 0;  ///< bytes appended into that section
  uint64_t written_ = 0;          ///< absolute file position
};

/// Assembles a container in memory (cheap: unowned payloads are referenced,
/// not copied) and writes it in one pass through a StreamingContainerWriter.
/// Payload pointers passed to AddSection must stay valid until WriteTo
/// returns.
class ContainerWriter {
 public:
  ContainerWriter(IndexType type, Metric metric, uint64_t dim,
                  uint64_t num_points);

  /// References `size` bytes at `data` as section (tag, ordinal).
  void AddSection(SectionTag tag, uint32_t ordinal, const void* data,
                  uint64_t size);

  /// Takes ownership of `bytes` (used for records assembled on the fly, e.g.
  /// embedded model blobs and flattened graphs).
  void AddOwnedSection(SectionTag tag, uint32_t ordinal, std::string bytes);

  /// Writes header + table + aligned payloads to any byte sink (`name`
  /// labels errors). A StringWriter sink produces an in-memory container —
  /// how sealed segments embed inside a dynamic-index container
  /// (SerializeIndex in index/serialize.h).
  Status WriteTo(Writer* out, const std::string& name);

 private:
  struct PendingSection {
    const void* data;  ///< nullptr when `owned` holds the payload
    uint64_t size;
    std::string owned;
  };

  StreamingContainerWriter stream_;
  std::vector<PendingSection> sections_;
};

/// A validated, opened container. In mmap mode (zero_copy() == true) section
/// payloads can be viewed in place and stay valid for the reader's lifetime;
/// in file mode they are copied out on request. All offsets/sizes are
/// bounds-checked at open, so malformed files fail with Status errors before
/// any payload is interpreted.
class ContainerReader {
 public:
  /// Streaming open: reads and validates header + table, leaves payloads on
  /// disk until ReadSection.
  static StatusOr<std::unique_ptr<ContainerReader>> OpenFile(
      const std::string& path);

  /// Zero-copy open: maps the whole file read-only and validates in place.
  static StatusOr<std::unique_ptr<ContainerReader>> OpenMmap(
      const std::string& path);

  /// Opens a container already resident in memory, taking ownership of the
  /// bytes; section views are served zero-copy from them. This is how the
  /// embedded kSegmentBlob payloads of a dynamic-index container are opened.
  /// `name` labels error messages (there is no backing file).
  static StatusOr<std::unique_ptr<ContainerReader>> OpenMem(
      std::vector<uint8_t> bytes, const std::string& name);

  const ContainerHeader& header() const { return header_; }
  const std::string& path() const { return path_; }
  bool zero_copy() const { return view_ != nullptr; }

  bool Has(SectionTag tag, uint32_t ordinal) const;

  /// Table entry for (tag, ordinal); kInvalidArgument when absent.
  StatusOr<SectionEntry> Find(SectionTag tag, uint32_t ordinal) const;

  /// Copies the payload of (tag, ordinal) into `out`. The stored size must
  /// equal `expected_size` exactly. Works in both modes.
  Status ReadSection(SectionTag tag, uint32_t ordinal, void* out,
                     uint64_t expected_size);

  /// Owning read of a variable-size payload.
  StatusOr<std::vector<uint8_t>> ReadSectionBytes(SectionTag tag,
                                                  uint32_t ordinal);

  /// Zero-copy payload view (mmap mode only; kFailedPrecondition otherwise).
  StatusOr<const uint8_t*> SectionData(SectionTag tag, uint32_t ordinal) const;

 private:
  ContainerReader() = default;

  Status ValidateTable();
  Status Parse();  ///< reads header + table (every mode), then validates
  /// Copies `size` bytes at `offset` from the file or the view.
  bool ReadAt(uint64_t offset, void* out, uint64_t size);
  const SectionEntry* FindEntry(SectionTag tag, uint32_t ordinal) const;

  std::string path_;
  ContainerHeader header_;
  std::vector<SectionEntry> table_;
  MmapFile map_;                       ///< mmap mode
  std::vector<uint8_t> mem_;           ///< in-memory mode (owned bytes)
  const uint8_t* view_ = nullptr;      ///< whole-container view (mmap or mem)
  std::unique_ptr<FileReader> file_;   ///< streaming mode
  uint64_t actual_file_size_ = 0;
};

}  // namespace usp

#endif  // USP_INDEX_CONTAINER_H_
