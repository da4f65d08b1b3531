// Save/load for every index type through the unified Index interface.
//
//   SaveIndex(index, path)   — writes the versioned container (docs/FORMAT.md)
//   LoadIndex(path)          — streaming read; all payloads copied to the heap
//   MmapIndex(path)          — zero-copy: vector/code payloads are mapped
//                              read-only and searches run straight off the
//                              mapping, so a multi-GB index is query-ready in
//                              milliseconds and shareable across processes
//   OpenIndex(path, mode)    — the factory both wrap: reads the stored type
//                              tag and dispatches through the loader registry
//
// Loaded indexes answer Search/SearchBatch bit-identically to the index that
// was saved. Malformed files (truncation, corruption, version skew, unknown
// type tags) fail with Status errors, never crashes.
#ifndef USP_INDEX_SERIALIZE_H_
#define USP_INDEX_SERIALIZE_H_

#include <memory>
#include <string>
#include <vector>

#include "index/container.h"
#include "index/index.h"
#include "util/status.h"

namespace usp {

/// How OpenIndex materializes section payloads.
enum class LoadMode {
  kHeap,  ///< streaming read, payloads owned on the heap (LoadIndex)
  kMmap,  ///< zero-copy mmap views, payloads stay on disk (MmapIndex)
};

/// Serializes `index` (any Index implementation; loaded wrappers are
/// unwrapped) into the container format at `path`. PartitionIndex/ScannIndex
/// scorers must be KMeansPartitioner or UspPartitioner — other BinScorer
/// implementations have no on-disk representation yet and are rejected with
/// kInvalidArgument. A DynamicIndex (serve/dynamic_index.h) serializes as a
/// manifest plus one embedded sub-container per sealed segment; saving takes
/// a consistent snapshot, so it is safe while writers run.
Status SaveIndex(const Index& index, const std::string& path);

/// Same, into any byte sink (`name` labels errors).
Status SaveIndexTo(const Index& index, Writer* out, const std::string& name);

/// Serializes into an in-memory container blob — how sealed segments embed
/// inside a dynamic-index container (SectionTag::kSegmentBlob).
StatusOr<std::string> SerializeIndex(const Index& index);

/// Opens a container, dispatches on its stored index-type tag, and returns a
/// self-contained index (the wrapper owns all storage: heap buffers or the
/// mmap). The returned object's underlying() exposes the concrete index.
StatusOr<std::unique_ptr<Index>> OpenIndex(const std::string& path,
                                           LoadMode mode = LoadMode::kMmap);

/// Streaming load: every payload is copied onto the heap; the file can be
/// deleted afterwards.
StatusOr<std::unique_ptr<Index>> LoadIndex(const std::string& path);

/// Zero-copy load: base vectors and PQ codes are served directly from the
/// read-only mapping (small metadata is still heap-materialized).
StatusOr<std::unique_ptr<Index>> MmapIndex(const std::string& path);

/// Dispatches an already-opened container through the loader registry (the
/// shared tail of OpenIndex; also how embedded segment blobs of a dynamic
/// container are materialized via ContainerReader::OpenMem).
StatusOr<std::unique_ptr<Index>> OpenIndexFromContainer(
    std::unique_ptr<ContainerReader> container);

/// What a loaded index keeps alive: the opened container and any storage
/// loaded from it (defined in index/serialize.cc).
struct IndexBundle;

/// One registered index type: its tag, name, container loader and saver.
struct IndexLoaderEntry {
  IndexType type;
  const char* name;
  /// Builds bundle->index from bundle->container. OpenIndexFromContainer
  /// has already checked the header's metric tag and dim, and wraps the
  /// result.
  Status (*load)(IndexBundle* bundle);
  /// Writes an index whose concrete type() is `type`.
  Status (*save)(const Index& index, Writer* out, const std::string& name);
};

/// The type-tag registry OpenIndex and SaveIndex dispatch through (one entry
/// per IndexType value).
const std::vector<IndexLoaderEntry>& IndexLoaderRegistry();

/// Registry lookup by raw header tag; nullptr for unknown tags.
const IndexLoaderEntry* FindIndexLoader(uint32_t type_tag);

}  // namespace usp

#endif  // USP_INDEX_SERIALIZE_H_
