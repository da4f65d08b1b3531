#include "index/container.h"

#include <algorithm>
#include <cstring>

namespace usp {

namespace {

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

std::string SectionName(SectionTag tag, uint32_t ordinal) {
  return "section " + std::to_string(static_cast<uint32_t>(tag)) + "/" +
         std::to_string(ordinal);
}

}  // namespace

StreamingContainerWriter::StreamingContainerWriter(IndexType type,
                                                   Metric metric, uint64_t dim,
                                                   uint64_t num_points) {
  std::memset(&header_, 0, sizeof(header_));
  std::memcpy(header_.magic, kContainerMagic, sizeof(kContainerMagic));
  header_.version = kContainerVersion;
  header_.index_type = static_cast<uint32_t>(type);
  header_.metric = static_cast<uint32_t>(metric);
  header_.dim = dim;
  header_.num_points = num_points;
}

void StreamingContainerWriter::PlanSection(SectionTag tag, uint32_t ordinal,
                                           uint64_t size) {
  USP_CHECK(!started_);
  sections_.push_back({static_cast<uint32_t>(tag), ordinal, 0, size});
}

Status StreamingContainerWriter::Start(Writer* out, const std::string& name) {
  if (started_) {
    return Status::FailedPrecondition("StreamingContainerWriter restarted");
  }
  out_ = out;
  name_ = name;
  header_.section_count = static_cast<uint32_t>(sections_.size());
  uint64_t cursor =
      sizeof(ContainerHeader) + sections_.size() * sizeof(SectionEntry);
  for (SectionEntry& entry : sections_) {
    cursor = AlignUp(cursor, kSectionAlignment);
    entry.offset = cursor;
    cursor += entry.size;
  }
  header_.file_size = cursor;

  bool ok = out_->WritePod(header_);
  for (const SectionEntry& entry : sections_) {
    ok = ok && out_->WritePod(entry);
  }
  if (!ok) return Status::IoError("short write to " + name_);
  written_ =
      sizeof(ContainerHeader) + sections_.size() * sizeof(SectionEntry);
  started_ = true;
  return Status::Ok();
}

Status StreamingContainerWriter::Pad(uint64_t target) {
  static constexpr char kPadding[kSectionAlignment] = {};
  while (written_ < target) {
    const uint64_t step =
        std::min<uint64_t>(target - written_, kSectionAlignment);
    if (!out_->Write(kPadding, step)) {
      return Status::IoError("short write to " + name_);
    }
    written_ += step;
  }
  return Status::Ok();
}

Status StreamingContainerWriter::Append(const void* data, uint64_t size) {
  if (!started_) {
    return Status::FailedPrecondition("Append before Start on " + name_);
  }
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  while (size > 0) {
    while (current_ < sections_.size() &&
           section_written_ == sections_[current_].size) {
      ++current_;
      section_written_ = 0;
    }
    if (current_ == sections_.size()) {
      return Status::InvalidArgument("payload bytes beyond planned sections in " +
                                     name_);
    }
    const SectionEntry& entry = sections_[current_];
    if (section_written_ == 0) {
      Status status = Pad(entry.offset);
      if (!status.ok()) return status;
    }
    const uint64_t take =
        std::min<uint64_t>(size, entry.size - section_written_);
    if (!out_->Write(bytes, take)) {
      return Status::IoError("short write to " + name_);
    }
    bytes += take;
    size -= take;
    section_written_ += take;
    written_ += take;
  }
  return Status::Ok();
}

Status StreamingContainerWriter::Finish() {
  if (!started_) {
    return Status::FailedPrecondition("Finish before Start on " + name_);
  }
  while (current_ < sections_.size() &&
         section_written_ == sections_[current_].size) {
    ++current_;
    section_written_ = 0;
  }
  if (current_ != sections_.size()) {
    const SectionEntry& entry = sections_[current_];
    return Status::InvalidArgument(
        SectionName(static_cast<SectionTag>(entry.tag), entry.ordinal) +
        " in " + name_ + " is short: " + std::to_string(section_written_) +
        " of " + std::to_string(entry.size) + " bytes appended");
  }
  // Trailing zero-size sections still claim an aligned offset; pad out to
  // the declared file size.
  Status status = Pad(header_.file_size);
  if (!status.ok()) return status;
  started_ = false;
  return Status::Ok();
}

ContainerWriter::ContainerWriter(IndexType type, Metric metric, uint64_t dim,
                                 uint64_t num_points)
    : stream_(type, metric, dim, num_points) {}

void ContainerWriter::AddSection(SectionTag tag, uint32_t ordinal,
                                 const void* data, uint64_t size) {
  stream_.PlanSection(tag, ordinal, size);
  sections_.push_back({data, size, std::string()});
}

void ContainerWriter::AddOwnedSection(SectionTag tag, uint32_t ordinal,
                                      std::string bytes) {
  const uint64_t size = bytes.size();
  stream_.PlanSection(tag, ordinal, size);
  sections_.push_back({nullptr, size, std::move(bytes)});
}

Status ContainerWriter::WriteTo(Writer* out, const std::string& name) {
  Status status = stream_.Start(out, name);
  for (size_t i = 0; status.ok() && i < sections_.size(); ++i) {
    const PendingSection& section = sections_[i];
    status = stream_.Append(
        section.data != nullptr ? section.data : section.owned.data(),
        section.size);
  }
  return status.ok() ? stream_.Finish() : status;
}

Status ContainerReader::ValidateTable() {
  if (std::memcmp(header_.magic, kContainerMagic, sizeof(kContainerMagic)) !=
      0) {
    return Status::InvalidArgument(path_ + " is not a USP index container");
  }
  if (header_.version != kContainerVersion) {
    return Status::InvalidArgument(
        "unsupported container format version " +
        std::to_string(header_.version) + " in " + path_ + " (this build reads " +
        std::to_string(kContainerVersion) + ")");
  }
  if (header_.file_size != actual_file_size_) {
    return Status::IoError("truncated container " + path_ + ": header says " +
                           std::to_string(header_.file_size) + " bytes, file has " +
                           std::to_string(actual_file_size_));
  }
  const uint64_t table_end =
      sizeof(ContainerHeader) + header_.section_count * sizeof(SectionEntry);
  if (table_end > actual_file_size_) {
    return Status::InvalidArgument("section table overruns " + path_);
  }
  for (const SectionEntry& entry : table_) {
    if (entry.offset % kSectionAlignment != 0) {
      return Status::InvalidArgument("misaligned section offset in " + path_);
    }
    if (entry.offset < table_end || entry.offset > actual_file_size_ ||
        entry.size > actual_file_size_ - entry.offset) {
      return Status::InvalidArgument("section out of bounds in " + path_);
    }
  }
  return Status::Ok();
}

bool ContainerReader::ReadAt(uint64_t offset, void* out, uint64_t size) {
  if (file_ != nullptr) return file_->Seek(offset) && file_->Read(out, size);
  if (offset > actual_file_size_ || size > actual_file_size_ - offset) {
    return false;
  }
  std::memcpy(out, view_ + offset, size);
  return true;
}

Status ContainerReader::Parse() {
  if (!ReadAt(0, &header_, sizeof(header_))) {
    return Status::IoError("truncated container header in " + path_);
  }
  // Bound the table read before trusting section_count.
  const uint64_t table_bytes =
      static_cast<uint64_t>(header_.section_count) * sizeof(SectionEntry);
  if (actual_file_size_ < sizeof(ContainerHeader) + table_bytes) {
    // Magic/version errors should win over the size complaint.
    if (std::memcmp(header_.magic, kContainerMagic,
                    sizeof(kContainerMagic)) != 0) {
      return Status::InvalidArgument(path_ + " is not a USP index container");
    }
    return Status::IoError("truncated container " + path_);
  }
  table_.resize(header_.section_count);
  if (!table_.empty() &&
      !ReadAt(sizeof(ContainerHeader), table_.data(), table_bytes)) {
    return Status::IoError("truncated section table in " + path_);
  }
  return ValidateTable();
}

StatusOr<std::unique_ptr<ContainerReader>> ContainerReader::OpenFile(
    const std::string& path) {
  auto reader = std::unique_ptr<ContainerReader>(new ContainerReader());
  reader->path_ = path;
  reader->file_ = std::make_unique<FileReader>(path);
  if (!reader->file_->ok()) return Status::IoError("cannot open " + path);
  StatusOr<uint64_t> size = reader->file_->Size();
  if (!size.ok()) return size.status();
  reader->actual_file_size_ = size.value();
  Status status = reader->Parse();
  if (!status.ok()) return status;
  return reader;
}

StatusOr<std::unique_ptr<ContainerReader>> ContainerReader::OpenMmap(
    const std::string& path) {
  StatusOr<MmapFile> map = MmapFile::Open(path);
  if (!map.ok()) return map.status();
  auto reader = std::unique_ptr<ContainerReader>(new ContainerReader());
  reader->path_ = path;
  reader->map_ = std::move(map).value();
  reader->view_ = reader->map_.data();
  reader->actual_file_size_ = reader->map_.size();
  Status status = reader->Parse();
  if (!status.ok()) return status;
  return reader;
}

StatusOr<std::unique_ptr<ContainerReader>> ContainerReader::OpenMem(
    std::vector<uint8_t> bytes, const std::string& name) {
  auto reader = std::unique_ptr<ContainerReader>(new ContainerReader());
  reader->path_ = name;
  reader->mem_ = std::move(bytes);
  reader->view_ = reader->mem_.data();
  reader->actual_file_size_ = reader->mem_.size();
  Status status = reader->Parse();
  if (!status.ok()) return status;
  return reader;
}

const SectionEntry* ContainerReader::FindEntry(SectionTag tag,
                                               uint32_t ordinal) const {
  for (const SectionEntry& entry : table_) {
    if (entry.tag == static_cast<uint32_t>(tag) && entry.ordinal == ordinal) {
      return &entry;
    }
  }
  return nullptr;
}

bool ContainerReader::Has(SectionTag tag, uint32_t ordinal) const {
  return FindEntry(tag, ordinal) != nullptr;
}

StatusOr<SectionEntry> ContainerReader::Find(SectionTag tag,
                                             uint32_t ordinal) const {
  const SectionEntry* entry = FindEntry(tag, ordinal);
  if (entry == nullptr) {
    return Status::InvalidArgument("missing " + SectionName(tag, ordinal) +
                                   " in " + path_);
  }
  return *entry;
}

Status ContainerReader::ReadSection(SectionTag tag, uint32_t ordinal,
                                    void* out, uint64_t expected_size) {
  StatusOr<SectionEntry> entry = Find(tag, ordinal);
  if (!entry.ok()) return entry.status();
  const uint64_t size = entry.value().size;
  if (size != expected_size) {
    return Status::InvalidArgument(
        SectionName(tag, ordinal) + " in " + path_ + " has " +
        std::to_string(size) + " bytes, expected " +
        std::to_string(expected_size));
  }
  if (size == 0) return Status::Ok();
  if (!ReadAt(entry.value().offset, out, size)) {
    return Status::IoError("short read of " + SectionName(tag, ordinal) +
                           " in " + path_);
  }
  return Status::Ok();
}

StatusOr<std::vector<uint8_t>> ContainerReader::ReadSectionBytes(
    SectionTag tag, uint32_t ordinal) {
  StatusOr<SectionEntry> entry = Find(tag, ordinal);
  if (!entry.ok()) return entry.status();
  std::vector<uint8_t> bytes(entry.value().size);
  Status status = ReadSection(tag, ordinal, bytes.data(), bytes.size());
  if (!status.ok()) return status;
  return bytes;
}

StatusOr<const uint8_t*> ContainerReader::SectionData(SectionTag tag,
                                                      uint32_t ordinal) const {
  if (view_ == nullptr) {
    return Status::FailedPrecondition(
        "zero-copy section views need an mmap- or memory-opened container");
  }
  StatusOr<SectionEntry> entry = Find(tag, ordinal);
  if (!entry.ok()) return entry.status();
  return view_ + entry.value().offset;
}

}  // namespace usp
