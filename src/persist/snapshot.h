// Copyright 2026 The SemTree Authors
//
// The v2 binary snapshot container (DESIGN.md §5): a versioned,
// checksummed, little-endian file made of tagged sections.
//
//   file    := magic[8]="SEMSNAP2" | u32 version | u32 section_count
//              | section*
//   section := u32 tag | u64 size | payload[size] | u32 payload_crc
//
// Every payload byte is covered by its section's CRC32 and the framing
// is validated end to end (sections must tile the file exactly), so
// both truncation and bit flips surface as Status::Corruption at open
// time — a half-written or damaged snapshot can never be half-loaded.
// One checksum pass per load keeps open O(read). Files are written to
// `<path>.tmp` in binary mode and atomically renamed into place, so a
// crash mid-save leaves the previous snapshot intact.
//
// Snapshot is the writer, SnapshotReader the reader; what goes inside
// the sections is each structure's business (index_snapshot.h).

#ifndef SEMTREE_PERSIST_SNAPSHOT_H_
#define SEMTREE_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/point_store.h"
#include "persist/wire.h"

namespace semtree {
namespace persist {

/// On-disk format version written by Snapshot (v1 is the line-oriented
/// text format of semtree/index_io.h, which remains loadable).
inline constexpr uint32_t kSnapshotVersion = 2;

/// Sniffs whether a byte buffer (or file) starts with the v2 magic.
bool LooksLikeSnapshot(std::string_view bytes);
bool FileLooksLikeSnapshot(const std::string& path);

/// Writes a file to `<path>.tmp` in binary mode and atomically renames
/// it over `path`. Shared by the snapshot writer and the v1 text
/// writers so no save path can leave a torn file behind.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

/// Builds a snapshot section by section, then serializes or writes it.
class Snapshot {
 public:
  /// Starts a new section; the returned writer stays valid until the
  /// next AddSection/Serialize call. Tags must be unique per snapshot.
  ByteWriter* AddSection(uint32_t tag);

  /// The complete framed file image (header + sections + checksums).
  std::string Serialize() const;

  /// Serialize() to `path`, atomically.
  Status WriteFile(const std::string& path) const;

 private:
  std::vector<std::pair<uint32_t, ByteWriter>> sections_;
};

/// Opens and validates a snapshot, exposing its sections for reading.
class SnapshotReader {
 public:
  /// Validates magic, version, section framing and every checksum.
  static Result<SnapshotReader> Parse(std::string bytes);
  static Result<SnapshotReader> Open(const std::string& path);

  bool Has(uint32_t tag) const { return sections_.count(tag) > 0; }

  /// A bounds-checked reader over one section's payload. The returned
  /// reader borrows this SnapshotReader's buffer.
  Result<ByteReader> Section(uint32_t tag) const;

  std::vector<uint32_t> Tags() const;

 private:
  std::string bytes_;
  std::map<uint32_t, std::pair<size_t, size_t>> sections_;  // tag -> (off, len)
};

/// Serializes a PointStore arena — slot rows, ids, free list — so a
/// loaded store reproduces the saved one slot-for-slot (row pointers,
/// slot recycling order and all).
void WritePointStore(const PointStore& store, ByteWriter* out);
Result<PointStore> ReadPointStore(ByteReader* in);

/// The check every loader of slot lists over a PointStore makes (the
/// KD-tree's leaves, the linear scan's list, a partition's live
/// leaves): Corruption if a list names a slot that is out of range,
/// free, or already named, or if the lists together miss a live slot.
/// `what` names the structure in the message.
Status CheckSlotOwnership(
    const PointStore& store,
    const std::vector<const std::vector<PointStore::Slot>*>& lists,
    const char* what);

}  // namespace persist
}  // namespace semtree

#endif  // SEMTREE_PERSIST_SNAPSHOT_H_
