// Copyright 2026 The SemTree Authors

#include "persist/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/string_util.h"

namespace semtree {
namespace persist {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'M', 'S', 'N', 'A', 'P', '2'};

}  // namespace

bool LooksLikeSnapshot(std::string_view bytes) {
  return bytes.size() >= sizeof(kMagic) &&
         std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0;
}

bool FileLooksLikeSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char head[sizeof(kMagic)];
  in.read(head, sizeof(head));
  return in.gcount() == sizeof(head) &&
         LooksLikeSnapshot(std::string_view(head, sizeof(head)));
}

Status AtomicWriteFile(const std::string& path,
                       std::string_view contents) {
  const std::string tmp = path + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
  // POSIX path: fsync the temp file before the rename and the
  // containing directory after it, so the swap survives a system
  // crash, not just a process crash.
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable(
        StringPrintf("cannot write '%s'", tmp.c_str()));
  }
  size_t written = 0;
  while (written < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + written,
                        contents.size() - written);
    if (n < 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::Unavailable("short write to " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable("cannot sync " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable(
        StringPrintf("cannot rename '%s' into place", tmp.c_str()));
  }
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);  // Durability of the rename itself; best effort.
    ::close(dfd);
  }
  return Status::OK();
#else
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Unavailable(
          StringPrintf("cannot write '%s'", tmp.c_str()));
    }
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out.good()) {
      std::remove(tmp.c_str());
      return Status::Unavailable("short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Unavailable(
        StringPrintf("cannot rename '%s' into place", tmp.c_str()));
  }
  return Status::OK();
#endif
}

ByteWriter* Snapshot::AddSection(uint32_t tag) {
  sections_.emplace_back(tag, ByteWriter{});
  return &sections_.back().second;
}

std::string Snapshot::Serialize() const {
  ByteWriter out;
  out.PutRaw(std::string_view(kMagic, sizeof(kMagic)));
  out.PutU32(kSnapshotVersion);
  out.PutU32(static_cast<uint32_t>(sections_.size()));
  for (const auto& [tag, writer] : sections_) {
    const std::string& payload = writer.bytes();
    out.PutU32(tag);
    out.PutU64(payload.size());
    out.PutRaw(payload);
    out.PutU32(Crc32(payload.data(), payload.size()));
  }
  return out.Take();
}

Status Snapshot::WriteFile(const std::string& path) const {
  return AtomicWriteFile(path, Serialize());
}

Result<SnapshotReader> SnapshotReader::Parse(std::string bytes) {
  SnapshotReader reader;
  reader.bytes_ = std::move(bytes);
  const std::string& buf = reader.bytes_;
  if (!LooksLikeSnapshot(buf)) {
    return Status::Corruption("not a SemTree snapshot (bad magic)");
  }
  if (buf.size() < sizeof(kMagic) + 8) {
    return Status::Corruption("snapshot truncated (no header)");
  }

  auto read_u32 = [&buf](size_t off) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[off + i]))
           << (8 * i);
    }
    return v;
  };
  auto read_u64 = [&buf](size_t off) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[off + i]))
           << (8 * i);
    }
    return v;
  };

  uint32_t version = read_u32(sizeof(kMagic));
  if (version != kSnapshotVersion) {
    return Status::NotSupported(
        StringPrintf("unsupported snapshot version %u", version));
  }
  uint32_t count = read_u32(sizeof(kMagic) + 4);
  const size_t end = buf.size();
  size_t offset = sizeof(kMagic) + 8;
  for (uint32_t i = 0; i < count; ++i) {
    if (offset + 12 > end) {
      return Status::Corruption("snapshot truncated in a section header");
    }
    uint32_t tag = read_u32(offset);
    uint64_t size = read_u64(offset + 4);
    size_t payload_off = offset + 12;
    if (size > end - payload_off || end - payload_off - size < 4) {
      return Status::Corruption(StringPrintf("section %u truncated", tag));
    }
    uint32_t stored_crc = read_u32(payload_off + size);
    uint32_t actual_crc = Crc32(buf.data() + payload_off, size);
    if (stored_crc != actual_crc) {
      return Status::Corruption(
          StringPrintf("section %u checksum mismatch "
                       "(stored %08x, computed %08x)",
                       tag, stored_crc, actual_crc));
    }
    if (!reader.sections_.emplace(tag, std::make_pair(payload_off, size))
             .second) {
      return Status::Corruption(StringPrintf("duplicate section %u", tag));
    }
    offset = payload_off + size + 4;
  }
  if (offset != end) {
    return Status::Corruption("trailing bytes after the last section");
  }
  return reader;
}

Result<SnapshotReader> SnapshotReader::Open(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(
        StringPrintf("cannot open snapshot '%s'", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(std::move(buffer).str());
}

Result<ByteReader> SnapshotReader::Section(uint32_t tag) const {
  auto it = sections_.find(tag);
  if (it == sections_.end()) {
    return Status::Corruption(
        StringPrintf("snapshot has no section %u", tag));
  }
  return ByteReader(
      std::string_view(bytes_).substr(it->second.first, it->second.second));
}

std::vector<uint32_t> SnapshotReader::Tags() const {
  std::vector<uint32_t> tags;
  tags.reserve(sections_.size());
  for (const auto& [tag, span] : sections_) tags.push_back(tag);
  return tags;
}

void WritePointStore(const PointStore& store, ByteWriter* out) {
  out->PutU64(store.dimensions());
  out->PutU64(store.chunk_capacity());
  const std::vector<PointId>& ids = store.slot_ids();
  out->PutU64Array(ids);
  out->PutU32Array(store.free_slots());
  // Every allocated row, live or free: free rows are recycled by later
  // appends, and preserving their bytes keeps save→load→save
  // byte-identical. Rows within a chunk are contiguous, so the arena
  // streams out one memcpy-sized span per chunk.
  out->PutU64(store.slot_count() * store.dimensions());
  for (size_t base = 0; base < store.slot_count();
       base += store.chunk_capacity()) {
    size_t run = std::min(store.chunk_capacity(), store.slot_count() - base);
    out->PutDoublesRaw(store.CoordsAt(static_cast<PointStore::Slot>(base)),
                       run * store.dimensions());
  }
}

Result<PointStore> ReadPointStore(ByteReader* in) {
  SEMTREE_ASSIGN_OR_RETURN(uint64_t dims, in->U64());
  SEMTREE_ASSIGN_OR_RETURN(uint64_t chunk_capacity, in->U64());
  if (dims == 0 || dims > (1u << 20)) {
    return Status::Corruption("point store has implausible dimensions");
  }
  // An absurd chunk capacity would overflow chunk-size arithmetic in
  // AddChunk (heap overflow), spin the constructor's round-up loop, or
  // force one gigantic allocation; bound the per-chunk row count and
  // the per-chunk double count before constructing anything.
  if (chunk_capacity == 0 || chunk_capacity > (1u << 24) ||
      chunk_capacity * dims > (1u << 27)) {
    return Status::Corruption("point store has implausible chunk size");
  }
  SEMTREE_ASSIGN_OR_RETURN(std::vector<uint64_t> ids, in->U64Array());
  SEMTREE_ASSIGN_OR_RETURN(std::vector<uint32_t> free_slots,
                           in->U32Array());
  if (free_slots.size() > ids.size()) {
    return Status::Corruption("point store free list longer than arena");
  }
  // A slot listed twice would be handed out by two later appends.
  std::vector<bool> is_free(ids.size(), false);
  for (uint32_t slot : free_slots) {
    if (slot >= ids.size()) {
      return Status::Corruption("point store free slot out of range");
    }
    if (is_free[slot]) {
      return Status::Corruption("point store frees a slot twice");
    }
    is_free[slot] = true;
  }
  SEMTREE_ASSIGN_OR_RETURN(uint64_t row_doubles, in->U64());
  if (row_doubles != ids.size() * dims) {
    return Status::Corruption("point store row block has wrong size");
  }
  // Stream the rows straight into the arena chunks — no intermediate
  // buffer; this is the O(read) half of the load-vs-rebuild speedup.
  PointStore store = PointStore::Preallocate(dims, chunk_capacity,
                                             std::move(ids),
                                             std::move(free_slots));
  for (size_t base = 0; base < store.slot_count();
       base += store.chunk_capacity()) {
    size_t run = std::min(store.chunk_capacity(), store.slot_count() - base);
    SEMTREE_RETURN_NOT_OK(in->DoublesRaw(
        store.MutableCoordsAt(static_cast<PointStore::Slot>(base)),
        run * dims));
  }
  return store;
}

Status CheckSlotOwnership(
    const PointStore& store,
    const std::vector<const std::vector<PointStore::Slot>*>& lists,
    const char* what) {
  enum : uint8_t { kUnnamed, kNamed, kFree };
  std::vector<uint8_t> state(store.slot_count(), kUnnamed);
  for (PointStore::Slot s : store.free_slots()) state[s] = kFree;
  size_t named = 0;
  for (const std::vector<PointStore::Slot>* list : lists) {
    for (PointStore::Slot s : *list) {
      if (s >= state.size()) {
        return Status::Corruption(StringPrintf("%s slot out of range", what));
      }
      if (state[s] != kUnnamed) {
        return Status::Corruption(StringPrintf(
            "%s names a %s slot", what,
            state[s] == kFree ? "free" : "repeated"));
      }
      state[s] = kNamed;
      ++named;
    }
  }
  // Every named slot is live and distinct, so equal counts mean the
  // lists cover the live slots exactly.
  if (named != store.size()) {
    return Status::Corruption(
        StringPrintf("%s misses a live store slot", what));
  }
  return Status::OK();
}

}  // namespace persist
}  // namespace semtree
