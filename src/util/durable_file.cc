#include "util/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/failpoint.h"

namespace psem {

namespace {

constexpr char kContainerMagic[8] = {'P', 'S', 'E', 'M', 'D', 'U', 'R', '1'};
constexpr char kJournalMagic[8] = {'P', 'S', 'E', 'M', 'J', 'N', 'L', '1'};
constexpr uint32_t kJournalVersion = 1;
// Guards each journal record against a stale tail that happens to
// checksum (e.g. the file was truncated into an older record boundary).
constexpr uint32_t kRecordMagic = 0x4A52u | (0x4E50u << 16);  // "RJPN"

Status ErrnoStatus(const char* op, const std::string& path) {
  return Status::IoError(std::string(op) + " failed for '" + path +
                         "': " + std::strerror(errno));
}

/// fsync the directory containing `path` so the rename itself is durable.
Status FsyncParentDir(const std::string& path) {
  std::string dir;
  auto slash = path.find_last_of('/');
  dir = (slash == std::string::npos) ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open(dir)", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return ErrnoStatus("fsync(dir)", dir);
  return Status::OK();
}

Status WriteAll(int fd, const char* data, std::size_t len,
                const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32cPortable(const void* data, std::size_t len, uint32_t seed) {
  // Software CRC32C (Castagnoli, poly 0x1EDC6F41 reflected = 0x82F63B78),
  // byte-at-a-time table built on first use.
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__) && defined(__GNUC__)
namespace {

// The same reflected Castagnoli CRC as the table, eight bytes per crc32
// instruction; memcpy makes the unaligned loads well defined.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       std::size_t len,
                                                       uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    crc = __builtin_ia32_crc32di(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = __builtin_ia32_crc32qi(crc32, *p);
  return crc32 ^ 0xFFFFFFFFu;
}

}  // namespace
#endif

uint32_t Crc32c(const void* data, std::size_t len, uint32_t seed) {
#if defined(__x86_64__) && defined(__GNUC__)
  // Chosen once; __builtin_cpu_init makes the probe safe even when the
  // first call comes from another translation unit's static initializer.
  static const bool has_sse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  if (has_sse42) return Crc32cSse42(data, len, seed);
#endif
  return Crc32cPortable(data, len, seed);
}

Result<std::string> ReadFileBounded(const std::string& path,
                                    const DurableLimits& limits) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return ErrnoStatus("open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = ErrnoStatus("fstat", path);
    ::close(fd);
    return s;
  }
  if (static_cast<uint64_t>(st.st_size) > limits.max_file_bytes) {
    ::close(fd);
    return Status::InvalidArgument(
        "file '" + path + "' exceeds max_file_bytes (" +
        std::to_string(st.st_size) + " > " +
        std::to_string(limits.max_file_bytes) + ")");
  }
  std::string out;
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t off = 0;
  while (off < out.size()) {
    ssize_t n = ::read(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status s = ErrnoStatus("read", path);
      ::close(fd);
      return s;
    }
    if (n == 0) break;  // file shrank under us; treat as short read
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(off);
  // Injected physical read failures, for the recovery-tier tests: a short
  // read loses the tail half; a bit flip corrupts one bit mid-file. Both
  // must be caught downstream by framing or checksum validation.
  if (PSEM_FAILPOINT(failpoints::kIoShortRead)) {
    out.resize(out.size() / 2);
  }
  if (PSEM_FAILPOINT(failpoints::kIoBitFlip) && !out.empty()) {
    out[out.size() / 2] = static_cast<char>(out[out.size() / 2] ^ 0x40);
  }
  return out;
}

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", tmp);

  // A torn write persists only a prefix of the payload — the crash-
  // mid-write failure the atomic rename protocol exists to mask.
  std::size_t write_len = data.size();
  bool torn = PSEM_FAILPOINT(failpoints::kIoTornWrite);
  if (torn) write_len /= 2;

  Status st = WriteAll(fd, data.data(), write_len, tmp);
  if (st.ok() && torn) {
    st = Status::IoError("injected torn write for '" + path + "'");
  }
  if (st.ok() && (PSEM_FAILPOINT(failpoints::kIoFsync) || ::fsync(fd) != 0)) {
    st = Status::IoError("fsync failed for '" + tmp + "'");
  }
  ::close(fd);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  if (PSEM_FAILPOINT(failpoints::kIoRename) ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("rename failed for '" + tmp + "' -> '" + path +
                           "'");
  }
  return FsyncParentDir(path);
}

std::string EncodeChunkContainer(uint32_t version,
                                 const std::vector<Chunk>& chunks) {
  std::size_t size = sizeof(kContainerMagic) + 4;
  for (const Chunk& c : chunks) size += 4 + 8 + c.payload.size() + 4;
  ByteWriter w;
  w.Reserve(size);
  w.Bytes(std::string_view(kContainerMagic, sizeof(kContainerMagic)));
  w.U32(version);
  for (const Chunk& c : chunks) {
    const std::size_t frame = w.data().size();
    w.U32(c.tag);
    w.U64(c.payload.size());
    w.Bytes(c.payload);
    w.U32(Crc32c(w.data().data() + frame, w.data().size() - frame));
  }
  return w.Take();
}

Result<ChunkContainer> DecodeChunkContainer(std::string_view bytes,
                                            const DurableLimits& limits) {
  if (bytes.size() > limits.max_file_bytes) {
    return Status::InvalidArgument("container exceeds max_file_bytes");
  }
  ByteReader r(bytes);
  std::string_view magic;
  if (!r.Bytes(sizeof(kContainerMagic), &magic) ||
      std::memcmp(magic.data(), kContainerMagic, sizeof(kContainerMagic)) !=
          0) {
    return Status::DataLoss("bad container magic");
  }
  ChunkContainer out;
  if (!r.U32(&out.version)) {
    return Status::DataLoss("truncated container header");
  }
  while (!r.AtEnd()) {
    if (out.chunks.size() >= limits.max_chunks) {
      return Status::InvalidArgument("container exceeds max_chunks");
    }
    const std::size_t frame = bytes.size() - r.remaining();
    uint32_t tag;
    uint64_t len;
    if (!r.U32(&tag) || !r.U64(&len)) {
      return Status::DataLoss("truncated chunk header");
    }
    // A length the file cannot physically hold is framing damage (e.g. a
    // bit flip in the len field), not a configured-bound violation.
    if (len > r.remaining()) {
      return Status::DataLoss("chunk length exceeds remaining bytes");
    }
    if (len > limits.max_chunk_bytes) {
      return Status::InvalidArgument("chunk exceeds max_chunk_bytes");
    }
    std::string_view payload;
    uint32_t stored_crc;
    if (!r.Bytes(static_cast<std::size_t>(len), &payload) ||
        !r.U32(&stored_crc)) {
      return Status::DataLoss("truncated chunk body");
    }
    if (Crc32c(bytes.data() + frame, 4 + 8 + payload.size()) != stored_crc) {
      return Status::DataLoss("chunk checksum mismatch");
    }
    out.chunks.push_back(Chunk{tag, payload});
  }
  return out;
}

Result<JournalContents> ParseJournalBytes(std::string_view bytes,
                                          const DurableLimits& limits) {
  if (bytes.size() > limits.max_file_bytes) {
    return Status::InvalidArgument("journal exceeds max_file_bytes");
  }
  JournalContents out;
  const std::size_t header = sizeof(kJournalMagic) + 4;
  if (bytes.size() < header ||
      std::memcmp(bytes.data(), kJournalMagic, sizeof(kJournalMagic)) != 0) {
    return Status::DataLoss("bad journal magic");
  }
  ByteReader hdr(bytes.substr(sizeof(kJournalMagic), 4));
  uint32_t version = 0;
  hdr.U32(&version);
  if (version != kJournalVersion) {
    return Status::DataLoss("unsupported journal version " +
                            std::to_string(version));
  }
  out.valid_bytes = header;
  // Each record: [u32 rec-magic][u32 len][payload][u32 crc(payload)].
  // The first damaged record ends the valid prefix; everything after it
  // is torn tail. This is deliberately NOT an error: a crash mid-append
  // produces exactly this shape.
  std::size_t pos = header;
  while (pos < bytes.size()) {
    ByteReader r(bytes.substr(pos));
    uint32_t magic, len;
    if (!r.U32(&magic) || magic != kRecordMagic || !r.U32(&len) ||
        len > limits.max_record_bytes) {
      break;
    }
    std::string_view payload;
    uint32_t stored_crc;
    if (!r.Bytes(len, &payload) || !r.U32(&stored_crc) ||
        Crc32c(payload.data(), payload.size()) != stored_crc) {
      break;
    }
    out.records.emplace_back(payload);
    pos += 4 + 4 + len + 4;
    out.valid_bytes = pos;
  }
  if (pos < bytes.size()) {
    out.tail_truncated = true;
    out.bytes_dropped = bytes.size() - out.valid_bytes;
  }
  return out;
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      limits_(other.limits_),
      recovered_(std::move(other.recovered_)),
      end_offset_(other.end_offset_),
      fd_(other.fd_) {
  other.fd_ = -1;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    limits_ = other.limits_;
    recovered_ = std::move(other.recovered_);
    end_offset_ = other.end_offset_;
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Journal> Journal::Open(const std::string& path,
                              const DurableLimits& limits) {
  Journal j;
  j.path_ = path;
  j.limits_ = limits;

  auto existing = ReadFileBounded(path, limits);
  bool fresh = false;
  if (!existing.ok()) {
    if (existing.status().code() != StatusCode::kNotFound) {
      return existing.status();
    }
    fresh = true;
  } else if (existing->empty()) {
    fresh = true;  // created but never written; stamp a header
  }

  if (!fresh) {
    PSEM_ASSIGN_OR_RETURN(j.recovered_,
                          ParseJournalBytes(*existing, limits));
  }

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  j.fd_ = fd;

  if (fresh) {
    ByteWriter w;
    w.Bytes(std::string_view(kJournalMagic, sizeof(kJournalMagic)));
    w.U32(kJournalVersion);
    Status st = WriteAll(fd, w.data().data(), w.data().size(), path);
    if (st.ok() && ::fsync(fd) != 0) st = ErrnoStatus("fsync", path);
    if (!st.ok()) return st;
    j.recovered_ = JournalContents{};
    j.recovered_.valid_bytes = w.data().size();
  } else if (j.recovered_.tail_truncated) {
    if (::ftruncate(fd, static_cast<off_t>(j.recovered_.valid_bytes)) != 0) {
      return ErrnoStatus("ftruncate", path);
    }
    if (::fsync(fd) != 0) return ErrnoStatus("fsync", path);
  }
  j.end_offset_ = j.recovered_.valid_bytes;
  return j;
}

Status Journal::Append(std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("journal is not open");
  if (payload.size() > limits_.max_record_bytes) {
    return Status::InvalidArgument("journal record exceeds max_record_bytes");
  }
  ByteWriter w;
  w.U32(kRecordMagic);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.Bytes(payload);
  w.U32(Crc32c(payload.data(), payload.size()));

  // A torn append persists a prefix of the frame — recoverable by the
  // next Open's tail repair, never by silently acknowledging the record.
  std::size_t write_len = w.data().size();
  bool torn = PSEM_FAILPOINT(failpoints::kIoTornWrite);
  if (torn) write_len /= 2;

  Status st = WriteAll(fd_, w.data().data(), write_len, path_);
  if (st.ok() && torn) {
    st = Status::IoError("injected torn journal append for '" + path_ + "'");
  }
  if (st.ok() && (PSEM_FAILPOINT(failpoints::kIoFsync) || ::fsync(fd_) != 0)) {
    st = Status::IoError("fsync failed for '" + path_ + "'");
  }
  if (!st.ok()) {
    // Roll the failed append back so the file keeps ending on a record
    // boundary and a retry does not land after a torn frame. Best
    // effort: if this too fails, the next Open's tail repair recovers.
    if (::ftruncate(fd_, static_cast<off_t>(end_offset_)) == 0) {
      ::lseek(fd_, 0, SEEK_END);  // O_APPEND re-seeks anyway; be explicit
    }
    return st;
  }
  end_offset_ += w.data().size();
  return Status::OK();
}

}  // namespace psem
