/// @file durable_file.h
/// @brief Crash-safe file primitives: CRC32C, atomic writes, a checksummed
/// chunk container, and an append-only journal with torn-tail repair.

// Durability primitives for the closure snapshot / write-ahead journal
// subsystem (core/snapshot.h). Three layers, each usable on its own:
//
//  * AtomicWriteFile — the classic write-temp -> fsync -> rename -> fsync-
//    directory sequence. A reader never observes a half-written file: it
//    sees either the old content or the new content, even across a crash
//    at any instant (rename(2) is atomic on POSIX filesystems).
//
//  * Chunk container — a typed, length-prefixed, CRC32C-checksummed
//    record file ("PSEMDUR1" magic + version header, then
//    [tag][len][payload][crc] chunks). Corruption of any byte is detected
//    by the per-chunk checksum; framing damage (bad magic, impossible
//    lengths) is detected by bounded parsing. Every read honors explicit
//    size limits (DurableLimits) so hostile or damaged artifacts cannot
//    drive unbounded allocation — the same discipline as the PR 2 parser
//    and CSV bounds (docs/robustness.md).
//
//  * Journal — an append-only record log with the same framing. Appends
//    are fsynced before they are acknowledged (write-ahead discipline).
//    On open, a torn tail — the signature of a crash mid-append — is
//    truncated back to the last valid record; everything before the tear
//    replays. This is the standard WAL recovery contract (cf. the
//    checkpoint/log designs in DINOMO-style KVS recovery).
//
// Failure injection: five fail-point sites (psem.io.torn_write,
// short_read, bit_flip, fsync, rename — util/failpoint.h) make each
// physical failure mode deterministic in tests, so every recovery tier
// of core/snapshot.h is reachable without flaky filesystem tricks.
//
// Error taxonomy: kDataLoss = the artifact's bytes are wrong (checksum or
// framing); kInvalidArgument = the artifact violates a configured bound;
// kIoError = the environment failed a syscall (open/write/fsync/rename).
//
// Thread-compatibility: free functions are thread-safe per distinct path;
// a Journal instance must be externally serialized.

#ifndef PSEM_UTIL_DURABLE_FILE_H_
#define PSEM_UTIL_DURABLE_FILE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace psem {

/// CRC32C (Castagnoli) of `data`, seedable for incremental use:
/// Crc32c(b, n, Crc32c(a, m)) is the CRC of a followed by b. On x86-64
/// CPUs with SSE4.2 (probed once, at the first call) it runs the `crc32`
/// instruction eight bytes at a time; everywhere else it is
/// Crc32cPortable. Both compute the same function, so every checksum on
/// disk is the same whichever path wrote or reads it.
uint32_t Crc32c(const void* data, std::size_t len, uint32_t seed = 0);

/// The portable byte-at-a-time table CRC32C that Crc32c falls back to.
/// Exposed so tests can check the hardware path against it.
uint32_t Crc32cPortable(const void* data, std::size_t len, uint32_t seed = 0);

/// Bounds for reading untrusted durable artifacts. Zero is NOT unlimited
/// here — these are hard caps, always enforced.
struct DurableLimits {
  uint64_t max_file_bytes = uint64_t{1} << 30;   ///< whole-file cap (1 GiB).
  uint64_t max_chunk_bytes = uint64_t{1} << 28;  ///< per-chunk cap (256 MiB).
  uint64_t max_chunks = uint64_t{1} << 16;       ///< chunk-count cap.
  uint64_t max_record_bytes = uint64_t{1} << 20; ///< per-journal-record cap.
};

// --- little-endian byte codec ------------------------------------------------

/// Appends fixed-width little-endian integers and raw bytes to a string.
/// The format is little-endian on every host; a word is one copy.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Word(v); }
  void U64(uint64_t v) { Word(v); }
  void Bytes(std::string_view data) { buf_.append(data); }
  void Reserve(std::size_t bytes) { buf_.reserve(bytes); }
  /// Length-prefixed string (u32 length + bytes).
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s);
  }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  template <typename T>
  void Word(T v) {
    auto* bytes = reinterpret_cast<char*>(&v);
    if constexpr (std::endian::native == std::endian::big) {
      std::reverse(bytes, bytes + sizeof(T));
    }
    buf_.append(bytes, sizeof(T));
  }

  std::string buf_;
};

/// Bounded little-endian reader: every accessor returns false on overrun
/// instead of reading past the end, and the failure latches (ok() stays
/// false) so decoders can check once after a run of reads.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (!Ensure(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool U32(uint32_t* v) { return Word(v); }
  bool U64(uint64_t* v) { return Word(v); }
  bool Bytes(std::size_t n, std::string_view* out) {
    if (!Ensure(n)) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  /// Length-prefixed string; rejects lengths beyond `max_len`.
  bool Str(std::string* out, std::size_t max_len) {
    uint32_t len;
    if (!U32(&len) || len > max_len || !Ensure(len)) {
      ok_ = false;
      return false;
    }
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Ensure(std::size_t n) {
    if (data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  bool Word(T* v) {
    if (!Ensure(sizeof(T))) return false;
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
      auto* bytes = reinterpret_cast<char*>(v);
      std::reverse(bytes, bytes + sizeof(T));
    }
    pos_ += sizeof(T);
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- raw file primitives -----------------------------------------------------

/// Reads the whole file, rejecting anything over `limits.max_file_bytes`
/// with kInvalidArgument (and missing files with kNotFound). Fail-point
/// sites psem.io.short_read / psem.io.bit_flip corrupt the returned bytes
/// deterministically for recovery-tier tests.
Result<std::string> ReadFileBounded(const std::string& path,
                                    const DurableLimits& limits = {});

/// Atomically replaces `path` with `data`: writes `path`.tmp, fsyncs it,
/// renames over `path`, fsyncs the parent directory. On any failure
/// (real or injected) the destination keeps its previous content.
Status AtomicWriteFile(const std::string& path, std::string_view data);

// --- chunk container ---------------------------------------------------------

/// One typed chunk of a container file. The payload is borrowed: from the
/// caller's buffer when encoding, from the input bytes when decoded.
struct Chunk {
  uint32_t tag = 0;          ///< four-CC, e.g. 'META' packed little-endian.
  std::string_view payload;  ///< opaque bytes, CRC-protected on disk.
};

/// Packs "ABCD" into the on-disk u32 tag.
constexpr uint32_t ChunkTag(const char (&s)[5]) {
  return static_cast<uint32_t>(static_cast<uint8_t>(s[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(s[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(s[3])) << 24;
}

/// Serializes a container: magic, version, then each chunk as
/// [u32 tag][u64 len][payload][u32 crc32c(tag, len, payload)].
std::string EncodeChunkContainer(uint32_t version,
                                 const std::vector<Chunk>& chunks);

/// Parsed container. Its payloads are views into the decoded bytes, so
/// those bytes must outlive it: decode a named buffer, never a temporary.
struct ChunkContainer {
  uint32_t version = 0;
  std::vector<Chunk> chunks;
};

/// Decodes a container from bytes. kDataLoss on bad magic, bad checksum,
/// or truncation; kInvalidArgument when a bound in `limits` is exceeded.
Result<ChunkContainer> DecodeChunkContainer(std::string_view bytes,
                                            const DurableLimits& limits = {});

// --- append-only journal -----------------------------------------------------

/// Outcome of scanning journal bytes: the records of the valid prefix,
/// how many bytes of torn tail (if any) follow it, and where the valid
/// prefix ends (for truncation).
struct JournalContents {
  std::vector<std::string> records;
  uint64_t valid_bytes = 0;      ///< header + every fully valid record.
  bool tail_truncated = false;   ///< a torn/corrupt tail was found.
  uint64_t bytes_dropped = 0;    ///< size of that tail.
};

/// Scans journal bytes. A damaged or half-written record ends the valid
/// prefix: everything before it is returned, everything from it on is
/// reported as the torn tail (this is the journal-tail-truncation
/// recovery tier — a crash mid-append must never poison the prefix).
/// kDataLoss only when the header itself is unusable; kInvalidArgument
/// when a bound in `limits` is exceeded.
Result<JournalContents> ParseJournalBytes(std::string_view bytes,
                                          const DurableLimits& limits = {});

/// Append-only write-ahead journal. Open replays (and physically
/// truncates) the torn tail; Append fsyncs before returning so an
/// acknowledged record survives any later crash. The journal is never
/// truncated below its valid records: it is the source of truth that
/// makes a corrupt snapshot survivable.
class Journal {
 public:
  Journal() = default;
  Journal(Journal&&) noexcept;
  Journal& operator=(Journal&&) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Opens (creating if absent) the journal at `path`. Existing records
  /// are scanned into recovered(); a torn tail is truncated on disk so
  /// later appends extend a valid prefix.
  static Result<Journal> Open(const std::string& path,
                              const DurableLimits& limits = {});

  /// Records recovered by Open (not updated by Append).
  const JournalContents& recovered() const { return recovered_; }

  /// Durably appends one record: framed write + flush + fsync. A failed
  /// append is rolled back (the file is truncated to its pre-append
  /// length), so the journal never accumulates a torn frame mid-file and
  /// the caller may simply retry; if even the rollback fails, the next
  /// Open's tail repair restores the same invariant.
  Status Append(std::string_view payload);

  const std::string& path() const { return path_; }
  bool is_open() const { return fd_ >= 0; }

 private:
  std::string path_;
  DurableLimits limits_;
  JournalContents recovered_;
  uint64_t end_offset_ = 0;  ///< byte length of the valid prefix on disk.
  int fd_ = -1;
};

}  // namespace psem

#endif  // PSEM_UTIL_DURABLE_FILE_H_
