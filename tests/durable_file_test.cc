// Durability primitives below the snapshot codec: the CRC32C checksum
// (known answers, seed chaining, and the dispatched path against the
// portable table at every length and alignment) and the little-endian
// byte codec (exact byte layout, unaligned reads, latched overruns).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "util/durable_file.h"
#include "util/rng.h"

namespace psem {
namespace {

uint32_t Crc(std::string_view s, uint32_t seed = 0) {
  return Crc32c(s.data(), s.size(), seed);
}

uint32_t CrcPortable(std::string_view s, uint32_t seed = 0) {
  return Crc32cPortable(s.data(), s.size(), seed);
}

// --- CRC32C ------------------------------------------------------------------

// RFC 3720 §B.4 test vectors plus the standard "123456789" check value.
TEST(Crc32cTest, KnownAnswers) {
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  const struct {
    std::string input;
    uint32_t crc;
  } cases[] = {
      {std::string(32, '\x00'), 0x8A9136AAu},
      {std::string(32, '\xFF'), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {"123456789", 0xE3069283u},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Crc(c.input), c.crc);
    EXPECT_EQ(CrcPortable(c.input), c.crc);
  }
  EXPECT_EQ(Crc(""), 0u);
  EXPECT_EQ(CrcPortable(""), 0u);
}

// Crc32c(b, Crc32c(a)) == Crc32c(a ‖ b): TheoryFingerprint checksums a
// theory piece by piece through the seed.
TEST(Crc32cTest, SeedChainsAcrossSplits) {
  Rng rng(7);
  std::string bytes(300, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Below(256));
  const std::string_view all(bytes);
  const uint32_t whole = Crc(all);
  for (std::size_t split = 0; split <= all.size(); ++split) {
    const std::string_view a = all.substr(0, split);
    const std::string_view b = all.substr(split);
    EXPECT_EQ(Crc(b, Crc(a)), whole) << "split " << split;
    EXPECT_EQ(CrcPortable(b, CrcPortable(a)), whole) << "split " << split;
  }
}

// Every length 0..257 at every start offset 0..7, fresh and seeded: the
// dispatched path (the crc32 instruction on SSE4.2 hosts, with its
// 8-byte body and byte tail) computes the portable table's function.
TEST(Crc32cTest, DispatchedPathMatchesPortableAtEveryLengthAndOffset) {
  Rng rng(42);
  std::string buf(8 + 257, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::string_view s(buf.data() + offset, len);
      EXPECT_EQ(Crc(s), CrcPortable(s)) << "offset " << offset << " len " << len;
      EXPECT_EQ(Crc(s, 0xDEADBEEFu), CrcPortable(s, 0xDEADBEEFu))
          << "seeded, offset " << offset << " len " << len;
    }
  }
}

// --- little-endian byte codec ------------------------------------------------

TEST(ByteCodecTest, WordsAreLittleEndianOnDisk) {
  ByteWriter w;
  w.U32(0x01020304u);
  w.U64(0x0102030405060708ull);
  const std::string expected = {'\x04', '\x03', '\x02', '\x01',
                                '\x08', '\x07', '\x06', '\x05',
                                '\x04', '\x03', '\x02', '\x01'};
  EXPECT_EQ(w.data(), expected);
}

TEST(ByteCodecTest, ReaderReadsWordsBackAtUnalignedOffsets) {
  for (std::size_t pad = 0; pad < 8; ++pad) {
    ByteWriter w;
    for (std::size_t i = 0; i < pad; ++i) w.U8(0xAB);
    w.U64(0x0102030405060708ull);
    w.U32(0xCAFEF00Du);
    w.U64(0xFFFFFFFFFFFFFFFFull);
    w.U32(0);
    const std::string bytes = w.Take();

    ByteReader r(bytes);
    for (std::size_t i = 0; i < pad; ++i) {
      uint8_t b = 0;
      ASSERT_TRUE(r.U8(&b));
      EXPECT_EQ(b, 0xAB);
    }
    uint64_t a = 0, c = 0;
    uint32_t b = 0, d = 1;
    ASSERT_TRUE(r.U64(&a));
    ASSERT_TRUE(r.U32(&b));
    ASSERT_TRUE(r.U64(&c));
    ASSERT_TRUE(r.U32(&d));
    EXPECT_EQ(a, 0x0102030405060708ull) << "pad " << pad;
    EXPECT_EQ(b, 0xCAFEF00Du) << "pad " << pad;
    EXPECT_EQ(c, 0xFFFFFFFFFFFFFFFFull) << "pad " << pad;
    EXPECT_EQ(d, 0u) << "pad " << pad;
    EXPECT_TRUE(r.AtEnd());
    EXPECT_TRUE(r.ok());
  }
}

TEST(ByteCodecTest, OverrunFailsAndLatches) {
  const std::string seven(7, '\x11');
  {
    ByteReader r(seven);
    uint64_t v = 0;
    EXPECT_FALSE(r.U64(&v));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.remaining(), 7u);  // a failed read consumes nothing.
    // The failure latches: a later read that fits leaves ok() false.
    uint32_t small = 0;
    EXPECT_TRUE(r.U32(&small));
    EXPECT_EQ(small, 0x11111111u);
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(std::string_view(seven).substr(0, 3));
    uint32_t v = 0;
    EXPECT_FALSE(r.U32(&v));
    EXPECT_FALSE(r.ok());
  }
  {
    ByteReader r(seven);
    uint32_t v = 0;
    EXPECT_TRUE(r.U32(&v));
    EXPECT_TRUE(r.ok());
    uint64_t w = 0;
    EXPECT_FALSE(r.U64(&w));  // 3 bytes left.
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace psem
