#include "util/bytes.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace uncharted {
namespace {

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter w;
  w.u16le(0x1234);
  w.u32le(0xdeadbeef);
  ASSERT_EQ(w.size(), 6u);
  auto v = w.view();
  EXPECT_EQ(v[0], 0x34);
  EXPECT_EQ(v[1], 0x12);
  EXPECT_EQ(v[2], 0xef);
  EXPECT_EQ(v[3], 0xbe);
  EXPECT_EQ(v[4], 0xad);
  EXPECT_EQ(v[5], 0xde);
}

TEST(ByteWriter, BigEndianLayout) {
  ByteWriter w;
  w.u16be(0x1234);
  w.u32be(0x01020304);
  auto v = w.view();
  EXPECT_EQ(v[0], 0x12);
  EXPECT_EQ(v[1], 0x34);
  EXPECT_EQ(v[2], 0x01);
  EXPECT_EQ(v[5], 0x04);
}

TEST(ByteWriter, PatchOverwritesInPlace) {
  ByteWriter w;
  w.u32be(0);
  w.patch_u16be(1, 0xabcd);
  auto v = w.view();
  EXPECT_EQ(v[0], 0x00);
  EXPECT_EQ(v[1], 0xab);
  EXPECT_EQ(v[2], 0xcd);
  EXPECT_EQ(v[3], 0x00);
}

TEST(ByteReader, ReadsInOrder) {
  ByteWriter w;
  w.u8(7);
  w.u16le(300);
  w.u32be(123456);
  ByteReader r(w.view());
  EXPECT_EQ(r.u8().value(), 7);
  EXPECT_EQ(r.u16le().value(), 300);
  EXPECT_EQ(r.u32be().value(), 123456u);
  EXPECT_TRUE(r.empty());
}

TEST(ByteReader, TruncationPoisonsSubsequentReads) {
  std::uint8_t data[3] = {1, 2, 3};
  ByteReader r(std::span<const std::uint8_t>(data, 3));
  EXPECT_TRUE(r.u16le().ok());
  auto fail = r.u16le();
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.error().code, "truncated");
  EXPECT_TRUE(r.failed());
  // Poisoned: even a 1-byte read now fails, so decode chains can't
  // "succeed" past an earlier failure.
  EXPECT_FALSE(r.u8().ok());
  // seek() clears the failure state.
  r.seek(2);
  EXPECT_EQ(r.u8().value(), 3);
}

TEST(ByteReader, SkipAndSeek) {
  std::uint8_t data[5] = {1, 2, 3, 4, 5};
  ByteReader r(std::span<const std::uint8_t>(data, 5));
  ASSERT_TRUE(r.skip(2).ok());
  EXPECT_EQ(r.u8().value(), 3);
  r.seek(0);
  EXPECT_EQ(r.u8().value(), 1);
  EXPECT_FALSE(r.skip(10).ok());
}

TEST(ByteReader, BytesReturnsSubspanWithoutCopy) {
  std::uint8_t data[4] = {9, 8, 7, 6};
  ByteReader r(std::span<const std::uint8_t>(data, 4));
  auto span = r.bytes(3);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->data(), data);
  EXPECT_EQ(span->size(), 3u);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(Bytes, FloatRoundTripExactBits) {
  for (float f : {0.0f, 1.0f, -123.456f, 3.4e38f, 1.17e-38f}) {
    ByteWriter w;
    w.f32le(f);
    ByteReader r(w.view());
    EXPECT_EQ(r.f32le().value(), f);
  }
}

// Property: every integer width round-trips through write+read for random
// values in both endiannesses.
TEST(BytesProperty, RandomRoundTrips) {
  Rng rng(1234);
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = rng.next_u64();
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(v));
    w.u16le(static_cast<std::uint16_t>(v));
    w.u16be(static_cast<std::uint16_t>(v));
    w.u32le(static_cast<std::uint32_t>(v));
    w.u32be(static_cast<std::uint32_t>(v));
    w.u64le(v);
    ByteReader r(w.view());
    EXPECT_EQ(r.u8().value(), static_cast<std::uint8_t>(v));
    EXPECT_EQ(r.u16le().value(), static_cast<std::uint16_t>(v));
    EXPECT_EQ(r.u16be().value(), static_cast<std::uint16_t>(v));
    EXPECT_EQ(r.u32le().value(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(r.u32be().value(), static_cast<std::uint32_t>(v));
    EXPECT_EQ(r.u64le().value(), v);
    EXPECT_TRUE(r.empty());
  }
}

TEST(HexDump, Formats) {
  std::uint8_t data[3] = {0x68, 0x0e, 0xff};
  EXPECT_EQ(hex_dump(std::span<const std::uint8_t>(data, 3)), "68 0e ff");
  EXPECT_EQ(hex_dump({}), "");
}

// Regression: multi-byte reads assemble in unsigned arithmetic. All-0xff
// inputs exercise every high bit — a signed `byte << 8`/`<< 24` promotion
// bug would surface here as a wrong value or (under UBSan) a shift report.
TEST(ByteReader, HighBitBoundaryValues) {
  std::vector<std::uint8_t> ones(8, 0xff);
  {
    ByteReader r(ones);
    EXPECT_EQ(r.u16le().value(), 0xffff);
    EXPECT_EQ(r.u16be().value(), 0xffff);
    EXPECT_EQ(r.u32le().value(), 0xffffffffu);
  }
  {
    ByteReader r(ones);
    EXPECT_EQ(r.u32be().value(), 0xffffffffu);
  }
  {
    ByteReader r(ones);
    EXPECT_EQ(r.u64le().value(), 0xffffffffffffffffULL);
  }
  // Sign-bit-only patterns: the top byte alone must land in the top lane.
  std::uint8_t top_le[] = {0x00, 0x80};
  ByteReader r1(std::span<const std::uint8_t>(top_le, 2));
  EXPECT_EQ(r1.u16le().value(), 0x8000);
  std::uint8_t top_be[] = {0x80, 0x00, 0x00, 0x00};
  ByteReader r2(std::span<const std::uint8_t>(top_be, 4));
  EXPECT_EQ(r2.u32be().value(), 0x80000000u);
}

// The fixed-offset loads agree with the ByteReader reads of the same bytes,
// including the all-ones and top-bit-only patterns of the 24-bit IOA load.
TEST(Bytes, FixedOffsetLoadsMatchReader) {
  const std::uint8_t bytes[] = {0x01, 0x02, 0x03, 0x04, 0xff, 0xff, 0xff,
                                0x00, 0x00, 0x80, 0x00, 0x00, 0xc0, 0x3f};
  EXPECT_EQ(load_u24le(bytes), 0x030201u);
  EXPECT_EQ(load_u24le(bytes + 4), 0xffffffu);
  EXPECT_EQ(load_u24le(bytes + 7), 0x800000u);
  EXPECT_EQ(load_u24le(bytes + 2), 0xff0403u);
  for (std::size_t off = 0; off + 4 <= sizeof(bytes); ++off) {
    ByteReader r(std::span<const std::uint8_t>(bytes).subspan(off));
    const float f = r.f32le().value();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(load_f32le(bytes + off)),
              std::bit_cast<std::uint32_t>(f))
        << off;
  }
  EXPECT_EQ(load_f32le(bytes + 10), 1.5f);
}

TEST(ByteReader, SeekClearsPoisonAtBoundaries) {
  std::uint8_t data[2] = {0x12, 0x34};
  ByteReader r(std::span<const std::uint8_t>(data, 2));
  EXPECT_FALSE(r.u32le().ok());  // poisons
  EXPECT_TRUE(r.failed());
  r.seek(0);
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.u16le().value(), 0x3412);
  // Seeking past the end clamps to the end rather than overflowing.
  r.seek(99);
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.empty());
}

}  // namespace
}  // namespace uncharted
