#include "net/pcap.hpp"

#include <cstdio>
#include <filesystem>
#include <optional>

#include <gtest/gtest.h>

#include "net/mapping.hpp"
#include "util/bytes.hpp"

namespace uncharted::net {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::uint8_t> sample_frame(std::uint8_t fill, std::size_t n) {
  return std::vector<std::uint8_t>(n, fill);
}

/// Every complete record of a pcap, as views into `mapping` (when read from
/// a file) or into the caller's bytes, plus the cursor's tail verdict.
struct Walk {
  std::optional<PcapMapping> mapping;
  std::vector<FrameView> frames;
  bool truncated_tail = false;
  std::string warning;
};

Result<Walk> walk(std::span<const std::uint8_t> bytes) {
  auto cursor = PcapCursor::open(bytes);
  if (!cursor) return cursor.error();
  Walk out;
  FrameView frame;
  while (cursor->next(frame)) out.frames.push_back(frame);
  out.truncated_tail = cursor->truncated_tail();
  out.warning = cursor->warning();
  return out;
}

Result<Walk> walk_file(const std::string& path) {
  auto mapping = PcapMapping::open(path);
  if (!mapping) return mapping.error();
  auto out = walk(mapping->bytes());
  if (out) out->mapping.emplace(std::move(mapping).take());
  return out;
}

std::vector<std::uint8_t> bytes_of(const FrameView& frame) {
  return {frame.data.begin(), frame.data.end()};
}

TEST(Pcap, WriteReadRoundTrip) {
  std::string path = temp_path("uncharted_pcap_rt.pcap");
  {
    auto w = PcapWriter::open(path);
    ASSERT_TRUE(w.ok()) << w.error().str();
    ASSERT_TRUE(w->write(make_timestamp(100, 250), sample_frame(0xaa, 60)).ok());
    ASSERT_TRUE(w->write(make_timestamp(101, 999999), sample_frame(0xbb, 1500)).ok());
    EXPECT_EQ(w->packets_written(), 2u);
    ASSERT_TRUE(w->close().ok());
  }
  auto read = walk_file(path);
  ASSERT_TRUE(read.ok()) << read.error().str();
  EXPECT_FALSE(read->truncated_tail);
  ASSERT_EQ(read->frames.size(), 2u);
  EXPECT_EQ(read->frames[0].ts, make_timestamp(100, 250));
  EXPECT_EQ(read->frames[0].data.size(), 60u);
  EXPECT_EQ(read->frames[0].data[0], 0xaa);
  EXPECT_EQ(read->frames[1].ts, make_timestamp(101, 999999));
  EXPECT_EQ(read->frames[1].original_length, 1500u);
  std::filesystem::remove(path);
}

TEST(Pcap, SnaplenTruncatesButKeepsOriginalLength) {
  std::string path = temp_path("uncharted_pcap_snap.pcap");
  {
    auto w = PcapWriter::open(path, 64);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->write(0, sample_frame(0xcc, 200)).ok());
    ASSERT_TRUE(w->close().ok());
  }
  auto read = walk_file(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->frames.size(), 1u);
  EXPECT_EQ(read->frames[0].data.size(), 64u);
  EXPECT_EQ(read->frames[0].original_length, 200u);
  std::filesystem::remove(path);
}

TEST(Pcap, ReadsByteSwappedFiles) {
  // Construct a big-endian (swapped magic) pcap in memory.
  ByteWriter w;
  w.u32be(kPcapMagic);  // stored big-endian == swapped from our reader's view
  w.u16be(2);
  w.u16be(4);
  w.u32be(0);
  w.u32be(0);
  w.u32be(65535);
  w.u32be(kLinkTypeEthernet);
  w.u32be(1600000000);  // ts_sec
  w.u32be(123);         // ts_usec
  w.u32be(4);           // incl_len
  w.u32be(4);           // orig_len
  w.u32be(0xdeadbeef);  // payload
  auto read = walk(w.view());
  ASSERT_TRUE(read.ok()) << read.error().str();
  ASSERT_EQ(read->frames.size(), 1u);
  EXPECT_EQ(read->frames[0].ts, make_timestamp(1600000000, 123));
  EXPECT_EQ(read->frames[0].data.size(), 4u);
}

TEST(Pcap, RejectsBadMagicAndLinktype) {
  ByteWriter bad;
  bad.u32le(0x12345678);
  auto r1 = walk(bad.view());
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error().code, "bad-magic");

  ByteWriter wrong_link;
  wrong_link.u32le(kPcapMagic);
  wrong_link.u16le(2);
  wrong_link.u16le(4);
  wrong_link.u32le(0);
  wrong_link.u32le(0);
  wrong_link.u32le(65535);
  wrong_link.u32le(101);  // LINKTYPE_RAW, unsupported
  auto r2 = walk(wrong_link.view());
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.error().code, "bad-linktype");
}

TEST(Pcap, TruncatedRecordEndsTheWalkWithAWarning) {
  std::string path = temp_path("uncharted_pcap_trunc.pcap");
  {
    auto w = PcapWriter::open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->write(0, sample_frame(0x11, 100)).ok());
    ASSERT_TRUE(w->close().ok());
  }
  // Chop the last 10 bytes.
  auto full = walk_file(path);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->frames.size(), 1u);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  bytes.resize(bytes.size() - 10);
  auto result = walk(bytes);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->frames.empty());
  EXPECT_TRUE(result->truncated_tail);
  EXPECT_EQ(result->warning, "pcap record body cut short after 0 packets");
  std::filesystem::remove(path);
}

TEST(Pcap, TolerantReadRecoversCompletePrefixOfTruncatedFile) {
  std::string path = temp_path("uncharted_pcap_tol.pcap");
  {
    auto w = PcapWriter::open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->write(0, sample_frame(0x11, 100)).ok());
    ASSERT_TRUE(w->write(1, sample_frame(0x22, 80)).ok());
    ASSERT_TRUE(w->write(2, sample_frame(0x33, 60)).ok());
    ASSERT_TRUE(w->close().ok());
  }
  // Cut mid-way through the third record, as a crashed tap would.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  bytes.resize(bytes.size() - 30);

  auto tolerant = walk(bytes);
  ASSERT_TRUE(tolerant.ok()) << tolerant.error().str();
  EXPECT_TRUE(tolerant->truncated_tail);
  EXPECT_FALSE(tolerant->warning.empty());
  ASSERT_EQ(tolerant->frames.size(), 2u);
  EXPECT_EQ(tolerant->frames[1].data[0], 0x22);

  // An intact file is read with no warning.
  auto clean = walk_file(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_FALSE(clean->truncated_tail);
  EXPECT_TRUE(clean->warning.empty());
  EXPECT_EQ(clean->frames.size(), 3u);
  std::filesystem::remove(path);
}

TEST(Pcap, HeaderDamageIsStillAnErrorForTolerantRead) {
  // Tolerance covers a cut-off tail, not an unreadable file: a capture
  // whose global header is damaged has no trustworthy prefix at all.
  std::vector<std::uint8_t> junk = {0x00, 0x01, 0x02, 0x03};
  EXPECT_FALSE(walk(junk).ok());
}

TEST(Pcap, EmptyCaptureIsValid) {
  std::string path = temp_path("uncharted_pcap_empty.pcap");
  {
    auto w = PcapWriter::open(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w->close().ok());
  }
  auto read = walk_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->frames.empty());
  EXPECT_FALSE(read->truncated_tail);
  std::filesystem::remove(path);
}

TEST(Pcap, OpenFailsForBadPath) {
  EXPECT_FALSE(PcapWriter::open("/nonexistent-dir/x.pcap").ok());
  EXPECT_FALSE(walk_file("/nonexistent-dir/x.pcap").ok());
}

/// A pcap with three records of distinct sizes, in either byte order.
std::vector<std::uint8_t> three_record_pcap(bool swapped) {
  ByteWriter w;
  auto u16 = [&](std::uint16_t v) { swapped ? w.u16be(v) : w.u16le(v); };
  auto u32 = [&](std::uint32_t v) { swapped ? w.u32be(v) : w.u32le(v); };
  u32(kPcapMagic);
  u16(2);
  u16(4);
  u32(0);
  u32(0);
  u32(65535);
  u32(kLinkTypeEthernet);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const std::uint32_t len = 40 + 10 * i;
    u32(1600000000 + i);
    u32(1000 * i + 7);
    u32(len);
    u32(len + 3);
    for (std::uint32_t b = 0; b < len; ++b) w.u8(static_cast<std::uint8_t>(i * 16 + b));
  }
  return w.take();
}

constexpr std::size_t kGlobalHeader = 24;
constexpr std::size_t kRecordHeader = 16;

/// Offset of record `i` in three_record_pcap().
std::size_t record_offset(std::size_t i) {
  std::size_t off = kGlobalHeader;
  for (std::size_t r = 0; r < i; ++r) off += kRecordHeader + 40 + 10 * r;
  return off;
}

void expect_tolerant_prefix(std::span<const std::uint8_t> bytes, std::size_t packets,
                            const std::string& warning) {
  auto read = walk(bytes);
  ASSERT_TRUE(read.ok()) << read.error().str();
  EXPECT_TRUE(read->truncated_tail);
  EXPECT_EQ(read->warning, warning);
  ASSERT_EQ(read->frames.size(), packets);
  for (std::size_t i = 0; i < packets; ++i) {
    EXPECT_EQ(read->frames[i].data.size(), 40 + 10 * i);
    EXPECT_EQ(read->frames[i].original_length, 43 + 10 * i);
  }
}

TEST(Pcap, RecordHeaderCutAtEachByteKeepsPrefixAndWarning) {
  for (bool swapped : {false, true}) {
    const auto full = three_record_pcap(swapped);
    for (std::size_t cut = 1; cut < kRecordHeader; ++cut) {
      SCOPED_TRACE("swapped " + std::to_string(swapped) + " cut " + std::to_string(cut));
      std::span<const std::uint8_t> bytes(full.data(), record_offset(2) + cut);
      expect_tolerant_prefix(bytes, 2, "pcap record header cut short after 2 packets");
    }
  }
}

TEST(Pcap, RecordBodyCutShortKeepsPrefixAndWarning) {
  for (bool swapped : {false, true}) {
    const auto full = three_record_pcap(swapped);
    const std::size_t body = record_offset(1) + kRecordHeader;
    for (std::size_t cut = 0; cut < 50; ++cut) {
      SCOPED_TRACE("swapped " + std::to_string(swapped) + " cut " + std::to_string(cut));
      std::span<const std::uint8_t> bytes(full.data(), body + cut);
      expect_tolerant_prefix(bytes, 1, "pcap record body cut short after 1 packets");
    }
  }
}

TEST(Pcap, ByteSwappedFileWalksLikeNative) {
  const auto native = three_record_pcap(false);
  const auto swapped = three_record_pcap(true);
  ASSERT_EQ(native.size(), swapped.size());
  auto a = PcapCursor::open(native);
  auto b = PcapCursor::open(swapped);
  ASSERT_TRUE(a.ok() && b.ok());
  FrameView va, vb;
  std::size_t records = 0;
  while (a->next(va)) {
    ASSERT_TRUE(b->next(vb));
    EXPECT_EQ(va.ts, make_timestamp(1600000000 + records, 1000 * records + 7));
    EXPECT_EQ(va.ts, vb.ts);
    EXPECT_EQ(va.original_length, vb.original_length);
    EXPECT_TRUE(std::equal(va.data.begin(), va.data.end(), vb.data.begin(), vb.data.end()));
    EXPECT_EQ(a->offset(), b->offset());
    ++records;
  }
  EXPECT_FALSE(b->next(vb));
  EXPECT_EQ(records, 3u);
  EXPECT_FALSE(a->truncated_tail());
  EXPECT_FALSE(b->truncated_tail());
  EXPECT_TRUE(b->warning().empty());
}

TEST(Pcap, TolerantFileReadMatchesBufferReadOnCutFiles) {
  const auto full = three_record_pcap(true);
  const std::string path = temp_path("uncharted_pcap_cut_file.pcap");
  for (std::size_t len : {full.size(), record_offset(2) + 5, record_offset(1) + kRecordHeader + 9,
                          kGlobalHeader, std::size_t{10}, std::size_t{0}}) {
    SCOPED_TRACE("length " + std::to_string(len));
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(full.data(), 1, len, f), len);
    std::fclose(f);
    auto from_file = walk_file(path);
    auto from_buffer = walk(std::span<const std::uint8_t>(full.data(), len));
    ASSERT_EQ(from_file.ok(), from_buffer.ok());
    if (!from_file.ok()) {
      EXPECT_EQ(from_file.error().str(), from_buffer.error().str());
      continue;
    }
    EXPECT_EQ(from_file->truncated_tail, from_buffer->truncated_tail);
    EXPECT_EQ(from_file->warning, from_buffer->warning);
    ASSERT_EQ(from_file->frames.size(), from_buffer->frames.size());
    for (std::size_t i = 0; i < from_file->frames.size(); ++i) {
      EXPECT_EQ(from_file->frames[i].ts, from_buffer->frames[i].ts);
      EXPECT_EQ(bytes_of(from_file->frames[i]), bytes_of(from_buffer->frames[i]));
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace uncharted::net
