// Tapstream wire protocol: exact sizes, round trips, and rejection of
// every malformed header shape a hostile or corrupted peer can send.
#include "netd/wire.hpp"

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

namespace uncharted::netd::wire {
namespace {

TEST(Wire, HelloRoundTripsAndMatchesDeclaredSize) {
  Hello h;
  h.kind = HelloKind::kData;
  h.stream_id = 0x1122334455667788ULL;
  h.total_frames = 42;
  ByteWriter w;
  encode_hello(w, h);
  ASSERT_EQ(w.view().size(), kHelloSize);

  ByteReader r(w.view());
  auto back = decode_hello(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, HelloKind::kData);
  EXPECT_EQ(back->stream_id, h.stream_id);
  EXPECT_EQ(back->total_frames, 42u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, QueryHelloRoundTrips) {
  Hello h;
  h.kind = HelloKind::kQuery;
  ByteWriter w;
  encode_hello(w, h);
  ByteReader r(w.view());
  auto back = decode_hello(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, HelloKind::kQuery);
}

TEST(Wire, HelloWrongMagicRejected) {
  Hello h;
  ByteWriter w;
  encode_hello(w, h);
  auto bytes = std::vector<std::uint8_t>(w.view().begin(), w.view().end());
  bytes[0] ^= 0xFF;
  ByteReader r(bytes);
  EXPECT_FALSE(decode_hello(r).ok());
}

TEST(Wire, HelloWrongVersionRejected) {
  Hello h;
  ByteWriter w;
  encode_hello(w, h);
  auto bytes = std::vector<std::uint8_t>(w.view().begin(), w.view().end());
  bytes[4] = 0x7F;  // version little-endian low byte
  ByteReader r(bytes);
  EXPECT_FALSE(decode_hello(r).ok());
}

TEST(Wire, VersionOneHelloRefused) {
  // Version 1 had no progress marker; its clients are refused at hello
  // rather than evicted mid-stream.
  Hello h;
  ByteWriter w;
  encode_hello(w, h);
  auto bytes = std::vector<std::uint8_t>(w.view().begin(), w.view().end());
  bytes[4] = 1;
  bytes[5] = 0;
  ByteReader r(bytes);
  auto back = decode_hello(r);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code, "wire-version");
}

TEST(Wire, HelloUnknownKindRejected) {
  Hello h;
  ByteWriter w;
  encode_hello(w, h);
  auto bytes = std::vector<std::uint8_t>(w.view().begin(), w.view().end());
  bytes[6] = 9;  // kind byte
  ByteReader r(bytes);
  EXPECT_FALSE(decode_hello(r).ok());
}

TEST(Wire, HelloAckRoundTripsAllStatuses) {
  for (AckStatus status :
       {AckStatus::kAccepted, AckStatus::kBusy, AckStatus::kFinished}) {
    HelloAck ack;
    ack.status = status;
    ack.resume_cursor = 777;
    ByteWriter w;
    encode_hello_ack(w, ack);
    ASSERT_EQ(w.view().size(), kHelloAckSize);
    ByteReader r(w.view());
    auto back = decode_hello_ack(r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->status, status);
    EXPECT_EQ(back->resume_cursor, 777u);
  }
}

TEST(Wire, RecordHeaderRoundTrips) {
  RecordHeader rh;
  rh.ts = 123'456'789;
  rh.original_length = 1500;
  rh.cap_len = 98;
  ByteWriter w;
  encode_record_header(w, rh);
  ASSERT_EQ(w.view().size(), kRecordHeaderSize);
  ByteReader r(w.view());
  auto back = decode_record_header(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ts, rh.ts);
  EXPECT_EQ(back->original_length, 1500u);
  EXPECT_EQ(back->cap_len, 98u);
}

TEST(Wire, RecordHeaderOversizedCapLenRejected) {
  RecordHeader rh;
  rh.cap_len = kMaxFrameBytes + 1;
  ByteWriter w;
  encode_record_header(w, rh);
  ByteReader r(w.view());
  EXPECT_FALSE(decode_record_header(r).ok());
}

TEST(Wire, FinAndFinAckRoundTrip) {
  ByteWriter w;
  encode_fin(w, 1000);
  ASSERT_EQ(w.view().size(), kFinSize);
  ByteReader r(w.view());
  auto total = decode_fin(r);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(*total, 1000u);

  ByteWriter w2;
  encode_fin_ack(w2, 1000);
  ASSERT_EQ(w2.view().size(), kFinAckSize);
  ByteReader r2(w2.view());
  auto back = decode_fin_ack(r2);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, 1000u);
}

TEST(Wire, ProgressRoundTrips) {
  ByteWriter w;
  encode_progress(w, 0x0102030405060708ULL);
  ASSERT_EQ(w.view().size(), kProgressSize);
  EXPECT_EQ(w.view()[0], static_cast<std::uint8_t>(Marker::kProgress));
  ByteReader r(w.view());
  auto ts = decode_progress(r);
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(*ts, 0x0102030405060708ULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Wire, TruncatedProgressRejected) {
  ByteWriter w;
  encode_progress(w, 99);
  ByteReader r(w.view().first(kProgressSize - 1));
  auto ts = decode_progress(r);
  ASSERT_FALSE(ts.ok());
  EXPECT_EQ(ts.error().code, "wire-truncated");
}

TEST(Wire, MarkersAreNotInterchangeable) {
  ByteWriter fin;
  encode_fin(fin, 5);
  ByteWriter fin_ack;
  encode_fin_ack(fin_ack, 5);
  ByteWriter progress;
  encode_progress(progress, 5);
  // Same {marker, u64} shape, so only the marker tells them apart.
  using Decode = Result<std::uint64_t> (*)(ByteReader&);
  const std::vector<std::pair<std::span<const std::uint8_t>, Decode>> mismatched = {
      {fin.view(), &decode_fin_ack},      {fin.view(), &decode_progress},
      {fin_ack.view(), &decode_fin},      {fin_ack.view(), &decode_progress},
      {progress.view(), &decode_fin},     {progress.view(), &decode_fin_ack},
  };
  for (const auto& [bytes, decode] : mismatched) {
    ByteReader r(bytes);
    auto back = decode(r);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.error().code, "wire-marker");
  }
  ByteReader r(progress.view());
  EXPECT_FALSE(decode_record_header(r).ok());
}

TEST(Wire, QueryReplyHeaderShape) {
  ByteWriter w;
  encode_query_reply_header(w, AckStatus::kAccepted, 1234);
  EXPECT_EQ(w.view().size(), kQueryReplyHeaderSize);
}

}  // namespace
}  // namespace uncharted::netd::wire
