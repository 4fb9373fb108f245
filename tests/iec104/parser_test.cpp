#include "iec104/parser.hpp"

#include <gtest/gtest.h>

namespace uncharted::iec104 {
namespace {

Asdu float_asdu(std::uint16_t ca, std::uint32_t ioa, float value) {
  Asdu asdu;
  asdu.type = TypeId::M_ME_NC_1;
  asdu.cot.cause = Cause::kSpontaneous;
  asdu.common_address = ca;
  asdu.objects.push_back({ioa, ShortFloat{value, Quality{}}, std::nullopt});
  return asdu;
}

std::vector<std::uint8_t> encode_with(const Asdu& asdu, const CodecProfile& profile,
                                      std::uint16_t send_seq = 0) {
  return Apdu::make_i(send_seq, 0, asdu).encode(profile).take();
}

TEST(StreamParser, ParsesBackToBackApdus) {
  ApduStreamParser parser;
  auto a = Apdu::make_u(UFunction::kTestFrAct).encode().take();
  auto b = Apdu::make_s(5).encode().take();
  auto c = encode_with(float_asdu(1, 100, 2.5f), CodecProfile::standard());
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  stream.insert(stream.end(), c.begin(), c.end());

  parser.feed(1000, stream);
  ASSERT_EQ(parser.apdus().size(), 3u);
  EXPECT_EQ(parser.apdus()[0].token(), "U16");
  EXPECT_EQ(parser.apdus()[1].token(), "S");
  EXPECT_EQ(parser.apdus()[2].token(), "I_13");
  EXPECT_TRUE(parser.apdus()[2].compliant);
  EXPECT_TRUE(parser.failures().empty());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

TEST(StreamParser, ReassemblesAcrossFeedBoundaries) {
  ApduStreamParser parser;
  auto frame = encode_with(float_asdu(2, 200, 7.5f), CodecProfile::standard());
  // Feed one byte at a time — APDUs must still come out whole.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    parser.feed(static_cast<Timestamp>(i),
                std::span<const std::uint8_t>(&frame[i], 1));
  }
  ASSERT_EQ(parser.apdus().size(), 1u);
  EXPECT_EQ(parser.apdus()[0].token(), "I_13");
}

TEST(StreamParser, ResynchronizesAfterGarbage) {
  ApduStreamParser parser;
  std::vector<std::uint8_t> stream = {0xde, 0xad, 0xbe, 0xef};  // no start byte
  auto good = Apdu::make_u(UFunction::kTestFrCon).encode().take();
  stream.insert(stream.end(), good.begin(), good.end());
  parser.feed(0, stream);
  ASSERT_EQ(parser.apdus().size(), 1u);
  EXPECT_EQ(parser.apdus()[0].token(), "U32");
  ASSERT_EQ(parser.failures().size(), 1u);
  EXPECT_EQ(parser.failures()[0].error, "bad-start-byte");
  EXPECT_EQ(parser.failures()[0].raw.size(), 4u);
  EXPECT_EQ(parser.failures()[0].kind, FailureKind::kGarbage);
  EXPECT_EQ(parser.resyncs(), 1u);
  EXPECT_EQ(parser.garbage_bytes(), 4u);
}

TEST(StreamParser, TaxonomySeparatesGarbageFromUndecodableFromTail) {
  ApduStreamParser parser;
  auto good = Apdu::make_u(UFunction::kTestFrAct).encode().take();

  std::vector<std::uint8_t> stream;
  // (1) garbage before the first frame — a desync the parser hunts past;
  stream.insert(stream.end(), {0x01, 0x02, 0x03});
  stream.insert(stream.end(), good.begin(), good.end());
  // (2) a well-framed APDU whose control field no profile explains;
  stream.insert(stream.end(), {0x68, 0x04, 0x03, 0x00, 0x00, 0x00});
  stream.insert(stream.end(), good.begin(), good.end());
  // (3) a frame cut off by the end of the stream.
  stream.insert(stream.end(), {0x68, 0x0e, 0x00, 0x00});
  parser.feed(7, stream);
  parser.finish(9);

  EXPECT_EQ(parser.apdus().size(), 2u);
  ASSERT_EQ(parser.failures().size(), 3u);
  EXPECT_EQ(parser.failures()[0].kind, FailureKind::kGarbage);
  EXPECT_EQ(parser.failures()[1].kind, FailureKind::kUndecodable);
  EXPECT_EQ(parser.failures()[2].kind, FailureKind::kTruncatedTail);
  EXPECT_EQ(parser.failures()[2].raw.size(), 4u);
  EXPECT_EQ(parser.resyncs(), 1u);
  EXPECT_EQ(parser.garbage_bytes(), 3u);
  EXPECT_EQ(parser.truncated_tail_bytes(), 4u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);  // finish() drained the buffer
  // finish() is idempotent.
  parser.finish(10);
  EXPECT_EQ(parser.failures().size(), 3u);
}

TEST(StreamParser, ResyncBetweenValidApdusAfterInjectedGarbage) {
  ApduStreamParser parser;
  auto frame = encode_with(float_asdu(3, 300, 1.5f), CodecProfile::standard());
  std::vector<std::uint8_t> stream = frame;
  stream.insert(stream.end(), {0xde, 0xad});  // injected mid-stream garbage
  stream.insert(stream.end(), frame.begin(), frame.end());
  parser.feed(0, stream);
  ASSERT_EQ(parser.apdus().size(), 2u);
  EXPECT_EQ(parser.apdus()[1].token(), "I_13");
  EXPECT_EQ(parser.resyncs(), 1u);
  EXPECT_EQ(parser.garbage_bytes(), 2u);
}

TEST(StreamParser, DetectsLegacyCotProfile) {
  // The O53/O58/O28 case: 1-octet cause of transmission.
  ApduStreamParser parser;
  auto frame = encode_with(float_asdu(28, 3801, 131.2f), CodecProfile::legacy_cot());
  parser.feed(0, frame);
  ASSERT_EQ(parser.apdus().size(), 1u);
  const auto& parsed = parser.apdus()[0];
  EXPECT_FALSE(parsed.compliant);
  EXPECT_EQ(parsed.profile(), CodecProfile::legacy_cot());
  EXPECT_EQ(parsed.common_address, 28);
  EXPECT_EQ(parsed.objects()[0].ioa, 3801u);
  EXPECT_FLOAT_EQ(std::get<ShortFloat>(parsed.objects()[0].value).value, 131.2f);
  EXPECT_EQ(parser.non_compliant_count(), 1u);
  ASSERT_TRUE(parser.locked_profile().has_value());
}

TEST(StreamParser, DetectsLegacyIoaProfileDespiteAmbiguity) {
  // The O37 case: 2-octet IOA. The same bytes also parse "exactly" under
  // the 1-octet-COT profile, but with an implausible CA and IOA; the
  // plausibility score must pick the right one.
  for (std::uint16_t send_seq : {0, 3}) {
    ApduStreamParser parser;
    auto frame = encode_with(float_asdu(37, 4701, 59.98f), CodecProfile::legacy_ioa(),
                             send_seq);
    parser.feed(0, frame);
    ASSERT_EQ(parser.apdus().size(), 1u);
    const auto& parsed = parser.apdus()[0];
    EXPECT_FALSE(parsed.compliant);
    EXPECT_EQ(parsed.profile(), CodecProfile::legacy_ioa());
    EXPECT_EQ(parsed.send_seq, send_seq);
    EXPECT_EQ(parsed.common_address, 37);
    EXPECT_EQ(parsed.objects()[0].ioa, 4701u);
  }
}

TEST(StreamParser, StandardPreferredWhenItParses) {
  ApduStreamParser parser;
  for (int i = 0; i < 20; ++i) {
    auto frame = encode_with(float_asdu(5, 1000 + static_cast<std::uint32_t>(i),
                                        60.0f + static_cast<float>(i)),
                             CodecProfile::standard());
    parser.feed(static_cast<Timestamp>(i), frame);
  }
  EXPECT_EQ(parser.non_compliant_count(), 0u);
  EXPECT_FALSE(parser.locked_profile().has_value());
  for (const auto& parsed : parser.apdus()) EXPECT_TRUE(parsed.compliant);
}

TEST(StreamParser, StrictModeFailsOnLegacyTraffic) {
  for (const CodecProfile& profile : {CodecProfile::legacy_ioa(), CodecProfile::legacy_cot()}) {
    ApduStreamParser parser(ApduStreamParser::Mode::kStrict);
    auto frame = encode_with(float_asdu(37, 4701, 59.98f), profile);
    parser.feed(0, frame);
    // Depending on byte layout the strict parse either fails outright or is
    // rejected by exactness; either way nothing compliant comes out.
    EXPECT_TRUE(parser.apdus().empty()) << profile.str();
    EXPECT_EQ(parser.failures().size(), 1u) << profile.str();
  }
}

TEST(StreamParser, LockedProfileStaysSticky) {
  ApduStreamParser parser;
  for (int i = 0; i < 50; ++i) {
    auto frame = encode_with(float_asdu(53, 5300 + static_cast<std::uint32_t>(i),
                                        0.5f + static_cast<float>(i)),
                             CodecProfile::legacy_cot());
    parser.feed(static_cast<Timestamp>(i), frame);
  }
  EXPECT_EQ(parser.non_compliant_count(), 50u);
  EXPECT_EQ(*parser.locked_profile(), CodecProfile::legacy_cot());
  for (const auto& parsed : parser.apdus()) {
    EXPECT_EQ(parsed.common_address, 53);
  }
}

TEST(StreamParser, SAndUFramesAreAlwaysCompliant) {
  ApduStreamParser parser;
  parser.feed(0, Apdu::make_u(UFunction::kStartDtAct).encode().take());
  parser.feed(1, Apdu::make_s(3).encode().take());
  EXPECT_EQ(parser.non_compliant_count(), 0u);
  for (const auto& parsed : parser.apdus()) EXPECT_TRUE(parsed.compliant);
}

TEST(DetectProfiles, ReportsAllExactMatches) {
  auto standard = encode_with(float_asdu(1, 100, 50.0f), CodecProfile::standard());
  auto matches = detect_profiles(standard);
  ASSERT_FALSE(matches.empty());
  EXPECT_TRUE(matches.front().is_standard());

  auto legacy = encode_with(float_asdu(37, 4701, 50.0f), CodecProfile::legacy_ioa());
  auto legacy_matches = detect_profiles(legacy);
  bool found = false;
  for (const auto& m : legacy_matches) {
    if (m == CodecProfile::legacy_ioa()) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Plausibility, PenalizesGarbageDecodes) {
  Asdu plausible = float_asdu(37, 4701, 59.98f);
  Asdu garbage = float_asdu(9472, 1203456, 59.98f);
  garbage.cot.cause = static_cast<Cause>(0x3f);
  EXPECT_GT(asdu_plausibility(plausible, CodecProfile::standard()),
            asdu_plausibility(garbage, CodecProfile::standard()));
}

TEST(StreamParser, UndecodableFrameRecorded) {
  ApduStreamParser parser;
  // Valid framing (0x68 + length) but nonsense I-format body.
  std::vector<std::uint8_t> frame = {0x68, 0x08, 0x00, 0x00, 0x00, 0x00,
                                     0xff, 0xff, 0xff, 0xff};
  parser.feed(0, frame);
  EXPECT_TRUE(parser.apdus().empty());
  ASSERT_EQ(parser.failures().size(), 1u);
  EXPECT_EQ(parser.failures()[0].error, "undecodable-apdu");
  EXPECT_EQ(parser.failures()[0].raw.size(), frame.size());
}

}  // namespace
}  // namespace uncharted::iec104
