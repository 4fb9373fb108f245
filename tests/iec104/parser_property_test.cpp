// Property tests for the stream parser:
//   1. chunking-invariance: any segmentation of an APDU stream yields the
//      same parse as feeding it whole;
//   2. round-trip: random APDU sequences (random formats, types, profiles)
//      survive encode -> stream-parse;
//   3. robustness: random garbage never crashes and never produces
//      phantom compliant I-APDUs.
#include <gtest/gtest.h>

#include "iec104/parser.hpp"
#include "util/rng.hpp"

namespace uncharted::iec104 {
namespace {

/// Random APDU generator over a plausibility-safe subset.
class RandomApduSource {
 public:
  explicit RandomApduSource(std::uint64_t seed) : rng_(seed) {}

  Apdu next(const CodecProfile& profile) {
    double pick = rng_.uniform();
    if (pick < 0.15) return Apdu::make_s(static_cast<std::uint16_t>(rng_.below(32768)));
    if (pick < 0.3) {
      static const UFunction kFns[] = {UFunction::kStartDtAct, UFunction::kStartDtCon,
                                       UFunction::kStopDtAct, UFunction::kStopDtCon,
                                       UFunction::kTestFrAct, UFunction::kTestFrCon};
      return Apdu::make_u(kFns[rng_.below(6)]);
    }
    Asdu asdu;
    asdu.common_address = static_cast<std::uint16_t>(1 + rng_.below(120));
    asdu.cot.cause = rng_.chance(0.5) ? Cause::kSpontaneous : Cause::kPeriodic;
    int objects = static_cast<int>(1 + rng_.below(4));
    double tpick = rng_.uniform();
    for (int i = 0; i < objects; ++i) {
      InformationObject obj;
      // Legacy-profile frames are length-ambiguous with each other, so
      // plausibility must break the tie; keep addresses in the realistic
      // range (devices retaining IEC 101 options have small IOA spaces).
      std::uint32_t ioa_limit = profile.is_standard() ? 1'000'000u : 65'000u;
      obj.ioa = static_cast<std::uint32_t>(1 + rng_.below(ioa_limit));
      if (tpick < 0.5) {
        asdu.type = TypeId::M_ME_NC_1;
        obj.value = ShortFloat{static_cast<float>(rng_.uniform(-500.0, 500.0)), {}};
      } else if (tpick < 0.75) {
        asdu.type = TypeId::M_ME_TF_1;
        obj.value = ShortFloat{static_cast<float>(rng_.uniform(0.0, 200.0)), {}};
        obj.time = Cp56Time2a::from_timestamp(1560556800ULL * 1'000'000 +
                                              rng_.below(86'400'000'000ULL));
      } else if (tpick < 0.9) {
        asdu.type = TypeId::M_DP_NA_1;
        obj.value = DoublePoint{static_cast<std::uint8_t>(rng_.below(3)), {}};
      } else {
        asdu.type = TypeId::M_ME_NB_1;
        obj.value = ScaledValue{static_cast<std::int16_t>(rng_.range(-3000, 3000)), {}};
      }
      asdu.objects.push_back(std::move(obj));
    }
    return Apdu::make_i(static_cast<std::uint16_t>(rng_.below(32768)),
                        static_cast<std::uint16_t>(rng_.below(32768)), std::move(asdu));
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

std::vector<std::string> parse_tokens(std::span<const std::uint8_t> stream,
                                      std::size_t max_chunk, Rng& rng) {
  ApduStreamParser parser;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    std::size_t n = std::min<std::size_t>(1 + rng.below(max_chunk), stream.size() - pos);
    parser.feed(static_cast<Timestamp>(pos), stream.subspan(pos, n));
    pos += n;
  }
  std::vector<std::string> tokens;
  for (const auto& parsed : parser.apdus()) tokens.push_back(parsed.token());
  EXPECT_TRUE(parser.failures().empty());
  EXPECT_EQ(parser.buffered_bytes(), 0u);
  return tokens;
}

class ChunkingInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChunkingInvariance, AnySegmentationYieldsSameTokens) {
  RandomApduSource source(GetParam());
  CodecProfile profile = GetParam() % 3 == 0   ? CodecProfile::legacy_cot()
                         : GetParam() % 3 == 1 ? CodecProfile::legacy_ioa()
                                               : CodecProfile::standard();
  std::vector<std::uint8_t> stream;
  std::vector<std::string> expected;
  for (int i = 0; i < 60; ++i) {
    Apdu apdu = source.next(profile);
    expected.push_back(apdu.token());
    auto bytes = apdu.encode(profile);
    ASSERT_TRUE(bytes.ok()) << bytes.error().str();
    stream.insert(stream.end(), bytes->begin(), bytes->end());
  }

  auto whole = parse_tokens(stream, stream.size(), source.rng());
  EXPECT_EQ(whole, expected);
  for (std::size_t max_chunk : {1u, 3u, 7u, 64u}) {
    auto chunked = parse_tokens(stream, max_chunk, source.rng());
    EXPECT_EQ(chunked, expected) << "max_chunk=" << max_chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkingInvariance,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

TEST(ParserRobustness, RandomGarbageNeverCrashes) {
  Rng rng(999);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> garbage(rng.below(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    ApduStreamParser parser;
    parser.feed(0, garbage);
    // Whatever was "parsed" from noise must at least be internally
    // consistent: every parsed I-APDU carries its VSQ's objects.
    for (const auto& parsed : parser.apdus()) {
      if (parsed.is_i()) {
        EXPECT_GT(parsed.object_count(), 0u);
        EXPECT_NE(parsed.object_data, nullptr);
      }
    }
  }
}

TEST(ParserRobustness, TruncatedTailStaysBuffered) {
  RandomApduSource source(77);
  auto apdu = source.next(CodecProfile::standard());
  auto bytes = apdu.encode().take();
  ApduStreamParser parser;
  parser.feed(0, std::span<const std::uint8_t>(bytes).subspan(0, bytes.size() - 1));
  EXPECT_TRUE(parser.apdus().empty());
  EXPECT_EQ(parser.buffered_bytes(), bytes.size() - 1);
  parser.feed(1, std::span<const std::uint8_t>(bytes).subspan(bytes.size() - 1));
  EXPECT_EQ(parser.apdus().size(), 1u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

// Round-trip across every profile: the parsed ASDU equals the encoded one.
class ProfileRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ProfileRoundTrip, ParsedAsduMatches) {
  CodecProfile profile = candidate_profiles()[static_cast<std::size_t>(GetParam())];
  RandomApduSource source(42 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 100; ++i) {
    Apdu apdu = source.next(profile);
    if (apdu.format != ApduFormat::kI) continue;
    auto bytes = apdu.encode(profile);
    ASSERT_TRUE(bytes.ok());
    ApduStreamParser parser;
    parser.feed(0, bytes.value());
    ASSERT_EQ(parser.apdus().size(), 1u);
    const auto& parsed = parser.apdus()[0];
    ASSERT_TRUE(parsed.is_i());
    EXPECT_EQ(parsed.type, apdu.asdu->type);
    EXPECT_EQ(parsed.common_address, apdu.asdu->common_address);
    ASSERT_EQ(parsed.object_count(), apdu.asdu->objects.size());
    for (std::size_t k = 0; k < apdu.asdu->objects.size(); ++k) {
      EXPECT_EQ(parsed.objects()[k].ioa, apdu.asdu->objects[k].ioa);
      EXPECT_EQ(parsed.objects()[k].value, apdu.asdu->objects[k].value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfileRoundTrip, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace uncharted::iec104
