#include "iec104/apdu.hpp"

#include <gtest/gtest.h>

namespace uncharted::iec104 {
namespace {

Asdu tiny_asdu() {
  Asdu asdu;
  asdu.type = TypeId::M_ME_NC_1;
  asdu.cot.cause = Cause::kSpontaneous;
  asdu.common_address = 12;
  asdu.objects.push_back({100, ShortFloat{1.5f, Quality{}}, std::nullopt});
  return asdu;
}

TEST(Apdu, UFormatWireFormat) {
  auto bytes = Apdu::make_u(UFunction::kTestFrAct).encode();
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->size(), 6u);
  EXPECT_EQ((*bytes)[0], 0x68);
  EXPECT_EQ((*bytes)[1], 0x04);
  EXPECT_EQ((*bytes)[2], 0x43);  // TESTFR act | 0x03
  EXPECT_EQ((*bytes)[3], 0x00);

  auto start = Apdu::make_u(UFunction::kStartDtAct).encode();
  EXPECT_EQ((*start)[2], 0x07);
  auto startcon = Apdu::make_u(UFunction::kStartDtCon).encode();
  EXPECT_EQ((*startcon)[2], 0x0b);
  auto testcon = Apdu::make_u(UFunction::kTestFrCon).encode();
  EXPECT_EQ((*testcon)[2], 0x83);
}

TEST(Apdu, SFormatSequenceNumber) {
  auto bytes = Apdu::make_s(1234).encode();
  ASSERT_TRUE(bytes.ok());
  ASSERT_EQ(bytes->size(), 6u);
  EXPECT_EQ((*bytes)[2], 0x01);
  ByteReader r(*bytes);
  auto back = decode_apdu_layered(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->format, ApduFormat::kS);
  EXPECT_EQ(back->recv_seq, 1234);
}

TEST(Apdu, IFormatRoundTripWithSequenceNumbers) {
  Apdu apdu = Apdu::make_i(32767, 12345, tiny_asdu());
  auto bytes = apdu.encode();
  ASSERT_TRUE(bytes.ok());
  ByteReader r(*bytes);
  auto back = decode_apdu_layered(r);
  ASSERT_TRUE(back.ok()) << back.error().str();
  EXPECT_EQ(back->format, ApduFormat::kI);
  EXPECT_EQ(back->send_seq, 32767);
  EXPECT_EQ(back->recv_seq, 12345);
  ASSERT_TRUE(back->asdu.has_value());
  EXPECT_EQ(back->asdu->common_address, 12);
  EXPECT_TRUE(r.empty());
}

TEST(Apdu, SequenceNumbersWrapModulo32768) {
  Apdu apdu = Apdu::make_i(32768, 32769, tiny_asdu());
  EXPECT_EQ(apdu.send_seq, 0);
  EXPECT_EQ(apdu.recv_seq, 1);
}

TEST(Apdu, Tokens) {
  EXPECT_EQ(Apdu::make_s(0).token(), "S");
  EXPECT_EQ(Apdu::make_u(UFunction::kStartDtAct).token(), "U1");
  EXPECT_EQ(Apdu::make_u(UFunction::kStartDtCon).token(), "U2");
  EXPECT_EQ(Apdu::make_u(UFunction::kStopDtAct).token(), "U4");
  EXPECT_EQ(Apdu::make_u(UFunction::kStopDtCon).token(), "U8");
  EXPECT_EQ(Apdu::make_u(UFunction::kTestFrAct).token(), "U16");
  EXPECT_EQ(Apdu::make_u(UFunction::kTestFrCon).token(), "U32");
  EXPECT_EQ(Apdu::make_i(0, 0, tiny_asdu()).token(), "I_13");

  Asdu gi;
  gi.type = TypeId::C_IC_NA_1;
  gi.common_address = 1;
  gi.objects.push_back({0, InterrogationCommand{20}, std::nullopt});
  EXPECT_EQ(Apdu::make_i(0, 0, gi).token(), "I_100");
}

TEST(Apdu, RejectsBadStartByte) {
  std::uint8_t bytes[] = {0x67, 0x04, 0x43, 0x00, 0x00, 0x00};
  ByteReader r(bytes);
  auto res = decode_apdu_layered(r);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "bad-start-byte");
}

TEST(Apdu, RejectsBadLengths) {
  std::uint8_t too_short[] = {0x68, 0x03, 0x43, 0x00, 0x00};
  ByteReader r1(too_short);
  EXPECT_FALSE(decode_apdu_layered(r1).ok());

  // U frame claiming extra body bytes.
  std::uint8_t bad_u[] = {0x68, 0x06, 0x43, 0x00, 0x00, 0x00, 0xde, 0xad};
  ByteReader r2(bad_u);
  EXPECT_FALSE(decode_apdu_layered(r2).ok());

  // Truncated body.
  std::uint8_t truncated[] = {0x68, 0x0a, 0x43, 0x00};
  ByteReader r3(truncated);
  EXPECT_FALSE(decode_apdu_layered(r3).ok());
}

TEST(Apdu, RejectsUnknownUFunction) {
  std::uint8_t bytes[] = {0x68, 0x04, 0xc3, 0x00, 0x00, 0x00};  // two bits set
  ByteReader r(bytes);
  auto res = decode_apdu_layered(r);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "bad-u-function");
}

TEST(Apdu, IFormatWithoutAsduIsEncodeError) {
  Apdu apdu;
  apdu.format = ApduFormat::kI;
  EXPECT_FALSE(apdu.encode().ok());
}

TEST(Apdu, OversizedAsduRejected) {
  Asdu big;
  big.type = TypeId::M_ME_NC_1;
  big.common_address = 1;
  for (int i = 0; i < 40; ++i) {
    big.objects.push_back(
        {static_cast<std::uint32_t>(i), ShortFloat{0.0f, Quality{}}, std::nullopt});
  }
  // 40 * 8 + 6 = 326 > 249 available.
  auto res = Apdu::make_i(0, 0, big).encode();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.error().code, "apdu-too-long");
}

TEST(Apdu, DecodeConsumesExactlyOneFrame) {
  auto one = Apdu::make_u(UFunction::kTestFrAct).encode().take();
  auto two = Apdu::make_s(9).encode().take();
  std::vector<std::uint8_t> both = one;
  both.insert(both.end(), two.begin(), two.end());
  ByteReader r(both);
  auto first = decode_apdu_layered(r);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->format, ApduFormat::kU);
  auto second = decode_apdu_layered(r);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->format, ApduFormat::kS);
  EXPECT_TRUE(r.empty());
}

}  // namespace
}  // namespace uncharted::iec104
