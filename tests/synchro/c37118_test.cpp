#include "synchro/c37118.hpp"

#include <gtest/gtest.h>

namespace uncharted::synchro {
namespace {

ConfigFrame sample_config(bool floats = false) {
  ConfigFrame cfg;
  cfg.header.idcode = 101;
  cfg.header.soc = 1560556800;
  cfg.time_base = 1'000'000;
  cfg.data_rate = 30;
  PmuConfig pmu;
  pmu.station_name = "PMU_EAST";
  pmu.idcode = 101;
  pmu.phasors_float = floats;
  pmu.freq_float = floats;
  pmu.analogs_float = floats;
  pmu.phasor_names = {"VA", "VB", "I1"};
  pmu.phasor_units = {915527, 915527, 45776};
  pmu.analog_names = {"MW"};
  pmu.nominal_freq_code = 0;
  cfg.pmus.push_back(pmu);
  return cfg;
}

DataFrame sample_data() {
  DataFrame frame;
  frame.header.idcode = 101;
  frame.header.soc = 1560556801;
  frame.header.fracsec = 500'000;
  PmuData data;
  data.stat = 0;
  data.phasors = {{76200.0, 0.0}, {-38100.0, -65900.0}, {405.0, -30.0}};
  data.freq_deviation_mhz = -12.0;
  data.rocof = 0.05;
  data.analogs = {142.0};
  frame.pmus.push_back(data);
  return frame;
}

TEST(CrcCcitt, KnownVectors) {
  // CRC-CCITT (false) of "123456789" is 0x29B1.
  const char* msg = "123456789";
  EXPECT_EQ(crc_ccitt(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(msg), 9)),
            0x29b1);
  EXPECT_EQ(crc_ccitt({}), 0xffff);
}

TEST(C37118, ConfigFrameRoundTrip) {
  auto cfg = sample_config();
  auto bytes = encode_config(cfg);
  auto header = peek_header(bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kConfig2);
  EXPECT_EQ(header->frame_size, bytes.size());
  EXPECT_EQ(header->idcode, 101);

  auto frame = decode_frame(bytes);
  ASSERT_TRUE(frame.ok()) << frame.error().str();
  const auto& back = std::get<ConfigFrame>(frame.value());
  EXPECT_EQ(back.time_base, 1'000'000u);
  EXPECT_EQ(back.data_rate, 30);
  ASSERT_EQ(back.pmus.size(), 1u);
  EXPECT_EQ(back.pmus[0].station_name, "PMU_EAST");
  EXPECT_EQ(back.pmus[0].phasor_names,
            (std::vector<std::string>{"VA", "VB", "I1"}));
  EXPECT_EQ(back.pmus[0].phasor_units[2], 45776u);
  EXPECT_EQ(back.pmus[0].nominal_freq_code, 0);
}

TEST(C37118, IntegerDataFrameRoundTrip) {
  auto cfg = sample_config(false);
  auto data = sample_data();
  auto bytes = encode_data(cfg, data);
  auto frame = decode_frame(bytes, &cfg);
  ASSERT_TRUE(frame.ok()) << frame.error().str();
  const auto& back = std::get<DataFrame>(frame.value());
  ASSERT_EQ(back.pmus.size(), 1u);
  const auto& pmu = back.pmus[0];
  ASSERT_EQ(pmu.phasors.size(), 3u);
  // Integer format quantizes by PHUNIT * 1e-5 V per count (~9.16 V).
  EXPECT_NEAR(pmu.phasors[0].real(), 76200.0, 10.0);
  EXPECT_NEAR(pmu.phasors[1].imag(), -65900.0, 10.0);
  EXPECT_NEAR(pmu.phasors[2].real(), 405.0, 0.5);
  EXPECT_EQ(pmu.freq_deviation_mhz, -12.0);
  EXPECT_NEAR(pmu.rocof, 0.05, 1e-9);
  ASSERT_EQ(pmu.analogs.size(), 1u);
  EXPECT_EQ(pmu.analogs[0], 142.0);
}

TEST(C37118, FloatDataFrameRoundTripExact) {
  auto cfg = sample_config(true);
  auto data = sample_data();
  auto bytes = encode_data(cfg, data);
  auto frame = decode_frame(bytes, &cfg);
  ASSERT_TRUE(frame.ok()) << frame.error().str();
  const auto& pmu = std::get<DataFrame>(frame.value()).pmus[0];
  EXPECT_FLOAT_EQ(static_cast<float>(pmu.phasors[0].real()), 76200.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(pmu.phasors[1].imag()), -65900.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(pmu.freq_deviation_mhz), -12.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(pmu.analogs[0]), 142.0f);
}

TEST(C37118, DataFrameNeedsConfig) {
  auto cfg = sample_config();
  auto bytes = encode_data(cfg, sample_data());
  auto frame = decode_frame(bytes, nullptr);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, "missing-config");
}

TEST(C37118, CommandAndHeaderFrames) {
  CommandFrame cmd;
  cmd.header.idcode = 101;
  cmd.command = Command::kTurnOnTransmission;
  auto bytes = encode_command(cmd);
  auto frame = decode_frame(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(std::get<CommandFrame>(frame.value()).command,
            Command::kTurnOnTransmission);

  // A header frame, built from the command frame's common fields: the
  // type nibble becomes kHeader, the command word becomes the info text,
  // and FRAMESIZE and CHK are recomputed.
  const std::string info = "PMU east bus, firmware 2.1";
  std::vector<std::uint8_t> hbytes(bytes.begin(), bytes.end() - 4);
  hbytes[1] = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(FrameType::kHeader) << 4) | (hbytes[1] & 0x0f));
  hbytes.insert(hbytes.end(), info.begin(), info.end());
  const auto size = static_cast<std::uint16_t>(hbytes.size() + 2);
  hbytes[2] = static_cast<std::uint8_t>(size >> 8);
  hbytes[3] = static_cast<std::uint8_t>(size & 0xff);
  const std::uint16_t crc = crc_ccitt(hbytes);
  hbytes.push_back(static_cast<std::uint8_t>(crc >> 8));
  hbytes.push_back(static_cast<std::uint8_t>(crc & 0xff));
  auto hframe = decode_frame(hbytes);
  ASSERT_TRUE(hframe.ok()) << hframe.error().str();
  EXPECT_EQ(std::get<HeaderFrame>(hframe.value()).header.idcode, 101);
  EXPECT_EQ(std::get<HeaderFrame>(hframe.value()).info, info);
}

TEST(C37118, CrcCorruptionRejected) {
  auto bytes = encode_command(CommandFrame{});
  bytes[6] ^= 0xff;
  auto frame = decode_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, "bad-crc");
}

TEST(C37118, SizeMismatchRejected) {
  auto bytes = encode_command(CommandFrame{});
  bytes.push_back(0x00);
  auto frame = decode_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, "size-mismatch");
}

TEST(C37118, SplitStreamFindsWholeFrames) {
  auto cfg = sample_config();
  auto a = encode_config(cfg);
  auto b = encode_data(cfg, sample_data());
  auto c = encode_command(CommandFrame{});
  std::vector<std::uint8_t> stream;
  for (const auto& f : {a, b, c}) stream.insert(stream.end(), f.begin(), f.end());
  // Append half of another frame.
  stream.insert(stream.end(), b.begin(), b.begin() + 10);

  auto split = split_stream(stream);
  ASSERT_EQ(split.frames.size(), 3u);
  EXPECT_EQ(split.frames[0], a);
  EXPECT_EQ(split.frames[1], b);
  EXPECT_EQ(split.frames[2], c);
  EXPECT_EQ(split.consumed, a.size() + b.size() + c.size());
}

TEST(C37118, BadSyncRejected) {
  std::uint8_t junk[20] = {0x00};
  auto header = peek_header(junk);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.error().code, "bad-sync");
}

}  // namespace
}  // namespace uncharted::synchro
