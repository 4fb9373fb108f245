#include "analysis/classify.hpp"

#include <gtest/gtest.h>

#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

using iec104::Apdu;
using iec104::UFunction;
using testlib::CaptureBuilder;
using testlib::float_asdu;
using testlib::i_apdu;
using testlib::ip;

const auto kC1 = testlib::ip(10, 0, 0, 1);
const auto kC2 = testlib::ip(10, 0, 0, 2);

void add_i_stream(CaptureBuilder& cb, net::Ipv4Addr server, net::Ipv4Addr station,
                  Timestamp base, int n) {
  for (int i = 0; i < n; ++i) {
    cb.apdu(base + static_cast<Timestamp>(i) * 1'000'000, server, station, true,
            i_apdu(float_asdu(1, 100, 1.0f + static_cast<float>(i)),
                   static_cast<std::uint16_t>(i), 0));
  }
}

void add_keepalives(CaptureBuilder& cb, net::Ipv4Addr server, net::Ipv4Addr station,
                    Timestamp base, int pairs, bool answered) {
  for (int i = 0; i < pairs; ++i) {
    Timestamp t = base + static_cast<Timestamp>(i) * 30'000'000;
    cb.apdu(t, server, station, false, Apdu::make_u(UFunction::kTestFrAct));
    if (answered) {
      cb.apdu(t + 20'000, server, station, true, Apdu::make_u(UFunction::kTestFrCon));
    }
  }
}

StationType classify_single(const CaptureBuilder& cb, net::Ipv4Addr station) {
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  for (const auto& sc : classify_stations(ds)) {
    if (sc.station == station) return sc.type;
  }
  ADD_FAILURE() << "station not classified";
  return StationType::kType1;
}

TEST(Classify, Type1PrimaryOnly) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 45);
  add_i_stream(cb, kC1, station, 0, 5);
  cb.apdu(10'000'000, kC1, station, false, Apdu::make_s(5));
  EXPECT_EQ(classify_single(cb, station), StationType::kType1);
}

TEST(Classify, Type2IdealWithHealthyBackup) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 1);
  add_i_stream(cb, kC1, station, 0, 5);
  add_keepalives(cb, kC2, station, 0, 3, /*answered=*/true);
  EXPECT_EQ(classify_single(cb, station), StationType::kType2);
}

TEST(Classify, Type3PureBackup) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 11);
  add_keepalives(cb, kC1, station, 0, 3, true);
  add_keepalives(cb, kC2, station, 0, 3, true);
  EXPECT_EQ(classify_single(cb, station), StationType::kType3);
}

TEST(Classify, Type4IToBothServers) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 26);
  add_i_stream(cb, kC1, station, 0, 5);
  add_i_stream(cb, kC2, station, 100'000'000, 5);
  EXPECT_EQ(classify_single(cb, station), StationType::kType4);
}

TEST(Classify, Type5InBandTest) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 44);
  add_i_stream(cb, kC1, station, 0, 3);
  // In the middle of I traffic: a test exchange on the SAME connection.
  cb.apdu(50'000'000, kC1, station, true, Apdu::make_u(UFunction::kTestFrAct));
  cb.apdu(50'020'000, kC1, station, false, Apdu::make_u(UFunction::kTestFrCon));
  add_i_stream(cb, kC1, station, 100'000'000, 2);
  EXPECT_EQ(classify_single(cb, station), StationType::kType5);
}

TEST(Classify, Type6ResetBackupWithData) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 5);
  add_i_stream(cb, kC2, station, 0, 5);
  add_keepalives(cb, kC1, station, 0, 4, /*answered=*/false);  // U16 only
  EXPECT_EQ(classify_single(cb, station), StationType::kType6);
}

TEST(Classify, Type7PureResetBackup) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 30);
  add_keepalives(cb, kC2, station, 0, 5, /*answered=*/false);
  EXPECT_EQ(classify_single(cb, station), StationType::kType7);
}

TEST(Classify, Type8Switchover) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 29);
  // Phase 1: healthy keep-alives on C2.
  add_keepalives(cb, kC2, station, 0, 3, true);
  // Phase 2: STARTDT + I100 + data on the same C2 connection (Fig 16).
  Timestamp t = 100'000'000;
  cb.apdu(t, kC2, station, false, Apdu::make_u(UFunction::kStartDtAct));
  cb.apdu(t + 10'000, kC2, station, true, Apdu::make_u(UFunction::kStartDtCon));
  iec104::Asdu gi;
  gi.type = iec104::TypeId::C_IC_NA_1;
  gi.cot.cause = iec104::Cause::kActivation;
  gi.common_address = 29;
  gi.objects.push_back({0, iec104::InterrogationCommand{20}, std::nullopt});
  cb.apdu(t + 20'000, kC2, station, false, i_apdu(gi));
  add_i_stream(cb, kC2, station, t + 1'000'000, 5);
  // The old primary C1 had I traffic earlier.
  add_i_stream(cb, kC1, station, 0, 5);
  EXPECT_EQ(classify_single(cb, station), StationType::kType8);
}

TEST(Classify, HistogramCountsTypes) {
  CaptureBuilder cb;
  add_i_stream(cb, kC1, ip(10, 1, 0, 45), 0, 3);           // type 1
  add_keepalives(cb, kC1, ip(10, 1, 0, 11), 0, 3, true);   // type 3
  add_keepalives(cb, kC2, ip(10, 1, 0, 12), 0, 3, true);   // type 3
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto hist = type_histogram(classify_stations(ds));
  EXPECT_EQ(hist[StationType::kType1], 1u);
  EXPECT_EQ(hist[StationType::kType3], 2u);
}

TEST(Classify, DescriptionsMatchTable6) {
  EXPECT_EQ(station_type_description(StationType::kType1),
            "No secondary connection and I-format only");
  EXPECT_EQ(station_type_description(StationType::kType4),
            "I-format only to both servers");
}

}  // namespace
}  // namespace uncharted::analysis
