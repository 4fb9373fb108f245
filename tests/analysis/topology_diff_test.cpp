#include "analysis/topology_diff.hpp"

#include <gtest/gtest.h>

#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

using testlib::CaptureBuilder;
using testlib::float_asdu;
using testlib::i_apdu;
using testlib::ip;

void add_station_with_ioas(CaptureBuilder& cb, net::Ipv4Addr station, std::uint16_t ca,
                           int ioas, Timestamp base = 0) {
  auto server = ip(10, 0, 0, 1);
  for (int i = 0; i < ioas; ++i) {
    cb.apdu(base + static_cast<Timestamp>(i) * 1000, server, station, true,
            i_apdu(float_asdu(ca, 1000 + static_cast<std::uint32_t>(i), 1.0f),
                   static_cast<std::uint16_t>(i), 0));
  }
}

TEST(TopologyDiff, DetectsAddRemoveAndIoaDrift) {
  CaptureBuilder y1, y2;
  add_station_with_ioas(y1, ip(10, 1, 0, 2), 2, 4);    // removed in Y2
  add_station_with_ioas(y1, ip(10, 1, 0, 5), 5, 6);    // unchanged
  add_station_with_ioas(y1, ip(10, 1, 0, 6), 6, 3);    // grows
  add_station_with_ioas(y1, ip(10, 1, 0, 7), 7, 8);    // shrinks

  add_station_with_ioas(y2, ip(10, 1, 0, 5), 5, 6);
  add_station_with_ioas(y2, ip(10, 1, 0, 6), 6, 7);
  add_station_with_ioas(y2, ip(10, 1, 0, 7), 7, 5);
  add_station_with_ioas(y2, ip(10, 1, 0, 50), 50, 9);  // new substation

  auto before = CaptureDataset::build(net::as_frame_views(y1.packets()));
  auto after = CaptureDataset::build(net::as_frame_views(y2.packets()));
  auto diff = diff_topology(before, after);

  EXPECT_EQ(diff.entries.size(), 5u);
  EXPECT_EQ(diff.added, 1u);
  EXPECT_EQ(diff.removed, 1u);
  EXPECT_EQ(diff.more_ioas, 1u);
  EXPECT_EQ(diff.fewer_ioas, 1u);
  EXPECT_EQ(diff.unchanged, 1u);
  EXPECT_NEAR(diff.unchanged_fraction(), 0.2, 1e-12);

  for (const auto& e : diff.entries) {
    if (e.station == ip(10, 1, 0, 50)) {
      EXPECT_EQ(e.change, StationChange::kAdded);
      EXPECT_EQ(e.ioas_before, 0u);
      EXPECT_EQ(e.ioas_after, 9u);
    }
    if (e.station == ip(10, 1, 0, 7)) {
      EXPECT_EQ(e.change, StationChange::kFewerIoas);
      EXPECT_EQ(e.ioas_before, 8u);
      EXPECT_EQ(e.ioas_after, 5u);
    }
  }
}

TEST(TopologyDiff, InventoryCountsDistinctIoasOnly) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 5);
  // Same IOA reported 10 times = 1 distinct IOA.
  for (int i = 0; i < 10; ++i) {
    cb.apdu(static_cast<Timestamp>(i), ip(10, 0, 0, 1), station, true,
            i_apdu(float_asdu(5, 777, 1.0f), static_cast<std::uint16_t>(i), 0));
  }
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto inv = station_inventory(ds);
  ASSERT_EQ(inv.size(), 1u);
  EXPECT_EQ(inv.at(station).ioas.size(), 1u);
  EXPECT_EQ(inv.at(station).apdus, 10u);
}

TEST(TopologyDiff, CommandIoasDoNotInflateInventory) {
  CaptureBuilder cb;
  auto station = ip(10, 1, 0, 5);
  iec104::Asdu sp;
  sp.type = iec104::TypeId::C_SE_NC_1;
  sp.cot.cause = iec104::Cause::kActivation;
  sp.common_address = 5;
  sp.objects.push_back({9001, iec104::SetpointFloat{10.0f, 0}, std::nullopt});
  cb.apdu(0, ip(10, 0, 0, 1), station, false, i_apdu(sp));
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto inv = station_inventory(ds);
  EXPECT_TRUE(inv.at(station).ioas.empty());
}

TEST(TopologyDiff, ChangeNames) {
  EXPECT_EQ(station_change_name(StationChange::kAdded), "added");
  EXPECT_EQ(station_change_name(StationChange::kUnchanged), "unchanged");
}

}  // namespace
}  // namespace uncharted::analysis
