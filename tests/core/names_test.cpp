#include "core/names.hpp"

#include <gtest/gtest.h>

#include "tests/analysis/testlib.hpp"

namespace uncharted::core {
namespace {

TEST(Names, TopologyMapCoversWholeFleet) {
  auto topo = sim::Topology::paper_topology();
  auto names = name_map(topo);
  EXPECT_EQ(names.size(), 4u + 58u);
  EXPECT_EQ(names.at(topo.servers[0].ip), "C1");
  EXPECT_EQ(names.at(topo.servers[3].ip), "C4");
  EXPECT_EQ(names.at(topo.find_outstation(37)->ip), "O37");
}

TEST(Names, LookupFallsBackToDottedQuad) {
  NameMap names;
  auto ip = net::Ipv4Addr::from_octets(192, 168, 1, 1);
  EXPECT_EQ(name_of(names, ip), "192.168.1.1");
  names[ip] = "attacker";
  EXPECT_EQ(name_of(names, ip), "attacker");
}

TEST(Names, InferFromTrafficUsesPortRoles) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 9);
  auto station = testlib::ip(10, 1, 7, 7);
  cb.apdu(0, server, station, true,
          testlib::i_apdu(testlib::float_asdu(7, 1, 1.0f)));
  cb.apdu(10, server, station, false, iec104::Apdu::make_s(1));
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto names = infer_names(ds);
  EXPECT_EQ(names.at(station), "station-10.1.7.7");
  EXPECT_EQ(names.at(server), "server-10.0.0.9");
}

TEST(Names, InferIgnoresNonIecEndpoints) {
  auto names = infer_names(analysis::CaptureDataset::build({}));
  EXPECT_TRUE(names.empty());
}

}  // namespace
}  // namespace uncharted::core
