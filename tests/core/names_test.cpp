#include "core/names.hpp"

#include <gtest/gtest.h>

#include "analysis/dataset.hpp"
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
  auto names = infer_names(ds.flow_table().flows());
  EXPECT_EQ(names.at(station), "station-10.1.7.7");
  EXPECT_EQ(names.at(server), "server-10.0.0.9");
}

TEST(Names, InferIgnoresNonIecEndpoints) {
  net::FlowRecord flow;
  flow.key = {testlib::ip(10, 0, 0, 1), 40000, testlib::ip(10, 0, 0, 2), 102};
  flow.packets = 1;
  flow.bytes = 100;
  const net::FlowRecord flows[] = {flow};
  EXPECT_TRUE(infer_names(flows).empty());
}

TEST(Names, SynOnlyFlowOnTheIecPortNamesNoOne) {
  // A connection attempt that never carried payload (a backup link the
  // station refuses, or a scan) is not evidence of a station: its
  // endpoints keep their dotted quads, while a flow with payload names
  // its endpoints as before.
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 9);
  auto station = testlib::ip(10, 1, 7, 7);
  auto prober = testlib::ip(10, 0, 0, 66);
  auto silent = testlib::ip(10, 1, 8, 8);
  cb.segment(0, prober, silent, false, {}, 49152, net::kTcpSyn);
  cb.apdu(5, server, station, true, iec104::Apdu::make_s(1));
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(cb.packets()));
  const auto flows = ds.flow_table().flows();
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_TRUE(flows[0].saw_syn);
  EXPECT_EQ(flows[0].bytes, 0u);

  auto names = infer_names(flows);
  EXPECT_EQ(names.size(), 2u);
  EXPECT_EQ(name_of(names, prober), "10.0.0.66");
  EXPECT_EQ(name_of(names, silent), "10.1.8.8");
  EXPECT_EQ(name_of(names, station), "station-10.1.7.7");
}

}  // namespace
}  // namespace uncharted::core
