#include "sim/tcp.hpp"

#include <gtest/gtest.h>

#include "net/flow.hpp"
#include "net/reassembly.hpp"

namespace uncharted::sim {
namespace {

struct Harness {
  std::vector<std::pair<Timestamp, std::vector<std::uint8_t>>> frames;
  Rng rng{123};

  SimTcpConnection connect() {
    Endpoint client = Endpoint::make(net::Ipv4Addr::from_octets(10, 0, 0, 1), 50000);
    Endpoint server = Endpoint::make(net::Ipv4Addr::from_octets(10, 1, 0, 5), 2404);
    return SimTcpConnection(
        client, server,
        [this](Timestamp ts, std::vector<std::uint8_t> f) {
          frames.emplace_back(ts, std::move(f));
        },
        &rng);
  }

  net::FlowTable flow_table() const {
    net::FlowTable table;
    for (const auto& [ts, data] : frames) {
      auto decoded = net::decode_frame(data);
      EXPECT_TRUE(decoded.ok()) << decoded.error().str();
      if (decoded) table.add(ts, decoded.value());
    }
    return table;
  }
};

TEST(SimTcp, HandshakeProducesValidShortFlowSkeleton) {
  Harness h;
  auto conn = h.connect();
  Timestamp t = conn.open(1'000'000);
  EXPECT_GT(t, 1'000'000u);
  conn.close_fin(t + 1000, true);
  ASSERT_EQ(h.frames.size(), 6u);  // SYN, SYNACK, ACK, FIN, FIN, ACK

  auto flows = h.flow_table().flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].lifetime(), net::FlowLifetime::kShortLived);
  EXPECT_TRUE(flows[0].saw_syn);
  EXPECT_TRUE(flows[0].saw_synack);
  EXPECT_TRUE(flows[0].saw_fin);
}

TEST(SimTcp, RefusedOpenIsSubSecondRstFlow) {
  Harness h;
  auto conn = h.connect();
  conn.open_refused(0);
  ASSERT_EQ(h.frames.size(), 2u);
  auto flows = h.flow_table().flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(flows[0].syn_rejected_with_rst);
  EXPECT_LT(flows[0].duration_seconds(), 1.0);
}

TEST(SimTcp, IgnoredOpenRetransmitsSameSeq) {
  Harness h;
  auto conn = h.connect();
  conn.open_ignored(0, 2);
  ASSERT_EQ(h.frames.size(), 3u);
  std::uint32_t seq0 = net::decode_frame(h.frames[0].second)->tcp.seq;
  for (const auto& [ts, data] : h.frames) {
    auto f = net::decode_frame(data);
    EXPECT_TRUE(f->tcp.syn());
    EXPECT_EQ(f->tcp.seq, seq0);
  }
  auto flows = h.flow_table().flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].lifetime(), net::FlowLifetime::kLongLived);
}

TEST(SimTcp, PayloadBytesSurviveReassembly) {
  Harness h;
  auto conn = h.connect();
  Timestamp t = conn.open(0);
  std::vector<std::uint8_t> a = {0x68, 0x04, 0x43, 0x00, 0x00, 0x00};
  std::vector<std::uint8_t> b = {0x68, 0x04, 0x83, 0x00, 0x00, 0x00};
  t = conn.send(t + 1000, true, a);
  t = conn.send(t + 1000, false, b);
  t = conn.send(t + 1000, true, a);

  std::map<std::string, std::vector<std::uint8_t>> streams;
  net::TcpReassembler reasm([&](const net::FlowKey& key, Timestamp,
                                std::span<const std::uint8_t> data) {
    auto& s = streams[key.str()];
    s.insert(s.end(), data.begin(), data.end());
  });
  for (const auto& [ts, data] : h.frames) {
    auto f = net::decode_frame(data);
    reasm.add(ts, f.value());
  }
  ASSERT_EQ(streams.size(), 2u);
  std::vector<std::uint8_t> fwd_expect = a;
  fwd_expect.insert(fwd_expect.end(), a.begin(), a.end());
  EXPECT_EQ(streams["10.0.0.1:50000 -> 10.1.0.5:2404"], fwd_expect);
  EXPECT_EQ(streams["10.1.0.5:2404 -> 10.0.0.1:50000"], b);
  EXPECT_EQ(reasm.totals().retransmissions, 0u);
}

TEST(SimTcp, RetransmissionInjectionVisibleToReassembler) {
  Harness h;
  auto conn = h.connect();
  conn.set_retransmit_probability(1.0);  // every data segment duplicated
  Timestamp t = conn.open(0);
  std::vector<std::uint8_t> payload = {1, 2, 3};
  conn.send(t + 1000, true, payload);

  net::TcpReassembler reasm(
      [](const net::FlowKey&, Timestamp, std::span<const std::uint8_t>) {});
  // Frames may be out of time order (dup is timestamped later); sort first.
  std::sort(h.frames.begin(), h.frames.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [ts, data] : h.frames) {
    reasm.add(ts, net::decode_frame(data).value());
  }
  EXPECT_EQ(reasm.totals().retransmissions, 1u);
}

TEST(SimTcp, ChecksumsAreValidOnEveryFrame) {
  Harness h;
  auto conn = h.connect();
  Timestamp t = conn.open(0);
  std::vector<std::uint8_t> payload(100, 0xab);
  conn.send(t + 5, true, payload);
  conn.close_rst(t + 10, false);
  for (const auto& [ts, data] : h.frames) {
    auto f = net::decode_frame(data);
    ASSERT_TRUE(f.ok()) << f.error().str();  // decode verifies IP checksum
    // Verify the TCP checksum folds to zero over the segment.
    std::size_t ip_off = net::EthernetHeader::kSize;
    std::size_t tcp_off = ip_off + net::Ipv4Header::kSize;
    std::span<const std::uint8_t> segment(data.data() + tcp_off, data.size() - tcp_off);
    EXPECT_EQ(net::tcp_checksum(f->ip, segment), 0);
  }
}

}  // namespace
}  // namespace uncharted::sim
