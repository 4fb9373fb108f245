// Adversarial suite: plays every sim::HostilePeer scenario through the
// full capture pipeline and asserts the three hardening properties —
// nothing crashes, every attack is flagged hostile, and hostility is
// never misattributed to legitimate peers or benign fleets.
#include "sim/hostile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "analysis/conformance_audit.hpp"
#include "core/streaming.hpp"
#include "sim/capture.hpp"

namespace uncharted::sim {
namespace {

const net::Ipv4Addr kAttackerIp = net::Ipv4Addr::from_octets(10, 9, 9, 9);
const net::Ipv4Addr kVictimIp = net::Ipv4Addr::from_octets(10, 0, 2, 50);

/// Collects synthesized frames as captured packets, time-sorted.
struct PacketSink {
  std::vector<net::CapturedPacket> packets;

  FrameSink sink() {
    return [this](Timestamp ts, std::vector<std::uint8_t> frame) {
      net::CapturedPacket pkt;
      pkt.ts = ts;
      pkt.original_length = static_cast<std::uint32_t>(frame.size());
      pkt.data = std::move(frame);
      packets.push_back(std::move(pkt));
    };
  }

  std::vector<net::CapturedPacket> sorted() {
    std::stable_sort(packets.begin(), packets.end(),
                     [](const net::CapturedPacket& a, const net::CapturedPacket& b) {
                       return a.ts < b.ts;
                     });
    return packets;
  }
};

analysis::ConformanceReport audit(const std::vector<net::CapturedPacket>& packets) {
  auto dataset = analysis::CaptureDataset::build(net::as_frame_views(packets));
  return analysis::audit_conformance(dataset);
}

/// Zero hostile-severity evidence anywhere in the report.
void expect_no_hostility(const analysis::ConformanceReport& report) {
  EXPECT_EQ(report.hostile_connections, 0u);
  EXPECT_EQ(report.hostile_events, 0u);
  for (const auto& entry : report.entries) {
    EXPECT_NE(entry.verdict, iec104::Verdict::kHostile) << entry.pair.str();
    for (const auto& v : entry.profile.violations) {
      EXPECT_NE(v.severity, iec104::Severity::kHostile)
          << entry.pair.str() << ": " << iec104::violation_code_name(v.code)
          << " x" << v.count << " (" << v.detail << ")";
    }
  }
}

TEST(HostilePeer, EveryScenarioIsFlaggedHostile) {
  for (auto scenario : all_hostile_scenarios()) {
    SCOPED_TRACE(hostile_scenario_name(scenario));
    PacketSink sink;
    Rng rng(7);
    HostilePeer peer(kAttackerIp, Endpoint::make(kVictimIp, iec104::kIec104Port),
                     sink.sink(), &rng);
    peer.run(scenario, from_seconds(1.0));

    auto report = audit(sink.sorted());
    ASSERT_FALSE(report.entries.empty());
    // The capture holds nothing but this attack: every endpoint pair in it
    // must come back hostile, whichever (spoofed) source it used.
    for (const auto& entry : report.entries) {
      EXPECT_EQ(entry.verdict, iec104::Verdict::kHostile)
          << entry.pair.str() << ": " << entry.profile.summary();
    }
    EXPECT_TRUE(report.any_hostile());
  }
}

TEST(HostilePeer, HostilityIsNotMisattributedToLegitimatePeers) {
  // The victim serves one fully conforming SCADA peer while a spoofed
  // command sweep hammers it: the sweep's flows are hostile, the
  // legitimate pair must stay clean.
  PacketSink sink;
  Rng rng(11);
  auto scada_ip = net::Ipv4Addr::from_octets(10, 0, 1, 1);
  Endpoint scada = Endpoint::make(scada_ip, 40100);
  Endpoint victim = Endpoint::make(kVictimIp, iec104::kIec104Port);
  SimTcpConnection legit(scada, victim, sink.sink(), &rng);

  Timestamp ts = legit.open(from_seconds(0.5));
  auto send = [&](bool from_scada, const iec104::Apdu& apdu) {
    ts = legit.send(ts + 50'000, from_scada, apdu.encode().value());
  };
  send(true, iec104::Apdu::make_u(iec104::UFunction::kStartDtAct));
  send(false, iec104::Apdu::make_u(iec104::UFunction::kStartDtCon));
  for (std::uint16_t ns = 0; ns < 6; ++ns) {
    iec104::Asdu asdu;
    asdu.type = iec104::TypeId::M_ME_NC_1;
    asdu.cot.cause = iec104::Cause::kSpontaneous;
    asdu.common_address = 3;
    asdu.objects.push_back({2001, iec104::ShortFloat{50.0f, {}}, std::nullopt});
    send(false, iec104::Apdu::make_i(ns, 0, asdu));
    if (ns % 2 == 1) send(true, iec104::Apdu::make_s(ns + 1));
  }
  HostilePeer peer(kAttackerIp, victim, sink.sink(), &rng);
  ts = peer.run(HostileScenario::kSpoofedCommandSweep, ts + 100'000);
  send(true, iec104::Apdu::make_s(6));
  legit.close_fin(ts + from_seconds(1.0), true);

  auto report = audit(sink.sorted());
  auto legit_pair = analysis::EndpointPair::of(scada_ip, kVictimIp);
  std::size_t hostile = 0;
  bool legit_seen = false;
  for (const auto& entry : report.entries) {
    if (entry.pair == legit_pair) {
      legit_seen = true;
      EXPECT_EQ(entry.verdict, iec104::Verdict::kClean)
          << entry.profile.summary();
    } else {
      EXPECT_EQ(entry.verdict, iec104::Verdict::kHostile)
          << entry.pair.str() << ": " << entry.profile.summary();
      ++hostile;
    }
  }
  EXPECT_TRUE(legit_seen);
  EXPECT_EQ(hostile, 3u);  // one per spoofed source address
}

TEST(HostilePeer, BenignYear1FleetProducesZeroHostileEvidence) {
  // The false-positive floor: a full simulated Y1 fleet — keep-alive
  // loops, TCP retransmissions, mid-stream pre-capture flows and all —
  // must not put a single hostile-severity violation on any pair.
  auto capture = generate_capture(CaptureConfig::y1(120.0));
  expect_no_hostility(audit(capture.packets));
}

TEST(HostilePeer, BenignYear2FleetProducesZeroHostileEvidence) {
  auto capture = generate_capture(CaptureConfig::y2(120.0));
  expect_no_hostility(audit(capture.packets));
}

TEST(HostilePeer, ConformanceReportSurvivesCheckpointRestore) {
  // A mixed benign+attack capture analyzed straight through must equal
  // the same capture analyzed across a crash/restore boundary.
  auto benign = generate_capture(CaptureConfig::y1(60.0));
  PacketSink sink;
  Rng rng(13);
  HostilePeer peer(kAttackerIp, Endpoint::make(kVictimIp, iec104::kIec104Port),
                   sink.sink(), &rng);
  peer.run_all(benign.truth.start_ts + from_seconds(5.0));
  auto packets = benign.packets;
  for (auto& pkt : sink.packets) packets.push_back(std::move(pkt));
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::CapturedPacket& a, const net::CapturedPacket& b) {
                     return a.ts < b.ts;
                   });

  core::StreamingOptions options;
  options.checkpoint_path = ::testing::TempDir() + "hostile_peer_test.ckpt";
  std::filesystem::remove(options.checkpoint_path);
  std::filesystem::remove(options.checkpoint_path + ".1");

  const std::size_t cut = packets.size() / 2;
  {
    core::StreamingAnalyzer first(options);
    first.add_packets(net::as_frame_views({packets.data(), cut}));
    ASSERT_TRUE(first.checkpoint_now().ok());
  }
  core::StreamingAnalyzer second(options);
  ASSERT_TRUE(second.try_restore());
  second.add_packets(net::as_frame_views({packets.data() + cut, packets.size() - cut}));
  auto restored = second.finalize();

  core::StreamingAnalyzer straight(options);
  straight.add_packets(net::as_frame_views(packets));
  auto batch = straight.finalize();

  const auto& got = restored.conformance;
  const auto& want = batch.conformance;
  EXPECT_TRUE(want.any_hostile());
  EXPECT_EQ(got.hostile_connections, want.hostile_connections);
  EXPECT_EQ(got.suspect_connections, want.suspect_connections);
  EXPECT_EQ(got.legacy_connections, want.legacy_connections);
  EXPECT_EQ(got.clean_connections, want.clean_connections);
  EXPECT_EQ(got.hostile_events, want.hostile_events);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].pair, want.entries[i].pair);
    EXPECT_EQ(got.entries[i].verdict, want.entries[i].verdict)
        << got.entries[i].pair.str();
    EXPECT_EQ(got.entries[i].profile.hostile_events,
              want.entries[i].profile.hostile_events);
    EXPECT_EQ(got.entries[i].flows, want.entries[i].flows);
  }
}

TEST(HostilePeer, FullSweepDegradesGracefullyInEveryParseMode) {
  // No crash, no exception, a renderable report — under the tolerant and
  // strict parsers, per-packet and reassembled, with a benign fleet mixed
  // in. This is the test the sanitizer presets run in CI's chaos job.
  auto benign = generate_capture(CaptureConfig::y1(30.0));
  PacketSink sink;
  Rng rng(17);
  HostilePeer peer(kAttackerIp, Endpoint::make(kVictimIp, iec104::kIec104Port),
                   sink.sink(), &rng);
  peer.run_all(benign.truth.start_ts + from_seconds(2.0));
  auto packets = benign.packets;
  for (auto& pkt : sink.packets) packets.push_back(std::move(pkt));
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::CapturedPacket& a, const net::CapturedPacket& b) {
                     return a.ts < b.ts;
                   });

  for (auto mode : {analysis::ParseMode::kPerPacket, analysis::ParseMode::kReassembled}) {
    for (auto parser : {iec104::ApduStreamParser::Mode::kTolerant,
                        iec104::ApduStreamParser::Mode::kStrict}) {
      analysis::CaptureDataset::Options options;
      options.mode = mode;
      options.parser_mode = parser;
      auto dataset = analysis::CaptureDataset::build(net::as_frame_views(packets), options);
      auto report = analysis::audit_conformance(dataset);
      EXPECT_TRUE(report.any_hostile());
      for (const auto& entry : report.entries) {
        EXPECT_FALSE(entry.profile.summary().empty());
      }
    }
  }
}

}  // namespace
}  // namespace uncharted::sim
