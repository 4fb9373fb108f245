#include "analysis/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/sessions.hpp"
#include "analysis/typeid_stats.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

using iec104::Apdu;
using iec104::UFunction;
using testlib::CaptureBuilder;
using testlib::float_asdu;
using testlib::i_apdu;
using testlib::ip;

TEST(Dataset, ExtractsApdusPerSessionAndConnection) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  cb.apdu(1'000'000, server, station, true, i_apdu(float_asdu(5, 100, 1.0f), 0, 0));
  cb.apdu(2'000'000, server, station, true, i_apdu(float_asdu(5, 100, 2.0f), 1, 0));
  cb.apdu(3'000'000, server, station, false, Apdu::make_s(2));

  auto ds = CaptureDataset::build(cb.packets());
  EXPECT_EQ(ds.stats().packets, 3u);
  EXPECT_EQ(ds.stats().apdus, 3u);
  EXPECT_EQ(ds.stats().apdu_failures, 0u);

  ASSERT_EQ(ds.sessions().size(), 2u);  // one per direction
  ASSERT_EQ(ds.connections().size(), 1u);
  const auto& conn = ds.connections().begin()->second;
  EXPECT_EQ(conn.size(), 3u);

  // Records are in time order.
  EXPECT_EQ(ds.records()[0].apdu.apdu.token(), "I_13");
  EXPECT_EQ(ds.records()[2].apdu.apdu.token(), "S");
}

TEST(Dataset, MultipleApdusInOneSegment) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  auto a = Apdu::make_u(UFunction::kTestFrAct).encode().take();
  auto b = Apdu::make_u(UFunction::kTestFrCon).encode().take();
  std::vector<std::uint8_t> payload = a;
  payload.insert(payload.end(), b.begin(), b.end());
  cb.segment(1000, server, station, false, payload);
  auto ds = CaptureDataset::build(cb.packets());
  EXPECT_EQ(ds.stats().apdus, 2u);
}

TEST(Dataset, ReassembledModeStitchesSplitApdus) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  auto frame = i_apdu(float_asdu(5, 100, 1.0f)).encode().take();
  std::span<const std::uint8_t> whole(frame);
  // Split mid-APDU across two segments.
  cb.segment(1000, server, station, true, whole.subspan(0, 4));
  cb.segment(2000, server, station, true, whole.subspan(4));

  CaptureDataset::Options opts;
  opts.mode = ParseMode::kReassembled;
  auto ds = CaptureDataset::build(cb.packets(), opts);
  EXPECT_EQ(ds.stats().apdus, 1u);
  EXPECT_EQ(ds.stats().apdu_failures, 0u);

  // Per-packet mode cannot parse the fragments.
  auto ds_pp = CaptureDataset::build(cb.packets());
  EXPECT_EQ(ds_pp.stats().apdus, 0u);
}

TEST(Dataset, PerPacketModeSeesRetransmittedApdusTwice) {
  // The §6.3.1 effect: a TCP retransmission duplicates tokens in per-packet
  // parsing but is deduplicated by reassembly.
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  cb.apdu(1000, server, station, false, Apdu::make_u(UFunction::kTestFrAct));
  // Identical duplicate (same seq): rebuild by re-adding the same packet.
  auto dup = cb.packets()[0];
  dup.ts += 50'000;
  auto packets = cb.packets();
  packets.push_back(dup);

  auto per_packet = CaptureDataset::build(packets);
  EXPECT_EQ(per_packet.stats().apdus, 2u);

  CaptureDataset::Options opts;
  opts.mode = ParseMode::kReassembled;
  auto reassembled = CaptureDataset::build(packets, opts);
  EXPECT_EQ(reassembled.stats().apdus, 1u);
  EXPECT_EQ(reassembled.stats().tcp_retransmissions, 1u);
}

TEST(Dataset, NonIec104PortIgnoredForParsing) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  cb.apdu(1000, server, station, true, i_apdu(float_asdu(5, 1, 1.0f)));
  auto ds_other_port = CaptureDataset::build(cb.packets(), [] {
    CaptureDataset::Options o;
    o.iec104_port = 9999;  // nothing matches
    return o;
  }());
  EXPECT_EQ(ds_other_port.stats().apdus, 0u);
  EXPECT_EQ(ds_other_port.stats().tcp_packets, 1u);  // still flow-tracked
}

TEST(Dataset, ComplianceTracksLegacySources) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto legacy_station = ip(10, 1, 0, 37);
  auto clean_station = ip(10, 1, 0, 5);
  for (int i = 0; i < 5; ++i) {
    cb.apdu(static_cast<Timestamp>(i) * 1000, server, legacy_station, true,
            i_apdu(float_asdu(37, 4700, 1.0f), static_cast<std::uint16_t>(i), 0),
            iec104::CodecProfile::legacy_ioa());
    cb.apdu(static_cast<Timestamp>(i) * 1000 + 10, server, clean_station, true,
            i_apdu(float_asdu(5, 100, 2.0f), static_cast<std::uint16_t>(i), 0));
  }
  auto ds = CaptureDataset::build(cb.packets());
  EXPECT_EQ(ds.stats().non_compliant_apdus, 5u);
  auto legacy = ds.compliance().at(legacy_station);
  EXPECT_EQ(legacy.non_compliant, 5u);
  EXPECT_EQ(legacy.i_apdus, 5u);
  auto clean = ds.compliance().at(clean_station);
  EXPECT_EQ(clean.non_compliant, 0u);
  EXPECT_EQ(clean.i_apdus, 5u);
}

TEST(Dataset, UndecodableFramesCounted) {
  CaptureBuilder cb;
  cb.apdu(1000, ip(10, 0, 0, 1), ip(10, 1, 0, 5), true, Apdu::make_s(0));
  auto packets = cb.packets();
  net::CapturedPacket junk;
  junk.ts = 2000;
  junk.data = {0x01, 0x02, 0x03};
  packets.push_back(junk);
  auto ds = CaptureDataset::build(packets);
  EXPECT_EQ(ds.stats().undecodable_frames, 1u);
  EXPECT_EQ(ds.stats().tcp_packets, 1u);
}

/// Everything a dataset says about its counters, records and damage, as
/// text, for whole-dataset equality.
std::string digest(const CaptureDataset& ds) {
  const auto& s = ds.stats();
  const auto& d = s.degradation;
  std::string out;
  for (std::uint64_t v :
       {s.packets, s.tcp_packets, s.iec104_payload_packets, s.apdus, s.apdu_failures,
        s.non_compliant_apdus, s.tcp_retransmissions, d.parser_resyncs,
        d.garbage_bytes, d.undecodable_apdus, d.truncated_tail_bytes,
        d.reassembly_gaps, d.reassembly_lost_bytes, d.quarantined_apdus}) {
    out += std::to_string(v) + ' ';
  }
  for (const auto& rec : ds.records()) {
    out += '\n' + std::to_string(rec.ts) + ' ' + rec.flow.str() + ' ' +
           std::to_string(rec.seq) + ' ' + rec.apdu.apdu.str();
  }
  for (const auto& [key, dmg] : ds.damage()) {
    out += '\n' + key.str() + ' ' + std::to_string(dmg.apdus) + ' ' +
           std::to_string(dmg.failures()) + ' ' + std::to_string(dmg.last_failure_ts);
  }
  out += '\n' + std::to_string(ds.flow_table().connection_count());
  return out;
}

TEST(Dataset, SnapshotLeavesBuilderUntouched) {
  // At the cut, station A's first APDU is split (its head waits in the
  // stream parser) and station B's second segment is late (30 segments
  // wait behind the hole in the reassembler). The snapshot must flush
  // copies of both; the live builder must still complete them afterwards.
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station_a = ip(10, 1, 0, 5);
  auto station_b = ip(10, 1, 0, 6);
  auto split = i_apdu(float_asdu(5, 100, 1.0f)).encode().take();
  std::span<const std::uint8_t> whole(split);
  cb.segment(1'000, server, station_a, true, whole.subspan(0, 4));
  cb.segment(90'000, server, station_a, true, whole.subspan(4));
  iec104::Asdu big = float_asdu(6, 200, 2.0f);
  for (std::uint32_t ioa = 201; ioa < 220; ++ioa) {
    big.objects.push_back({ioa, iec104::ShortFloat{3.0f, {}}, std::nullopt});
  }
  cb.apdu(2'000, server, station_b, true, i_apdu(big, 0, 0));
  cb.apdu(80'000, server, station_b, true, i_apdu(big, 1, 0));  // the late one
  for (std::uint16_t ns = 2; ns < 32; ++ns) {
    cb.apdu(3'000 + ns * 100, server, station_b, true, i_apdu(big, ns, 0));
  }
  auto packets = cb.packets();
  std::stable_sort(packets.begin(), packets.end(),
                   [](const auto& a, const auto& b) { return a.ts < b.ts; });
  const std::size_t cut = 32;
  ASSERT_LT(packets[cut - 1].ts, 80'000u);

  for (auto mode : {ParseMode::kPerPacket, ParseMode::kReassembled}) {
    SCOPED_TRACE(mode == ParseMode::kPerPacket ? "per-packet" : "reassembled");
    CaptureDataset::Options opts;
    opts.mode = mode;
    DatasetBuilder live(opts), never_snapshotted(opts), prefix_only(opts);
    for (std::size_t i = 0; i < cut; ++i) {
      live.add_packet(packets[i]);
      never_snapshotted.add_packet(packets[i]);
      prefix_only.add_packet(packets[i]);
    }
    const auto arena_bytes = live.record_arena_bytes();
    const auto consumed = live.packets_consumed();
    std::vector<ShardPartial> one;
    one.push_back(live.snapshot_partial(live.last_ts()));
    auto snapshot = merge_partials(std::move(one), opts);
    EXPECT_EQ(live.record_arena_bytes(), arena_bytes);
    EXPECT_EQ(live.packets_consumed(), consumed);
    EXPECT_EQ(digest(snapshot), digest(prefix_only.finish()));
    if (mode == ParseMode::kReassembled) {
      EXPECT_EQ(snapshot.stats().degradation.reassembly_gaps, 1u);
      EXPECT_GT(snapshot.stats().degradation.truncated_tail_bytes, 0u);
      EXPECT_EQ(snapshot.stats().apdus, 31u);
    }

    for (std::size_t i = cut; i < packets.size(); ++i) {
      live.add_packet(packets[i]);
      never_snapshotted.add_packet(packets[i]);
    }
    auto finished = live.finish();
    EXPECT_EQ(digest(finished), digest(never_snapshotted.finish()));
    if (mode == ParseMode::kReassembled) {
      EXPECT_EQ(finished.stats().degradation.reassembly_gaps, 0u);
      EXPECT_EQ(finished.stats().apdu_failures, 0u);
      EXPECT_EQ(finished.stats().apdus, 33u);
    }
  }
}

TEST(SessionFeatures, ComputedPerDirection) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  // Station sends 4 I APDUs 10 s apart, server sends 2 S acks.
  for (int i = 0; i < 4; ++i) {
    cb.apdu(static_cast<Timestamp>(i) * 10'000'000, server, station, true,
            i_apdu(float_asdu(5, 100, 1.0f), static_cast<std::uint16_t>(i), 0));
  }
  cb.apdu(15'000'000, server, station, false, Apdu::make_s(2));
  cb.apdu(35'000'000, server, station, false, Apdu::make_s(4));

  auto ds = CaptureDataset::build(cb.packets());
  auto features = extract_session_features(ds);
  ASSERT_EQ(features.size(), 2u);
  const SessionFeatures* from_station = nullptr;
  const SessionFeatures* from_server = nullptr;
  for (const auto& f : features) {
    if (f.values[kFeatDirection] == 0.0) from_station = &f;
    if (f.values[kFeatDirection] == 1.0) from_server = &f;
  }
  ASSERT_TRUE(from_station && from_server);
  EXPECT_EQ(from_station->values[kFeatPacketCount], 4.0);
  EXPECT_NEAR(from_station->values[kFeatMeanInterArrival], 10.0, 1e-9);
  EXPECT_EQ(from_station->values[kFeatPercentI], 1.0);
  EXPECT_EQ(from_station->values[kFeatDistinctIoas], 1.0);
  EXPECT_EQ(from_server->values[kFeatPercentS], 1.0);
  EXPECT_NEAR(from_server->values[kFeatMeanInterArrival], 20.0, 1e-9);
}

TEST(TypeIdStats, DistributionAndStations) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto s1 = ip(10, 1, 0, 5);
  auto s2 = ip(10, 1, 0, 6);
  for (int i = 0; i < 3; ++i) {
    cb.apdu(static_cast<Timestamp>(i), server, s1, true,
            i_apdu(float_asdu(5, 1, 1.0f), static_cast<std::uint16_t>(i), 0));
  }
  iec104::Asdu tf = float_asdu(6, 1, 2.0f, iec104::TypeId::M_ME_TF_1);
  tf.objects[0].time = iec104::Cp56Time2a::from_timestamp(1'000'000'000);
  cb.apdu(10, server, s2, true, i_apdu(tf));
  // A command toward s1 counts for the target station.
  iec104::Asdu sp;
  sp.type = iec104::TypeId::C_SE_NC_1;
  sp.cot.cause = iec104::Cause::kActivation;
  sp.common_address = 5;
  sp.objects.push_back({9001, iec104::SetpointFloat{10.0f, 0}, std::nullopt});
  cb.apdu(20, server, s1, false, i_apdu(sp));

  auto ds = CaptureDataset::build(cb.packets());
  auto dist = typeid_distribution(ds);
  EXPECT_EQ(dist.total, 5u);
  EXPECT_EQ(dist.counts.at(13), 3u);
  EXPECT_EQ(dist.counts.at(36), 1u);
  EXPECT_EQ(dist.counts.at(50), 1u);
  EXPECT_NEAR(dist.percentage(13), 0.6, 1e-12);

  auto stations = typeid_station_counts(ds);
  EXPECT_EQ(stations.station_count(13), 1u);
  EXPECT_EQ(stations.station_count(36), 1u);
  EXPECT_EQ(stations.station_count(50), 1u);
  EXPECT_EQ(stations.station_count(100), 0u);
}

}  // namespace
}  // namespace uncharted::analysis
