#include "analysis/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <tuple>

#include "analysis/markov.hpp"
#include "analysis/sessions.hpp"
#include "analysis/typeid_stats.hpp"
#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "tests/analysis/testlib.hpp"
#include "tests/core/reference_report.hpp"

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

  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  EXPECT_EQ(ds.stats().packets, 3u);
  EXPECT_EQ(ds.stats().apdus, 3u);
  EXPECT_EQ(ds.stats().apdu_failures, 0u);

  auto sessions = extract_session_features(ds);
  ASSERT_EQ(sessions.size(), 2u);  // one per direction
  EXPECT_EQ(sessions[0].values[kFeatPacketCount] + sessions[1].values[kFeatPacketCount],
            3.0);
  auto chains = build_connection_chains(ds);
  ASSERT_EQ(chains.size(), 1u);
  // All three APDUs are on the one connection: two transitions.
  std::uint64_t transitions = 0;
  for (const auto& [node, successors] : chains[0].chain.counts()) {
    for (const auto& [next, count] : successors) transitions += count;
  }
  EXPECT_EQ(transitions, 2u);
  EXPECT_EQ(chains[0].first_token, "I_13");
  EXPECT_EQ(chains[0].last_token, "S");

  // Records are in time order.
  EXPECT_EQ(ds.records()[0].apdu.token(), "I_13");
  EXPECT_EQ(ds.records()[2].apdu.token(), "S");
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
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
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
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()), opts);
  EXPECT_EQ(ds.stats().apdus, 1u);
  EXPECT_EQ(ds.stats().apdu_failures, 0u);

  // Per-packet mode cannot parse the fragments.
  auto ds_pp = CaptureDataset::build(net::as_frame_views(cb.packets()));
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

  auto per_packet = CaptureDataset::build(net::as_frame_views(packets));
  EXPECT_EQ(per_packet.stats().apdus, 2u);

  CaptureDataset::Options opts;
  opts.mode = ParseMode::kReassembled;
  auto reassembled = CaptureDataset::build(net::as_frame_views(packets), opts);
  EXPECT_EQ(reassembled.stats().apdus, 1u);
  EXPECT_EQ(reassembled.stats().tcp_retransmissions, 1u);
}

TEST(Dataset, NonIec104PortIgnoredForParsing) {
  // A well-formed APDU between two ports other than 2404.
  const auto apdu = i_apdu(float_asdu(5, 1, 1.0f)).encode(iec104::CodecProfile::standard());
  net::TcpSegmentSpec spec;
  spec.src_ip = ip(10, 1, 0, 5);
  spec.dst_ip = ip(10, 0, 0, 1);
  spec.src_port = 9999;
  spec.dst_port = 49152;
  spec.flags = net::kTcpPsh | net::kTcpAck;
  spec.payload = apdu.value();
  net::CapturedPacket pkt;
  pkt.ts = 1000;
  pkt.data = net::build_tcp_frame(spec);
  pkt.original_length = static_cast<std::uint32_t>(pkt.data.size());
  auto ds_other_port = CaptureDataset::build(std::vector<net::FrameView>{net::as_frame_view(pkt)});
  EXPECT_EQ(ds_other_port.stats().apdus, 0u);
  EXPECT_EQ(ds_other_port.stats().iec104_payload_packets, 0u);
  EXPECT_EQ(ds_other_port.stats().other_tcp_packets, 1u);
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
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
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
  auto ds = CaptureDataset::build(net::as_frame_views(packets));
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
           std::to_string(rec.seq) + ' ' + rec.apdu.str();
  }
  for (const auto& [key, dmg] : ds.damage()) {
    out += '\n' + key.str() + ' ' + std::to_string(dmg.apdus) + ' ' +
           std::to_string(dmg.failures()) + ' ' + std::to_string(dmg.last_failure_ts);
  }
  out += '\n' + std::to_string(ds.flow_table().connection_count());
  for (const auto& [station, entry] : ds.compliance()) {
    out += '\n' + station.str() + ' ' + std::to_string(entry.i_apdus) + ' ' +
           std::to_string(entry.non_compliant);
  }
  return out;
}

// The record section keeps its byte format; what the compact record cannot
// hold is refused on load rather than truncated: an APDU timestamp slot
// that is not the record's, a wire size beyond 16 bits, and a profile
// width outside the four codec layouts.
TEST(Dataset, CheckpointRecordFieldsTheRecordCannotHoldAreRefused) {
  CaptureBuilder cb;
  const Apdu apdu = i_apdu(float_asdu(5, 100, 1.0f), 3, 1);
  cb.apdu(1'000'000, ip(10, 0, 0, 1), ip(10, 1, 0, 5), true, apdu);
  DatasetBuilder builder;
  for (const auto& pkt : cb.packets()) builder.add_packet(pkt.ts, pkt.data);
  ByteWriter w;
  ASSERT_TRUE(builder.save(w).ok());
  const std::vector<std::uint8_t> saved = w.data();
  const std::vector<std::uint8_t> frame = apdu.encode().take();
  // ... apdu_ts:u64, profile:3, compliant:1, wire_size:u32, len:u32, frame
  const auto at = std::search(saved.begin(), saved.end(), frame.begin(), frame.end());
  ASSERT_NE(at, saved.end());
  const auto pos = static_cast<std::size_t>(at - saved.begin());
  ASSERT_GE(pos, 20u);

  auto load = [](const std::vector<std::uint8_t>& bytes) {
    DatasetBuilder restored;
    ByteReader r(bytes);
    return restored.load(r);
  };
  ASSERT_TRUE(load(saved).ok());
  auto code_of = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bytes = saved;
    bytes[offset] = value;
    const Status st = load(bytes);
    return st.ok() ? std::string("ok") : st.error().code;
  };
  EXPECT_EQ(code_of(pos - 20, static_cast<std::uint8_t>(saved[pos - 20] ^ 1)),
            "checkpoint-record-mismatch");
  EXPECT_EQ(code_of(pos - 12, 3), "checkpoint-bad-profile");  // a 3-octet COT
  EXPECT_EQ(code_of(pos - 6, 1), "checkpoint-bad-wire-size");  // + 65536
  EXPECT_EQ(code_of(pos - 8, 0xff), "ok");  // any 16-bit size is kept
}

// A CRC-valid checkpoint can still claim more records than it holds: the
// count is refused before anything is reserved for it, so restore starts
// fresh instead of throwing std::bad_alloc.
TEST(Dataset, CheckpointRecordCountBeyondThePayloadIsRefused) {
  ByteWriter w;
  ASSERT_TRUE(DatasetBuilder().save(w).ok());
  std::vector<std::uint8_t> bytes = w.data();
  // An empty per-packet builder ends: records:u32, parsers:u32,
  // damage:u32, has_reassembler:u8.
  ASSERT_GE(bytes.size(), 13u);
  std::fill_n(bytes.end() - 13, 4, std::uint8_t{0xff});
  DatasetBuilder restored;
  ByteReader r(bytes);
  Status st = Status::Ok();
  EXPECT_NO_THROW(st = restored.load(r));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, "checkpoint-bad-count");
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
      live.add_packet(packets[i].ts, packets[i].data);
      never_snapshotted.add_packet(packets[i].ts, packets[i].data);
      prefix_only.add_packet(packets[i].ts, packets[i].data);
    }
    const auto arena_bytes = live.record_arena_bytes();
    const auto consumed = live.packets_consumed();
    core::AnalysisReport snapshot;
    {
      DatasetView view;
      live.query(live.last_ts(), view);
      snapshot = core::analyze_view(view, {}, nullptr);
    }
    EXPECT_EQ(live.record_arena_bytes(), arena_bytes);
    EXPECT_EQ(live.packets_consumed(), consumed);
    EXPECT_EQ(core::report_to_json(snapshot),
              core::report_to_json(
                  testlib::reference_report(prefix_only.finish(), {})));
    if (mode == ParseMode::kReassembled) {
      EXPECT_EQ(snapshot.stats.degradation.reassembly_gaps, 1u);
      EXPECT_GT(snapshot.stats.degradation.truncated_tail_bytes, 0u);
      EXPECT_EQ(snapshot.stats.apdus, 31u);
    }

    for (std::size_t i = cut; i < packets.size(); ++i) {
      live.add_packet(packets[i].ts, packets[i].data);
      never_snapshotted.add_packet(packets[i].ts, packets[i].data);
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

  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
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

TEST(SessionFeatures, RecordAtTimestampZeroKeepsItsInterArrival) {
  // A capture with relative timestamps starts at ts 0; that record still
  // opens the first inter-arrival gap (1 s, then 2 s: mean 1.5 s).
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  const Timestamp ts[] = {0, 1'000'000, 3'000'000};
  for (std::uint16_t i = 0; i < 3; ++i) {
    cb.apdu(ts[i], server, station, true, i_apdu(float_asdu(5, 100, 1.0f), i, 0));
  }
  auto features = extract_session_features(CaptureDataset::build(net::as_frame_views(cb.packets())));
  ASSERT_EQ(features.size(), 1u);
  EXPECT_NEAR(features[0].values[kFeatMeanInterArrival], 1.5, 1e-9);
  EXPECT_NEAR(features[0].values[kFeatStdInterArrival], 0.5, 1e-9);
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

  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
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

// --- Canonical record order without a global sort -------------------------
//
// A RecordCursor cuts each lane into canonically ordered runs (a new run
// wherever timestamps step backwards, stretches of equal timestamps
// tie-broken) and k-way merges them: DatasetBuilder::finish() moves one
// lane's records in that order, a query reads several lanes in place. Each
// scenario below is built once as a whole capture, finished by one
// builder, and once split by station into three flow-disjoint lanes,
// queried in every order.

/// Emits the same APDUs into one whole capture and into the capture of the
/// station's lane (station index mod 3).
class SplitCapture {
 public:
  void apdu(Timestamp ts, std::size_t station, bool from_station, const Apdu& apdu) {
    auto st = ip(10, 1, 0, static_cast<std::uint8_t>(5 + station));
    whole_.apdu(ts, kServer, st, from_station, apdu);
    parts_[station % parts_.size()].apdu(ts, kServer, st, from_station, apdu);
  }
  const std::vector<net::CapturedPacket>& whole() const { return whole_.packets(); }
  const std::vector<net::CapturedPacket>& part(std::size_t i) const {
    return parts_[i].packets();
  }
  static constexpr std::size_t kParts = 3;

 private:
  static inline const net::Ipv4Addr kServer = ip(10, 0, 0, 1);
  CaptureBuilder whole_;
  std::array<CaptureBuilder, kParts> parts_;
};

::testing::AssertionResult in_canonical_order(const CaptureDataset& ds) {
  const auto& recs = ds.records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    const auto& a = recs[i - 1];
    const auto& b = recs[i];
    if (std::tie(a.ts, a.flow, a.seq) < std::tie(b.ts, b.flow, b.seq)) continue;
    return ::testing::AssertionFailure()
           << "record " << i << " (" << b.ts << ' ' << b.flow.str() << ' ' << b.seq
           << ") is not after (" << a.ts << ' ' << a.flow.str() << ' ' << a.seq << ')';
  }
  return ::testing::AssertionSuccess();
}

void expect_canonical_everywhere(const SplitCapture& cap) {
  for (auto mode : {ParseMode::kPerPacket, ParseMode::kReassembled}) {
    SCOPED_TRACE(mode == ParseMode::kPerPacket ? "per-packet" : "reassembled");
    CaptureDataset::Options opts;
    opts.mode = mode;
    auto whole = CaptureDataset::build(net::as_frame_views(cap.whole()), opts);
    EXPECT_TRUE(in_canonical_order(whole));

    const std::string expected_report =
        core::report_to_json(testlib::reference_report(whole, {}));

    // The three lanes, each flushed at the capture's end and read in place
    // by a query.
    const Timestamp flush_ts = cap.whole().back().ts;
    std::array<std::unique_ptr<DatasetBuilder>, SplitCapture::kParts> live;
    for (std::size_t i = 0; i < live.size(); ++i) {
      ASSERT_FALSE(cap.part(i).empty());
      live[i] = std::make_unique<DatasetBuilder>(opts);
      for (const auto& pkt : cap.part(i)) live[i]->add_packet(pkt.ts, pkt.data);
    }
    std::array<std::size_t, SplitCapture::kParts> order = {0, 1, 2};
    do {
      DatasetView view;
      for (std::size_t i : order) live[i]->query(flush_ts, view);
      EXPECT_EQ(core::report_to_json(core::analyze_view(view, {}, nullptr)),
                expected_report)
          << "lanes queried in order " << order[0] << order[1] << order[2];
    } while (std::next_permutation(order.begin(), order.end()));

    // The whole pipeline, sequential and sharded.
    core::CaptureAnalyzer::Options aopts;
    aopts.mode = mode;
    aopts.threads = 1;
    const std::string base = core::report_to_json(core::CaptureAnalyzer::analyze(cap.whole(), aopts));
    for (unsigned threads : {2u, 8u}) {
      aopts.threads = threads;
      EXPECT_EQ(core::report_to_json(core::CaptureAnalyzer::analyze(cap.whole(), aopts)), base)
          << "report differs at " << threads << " threads";
    }
  }
}

TEST(DatasetOrder, EqualTimestampsAcrossFlowsAppendedInReverseFlowOrder) {
  // Every tick is shared by all stations, and the capture lists them in
  // descending address order: append order is the reverse of (flow, seq).
  SplitCapture cap;
  for (std::uint16_t tick = 0; tick < 8; ++tick) {
    const Timestamp ts = 1'000'000 + tick * 1'000;
    for (std::size_t station = 6; station-- > 0;) {
      cap.apdu(ts, station, true, i_apdu(float_asdu(5, 100, 1.0f), tick, 0));
      cap.apdu(ts, station, false, Apdu::make_s(static_cast<std::uint16_t>(tick + 1)));
    }
  }
  expect_canonical_everywhere(cap);
}

TEST(DatasetOrder, TimestampsSteppingBackwardsStartNewRuns) {
  // An out-of-order capture: some frames carry earlier timestamps than
  // frames captured before them, within one flow and across flows.
  SplitCapture cap;
  const Timestamp ts[] = {5'000, 9'000, 3'000, 9'000, 7'000, 1'000, 8'000, 8'000};
  for (std::uint16_t i = 0; i < 8; ++i) {
    cap.apdu(ts[i], i % 4, true, i_apdu(float_asdu(5, 100, 1.0f), i, 0));
    cap.apdu(ts[(i + 3) % 8], (i + 1) % 4, false, Apdu::make_u(UFunction::kTestFrAct));
  }
  expect_canonical_everywhere(cap);
}

TEST(DatasetOrder, ThreePartialsMergeIdenticallyInEveryOrder) {
  // Interleaved flows with irregular spacing and occasional shared ticks:
  // every lane holds several flows, and the query's k-way merge must
  // interleave them record by record.
  SplitCapture cap;
  for (std::uint16_t i = 0; i < 60; ++i) {
    const Timestamp ts = 2'000'000 + (i / 3) * 700 + (i % 5) * 10;
    const std::size_t station = (i * 7) % 6;
    cap.apdu(ts, station, true, i_apdu(float_asdu(5, i, 1.0f), i, 0));
    if (i % 4 == 0) cap.apdu(ts, (station + 2) % 6, false, Apdu::make_s(i));
  }
  expect_canonical_everywhere(cap);
}

}  // namespace
}  // namespace uncharted::analysis
