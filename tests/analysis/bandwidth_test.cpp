#include "analysis/bandwidth.hpp"

#include <gtest/gtest.h>

#include "analysis/dataset.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

/// Bandwidth accounting fed from the dataset builder's decode, the way the
/// analyzers run it, instead of the standalone analyze_bandwidth pass.
BandwidthReport fused_bandwidth(std::span<const net::FrameView> frames) {
  BandwidthAccumulator acc;
  DatasetBuilder builder;
  builder.add_packets(frames, &acc);
  return acc.finish();
}

void expect_same_bandwidth(const BandwidthReport& got, const BandwidthReport& want) {
  EXPECT_EQ(got.bucket_seconds, want.bucket_seconds);
  EXPECT_EQ(got.start_ts, want.start_ts);
  ASSERT_EQ(got.series.size(), want.series.size());
  for (const auto& [proto, buckets] : want.series) {
    ASSERT_TRUE(got.series.count(proto)) << tap_protocol_name(proto);
    const auto& got_buckets = got.series.at(proto);
    ASSERT_EQ(got_buckets.size(), buckets.size()) << tap_protocol_name(proto);
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      EXPECT_EQ(got_buckets[i].t_seconds, buckets[i].t_seconds) << i;
      EXPECT_EQ(got_buckets[i].bytes, buckets[i].bytes) << i;
      EXPECT_EQ(got_buckets[i].packets, buckets[i].packets) << i;
    }
  }
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.total_packets, want.total_packets);
  EXPECT_EQ(got.top_connections, want.top_connections);
  const auto& a = got.iec104_interarrival_s;
  const auto& b = want.iec104_interarrival_s;
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

TEST(Bandwidth, BucketsAndTotalsFromHandBuiltCapture) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  // Three APDUs: t=0s, t=5s, t=25s.
  cb.apdu(0, server, station, true, testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(5'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 1, 0));
  cb.apdu(25'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 3.0f), 2, 0));

  auto report = analyze_bandwidth(net::as_frame_views(cb.packets()), 10.0);
  ASSERT_TRUE(report.series.count(TapProtocol::kIec104));
  const auto& buckets = report.series.at(TapProtocol::kIec104);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].packets, 2u);
  EXPECT_EQ(buckets[1].packets, 0u);
  EXPECT_EQ(buckets[2].packets, 1u);
  EXPECT_EQ(report.total_packets.at(TapProtocol::kIec104), 3u);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kIec104), 3u * 60u);

  // Inter-arrival stats: gaps of 5 s and 20 s.
  EXPECT_EQ(report.iec104_interarrival_s.count(), 2u);
  EXPECT_NEAR(report.iec104_interarrival_s.mean(), 12.5, 1e-9);

  // Top talker is our single connection.
  ASSERT_FALSE(report.top_connections.empty());
  EXPECT_GT(report.top_connections[0].second, 0u);
}

TEST(Bandwidth, EmptyCapture) {
  auto report = analyze_bandwidth(std::span<const net::FrameView>{});
  EXPECT_TRUE(report.series.empty());
  EXPECT_EQ(report.duration_seconds(), 0.0);
  EXPECT_EQ(report.mean_rate_bps(TapProtocol::kIec104), 0.0);
}

TEST(Bandwidth, ProtocolSplitOnSimCapture) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(90.0));
  auto report = analyze_bandwidth(net::as_frame_views(capture.packets), 10.0);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kIec104), 0u);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kC37118), 0u);
  EXPECT_GT(report.total_bytes.at(TapProtocol::kIccp), 0u);
  EXPECT_EQ(report.total_bytes.count(TapProtocol::kOther), 0u);
  // SCADA telemetry is low-bandwidth: well under 1 MB/s at this scale.
  EXPECT_LT(report.mean_rate_bps(TapProtocol::kIec104), 1e6);
  EXPECT_GT(report.mean_rate_bps(TapProtocol::kIec104), 1e3);
  // C37.118 rate is steady: no empty buckets after warm-up.
  const auto& pmu = report.series.at(TapProtocol::kC37118);
  for (std::size_t i = 1; i + 1 < pmu.size(); ++i) {
    EXPECT_GT(pmu[i].packets, 0u) << "bucket " << i;
  }
}

TEST(Bandwidth, TimestampJumpRecordsDiscontinuityInsteadOfFillingGap) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  cb.apdu(0, server, station, true, testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  // 49 years later — the epoch-vs-relative timebase confusion an attacker
  // (or a buggy tap) can feed a live monitor. Dense zero-fill would try to
  // materialize ~155 million buckets here.
  constexpr Timestamp kEpoch2019 = 1'560'556'800ULL * 1'000'000ULL;
  cb.apdu(kEpoch2019, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 1, 0));

  auto report = analyze_bandwidth(net::as_frame_views(cb.packets()), 10.0);
  expect_same_bandwidth(fused_bandwidth(net::as_frame_views(cb.packets())), report);
  const auto& buckets = report.series.at(TapProtocol::kIec104);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].t_seconds, 0.0);
  EXPECT_EQ(buckets[0].packets, 1u);
  // The far bucket still carries its true offset, so duration and mean
  // rate reflect the real (absurd) span.
  EXPECT_NEAR(buckets[1].t_seconds, 1'560'556'800.0, 10.0);
  EXPECT_EQ(buckets[1].packets, 1u);
  EXPECT_GT(report.duration_seconds(), 1e9);
}

TEST(Bandwidth, PacketBeforeCaptureStartCollapsesIntoBucketZero) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  cb.apdu(5'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  // Stamped before the first-seen packet: unsigned subtraction must not
  // wrap into a ~580,000-year bucket offset.
  cb.apdu(1'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 1, 0));

  auto report = analyze_bandwidth(net::as_frame_views(cb.packets()), 10.0);
  expect_same_bandwidth(fused_bandwidth(net::as_frame_views(cb.packets())), report);
  const auto& buckets = report.series.at(TapProtocol::kIec104);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].packets, 2u);
  // The reordered inter-arrival sample is skipped, not recorded as huge.
  EXPECT_EQ(report.iec104_interarrival_s.count(), 0u);
}

TEST(Bandwidth, FusedMatchesStandaloneWhenFirstFrameIsUndecodable) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  cb.apdu(3'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(14'000'000, server, station, false,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 0, 1));
  std::vector<net::CapturedPacket> packets;
  net::CapturedPacket runt;
  runt.ts = 1'000'000;
  runt.data = {0xde, 0xad, 0xbe, 0xef};
  runt.original_length = 4;
  packets.push_back(runt);
  packets.insert(packets.end(), cb.packets().begin(), cb.packets().end());

  auto views = net::as_frame_views(packets);
  auto report = fused_bandwidth(views);
  // The undecodable frame opens the capture but is not counted.
  EXPECT_EQ(report.start_ts, 1'000'000u);
  EXPECT_EQ(report.total_packets.at(TapProtocol::kIec104), 2u);
  expect_same_bandwidth(report, analyze_bandwidth(views));
}

TEST(Bandwidth, FusedMatchesStandaloneOnReorderedIec104Packet) {
  testlib::CaptureBuilder cb;
  auto server = testlib::ip(10, 0, 0, 1);
  auto station = testlib::ip(10, 1, 0, 5);
  cb.apdu(0, server, station, true, testlib::i_apdu(testlib::float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(40'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 2.0f), 1, 0));
  // Lands in a zero-filled bucket before the tail; its inter-arrival
  // sample is skipped.
  cb.apdu(15'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 3.0f), 2, 0));
  cb.apdu(45'000'000, server, station, true,
          testlib::i_apdu(testlib::float_asdu(5, 1, 4.0f), 3, 0));
  auto views = net::as_frame_views(cb.packets());
  auto report = fused_bandwidth(views);
  EXPECT_EQ(report.iec104_interarrival_s.count(), 2u);
  expect_same_bandwidth(report, analyze_bandwidth(views));
}

TEST(Bandwidth, FusedMatchesStandaloneOnFaultInjectedY1) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(90.0));
  auto faulted =
      faultinject::apply_faults(capture.packets, faultinject::FaultConfig::uniform(0.05));
  ASSERT_GT(faulted.log.total(), 0u);
  auto views = net::as_frame_views(faulted.packets);
  BandwidthAccumulator fused;
  DatasetBuilder builder;
  builder.add_packets(views, &fused);
  BandwidthAccumulator standalone;
  for (const auto& frame : views) standalone.add_packet(frame.ts, frame.data);
  expect_same_bandwidth(fused.finish(), standalone.finish());
  // The checkpoint payload is byte-identical too.
  ByteWriter a;
  ByteWriter b;
  fused.save(a);
  standalone.save(b);
  EXPECT_EQ(a.data(), b.data());
}

TEST(Bandwidth, RestoreInvalidatesCachedSlots) {
  // A warm accumulator rewound by load() must not write through slots that
  // pointed into the maps load() rebuilt.
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(60.0));
  auto views = net::as_frame_views(capture.packets);
  std::span<const net::FrameView> all(views);
  const std::size_t cut = views.size() / 2;

  BandwidthAccumulator acc;
  DatasetBuilder first;
  first.add_packets(all.first(cut), &acc);
  ByteWriter snapshot;
  acc.save(snapshot);
  // Run ahead past the cut, warming every cache, then rewind.
  first.add_packets(all.subspan(cut), &acc);
  ByteReader r(snapshot.view());
  ASSERT_TRUE(acc.load(r).ok());

  DatasetBuilder second;
  second.add_packets(all.subspan(cut), &acc);
  expect_same_bandwidth(acc.finish(), analyze_bandwidth(all));
}

// Hand-built checkpoints that are well-formed up to one field a restore
// must refuse: a bucket count the payload cannot hold (refused before it
// is reserved), or a protocol octet past kOther, in a series or a total.
TEST(Bandwidth, CheckpointCountAndProtocolOutOfRangeAreRefused) {
  auto header = [](ByteWriter& w) {
    w.f64le(10.0);  // bucket width
    w.u8(1);        // have_start
    w.u64le(0);     // start_ts
  };
  auto load_code = [](const ByteWriter& w) {
    BandwidthAccumulator acc;
    ByteReader r(w.view());
    Status st = Status::Ok();
    EXPECT_NO_THROW(st = acc.load(r));
    return st.ok() ? std::string("ok") : st.error().code;
  };
  ByteWriter huge_series;
  header(huge_series);
  huge_series.u32le(1);  // one series
  huge_series.u8(static_cast<std::uint8_t>(TapProtocol::kIec104));
  huge_series.u32le(0xffffffffu);
  EXPECT_EQ(load_code(huge_series), "checkpoint-bad-count");

  ByteWriter bad_series;
  header(bad_series);
  bad_series.u32le(1);
  bad_series.u8(200);
  bad_series.u32le(0);
  EXPECT_EQ(load_code(bad_series), "checkpoint-bad-protocol");

  ByteWriter bad_total;
  header(bad_total);
  bad_total.u32le(0);  // no series
  bad_total.u32le(1);  // one byte total
  bad_total.u8(200);
  bad_total.u64le(60);
  EXPECT_EQ(load_code(bad_total), "checkpoint-bad-protocol");
}

TEST(Bandwidth, Names) {
  EXPECT_EQ(tap_protocol_name(TapProtocol::kIec104), "IEC 104");
  EXPECT_EQ(tap_protocol_name(TapProtocol::kIccp), "ICCP");
}

}  // namespace
}  // namespace uncharted::analysis
