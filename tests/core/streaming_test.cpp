// StreamingAnalyzer: batch equivalence, crash/restore via checkpoint,
// resource governance, and the degradation reporting around both.
#include "core/streaming.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "core/names.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"
#include "tests/core/snapshot_testlib.hpp"

namespace uncharted::core {
namespace {

const sim::CaptureResult& capture() {
  static const auto c = [] {
    return sim::generate_capture(sim::CaptureConfig::y1(90.0));
  }();
  return c;
}

const AnalysisReport& batch_report() {
  static const auto report =
      CaptureAnalyzer::analyze(capture().packets);
  return report;
}

std::string temp_path(const std::string& name) {
  auto path = ::testing::TempDir() + "streaming_test_" + name;
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".1");
  return path;
}

void expect_headlines_match(const AnalysisReport& got, const AnalysisReport& want) {
  EXPECT_EQ(got.stats.packets, want.stats.packets);
  EXPECT_EQ(got.stats.tcp_packets, want.stats.tcp_packets);
  EXPECT_EQ(got.stats.apdus, want.stats.apdus);
  EXPECT_EQ(got.stats.apdu_failures, want.stats.apdu_failures);
  EXPECT_EQ(got.flows.summary.total, want.flows.summary.total);
  EXPECT_EQ(got.station_types.size(), want.station_types.size());
  EXPECT_EQ(got.clustering.profiles.size(), want.clustering.profiles.size());
  EXPECT_EQ(got.bandwidth.total_bytes, want.bandwidth.total_bytes);
}

TEST(Streaming, MatchesBatchAnalyzerExactly) {
  StreamingOptions options;
  StreamingAnalyzer analyzer(options);
  analyzer.add_packets(net::as_frame_views(capture().packets));
  auto report = analyzer.finalize();

  EXPECT_FALSE(report.degradation.degraded());
  expect_headlines_match(report, batch_report());
}

TEST(Streaming, CheckpointRestoreResumesMidStream) {
  auto path = temp_path("resume.ckpt");
  StreamingOptions options;
  options.checkpoint_path = path;

  const auto& packets = capture().packets;
  const std::size_t cut = packets.size() / 2;
  {
    // First incarnation: half the capture, one explicit checkpoint, then
    // gone without finalize — the crash case.
    StreamingAnalyzer first(options);
    first.add_packets(net::as_frame_views({packets.data(), cut}));
    ASSERT_TRUE(first.checkpoint_now().ok());
  }

  StreamingAnalyzer second(options);
  ASSERT_TRUE(second.try_restore());
  ASSERT_EQ(second.packets_consumed(), cut);
  second.add_packets(net::as_frame_views({packets.data() + cut, packets.size() - cut}));
  auto report = second.finalize();
  expect_headlines_match(report, batch_report());
}

// A full Y1 checkpoint survives save -> load -> save byte for byte (the
// record section keeps its format across the compact record), and the
// restored analyzer reports exactly what batch does, at 1 and 4 lanes.
TEST(Streaming, FullCheckpointReloadsByteIdenticalAndReportsLikeBatch) {
  for (unsigned threads : {1u, 4u}) {
    StreamingOptions options;
    options.analyze.threads = threads;
    StreamingAnalyzer first(options);
    first.add_packets(net::as_frame_views(capture().packets));
    ByteWriter saved;
    ASSERT_TRUE(first.save_state(saved).ok());

    StreamingAnalyzer second(options);
    ByteReader r(saved.view());
    ASSERT_TRUE(second.load_state(r).ok()) << threads;
    ByteWriter resaved;
    ASSERT_TRUE(second.save_state(resaved).ok());
    EXPECT_TRUE(saved.data() == resaved.data()) << threads;
    EXPECT_EQ(report_to_json(second.finalize()), report_to_json(batch_report())) << threads;
  }
}

TEST(Streaming, PeriodicCheckpointsAreWritten) {
  auto path = temp_path("periodic.ckpt");
  StreamingOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every_packets = 200;

  StreamingAnalyzer analyzer(options);
  const auto& packets = capture().packets;
  for (std::size_t i = 0; i < 500 && i < packets.size(); ++i) {
    analyzer.add_packet(net::as_frame_view(packets[i]));
  }
  EXPECT_TRUE(std::filesystem::exists(path));

  // A fresh analyzer restores from the periodic snapshot alone.
  StreamingAnalyzer resumed(options);
  ASSERT_TRUE(resumed.try_restore());
  EXPECT_GT(resumed.packets_consumed(), 0u);
  EXPECT_LE(resumed.packets_consumed(), 500u);
  EXPECT_EQ(resumed.packets_consumed() % 200, 0u);
}

TEST(Streaming, CorruptPrimaryFallsBackToRotatedGeneration) {
  auto path = temp_path("fallback.ckpt");
  StreamingOptions options;
  options.checkpoint_path = path;

  const auto& packets = capture().packets;
  {
    StreamingAnalyzer a(options);
    a.add_packets(net::as_frame_views({packets.data(), std::size_t{300}}));
    ASSERT_TRUE(a.checkpoint_now().ok());  // generation 1: 300 packets
    a.add_packets(net::as_frame_views({packets.data() + 300, std::size_t{200}}));
    ASSERT_TRUE(a.checkpoint_now().ok());  // generation 0: 500 packets
  }
  // Tear the primary the way a mid-write crash would.
  std::filesystem::resize_file(path, 32);

  StreamingAnalyzer resumed(options);
  ASSERT_TRUE(resumed.try_restore());
  EXPECT_EQ(resumed.packets_consumed(), 300u);
}

TEST(Streaming, GarbageCheckpointsStartFreshNotCrash) {
  auto path = temp_path("garbage.ckpt");
  StreamingOptions options;
  options.checkpoint_path = path;
  for (const auto& victim : {path, path + ".1"}) {
    std::ofstream f(victim, std::ios::binary);
    f << "not a checkpoint at all";
  }
  StreamingAnalyzer analyzer(options);
  EXPECT_FALSE(analyzer.try_restore());
  EXPECT_EQ(analyzer.packets_consumed(), 0u);

  analyzer.add_packets(net::as_frame_views(capture().packets));
  auto report = analyzer.finalize();
  expect_headlines_match(report, batch_report());
}

TEST(Streaming, VersionThreeCheckpointIsRefused) {
  // Version 3 framed its payload with an engine tag. Such a file restores
  // nothing, and ingest starts fresh.
  auto path = temp_path("v3.ckpt");
  StreamingOptions options;
  options.checkpoint_path = path;
  const auto& packets = capture().packets;
  {
    StreamingAnalyzer writer(options);
    writer.add_packets(net::as_frame_views({packets.data(), std::size_t{300}}));
    ASSERT_TRUE(writer.checkpoint_now().ok());
  }
  {
    // The version word follows the magic; the CRC covers only the payload.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    const char v3[4] = {3, 0, 0, 0};
    f.seekp(4);
    f.write(v3, sizeof v3);
  }
  StreamingAnalyzer reader(options);
  EXPECT_FALSE(reader.try_restore());
  EXPECT_EQ(reader.packets_consumed(), 0u);
  reader.add_packets(net::as_frame_views(packets));
  expect_headlines_match(reader.finalize(), batch_report());
}

/// A hand-made analyzer payload in a current container: `lanes` empty
/// lanes, then an empty bandwidth series.
void write_empty_state(const std::string& path, std::uint32_t lanes) {
  ByteWriter w;
  w.u32le(lanes);
  w.u64le(0);  // cursor
  w.u64le(0);  // last timestamp
  for (std::uint32_t i = 0; i < lanes; ++i) {
    ASSERT_TRUE(analysis::DatasetBuilder().save(w).ok());
  }
  analysis::BandwidthAccumulator().save(w);
  ASSERT_TRUE(write_checkpoint_file(path, w.view()).ok());
}

TEST(Streaming, CheckpointLaneCountOutsideOneToCapIsRefused) {
  StreamingOptions options;
  options.checkpoint_path = temp_path("lanes.ckpt");
  // Control: the same payload with two lanes restores with two lanes,
  // though one thread would start with one.
  write_empty_state(options.checkpoint_path, 2);
  {
    StreamingAnalyzer analyzer(options);
    ASSERT_TRUE(analyzer.try_restore());
    EXPECT_EQ(analyzer.lane_stats().size(), 2u);
  }
  // Every lane state is well formed here, so only the count check can
  // refuse these.
  const auto over_cap = static_cast<std::uint32_t>(analysis::kMaxLanes + 1);
  for (std::uint32_t lanes : {std::uint32_t{0}, over_cap}) {
    options.checkpoint_path = temp_path("lanes.ckpt");
    write_empty_state(options.checkpoint_path, lanes);
    StreamingAnalyzer analyzer(options);
    EXPECT_FALSE(analyzer.try_restore()) << lanes << " lanes";
    EXPECT_EQ(analyzer.packets_consumed(), 0u);
    analyzer.add_packets(net::as_frame_views(capture().packets));
    expect_headlines_match(analyzer.finalize(), batch_report());
  }
}

TEST(Streaming, RestoreWithoutCheckpointPathIsFresh) {
  StreamingAnalyzer analyzer(StreamingOptions{});
  EXPECT_FALSE(analyzer.try_restore());
  auto status = analyzer.checkpoint_now();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "checkpoint-unconfigured");
}

TEST(Streaming, ResourceBudgetsSurfaceAsDegradation) {
  StreamingOptions options;
  options.budgets.max_flow_entries = 8;
  options.budgets.max_records = 512;
  options.budgets.max_parsers = 4;

  StreamingAnalyzer analyzer(options);
  analyzer.add_packets(net::as_frame_views(capture().packets));
  EXPECT_TRUE(analyzer.pressure().any());
  auto report = analyzer.finalize();

  const auto& rp = report.degradation.resources;
  EXPECT_TRUE(report.degradation.degraded());
  EXPECT_GT(rp.flow_evictions + rp.records_evicted + rp.parsers_evicted, 0u);
  EXPECT_LE(rp.peak_flow_entries, 8u);
  EXPECT_LE(rp.peak_records, 512u);
  bool mentioned = false;
  for (const auto& w : report.degradation.warnings) {
    if (w.find("resource budgets") != std::string::npos) mentioned = true;
  }
  EXPECT_TRUE(mentioned);

  NameMap names;
  auto rendered = render_report(report, names);
  EXPECT_NE(rendered.find("resource pressure:"), std::string::npos);
}

TEST(Streaming, UnlimitedBudgetsReportNoPressure) {
  StreamingOptions options;
  StreamingAnalyzer analyzer(options);
  analyzer.add_packets(net::as_frame_views(capture().packets));
  EXPECT_FALSE(analyzer.pressure().any());
  auto report = analyzer.finalize();
  EXPECT_FALSE(report.degradation.resources.any());
}

TEST(Streaming, RepeatedWarningsRenderOnceWithCount) {
  // Dedup rendering: a long soak repeating the same condition every batch
  // must not scroll the report; distinct lines keep first-seen order.
  AnalysisReport report = batch_report();
  report.degradation.pcap_truncated = true;  // force the degraded section
  report.degradation.warnings = {"flow table under pressure",
                                 "flow table under pressure",
                                 "checkpoint write failed: disk full",
                                 "flow table under pressure"};
  NameMap names;
  auto rendered = render_report(report, names);

  auto first = rendered.find("warning: flow table under pressure (x3)");
  EXPECT_NE(first, std::string::npos);
  EXPECT_EQ(rendered.find("warning: flow table under pressure",
                          first + 1),
            std::string::npos);
  // The singleton warning renders without a count suffix.
  EXPECT_NE(rendered.find("warning: checkpoint write failed: disk full\n"),
            std::string::npos);
}

TEST(Streaming, LiveWarningAloneDegradesTheReport) {
  // A condemned stream loses frames without touching any counter: its
  // warning alone must render and flip the JSON flag.
  AnalysisReport report = batch_report();
  ASSERT_FALSE(report.degradation.degraded());
  report.degradation.warnings.push_back(
      "live ingest lost frames: 1 stream condemned as watermark laggard; "
      "frames not yet sent are missing from the report");
  EXPECT_TRUE(report.degradation.degraded());
  EXPECT_NE(render_report(report, NameMap{}).find("warning: live ingest lost frames"),
            std::string::npos);
  EXPECT_NE(report_to_json(report).find("\"degraded\":true"), std::string::npos);
}

TEST(Streaming, DeferredPacketsAreCountedOnce) {
  // With no pool the engine accounts an immediately ingested packet from
  // the lane's decode and a deferred one at admission; neither may be
  // missed or counted twice.
  const auto& packets = capture().packets;
  const std::size_t begin = packets.size() / 4;
  const std::size_t end = packets.size() / 2;
  bool stalled = false;
  std::size_t wedged = 0;
  StreamingOptions options;
  options.stall_hook = [&](std::size_t lane) { return stalled && lane == wedged; };
  StreamingAnalyzer analyzer(options);
  wedged = analysis::shard_of(packets[begin].data, analyzer.lane_stats().size());

  std::uint64_t deferred = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    stalled = i >= begin && i < end;
    analyzer.poll_deferred();
    analyzer.add_packet(net::as_frame_view(packets[i]));
    if (i + 1 == end) deferred = analyzer.lane_stats()[wedged].queued_packets;
  }
  analyzer.poll_deferred();
  ASSERT_GT(deferred, 0u);
  ASSERT_TRUE(analyzer.quiescent());
  std::uint64_t ingested = 0;
  for (const auto& lane : analyzer.lane_stats()) ingested += lane.ingested;
  EXPECT_EQ(ingested, packets.size());

  auto report = analyzer.finalize();
  ASSERT_EQ(report.stats.undecodable_frames, 0u);
  std::uint64_t counted = 0;
  for (const auto& [proto, n] : report.bandwidth.total_packets) counted += n;
  EXPECT_EQ(counted, packets.size());
  auto standalone = analysis::analyze_bandwidth(packets);
  EXPECT_EQ(report.bandwidth.total_bytes, standalone.total_bytes);
  EXPECT_EQ(report.bandwidth.top_connections, standalone.top_connections);
  EXPECT_EQ(report.bandwidth.iec104_interarrival_s.count(),
            standalone.iec104_interarrival_s.count());
  EXPECT_EQ(report_to_json(report), report_to_json(batch_report()));
}

/// capture() with 5% uniform damage: reordering leaves reassembly holes
/// open mid-capture, and drops and truncation leave partial APDU tails.
const std::vector<net::CapturedPacket>& faulted_packets() {
  static const auto faulted =
      faultinject::apply_faults(capture().packets, faultinject::FaultConfig::uniform(0.05));
  return faulted.packets;
}

/// capture() with a poisoned flow mixed in: the quarantine policy drops
/// it.
const std::vector<net::CapturedPacket>& quarantine_packets() {
  static const auto packets = testlib::with_poisoned_flow(
      capture().packets, capture().truth.start_ts + from_seconds(2.0));
  return packets;
}

StreamingOptions snapshot_options(unsigned threads, analysis::ParseMode mode) {
  StreamingOptions options;
  options.analyze.threads = threads;
  options.analyze.mode = mode;
  return options;
}

constexpr analysis::ParseMode kModes[] = {analysis::ParseMode::kPerPacket,
                                          analysis::ParseMode::kReassembled};

TEST(Streaming, ReportSnapshotMatchesFinalizeOfSamePrefix) {
  for (bool poisoned : {false, true}) {
    const auto& packets = poisoned ? quarantine_packets() : faulted_packets();
    // An odd cut lands mid-conversation: partial APDU tails and reassembly
    // holes are still pending, so the snapshot must flush copies of them.
    const std::size_t cut = (packets.size() / 2) | 1;
    for (unsigned threads : {1u, 2u}) {
      for (auto mode : kModes) {
        const std::string label = std::string(poisoned ? "poisoned" : "faulted") +
                                  " threads " + std::to_string(threads) + " mode " +
                                  std::to_string(static_cast<int>(mode));
        auto snapshot = testlib::expect_snapshot_matches_finalize(
            packets, cut, snapshot_options(threads, mode), label);
        if (poisoned) {
          EXPECT_GT(snapshot.degradation.counters.quarantined_connections, 0u)
              << label;
        }
      }
    }
  }
}

/// The captures that stress a query reading the lanes in place, each with
/// the options it runs under.
struct HardCase {
  std::string name;
  std::vector<net::CapturedPacket> packets;
  analysis::ResourceBudgets budgets;
};

std::vector<HardCase> hard_cases() {
  const auto& packets = capture().packets;
  const Timestamp start = capture().truth.start_ts;
  analysis::ResourceBudgets evicting;
  evicting.max_records = 1'500;
  return {
      {"tied timestamps", testlib::with_tied_timestamps(packets), {}},
      {"backward steps", testlib::with_backward_steps(packets), {}},
      {"evicting budget", packets, evicting},
      {"quarantined mid-stream",
       testlib::with_flow_quarantined_midstream(packets, start + from_seconds(1.0),
                                                start + from_seconds(20.0)),
       {}},
      {"reordered segments", testlib::with_reordered_segments(faulted_packets()), {}},
  };
}

TEST(Streaming, SnapshotMatchesFinalizeInTheHardCases) {
  for (const auto& hard : hard_cases()) {
    // Past the junk of the mid-stream quarantine (20 s into 90 s), odd so
    // it lands mid-conversation.
    const std::size_t cut = (hard.packets.size() * 2 / 3) | 1;
    for (unsigned threads : {1u, 2u, 8u}) {
      for (auto mode : kModes) {
        const std::string label = hard.name + " threads " + std::to_string(threads) +
                                  " mode " + std::to_string(static_cast<int>(mode));
        auto options = snapshot_options(threads, mode);
        options.budgets = hard.budgets;
        auto snapshot =
            testlib::expect_snapshot_matches_finalize(hard.packets, cut, options, label);
        if (hard.name == "evicting budget") {
          EXPECT_GT(snapshot.degradation.resources.records_evicted, 0u) << label;
        }
        if (hard.name == "quarantined mid-stream") {
          EXPECT_GT(snapshot.degradation.counters.quarantined_apdus, 0u) << label;
        }
      }
    }
  }
}

TEST(Streaming, QueriesInTheHardCasesLeaveTheLanesUntouched) {
  for (const auto& hard : hard_cases()) {
    for (unsigned threads : {1u, 2u, 8u}) {
      for (auto mode : kModes) {
        const std::string label = hard.name + " threads " + std::to_string(threads) +
                                  " mode " + std::to_string(static_cast<int>(mode));
        auto options = snapshot_options(threads, mode);
        options.budgets = hard.budgets;
        testlib::expect_queries_leave_lanes_untouched(hard.packets, options, label);
      }
    }
  }
}

TEST(Streaming, SnapshotsInterleavedWithIngestLeaveFinalizeUnchanged) {
  const auto& packets = faulted_packets();
  for (unsigned threads : {1u, 2u}) {
    const auto options = snapshot_options(threads, analysis::ParseMode::kReassembled);
    StreamingAnalyzer analyzer(options);
    std::size_t fed = 0;
    // Two cuts a packet or two apart: back-to-back queries must not
    // disturb each other either.
    for (std::size_t cut : {(packets.size() / 7) | 1, (packets.size() / 3) | 1,
                            packets.size() / 3 + 2, (packets.size() * 5 / 6) | 1}) {
      analyzer.add_packets(net::as_frame_views(std::span(packets).subspan(fed, cut - fed)));
      fed = cut;
      EXPECT_EQ(analyzer.report_snapshot().stats.packets, cut);
    }
    analyzer.add_packets(net::as_frame_views(std::span(packets).subspan(fed)));
    auto batch = CaptureAnalyzer::analyze(packets, options.analyze);
    EXPECT_EQ(report_to_json(analyzer.finalize()), report_to_json(batch))
        << "threads " << threads;
  }
}

TEST(Streaming, AnalyzeFileStreamingMatchesAnalyzeFile) {
  auto pcap = ::testing::TempDir() + "streaming_test_roundtrip.pcap";
  ASSERT_TRUE(sim::write_capture_pcap(capture(), pcap).ok());

  StreamingOptions options;
  options.checkpoint_path = temp_path("file.ckpt");
  options.checkpoint_every_packets = 1000;
  auto streamed = analyze_file_streaming(pcap, options);
  ASSERT_TRUE(streamed.ok());
  auto batch = CaptureAnalyzer::analyze_file(pcap);
  ASSERT_TRUE(batch.ok());
  expect_headlines_match(*streamed, *batch);

  // Second run: the shutdown checkpoint from the first run covers the
  // whole file, so the resume cursor skips everything and the report is
  // still identical.
  auto resumed = analyze_file_streaming(pcap, options);
  ASSERT_TRUE(resumed.ok());
  expect_headlines_match(*resumed, *batch);
}

}  // namespace
}  // namespace uncharted::core
