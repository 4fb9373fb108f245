// Determinism regression for the parallel flow-sharded pipeline: the
// rendered report, the exported JSON and the §6.4 time series (which
// neither rendering carries) must be byte-identical at every thread
// count — on clean captures, on fault-injected ones, and across a
// kill/restore cycle mid-stream. This is the contract that makes --threads
// a pure performance knob.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/streaming.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"
#include "tests/core/reference_report.hpp"
#include "tests/core/snapshot_testlib.hpp"

namespace uncharted {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

const std::vector<net::CapturedPacket>& y1_packets() {
  static const auto capture =
      sim::generate_capture(sim::CaptureConfig::y1(120.0));
  return capture.packets;
}

const std::vector<net::CapturedPacket>& y2_packets() {
  static const auto capture =
      sim::generate_capture(sim::CaptureConfig::y2(90.0));
  return capture.packets;
}

/// The report's time series and their variance ranking as exact text
/// (hex floats).
std::string series_text(const core::AnalysisReport& report) {
  std::string out;
  char buf[64];
  for (const auto& [key, series] : report.series) {
    out += key.str() + " type " + std::to_string(series.type_id) + ':';
    for (const auto& p : series.points) {
      std::snprintf(buf, sizeof buf, " %llu=%a", static_cast<unsigned long long>(p.ts),
                    p.value);
      out += buf;
    }
    out += '\n';
  }
  for (const auto& rank : report.variance_ranking) {
    std::snprintf(buf, sizeof buf, " %a ", rank.normalized_variance);
    out += rank.key.str() + buf + std::to_string(rank.samples) + '\n';
  }
  return out;
}

core::CaptureAnalyzer::Options options_with(unsigned threads) {
  core::CaptureAnalyzer::Options options;
  options.mode = analysis::ParseMode::kReassembled;
  options.threads = threads;
  return options;
}

void expect_identical_across_threads(
    const std::vector<net::CapturedPacket>& packets, const char* label) {
  auto baseline = core::CaptureAnalyzer::analyze(packets, options_with(1));
  std::string base_text = core::render_report(baseline, {});
  std::string base_json = core::report_to_json(baseline);
  std::string base_series = series_text(baseline);
  EXPECT_FALSE(baseline.series.empty()) << label;
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    auto report = core::CaptureAnalyzer::analyze(packets, options_with(threads));
    EXPECT_EQ(core::render_report(report, {}), base_text)
        << label << " render differs at " << threads << " threads";
    EXPECT_EQ(core::report_to_json(report), base_json)
        << label << " JSON differs at " << threads << " threads";
    EXPECT_EQ(series_text(report), base_series)
        << label << " series differ at " << threads << " threads";
  }
}

/// Batch reads the lanes in place; the reference finishes one builder
/// into one record vector and runs each whole-dataset stage over it. The
/// two must agree at every thread count, in both parse modes.
void expect_batch_matches_reference(const std::vector<net::CapturedPacket>& packets,
                                    const char* label) {
  for (auto mode : {analysis::ParseMode::kPerPacket, analysis::ParseMode::kReassembled}) {
    auto options = options_with(1);
    options.mode = mode;
    const auto reference = testlib::reference_report(packets, options);
    const std::string want_text = core::render_report(reference, {});
    const std::string want_json = core::report_to_json(reference);
    const std::string want_series = series_text(reference);
    for (unsigned threads : kThreadCounts) {
      options.threads = threads;
      auto report = core::CaptureAnalyzer::analyze(packets, options);
      EXPECT_EQ(core::render_report(report, {}), want_text)
          << label << " mode " << static_cast<int>(mode) << " render differs at "
          << threads << " threads";
      EXPECT_EQ(core::report_to_json(report), want_json)
          << label << " mode " << static_cast<int>(mode) << " JSON differs at "
          << threads << " threads";
      EXPECT_EQ(series_text(report), want_series)
          << label << " mode " << static_cast<int>(mode) << " series differ at "
          << threads << " threads";
    }
  }
}

TEST(ParallelDeterminism, Y1BatchMatchesStageByStageReference) {
  expect_batch_matches_reference(y1_packets(), "y1");
}

TEST(ParallelDeterminism, Y2BatchMatchesStageByStageReference) {
  expect_batch_matches_reference(y2_packets(), "y2");
}

TEST(ParallelDeterminism, FaultInjectedBatchMatchesStageByStageReference) {
  auto faulted = faultinject::apply_faults(
      y1_packets(), faultinject::FaultConfig::uniform(0.05));
  expect_batch_matches_reference(faulted.packets, "y1@5%");
}

TEST(ParallelDeterminism, Y1ReportsByteIdenticalAtEveryThreadCount) {
  expect_identical_across_threads(y1_packets(), "y1");
}

TEST(ParallelDeterminism, Y2ReportsByteIdenticalAtEveryThreadCount) {
  expect_identical_across_threads(y2_packets(), "y2");
}

TEST(ParallelDeterminism, FaultInjectedCaptureStaysByteIdentical) {
  // 5% uniform damage: truncated frames, drops, duplicates, reordering.
  // Degraded-mode accounting (resyncs, quarantine, truncated tails) must
  // land identically no matter which shard saw the damage.
  auto faulted = faultinject::apply_faults(
      y1_packets(), faultinject::FaultConfig::uniform(0.05));
  expect_identical_across_threads(faulted.packets, "y1@5%");
}

TEST(ParallelDeterminism, KillRestoreMidStreamMatchesSequentialBatch) {
  const auto& packets = y1_packets();
  auto batch = core::CaptureAnalyzer::analyze(packets, options_with(1));
  std::string batch_text = core::render_report(batch, {});

  auto ckpt = ::testing::TempDir() + "parallel_determinism.ckpt";
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".1");

  core::StreamingOptions options;
  options.analyze = options_with(8);
  options.checkpoint_path = ckpt;
  options.checkpoint_every_packets = 500;
  {
    // First incarnation dies at ~40% with no shutdown checkpoint — only
    // the periodic sharded snapshots survive.
    core::StreamingAnalyzer doomed(options);
    const std::size_t kill_at = packets.size() * 2 / 5;
    for (std::size_t i = 0; i < kill_at; ++i) doomed.add_packet(net::as_frame_view(packets[i]));
  }
  core::StreamingAnalyzer survivor(options);
  ASSERT_TRUE(survivor.try_restore());
  ASSERT_GT(survivor.packets_consumed(), 0u);
  for (std::size_t i = static_cast<std::size_t>(survivor.packets_consumed());
       i < packets.size(); ++i) {
    survivor.add_packet(net::as_frame_view(packets[i]));
  }
  auto resumed = survivor.finalize();
  EXPECT_EQ(core::render_report(resumed, {}), batch_text);
  EXPECT_EQ(series_text(resumed), series_text(batch));

  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".1");
}

TEST(ParallelDeterminism, ReportSnapshotMatchesFinalizeAtEightThreads) {
  // At threads 8 the query drains the lanes on the pool, reads them in
  // place, and closes the §6 stages on the pool: under TSan this is the
  // race check for the live query path. One capture is fault-injected (holes and partial
  // tails pending at the cut), one carries a quarantined flow.
  const auto faulted = faultinject::apply_faults(
      y1_packets(), faultinject::FaultConfig::uniform(0.05));
  const auto poisoned = testlib::with_poisoned_flow(y1_packets(), y1_packets()[0].ts);
  for (auto mode : {analysis::ParseMode::kPerPacket, analysis::ParseMode::kReassembled}) {
    core::StreamingOptions options;
    options.analyze = options_with(8);
    options.analyze.mode = mode;
    const std::string label = "mode " + std::to_string(static_cast<int>(mode));
    testlib::expect_snapshot_matches_finalize(
        faulted.packets, (faulted.packets.size() / 2) | 1, options, label);
    auto snapshot = testlib::expect_snapshot_matches_finalize(
        poisoned, (poisoned.size() / 2) | 1, options, "poisoned " + label);
    EXPECT_GT(snapshot.degradation.counters.quarantined_connections, 0u) << label;
  }
}

TEST(ParallelDeterminism, CheckpointRestoresAcrossThreadCounts) {
  // The lane count is the writer's --threads and travels in the
  // checkpoint: a restore under another --threads rebuilds that many lanes
  // and still ends at the batch report.
  const auto& packets = y1_packets();
  auto batch = core::CaptureAnalyzer::analyze(packets, options_with(1));
  const std::string batch_text = core::render_report(batch, {});
  const std::string batch_json = core::report_to_json(batch);
  const std::size_t cut = packets.size() / 2;
  auto ckpt = ::testing::TempDir() + "parallel_cross_threads.ckpt";
  for (auto [write, restore] : {std::pair{1u, 4u}, std::pair{4u, 1u}}) {
    const std::string label =
        std::to_string(write) + " -> " + std::to_string(restore) + " threads";
    std::filesystem::remove(ckpt);
    std::filesystem::remove(ckpt + ".1");
    core::StreamingOptions options;
    options.analyze = options_with(write);
    options.checkpoint_path = ckpt;
    {
      core::StreamingAnalyzer writer(options);
      writer.add_packets(net::as_frame_views({packets.data(), cut}));
      ASSERT_TRUE(writer.checkpoint_now().ok()) << label;
    }
    options.analyze = options_with(restore);
    core::StreamingAnalyzer reader(options);
    ASSERT_TRUE(reader.try_restore()) << label;
    EXPECT_EQ(reader.packets_consumed(), cut) << label;
    EXPECT_EQ(reader.lane_stats().size(), write) << label;
    reader.add_packets(net::as_frame_views({packets.data() + cut, packets.size() - cut}));
    auto resumed = reader.finalize();
    EXPECT_EQ(core::render_report(resumed, {}), batch_text) << label;
    EXPECT_EQ(core::report_to_json(resumed), batch_json) << label;
    EXPECT_EQ(series_text(resumed), series_text(batch)) << label;
  }
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".1");
}

TEST(ParallelDeterminism, ProfileFooterIsOptInOnly) {
  auto report = core::CaptureAnalyzer::analyze(y2_packets(), options_with(2));
  ASSERT_FALSE(report.timings.empty());
  std::string plain = core::render_report(report, {});
  EXPECT_EQ(plain.find("Stage timings"), std::string::npos);
  core::RenderOptions render_options;
  render_options.profile = true;
  std::string profiled = core::render_report(report, {}, render_options);
  EXPECT_NE(profiled.find("Stage timings"), std::string::npos);
  // The JSON surface never carries timings.
  EXPECT_EQ(core::report_to_json(report).find("timing"), std::string::npos);
}

}  // namespace
}  // namespace uncharted
