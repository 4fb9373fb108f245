// Determinism regression for the parallel flow-sharded pipeline: the
// rendered report and the exported JSON must be byte-identical at every
// thread count — on clean captures, on fault-injected ones, and across a
// kill/restore cycle mid-stream. This is the contract that makes --threads
// a pure performance knob.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/streaming.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"
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

core::CaptureAnalyzer::Options options_with(unsigned threads) {
  core::CaptureAnalyzer::Options options;
  options.mode = analysis::ParseMode::kReassembled;
  options.keep_series = false;
  options.threads = threads;
  return options;
}

void expect_identical_across_threads(
    const std::vector<net::CapturedPacket>& packets, const char* label) {
  auto baseline = core::CaptureAnalyzer::analyze(packets, options_with(1));
  std::string base_text = core::render_report(baseline, {});
  std::string base_json = core::report_to_json(baseline);
  for (unsigned threads : kThreadCounts) {
    if (threads == 1) continue;
    auto report = core::CaptureAnalyzer::analyze(packets, options_with(threads));
    EXPECT_EQ(core::render_report(report, {}), base_text)
        << label << " render differs at " << threads << " threads";
    EXPECT_EQ(core::report_to_json(report), base_json)
        << label << " JSON differs at " << threads << " threads";
  }
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
    for (std::size_t i = 0; i < kill_at; ++i) doomed.add_packet(packets[i]);
  }
  core::StreamingAnalyzer survivor(options);
  ASSERT_TRUE(survivor.try_restore());
  ASSERT_GT(survivor.packets_consumed(), 0u);
  for (std::size_t i = static_cast<std::size_t>(survivor.packets_consumed());
       i < packets.size(); ++i) {
    survivor.add_packet(packets[i]);
  }
  auto resumed = survivor.finalize();
  EXPECT_EQ(core::render_report(resumed, {}), batch_text);

  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".1");
}

TEST(ParallelDeterminism, ReportSnapshotMatchesFinalizeAtEightThreads) {
  // At threads 8 the lanes' snapshot_partial() calls run concurrently on
  // the pool, and §6 runs on it too: under TSan this is the race check for
  // the live query path. One capture is fault-injected (holes and partial
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

TEST(ParallelDeterminism, EngineMismatchedCheckpointIsRefused) {
  const auto& packets = y1_packets();
  auto ckpt = ::testing::TempDir() + "parallel_engine_mismatch.ckpt";
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".1");

  core::StreamingOptions sequential;
  sequential.analyze = options_with(1);
  sequential.checkpoint_path = ckpt;
  {
    core::StreamingAnalyzer writer(sequential);
    for (std::size_t i = 0; i < 1000 && i < packets.size(); ++i) {
      writer.add_packet(packets[i]);
    }
    ASSERT_TRUE(writer.checkpoint_now().ok());
  }

  // A sharded analyzer cannot resume a single-builder checkpoint: it must
  // start fresh (returning false), never mis-restore.
  core::StreamingOptions parallel = sequential;
  parallel.analyze = options_with(8);
  core::StreamingAnalyzer reader(parallel);
  EXPECT_FALSE(reader.try_restore());
  EXPECT_EQ(reader.packets_consumed(), 0u);

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
