// Crash-recovery chaos sweep: the streaming analyzer is "killed" partway
// through a damaged capture (its first incarnation is abandoned without a
// shutdown checkpoint), restored from the last periodic snapshot, and run
// to completion — at every fault rate in the standard sweep. The resumed
// report must match the batch analyzer over the same damaged packets
// within the acceptance bounds: station count +/-1, flow totals within
// 10%, same cluster count. Because restore replays from an exact packet
// cursor, the results are in fact identical; the bounds are asserted as
// the contract, exactness as the implementation's stronger property.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "core/streaming.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"

namespace uncharted {
namespace {

constexpr double kSweepRates[] = {0.0, 0.01, 0.05, 0.20};

const std::vector<net::CapturedPacket>& base_capture() {
  static const auto capture = [] {
    return sim::generate_capture(sim::CaptureConfig::y1(120.0));
  }();
  return capture.packets;
}

core::CaptureAnalyzer::Options analyze_options() {
  core::CaptureAnalyzer::Options options;
  options.mode = analysis::ParseMode::kReassembled;
  return options;
}

struct KillRestoreRun {
  core::AnalysisReport batch;
  /// The same streaming run with no kill: the reference for what only a
  /// streaming report carries, its resource pressure.
  core::AnalysisReport uninterrupted;
  core::AnalysisReport resumed;
  std::uint64_t resumed_from = 0;
};

const KillRestoreRun& run_at(double rate) {
  static std::map<double, KillRestoreRun> cache;
  auto it = cache.find(rate);
  if (it != cache.end()) return it->second;

  auto faulted =
      faultinject::apply_faults(base_capture(), faultinject::FaultConfig::uniform(rate));
  const auto& packets = faulted.packets;

  KillRestoreRun run;
  run.batch = core::CaptureAnalyzer::analyze(packets, analyze_options());

  // Per-process path: each TEST in this file runs as its own ctest process
  // and re-runs the kill/restore; under `ctest -j` a shared path would let
  // one process restore from another's shutdown checkpoint.
  auto ckpt = ::testing::TempDir() + "streaming_chaos_" + std::to_string(::getpid()) +
              "_" + std::to_string(rate) + ".ckpt";
  std::filesystem::remove(ckpt);
  std::filesystem::remove(ckpt + ".1");

  core::StreamingOptions options;
  options.analyze = analyze_options();
  {
    core::StreamingAnalyzer whole(options);
    for (const auto& packet : packets) whole.add_packet(net::as_frame_view(packet));
    run.uninterrupted = whole.finalize();
  }
  options.checkpoint_path = ckpt;
  options.checkpoint_every_packets = 500;
  {
    // First incarnation dies at ~40% with no shutdown checkpoint; only the
    // periodic snapshots survive, like a kill -9.
    core::StreamingAnalyzer doomed(options);
    const std::size_t kill_at = packets.size() * 2 / 5;
    for (std::size_t i = 0; i < kill_at; ++i) doomed.add_packet(net::as_frame_view(packets[i]));
  }

  core::StreamingAnalyzer survivor(options);
  EXPECT_TRUE(survivor.try_restore()) << "rate " << rate;
  run.resumed_from = survivor.packets_consumed();
  for (std::size_t i = static_cast<std::size_t>(run.resumed_from); i < packets.size();
       ++i) {
    survivor.add_packet(net::as_frame_view(packets[i]));
  }
  run.resumed = survivor.finalize();
  it = cache.emplace(rate, std::move(run)).first;
  return it->second;
}

TEST(StreamingChaos, RestoreResumesFromAPeriodicSnapshot) {
  for (double rate : kSweepRates) {
    const auto& run = run_at(rate);
    EXPECT_GT(run.resumed_from, 0u) << "rate " << rate;
    EXPECT_EQ(run.resumed_from % 500, 0u) << "rate " << rate;
  }
}

TEST(StreamingChaos, StationCountWithinOneOfBatch) {
  for (double rate : kSweepRates) {
    const auto& run = run_at(rate);
    auto batch = static_cast<long>(run.batch.station_types.size());
    auto resumed = static_cast<long>(run.resumed.station_types.size());
    EXPECT_LE(std::abs(batch - resumed), 1) << "rate " << rate;
  }
}

TEST(StreamingChaos, FlowTotalsWithinTenPercentOfBatch) {
  for (double rate : kSweepRates) {
    const auto& run = run_at(rate);
    double batch = static_cast<double>(run.batch.flows.summary.total);
    double resumed = static_cast<double>(run.resumed.flows.summary.total);
    ASSERT_GT(batch, 0.0) << "rate " << rate;
    EXPECT_LE(std::abs(batch - resumed) / batch, 0.10) << "rate " << rate;
  }
}

TEST(StreamingChaos, ClusterCountMatchesBatch) {
  for (double rate : kSweepRates) {
    const auto& run = run_at(rate);
    EXPECT_EQ(run.resumed.clustering.profiles.size(),
              run.batch.clustering.profiles.size())
        << "rate " << rate;
  }
}

TEST(StreamingChaos, ResumeIsActuallyExact) {
  // The stronger property the crash-recovery design guarantees: the
  // resumed run is bit-for-bit the batch run on every counter of the
  // stats, degradation counters included.
  for (double rate : kSweepRates) {
    const auto& run = run_at(rate);
    EXPECT_TRUE(run.resumed.stats == run.batch.stats) << "rate " << rate;
    EXPECT_EQ(run.resumed.flows.summary.total, run.batch.flows.summary.total)
        << "rate " << rate;
    EXPECT_EQ(run.resumed.bandwidth.total_bytes, run.batch.bandwidth.total_bytes)
        << "rate " << rate;
  }
}

TEST(StreamingChaos, DegradationFlagsSurviveTheRestore) {
  for (double rate : kSweepRates) {
    const auto& run = run_at(rate);
    EXPECT_EQ(run.resumed.degradation.degraded(), run.batch.degradation.degraded())
        << "rate " << rate;
    EXPECT_TRUE(run.resumed.degradation.counters == run.batch.degradation.counters)
        << "rate " << rate;
    EXPECT_TRUE(run.resumed.degradation.resources ==
                run.uninterrupted.degradation.resources)
        << "rate " << rate;
  }
}

}  // namespace
}  // namespace uncharted
