// The chaos sweep: the full measurement pipeline, run over the same
// synthetic capture at increasing fault rates, must never crash (this
// binary runs under ASan+UBSan in CI), must say it is degraded exactly
// when damage was injected, and must keep the headline numbers — station
// counts, flow-duration buckets, cluster count — within documented drift
// bounds while the damage is light. The bounds here are the ones quoted
// in DESIGN.md "Degraded-mode ingestion".
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>

#include "core/analyzer.hpp"
#include "faultinject/fault.hpp"
#include "sim/capture.hpp"

namespace uncharted {
namespace {

constexpr double kSweepRates[] = {0.0, 0.01, 0.05, 0.20};

const std::vector<net::CapturedPacket>& base_capture() {
  static const auto capture = [] {
    return sim::generate_capture(sim::CaptureConfig::y1(180.0));
  }();
  return capture.packets;
}

struct SweepPoint {
  faultinject::FaultLog log;
  core::AnalysisReport report;
};

/// One analysis per rate, shared by every test in this file.
const SweepPoint& sweep_point(double rate) {
  static std::map<double, SweepPoint> cache;
  auto it = cache.find(rate);
  if (it == cache.end()) {
    auto faulted = faultinject::apply_faults(base_capture(),
                                             faultinject::FaultConfig::uniform(rate));
    core::CaptureAnalyzer::Options options;
    options.mode = analysis::ParseMode::kReassembled;
    SweepPoint point;
    point.log = faulted.log;
    point.report = core::CaptureAnalyzer::analyze(faulted.packets, options);
    it = cache.emplace(rate, std::move(point)).first;
  }
  return it->second;
}

TEST(ChaosSweep, CleanRunIsCleanAndPopulated) {
  const auto& clean = sweep_point(0.0);
  EXPECT_EQ(clean.log.total(), 0u);
  EXPECT_FALSE(clean.report.degradation.degraded());
  EXPECT_FALSE(clean.report.degradation.counters.any());
  // The capture actually exercises the pipeline: real APDUs, flows,
  // stations, and a full K=5 clustering to drift against.
  EXPECT_GT(clean.report.stats.apdus, 1000u);
  EXPECT_GT(clean.report.flows.summary.total, 10u);
  EXPECT_GT(clean.report.station_types.size(), 5u);
  EXPECT_EQ(clean.report.clustering.profiles.size(), 5u);
}

TEST(ChaosSweep, FaultedRunsReportDegradationExactlyWhenInjected) {
  for (double rate : kSweepRates) {
    const auto& point = sweep_point(rate);
    if (rate == 0.0) {
      EXPECT_FALSE(point.report.degradation.degraded()) << "rate " << rate;
    } else {
      EXPECT_GT(point.log.total(), 0u) << "rate " << rate;
      EXPECT_TRUE(point.report.degradation.degraded()) << "rate " << rate;
      EXPECT_GT(point.report.degradation.counters.total(), 0u) << "rate " << rate;
      EXPECT_FALSE(point.report.degradation.warnings.empty()) << "rate " << rate;
    }
  }
}

TEST(ChaosSweep, InjectedFaultVolumeIsMonotoneAcrossRates) {
  std::uint64_t previous = 0;
  for (double rate : kSweepRates) {
    const auto& point = sweep_point(rate);
    if (rate > 0.0) {
      EXPECT_GT(point.log.total(), previous) << "rate " << rate;
    }
    previous = point.log.total();
  }
}

TEST(ChaosSweep, SurvivedDamageCountersGrowWithRate) {
  // The pipeline's own view of the damage (not the injector's) must grow
  // between the light and heavy ends of the sweep.
  const auto& light = sweep_point(0.01);
  const auto& heavy = sweep_point(0.20);
  EXPECT_GT(heavy.report.degradation.counters.total(),
            light.report.degradation.counters.total());
}

TEST(ChaosSweep, HeadlineMetricsDriftBoundedAtOnePercent) {
  const auto& clean = sweep_point(0.0).report;
  const auto& faulted = sweep_point(0.01).report;

  // Topology: every station the clean run saw must still be seen, give or
  // take one quarantined/starved outstation.
  auto stations = [](const core::AnalysisReport& r) {
    return static_cast<double>(r.station_types.size());
  };
  EXPECT_LE(std::fabs(stations(clean) - stations(faulted)), 1.0)
      << "clean " << stations(clean) << " faulted " << stations(faulted);

  // Flow-duration buckets: connection counts shift by at most 10% — drops
  // can sever a long-lived flow into two shorter ones, never erase whole
  // endpoints at this rate.
  const auto& cf = clean.flows.summary;
  const auto& ff = faulted.flows.summary;
  auto within = [](std::uint64_t a, std::uint64_t b, double frac) {
    double hi = std::max<double>(static_cast<double>(a), 1.0);
    return std::fabs(static_cast<double>(a) - static_cast<double>(b)) / hi <= frac;
  };
  EXPECT_TRUE(within(cf.total, ff.total, 0.10))
      << "total " << cf.total << " vs " << ff.total;
  EXPECT_TRUE(within(cf.long_lived, ff.long_lived, 0.10))
      << "long " << cf.long_lived << " vs " << ff.long_lived;

  // Clustering: K=5 session clusters still resolve.
  EXPECT_EQ(faulted.clustering.profiles.size(), 5u);

  // APDU volume: at 1% injected faults the pipeline keeps >= 90% of the
  // clean APDU count (drops + quarantine take the rest).
  EXPECT_GE(static_cast<double>(faulted.stats.apdus),
            0.90 * static_cast<double>(clean.stats.apdus))
      << "apdus " << clean.stats.apdus << " vs " << faulted.stats.apdus;
}

TEST(ChaosSweep, HeavyDamageStillProducesAReport) {
  const auto& heavy = sweep_point(0.20);
  // No drift bounds at 20% — only survival and self-awareness.
  EXPECT_GT(heavy.report.stats.apdus, 0u);
  EXPECT_TRUE(heavy.report.degradation.degraded());
  const auto& d = heavy.report.degradation.counters;
  EXPECT_GT(d.reassembly_gaps, 0u);
  EXPECT_GT(d.parser_resyncs + d.undecodable_apdus + d.undecodable_frames, 0u);
  // The report renders without tripping anything.
  core::NameMap names;
  EXPECT_FALSE(core::render_report(heavy.report, names).empty());
}

TEST(ChaosSweep, PerPacketModeSurvivesHeavyDamage) {
  auto faulted = faultinject::apply_faults(base_capture(),
                                           faultinject::FaultConfig::uniform(0.20));
  core::CaptureAnalyzer::Options options;
  options.mode = analysis::ParseMode::kPerPacket;
  auto report = core::CaptureAnalyzer::analyze(faulted.packets, options);
  EXPECT_TRUE(report.degradation.degraded());
  EXPECT_GT(report.stats.apdus, 0u);
}

}  // namespace
}  // namespace uncharted
