#include "analysis/background.hpp"

#include "analysis/dataset.hpp"

#include <gtest/gtest.h>

#include "sim/capture.hpp"

namespace uncharted::analysis {
namespace {

const sim::CaptureResult& capture() {
  static const sim::CaptureResult c =
      sim::generate_capture(sim::CaptureConfig::y1(120.0));
  return c;
}

TEST(Background, FindsThePmuStreams) {
  auto bg = analyze_background(net::as_frame_views(capture().packets));
  ASSERT_EQ(bg.pmu_streams.size(), 3u);
  for (const auto& s : bg.pmu_streams) {
    EXPECT_EQ(s.sink.str(), "10.0.0.3");  // the data concentrator (C3)
    EXPECT_GT(s.data_frames, 1000u);      // ~10 fps over 120 s
    EXPECT_NEAR(s.measured_rate_fps, 10.0, 0.5);
    EXPECT_EQ(s.configured_rate, 10);
    EXPECT_EQ(s.channels, (std::vector<std::string>{"VA", "VB", "VC", "I1"}));
    EXPECT_FALSE(s.station_name.empty());
    EXPECT_EQ(s.bad_frames, 0u);
    // Frequency deviation is small (grid near nominal) but not exactly 0.
    EXPECT_LT(std::abs(s.mean_freq_deviation_mhz), 100.0);
  }
}

TEST(Background, FindsTheIccpLinks) {
  auto bg = analyze_background(net::as_frame_views(capture().packets));
  ASSERT_EQ(bg.iccp_links.size(), 2u);
  std::uint64_t total_reports = 0;
  for (const auto& l : bg.iccp_links) {
    total_reports += l.reports;
    EXPECT_GT(l.points, l.reports);  // multiple points per report
    ASSERT_EQ(l.associations.size(), 1u);
    EXPECT_EQ(l.associations[0].rfind("TASE2-ASSOC-", 0), 0u);
    EXPECT_TRUE(l.point_names.count("AREA.FREQ"));
  }
  // 4 s + 6 s cadences over 120 s.
  EXPECT_NEAR(static_cast<double>(total_reports), 120.0 / 4 + 120.0 / 6, 8.0);
}

TEST(Background, PacketCountsMatchDatasetClassification) {
  auto bg = analyze_background(net::as_frame_views(capture().packets));
  auto ds = CaptureDataset::build(net::as_frame_views(capture().packets));
  EXPECT_EQ(bg.c37118_packets, ds.stats().c37118_packets);
  EXPECT_EQ(bg.iccp_packets, ds.stats().iccp_packets);
  EXPECT_GT(bg.c37118_packets, 0u);
  EXPECT_GT(bg.iccp_packets, 0u);
}

TEST(Background, DisabledFlagRemovesIt) {
  sim::CaptureConfig cfg = sim::CaptureConfig::y1(60.0);
  cfg.include_background_protocols = false;
  auto quiet = sim::generate_capture(cfg);
  auto bg = analyze_background(net::as_frame_views(quiet.packets));
  EXPECT_TRUE(bg.pmu_streams.empty());
  EXPECT_TRUE(bg.iccp_links.empty());
  EXPECT_EQ(bg.c37118_packets, 0u);
}

TEST(Background, EmptyCapture) {
  auto bg = analyze_background({});
  EXPECT_TRUE(bg.pmu_streams.empty());
  EXPECT_TRUE(bg.iccp_links.empty());
}

}  // namespace
}  // namespace uncharted::analysis
