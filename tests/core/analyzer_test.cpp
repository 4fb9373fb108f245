#include "core/analyzer.hpp"

#include <gtest/gtest.h>

#include "sim/capture.hpp"

namespace uncharted::core {
namespace {

struct Shared {
  sim::CaptureResult capture;
  AnalysisReport report;
  NameMap names;
};

const Shared& shared() {
  static const Shared s = [] {
    Shared out;
    out.capture = sim::generate_capture(sim::CaptureConfig::y1(1000.0));
    out.report = CaptureAnalyzer::analyze(out.capture.packets);
    out.names = name_map(out.capture.topology);
    return out;
  }();
  return s;
}

TEST(Analyzer, StatsPlausible) {
  const auto& r = shared().report;
  EXPECT_GT(r.stats.packets, 10'000u);
  EXPECT_EQ(r.stats.packets, r.stats.tcp_packets);
  EXPECT_GT(r.stats.apdus, 5'000u);
  EXPECT_EQ(r.stats.apdu_failures, 0u);
  EXPECT_GT(r.stats.non_compliant_apdus, 0u);
}

TEST(Analyzer, ComplianceFindsExactlyTheY1LegacyDevices) {
  const auto& s = shared();
  std::vector<std::string> legacy;
  for (const auto& [ip, entry] : s.report.compliance) {
    if (entry.non_compliant > 0) {
      legacy.push_back(name_of(s.names, ip));
      // The paper: 100% invalid packets from these devices.
      EXPECT_EQ(entry.non_compliant, entry.i_apdus);
    }
  }
  std::sort(legacy.begin(), legacy.end());
  EXPECT_EQ(legacy, (std::vector<std::string>{"O28", "O37"}));
}

TEST(Analyzer, ClusteringProducesKClustersWithSemantics) {
  const auto& r = shared().report;
  EXPECT_EQ(r.clustering.chosen_k, 5);
  EXPECT_EQ(r.clustering.profiles.size(), 5u);
  // The semantics the paper names must all appear.
  bool has_u = false, has_s = false, has_i = false, has_outlier = false;
  for (const auto& p : r.clustering.profiles) {
    if (p.interpretation.find("keep-alive") != std::string::npos) has_u = true;
    if (p.interpretation.find("acknowledgements") != std::string::npos) has_s = true;
    if (p.interpretation.find("telemetry") != std::string::npos) has_i = true;
    if (p.interpretation.find("outlier") != std::string::npos) has_outlier = true;
  }
  EXPECT_TRUE(has_u);
  EXPECT_TRUE(has_s);
  EXPECT_TRUE(has_i);
  EXPECT_TRUE(has_outlier);
  // PCA projection covers every session in 2-D.
  EXPECT_EQ(r.clustering.projection.projected.size(), r.clustering.sessions.size());
  EXPECT_EQ(r.clustering.projection.projected.at(0).size(), 2u);
}

TEST(Analyzer, OutlierClusterContainsO30) {
  const auto& s = shared();
  const auto* o30 = s.capture.topology.find_outstation(30);
  bool found = false;
  for (const auto* session : s.report.clustering.outlier_sessions) {
    if (session->src == o30->ip || session->dst == o30->ip) found = true;
  }
  EXPECT_TRUE(found) << "C2-O30 (T3=430s) must land in the outlier cluster";
}

TEST(Analyzer, MarkovChainsShowTheThreeFig13Clusters) {
  const auto& r = shared().report;
  std::size_t p11 = 0, ellipse = 0, square = 0;
  for (const auto& c : r.chains) {
    switch (c.cluster) {
      case analysis::ChainCluster::kPoint11: ++p11; break;
      case analysis::ChainCluster::kEllipse: ++ellipse; break;
      case analysis::ChainCluster::kSquare: ++square; break;
    }
  }
  // The paper lists 10 connections at (1,1) in Y1.
  EXPECT_EQ(p11, 10u);
  EXPECT_GT(ellipse, 2u);
  EXPECT_GT(square, 30u);
  // Every ellipse chain contains I100 by construction of the classifier.
  for (const auto& c : r.chains) {
    if (c.cluster == analysis::ChainCluster::kEllipse) {
      EXPECT_TRUE(c.has_i100);
    }
  }
}

TEST(Analyzer, TypeIdDistributionShapedLikeTable7) {
  const auto& r = shared().report;
  double i36 = r.typeids.percentage(36);
  double i13 = r.typeids.percentage(13);
  EXPECT_GT(i36, 0.5);          // paper: 65.1%
  EXPECT_GT(i13, 0.2);          // paper: 31.7%
  EXPECT_GT(i36 + i13, 0.9);    // paper: ~97%
  EXPECT_GT(r.typeids.percentage(9), r.typeids.percentage(100));
}

TEST(Analyzer, VarianceRankingNonEmptyAndSorted) {
  const auto& r = shared().report;
  ASSERT_GT(r.variance_ranking.size(), 10u);
  for (std::size_t i = 1; i < r.variance_ranking.size(); ++i) {
    EXPECT_GE(r.variance_ranking[i - 1].normalized_variance,
              r.variance_ranking[i].normalized_variance);
  }
}

TEST(Analyzer, RenderReportMentionsKeySections) {
  const auto& s = shared();
  std::string text = render_report(s.report, s.names);
  EXPECT_NE(text.find("TCP flows (Table 3)"), std::string::npos);
  EXPECT_NE(text.find("IEC 104 compliance"), std::string::npos);
  EXPECT_NE(text.find("O37"), std::string::npos);
  EXPECT_NE(text.find("Markov chain clusters"), std::string::npos);
  EXPECT_NE(text.find("ASDU typeIDs"), std::string::npos);
}

TEST(Analyzer, BandwidthAndAuditSectionsPopulated) {
  const auto& r = shared().report;
  EXPECT_GT(r.bandwidth.total_bytes.at(analysis::TapProtocol::kIec104), 0u);
  EXPECT_GT(r.bandwidth.total_bytes.at(analysis::TapProtocol::kC37118), 0u);
  EXPECT_GT(r.bandwidth.iec104_interarrival_s.count(), 1000u);
  EXPECT_FALSE(r.bandwidth.top_connections.empty());
  // Per-packet audit: gaps/duplicates only from TCP retransmissions.
  EXPECT_EQ(r.sequence_audit.total_gaps + r.sequence_audit.total_duplicates == 0, false);
  EXPECT_FALSE(r.sequence_audit.entries.empty());
  // The rendered report carries the new sections.
  std::string text = render_report(r, shared().names);
  EXPECT_NE(text.find("== Bandwidth =="), std::string::npos);
  EXPECT_NE(text.find("== Sequence audit =="), std::string::npos);
}

TEST(Analyzer, KeepSeriesFalseDropsSeries) {
  CaptureAnalyzer::Options opts;
  opts.keep_series = false;
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(60.0));
  auto report = CaptureAnalyzer::analyze(capture.packets, opts);
  EXPECT_TRUE(report.series.empty());
  EXPECT_FALSE(report.variance_ranking.empty());
}

TEST(Analyzer, ProfileStagesCoverBandwidthAtEveryThreadCount) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(60.0));
  auto stage_names = [&](unsigned threads) {
    CaptureAnalyzer::Options opts;
    opts.threads = threads;
    std::vector<std::string> names;
    for (const auto& s : CaptureAnalyzer::analyze(capture.packets, opts).timings.stages) {
      names.push_back(s.stage);
    }
    return names;
  };
  // One record pass feeds every stage; each named stage after it is that
  // stage's close.
  const std::vector<std::string> analytics = {
      "flow analysis", "record pass",    "session clustering", "markov chains",
      "station typing", "time series",   "sequence audit",     "conformance audit"};
  // One engine at every thread count: bandwidth accounting happens inside
  // "ingest", from the lane's decode with no pool and as frames are handed
  // to the lanes with one.
  std::vector<std::string> expected = {"ingest"};
  expected.insert(expected.end(), analytics.begin(), analytics.end());
  EXPECT_EQ(stage_names(1), expected);
  EXPECT_EQ(stage_names(2), expected);
}

TEST(Analyzer, FileRoundTrip) {
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(60.0));
  std::string path = "/tmp/uncharted_analyzer_rt.pcap";
  ASSERT_TRUE(sim::write_capture_pcap(capture, path).ok());
  auto report = CaptureAnalyzer::analyze_file(path);
  ASSERT_TRUE(report.ok());
  auto direct = CaptureAnalyzer::analyze(capture.packets);
  EXPECT_EQ(report->stats.apdus, direct.stats.apdus);
  EXPECT_FALSE(CaptureAnalyzer::analyze_file("/nonexistent.pcap").ok());
}

}  // namespace
}  // namespace uncharted::core
