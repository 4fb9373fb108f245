// End-to-end integration: both capture years through the full pipeline,
// cross-checked against the paper's headline findings and the simulator's
// ground truth.
#include <gtest/gtest.h>

#include "analysis/topology_diff.hpp"
#include "core/analyzer.hpp"
#include "core/profiler.hpp"
#include "sim/capture.hpp"

namespace uncharted::core {
namespace {

struct TwoYears {
  sim::CaptureResult y1 = sim::generate_capture(sim::CaptureConfig::y1(400.0));
  sim::CaptureResult y2 = sim::generate_capture(sim::CaptureConfig::y2(150.0));
  analysis::CaptureDataset ds1 = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  analysis::CaptureDataset ds2 = analysis::CaptureDataset::build(net::as_frame_views(y2.packets));
  NameMap names = name_map(y1.topology);
};

const TwoYears& data() {
  static const TwoYears d;
  return d;
}

TEST(Integration, YearDiffRecoversTable2Changes) {
  const auto& d = data();
  auto diff = analysis::diff_topology(d.ds1, d.ds2);

  std::map<std::string, analysis::StationChange> by_name;
  for (const auto& e : diff.entries) by_name[name_of(d.names, e.station)] = e.change;

  // Table 2 added outstations appear, removed ones disappear.
  for (const char* name : {"O50", "O53", "O54"}) {
    ASSERT_TRUE(by_name.count(name)) << name;
    EXPECT_EQ(by_name[name], analysis::StationChange::kAdded) << name;
  }
  for (const char* name : {"O2", "O28"}) {
    ASSERT_TRUE(by_name.count(name)) << name;
    EXPECT_EQ(by_name[name], analysis::StationChange::kRemoved) << name;
  }
}

TEST(Integration, Y2ComplianceFindsO53AndO58) {
  const auto& d = data();
  std::vector<std::string> legacy;
  for (const auto& [ip, entry] : d.ds2.compliance()) {
    if (entry.non_compliant > 0) legacy.push_back(name_of(d.names, ip));
  }
  std::sort(legacy.begin(), legacy.end());
  EXPECT_EQ(legacy, (std::vector<std::string>{"O37", "O53", "O58"}));
}

TEST(Integration, FlowShapeMatchesTable3) {
  const auto& d = data();
  auto f1 = analysis::analyze_flows(d.ds1.flow_table());
  auto f2 = analysis::analyze_flows(d.ds2.flow_table());

  // Y1: short-lived dominate (~74%), nearly all sub-second (~99.8%), with a
  // large long-lived share (~26%) inflated by ignored SYNs.
  EXPECT_GT(f1.summary.short_fraction(), 0.6);
  EXPECT_LT(f1.summary.short_fraction(), 0.9);
  EXPECT_GT(f1.summary.under_1s_fraction_of_short(), 0.95);
  EXPECT_GT(f1.summary.long_fraction(), 0.15);

  // Y2: short-lived share even higher (~94%), long-lived collapses (~6%),
  // and clearly more of the short flows exceed 1 s than in Y1.
  EXPECT_GT(f2.summary.short_fraction(), f1.summary.short_fraction());
  EXPECT_LT(f2.summary.long_fraction(), f1.summary.long_fraction());
  EXPECT_LT(f2.summary.under_1s_fraction_of_short(),
            f1.summary.under_1s_fraction_of_short());
}

TEST(Integration, WhitelistLearnedOnY1FlagsOnlyStructuralNoveltyInY2) {
  const auto& d = data();
  NetworkProfiler profiler;
  profiler.learn(d.ds1);
  auto anomalies = profiler.detect(d.ds2, d.names);

  // Every unknown-station finding must be a genuinely new Y2 outstation.
  std::set<std::string> added = {"O50", "O51", "O52", "O53",
                                 "O54", "O55", "O56", "O57", "O58"};
  for (const auto& a : anomalies) {
    if (a.kind == AnomalyKind::kUnknownStation) {
      EXPECT_TRUE(added.count(a.description)) << a.description;
    }
  }
}

TEST(Integration, PhysicalEventsRecoverable) {
  const auto& d = data();
  auto series = analysis::extract_time_series(d.ds1);

  // The generator-online event (O31): find its voltage series and check the
  // 0 -> nominal jump the paper shows in Fig 18/20.
  const auto* o31 = d.y1.topology.find_outstation(31);
  bool found_jump = false;
  for (const auto& [key, ts] : series) {
    if (key.station == o31->ip && ts.points.size() > 4) {
      if (ts.max_value() - ts.min_value() > 100.0) found_jump = true;
    }
  }
  EXPECT_TRUE(found_jump) << "generator synchronization voltage rise not visible";
}

TEST(Integration, AgcSetpointsFlowToGenerators) {
  const auto& d = data();
  auto setpoints = analysis::extract_setpoint_series(d.ds1);
  EXPECT_GE(setpoints.size(), 2u);  // several AGC-participating stations
  std::size_t total_cmds = 0;
  for (const auto& [ip, ts] : setpoints) total_cmds += ts.points.size();
  EXPECT_GT(total_cmds, 5u);
}

TEST(Integration, ReassembledAndPerPacketAgreeOnApduCountModuloRetransmissions) {
  const auto& d = data();
  analysis::CaptureDataset::Options opts;
  opts.mode = analysis::ParseMode::kReassembled;
  auto reassembled = analysis::CaptureDataset::build(net::as_frame_views(d.y1.packets), opts);
  // Per-packet counts = reassembled counts + duplicated APDUs from TCP
  // retransmissions (the paper's §6.3.1 effect).
  EXPECT_GE(d.ds1.stats().apdus, reassembled.stats().apdus);
  EXPECT_GT(reassembled.stats().tcp_retransmissions, 0u);
  EXPECT_LE(d.ds1.stats().apdus - reassembled.stats().apdus,
            2 * reassembled.stats().tcp_retransmissions + 8);
}

TEST(Integration, StationTypeHistogramShape) {
  const auto& d = data();
  auto types = analysis::classify_stations(d.ds1);
  auto hist = analysis::type_histogram(types);
  // Type 3 (pure backups) is the most common class, as in Fig 17.
  std::size_t max_count = 0;
  analysis::StationType max_type = analysis::StationType::kType1;
  for (const auto& [t, c] : hist) {
    if (c > max_count) {
      max_count = c;
      max_type = t;
    }
  }
  EXPECT_EQ(max_type, analysis::StationType::kType3);
  // Types 5 (stale spontaneous) and 4 (both servers) are singletons.
  EXPECT_EQ(hist[analysis::StationType::kType5], 1u);
}

}  // namespace
}  // namespace uncharted::core
