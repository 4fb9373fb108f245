// The §6 report assembled stage by stage over a finished dataset, the way
// perfbench's traced pass assembles one: DatasetBuilder::finish() puts the
// records in one vector in canonical order, and each whole-dataset stage
// function reads that vector on its own. CaptureAnalyzer::analyze, live
// queries and StreamingAnalyzer::finalize() reach their reports through
// analyze_view instead — one pass over the lanes' records, read in place —
// so this is the independent reference they are checked against.
#pragma once

#include <vector>

#include "analysis/bandwidth.hpp"
#include "analysis/classify.hpp"
#include "analysis/conformance_audit.hpp"
#include "analysis/dataset.hpp"
#include "analysis/flows.hpp"
#include "analysis/markov.hpp"
#include "analysis/physical.hpp"
#include "analysis/seq_audit.hpp"
#include "analysis/sessions.hpp"
#include "analysis/typeid_stats.hpp"
#include "core/analyzer.hpp"
#include "util/strings.hpp"

namespace uncharted::testlib {

/// Every §6 stage over `dataset`, inline (no pool), plus the "degraded
/// capture" warning the analyzer adds.
inline core::AnalysisReport reference_report(const analysis::CaptureDataset& dataset,
                                             analysis::BandwidthReport bandwidth) {
  core::AnalysisReport report;
  report.stats = dataset.stats();
  report.flows = analysis::analyze_flows(dataset.flow_table());
  report.compliance = dataset.compliance();
  report.clustering =
      analysis::cluster_sessions(dataset, analysis::kSessionClusters, nullptr);
  report.chains = analysis::build_connection_chains(dataset, nullptr);
  report.station_types = analysis::classify_stations(dataset);
  report.typeids = analysis::typeid_distribution(dataset);
  report.typeid_stations = analysis::typeid_station_counts(dataset);
  report.series = analysis::extract_time_series(dataset);
  report.variance_ranking = analysis::rank_by_normalized_variance(report.series);
  report.bandwidth = std::move(bandwidth);
  report.sequence_audit = analysis::audit_sequences(dataset);
  report.conformance = analysis::audit_conformance(dataset);
  report.degradation.counters = report.stats.degradation;
  if (report.degradation.counters.any()) {
    report.degradation.warnings.push_back(
        "degraded capture: " + format_count(report.degradation.counters.total()) +
        " fault events survived (see degradation counters)");
  }
  return report;
}

/// The reference for a whole capture: one DatasetBuilder over `packets`,
/// finished, with the bandwidth series from analyze_bandwidth().
inline core::AnalysisReport reference_report(
    const std::vector<net::CapturedPacket>& packets,
    const core::CaptureAnalyzer::Options& options) {
  analysis::CaptureDataset::Options ds_opts;
  ds_opts.mode = options.mode;
  ds_opts.parser_mode = options.parser_mode;
  analysis::DatasetBuilder builder(ds_opts);
  builder.add_packets(net::as_frame_views(packets));
  return reference_report(builder.finish(), analysis::analyze_bandwidth(packets));
}

}  // namespace uncharted::testlib
