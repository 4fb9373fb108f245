#include "core/analyzer.hpp"

#include <algorithm>

#include "analysis/sharded.hpp"
#include "exec/pool.hpp"
#include "iec104/constants.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace uncharted::core {

AnalysisReport analyze_view(analysis::DatasetView& view,
                            analysis::BandwidthReport bandwidth, exec::Pool* pool) {
  AnalysisReport report;
  report.stats = view.stats();
  {
    ScopedStageTimer t(&report.timings, "flow analysis");
    report.flows = analysis::analyze_flows(view.flow_table());
  }
  analysis::ComplianceAccumulator compliance;
  analysis::SessionAccumulator sessions;
  analysis::ChainAccumulator chains;
  analysis::StationTypingAccumulator typing;
  analysis::TypeIdAccumulator typeids;
  analysis::TypeIdStationAccumulator typeid_stations;
  analysis::SeriesAccumulator series;
  analysis::SeqAuditAccumulator sequences;
  analysis::ConformanceAccumulator conformance(view.flow_table());
  {
    ScopedStageTimer t(&report.timings, "record pass");
    analysis::FlowIds ids;
    while (const analysis::ApduRecord* rec = view.records().next()) {
      const std::uint32_t flow = ids.id(rec->flow);
      compliance.add(*rec, flow);
      sessions.add(*rec, flow);
      chains.add(*rec, flow);
      typing.add(*rec, flow);
      typeids.add(*rec, flow);
      typeid_stations.add(*rec, flow);
      series.add(*rec, flow);
      sequences.add(*rec, flow);
      conformance.add(*rec, flow);
    }
  }
  report.compliance = compliance.close(report.stats);
  {
    ScopedStageTimer t(&report.timings, "session clustering");
    report.clustering =
        analysis::cluster_sessions(sessions.close(), analysis::kSessionClusters, pool);
  }
  {
    ScopedStageTimer t(&report.timings, "markov chains");
    report.chains = chains.close(pool);
  }
  {
    ScopedStageTimer t(&report.timings, "station typing");
    report.station_types = typing.close();
    report.typeids = typeids.close();
    report.typeid_stations = typeid_stations.close();
  }
  {
    ScopedStageTimer t(&report.timings, "time series");
    report.series = series.close();
    report.variance_ranking = analysis::rank_by_normalized_variance(report.series);
  }
  report.bandwidth = std::move(bandwidth);
  {
    ScopedStageTimer t(&report.timings, "sequence audit");
    report.sequence_audit = sequences.close();
  }
  {
    ScopedStageTimer t(&report.timings, "conformance audit");
    report.conformance = conformance.close(view.damage());
  }
  report.degradation.counters = report.stats.degradation;
  if (report.degradation.counters.any()) {
    report.degradation.warnings.push_back(
        "degraded capture: " + format_count(report.degradation.counters.total()) +
        " fault events survived (see degradation counters)");
  }
  return report;
}

namespace {

/// The one ingest loop behind every CaptureAnalyzer entry: `for_each_frame`
/// calls `add` on each frame in capture order, and `add` is the engine's
/// add_packet, the admission path StreamingAnalyzer and the daemon use.
/// With no pool that one decode feeds the bandwidth accounting too.
/// "ingest" times the feed and the query at end of stream that flushes the
/// lanes; the report then reads their records in place.
template <typename ForEachFrame>
AnalysisReport analyze_frames(const CaptureAnalyzer::Options& options,
                              ForEachFrame&& for_each_frame) {
  analysis::CaptureDataset::Options ds_opts;
  ds_opts.mode = options.mode;
  ds_opts.parser_mode = options.parser_mode;

  auto pool = exec::Pool::for_threads(options.threads);
  StageTimings build_timings;
  analysis::ShardedDatasetBuilder engine(ds_opts, {}, pool.get());
  analysis::BandwidthAccumulator bandwidth;
  analysis::DatasetView view;
  {
    ScopedStageTimer t(&build_timings, "ingest");
    for_each_frame(
        [&](const net::FrameView& frame) { engine.add_packet(frame, &bandwidth); });
    engine.query(view);
  }
  auto report = analyze_view(view, bandwidth.finish(), pool.get());
  // No budgets bind here, so this carries only the sampled peaks.
  report.degradation.resources = engine.pressure();
  report.timings.stages.insert(report.timings.stages.begin(),
                               build_timings.stages.begin(),
                               build_timings.stages.end());
  return report;
}

}  // namespace

AnalysisReport CaptureAnalyzer::analyze(const std::vector<net::CapturedPacket>& packets,
                                        const Options& options) {
  return analyze_frames(options, [&](auto&& add) {
    for (const auto& packet : packets) add(net::as_frame_view(packet));
  });
}

AnalysisReport CaptureAnalyzer::analyze(std::span<const net::FrameView> frames,
                                        const Options& options) {
  return analyze_frames(options, [&](auto&& add) {
    for (const auto& frame : frames) add(frame);
  });
}

Result<AnalysisReport> CaptureAnalyzer::analyze_file(const std::string& pcap_path,
                                                     const Options& options) {
  return analyze_file(pcap_path, options, nullptr);
}

Result<AnalysisReport> CaptureAnalyzer::analyze_file(const std::string& pcap_path,
                                                     const Options& options,
                                                     net::FileOps* file_ops) {
  // The capture is mapped (or read, when mapping is impossible) once, and
  // the cursor hands each record to the engine as a view into those bytes.
  // Tolerant cursor: a capture cut off mid-record (crashed tap, live file)
  // still yields the report over its complete prefix, flagged as degraded.
  auto mapping = net::PcapMapping::open(pcap_path, file_ops);
  if (!mapping) return mapping.error();
  auto cursor = net::PcapCursor::open(mapping->bytes());
  if (!cursor) return cursor.error();

  auto report = analyze_frames(options, [&](auto&& add) {
    net::FrameView frame;
    while (cursor->next(frame)) add(frame);
  });
  if (cursor->truncated_tail()) {
    report.degradation.pcap_truncated = true;
    report.degradation.warnings.insert(report.degradation.warnings.begin(),
                                       cursor->warning());
  }
  return report;
}

namespace {

/// Identical warnings repeat when many stages (or many connections) hit
/// the same condition; emit each distinct line once with a count,
/// preserving first-occurrence order. Shared by the degradation and
/// conformance sections.
void render_deduped_warnings(std::string& out,
                             const std::vector<std::string>& warnings) {
  std::vector<std::pair<std::string, std::size_t>> deduped;
  for (const auto& warning : warnings) {
    auto it = std::find_if(deduped.begin(), deduped.end(),
                           [&](const auto& e) { return e.first == warning; });
    if (it == deduped.end()) {
      deduped.emplace_back(warning, 1);
    } else {
      ++it->second;
    }
  }
  for (const auto& [warning, count] : deduped) {
    out += "warning: " + warning +
           (count > 1 ? " (x" + std::to_string(count) + ")" : "") + "\n";
  }
}

}  // namespace

std::string render_report(const AnalysisReport& report, const NameMap& names,
                          const RenderOptions& render_options) {
  std::string out;

  out += "== Capture overview ==\n";
  out += "packets: " + format_count(report.stats.packets) +
         "  tcp: " + format_count(report.stats.tcp_packets) +
         "  apdus: " + format_count(report.stats.apdus) +
         "  non-compliant: " + format_count(report.stats.non_compliant_apdus) +
         "  parse failures: " + format_count(report.stats.apdu_failures) + "\n\n";

  if (report.degradation.degraded()) {
    const auto& d = report.degradation.counters;
    out += "== Degraded-mode ingestion ==\n";
    render_deduped_warnings(out, report.degradation.warnings);
    out += "undecodable frames: " + format_count(d.undecodable_frames) +
           "  parser resyncs: " + format_count(d.parser_resyncs) + " (" +
           format_count(d.garbage_bytes) + " garbage bytes)" +
           "  undecodable apdus: " + format_count(d.undecodable_apdus) + "\n";
    out += "reassembly gaps: " + format_count(d.reassembly_gaps) + " (" +
           format_count(d.reassembly_lost_bytes) + " bytes lost)" +
           "  overlaps: " + format_count(d.overlapping_segments) +
           "  aborted streams: " + format_count(d.aborted_streams) +
           "  wild segments: " + format_count(d.wild_segments) + "\n";
    out += "truncated tail bytes: " + format_count(d.truncated_tail_bytes) +
           "  quarantined: " + format_count(d.quarantined_connections) +
           " connections / " + format_count(d.quarantined_apdus) + " apdus" +
           (report.degradation.pcap_truncated ? "  [pcap tail truncated]" : "") +
           "\n";
    const auto& rp = report.degradation.resources;
    if (rp.any()) {
      out += "resource pressure: " + format_count(rp.flow_evictions) +
             " flows evicted, " + format_count(rp.reassembly_flushes) +
             " streams force-flushed, " + format_count(rp.records_evicted) +
             " records evicted, " + format_count(rp.parsers_evicted) +
             " parsers retired (peaks: " + format_count(rp.peak_flow_entries) +
             " flows, " + format_count(rp.peak_reassembly_bytes) +
             " pending bytes, " + format_count(rp.peak_records) + " records)\n";
    }
    out += "\n";
  }

  out += "== TCP flows (Table 3) ==\n";
  const auto& fs = report.flows.summary;
  out += "total connections: " + format_count(fs.total) + "\n";
  out += "short-lived: " + format_count(fs.short_lived) + " (" +
         format_percent(fs.short_fraction(), 1) + "), of which <1s: " +
         format_count(fs.short_under_1s) + " (" +
         format_percent(fs.under_1s_fraction_of_short(), 1) + ")\n";
  out += "long-lived: " + format_count(fs.long_lived) + " (" +
         format_percent(fs.long_fraction(), 1) + ")\n\n";

  if (!report.compliance.empty()) {
    out += "== IEC 104 compliance (Fig 7) ==\n";
    for (const auto& [ip, entry] : report.compliance) {
      if (entry.non_compliant == 0) continue;
      out += name_of(names, ip) + ": " + format_count(entry.non_compliant) + "/" +
             format_count(entry.i_apdus) + " I-APDUs non-standard (profile " +
             entry.profile.str() + ")\n";
    }
    out += "\n";
  }

  out += "== Session clusters (Figs 10-11) ==\n";
  for (const auto& p : report.clustering.profiles) {
    out += "cluster " + std::to_string(p.cluster) + ": n=" + std::to_string(p.size) +
           "  dt=" + format_duration(p.mean_inter_arrival) + "  %I=" +
           format_percent(p.pct_i, 0) + " %S=" + format_percent(p.pct_s, 0) +
           " %U=" + format_percent(p.pct_u, 0) + "  -- " + p.interpretation + "\n";
  }
  out += "\n";

  out += "== Markov chain clusters (Fig 13) ==\n";
  std::size_t p11 = 0, square = 0, ellipse = 0;
  for (const auto& c : report.chains) {
    switch (c.cluster) {
      case analysis::ChainCluster::kPoint11: ++p11; break;
      case analysis::ChainCluster::kSquare: ++square; break;
      case analysis::ChainCluster::kEllipse: ++ellipse; break;
    }
  }
  out += "point(1,1): " + std::to_string(p11) + "  square: " + std::to_string(square) +
         "  ellipse (I100): " + std::to_string(ellipse) + "\n\n";

  out += "== Outstation types (Fig 17) ==\n";
  auto hist = analysis::type_histogram(report.station_types);
  for (const auto& [type, count] : hist) {
    out += "type " + std::to_string(static_cast<int>(type)) + ": " +
           std::to_string(count) + "  (" + analysis::station_type_description(type) +
           ")\n";
  }
  out += "\n";

  out += "== Bandwidth ==\n";
  for (const auto& [proto, bytes] : report.bandwidth.total_bytes) {
    out += analysis::tap_protocol_name(proto) + ": " + format_count(bytes) + " bytes (" +
           format_double(report.bandwidth.mean_rate_bps(proto) / 1024.0, 1) + " KiB/s)\n";
  }
  out += "IEC 104 mean packet inter-arrival: " +
         format_duration(report.bandwidth.iec104_interarrival_s.mean()) + "\n\n";

  out += "== Sequence audit ==\n";
  out += "gaps: " + format_count(report.sequence_audit.total_gaps) +
         "  duplicates: " + format_count(report.sequence_audit.total_duplicates) +
         "  ack violations: " + format_count(report.sequence_audit.total_ack_violations) +
         "\n\n";

  const auto& conf = report.conformance;
  if (!conf.entries.empty()) {
    out += "== IEC 104 conformance ==\n";
    out += "connections: " + format_count(conf.clean_connections) + " clean, " +
           format_count(conf.legacy_connections) + " legacy, " +
           format_count(conf.suspect_connections) + " suspect, " +
           format_count(conf.hostile_connections) + " hostile\n";
    std::vector<std::string> conf_warnings;
    for (const auto& entry : conf.entries) {
      if (entry.verdict == iec104::Verdict::kClean ||
          entry.verdict == iec104::Verdict::kLegacy) {
        continue;
      }
      out += name_of(names, entry.pair.a) + " <-> " + name_of(names, entry.pair.b) +
             ": " + iec104::verdict_name(entry.verdict) + " (" +
             entry.profile.summary() + ")\n";
      for (const auto& v : entry.profile.violations) {
        if (v.severity != iec104::Severity::kHostile) continue;
        conf_warnings.push_back("hostile " + iec104::violation_code_name(v.code) +
                                ": " + v.detail);
      }
    }
    render_deduped_warnings(out, conf_warnings);
    out += "\n";
  }

  out += "== ASDU typeIDs (Table 7) ==\n";
  for (const auto& [type, count] : report.typeids.sorted()) {
    out += "I" + std::to_string(type) + ": " +
           format_percent(report.typeids.percentage(type)) + " (" + format_count(count) +
           ")\n";
  }

  // Wall time is nondeterministic, so the footer is opt-in: with it off,
  // the rendered report stays byte-comparable across runs and thread counts.
  if (render_options.profile && !report.timings.empty()) {
    out += "\n== Stage timings (--profile) ==\n";
    for (const auto& s : report.timings.stages) {
      out += s.stage + ": " + format_double(s.wall_ms, 2) + " ms\n";
    }
    out += "total: " + format_double(report.timings.total_ms(), 2) + " ms\n";
  }
  return out;
}

std::string render_report(const AnalysisReport& report, const NameMap& names) {
  return render_report(report, names, RenderOptions{});
}

}  // namespace uncharted::core
