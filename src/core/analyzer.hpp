// CaptureAnalyzer: the one-call public API — pcap in, full measurement
// report out. Runs every analysis from the paper's §6 over a capture.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/conformance_audit.hpp"
#include "analysis/dataset.hpp"
#include "analysis/bandwidth.hpp"
#include "analysis/flows.hpp"
#include "analysis/markov.hpp"
#include "analysis/physical.hpp"
#include "analysis/seq_audit.hpp"
#include "analysis/sessions.hpp"
#include "analysis/topology_diff.hpp"
#include "analysis/typeid_stats.hpp"
#include "core/names.hpp"
#include "core/profiler.hpp"
#include "net/mapping.hpp"
#include "util/expected.hpp"

namespace uncharted::exec {
class Pool;
}  // namespace uncharted::exec

namespace uncharted::core {

/// What degraded-mode ingestion dropped, skipped or quarantined while the
/// report was produced. `degraded()` is false for a clean capture; when
/// true — any counter, enforced budget, truncated pcap or warning (a live
/// ingest loss, a failed checkpoint write) — the headline numbers carry
/// the documented drift bounds (DESIGN.md "Degraded-mode ingestion")
/// instead of being exact.
struct DegradationReport {
  analysis::DegradationCounters counters;
  /// Budget enforcement during streaming ingestion (empty for batch runs
  /// and unbounded streams).
  analysis::ResourcePressure resources;
  bool pcap_truncated = false;  ///< the capture file itself ended mid-record
  /// Human-readable summaries, empty when clean. May repeat (one entry per
  /// emitting stage); rendering deduplicates identical lines with a count.
  std::vector<std::string> warnings;

  bool degraded() const {
    return counters.any() || resources.any() || pcap_truncated || !warnings.empty();
  }
};

/// Everything §6 computes over one capture.
struct AnalysisReport {
  analysis::DatasetStats stats;
  analysis::FlowAnalysis flows;
  std::map<net::Ipv4Addr, analysis::CaptureDataset::ComplianceEntry> compliance;
  analysis::SessionClustering clustering;
  std::vector<analysis::ConnectionChain> chains;
  std::vector<analysis::StationClassification> station_types;
  analysis::TypeIdDistribution typeids;
  analysis::TypeIdStations typeid_stations;
  std::vector<analysis::VarianceRank> variance_ranking;
  std::map<analysis::SeriesKey, analysis::TimeSeries> series;
  analysis::BandwidthReport bandwidth;
  analysis::SeqAuditReport sequence_audit;
  analysis::ConformanceReport conformance;
  DegradationReport degradation;
  /// Wall-clock per-stage timings. NOT part of the deterministic report
  /// surface: excluded from report_to_json, rendered only with
  /// RenderOptions.profile.
  StageTimings timings;
};

class CaptureAnalyzer {
 public:
  struct Options {
    analysis::ParseMode mode = analysis::ParseMode::kPerPacket;
    iec104::ApduStreamParser::Mode parser_mode =
        iec104::ApduStreamParser::Mode::kTolerant;
    /// Not settable: the report always clusters into the paper's K and
    /// always carries the full time series.
    static constexpr int cluster_k = analysis::kSessionClusters;
    static constexpr bool keep_series = true;
    /// Worker threads, and so ingest lanes, for the flow-sharded engine
    /// and the parallelized analytics. 1 = one lane on the caller's thread
    /// (no pool is created); 0 = one per hardware thread. The report is
    /// byte-identical at every value while no budget binds — see DESIGN.md
    /// "Parallel execution model".
    unsigned threads = 1;
  };

  /// Analyzes in-memory packets (borrows them as views; see below).
  static AnalysisReport analyze(const std::vector<net::CapturedPacket>& packets,
                                const Options& options);
  static AnalysisReport analyze(const std::vector<net::CapturedPacket>& packets) {
    return analyze(packets, Options{});
  }

  /// Zero-copy entry point: analyzes frame views in place. Every view's
  /// span must stay valid for the duration of the call (an mmap'd capture
  /// or owning packets both qualify). The owning overload above borrows
  /// its packets and delegates here, so the two are byte-identical.
  static AnalysisReport analyze(std::span<const net::FrameView> frames,
                                const Options& options);

  /// Maps (or, for unmappable inputs, reads) and analyzes a pcap file.
  /// The hot path runs over views into the mapping — no per-packet copy.
  static Result<AnalysisReport> analyze_file(const std::string& pcap_path,
                                             const Options& options);
  static Result<AnalysisReport> analyze_file(const std::string& pcap_path) {
    return analyze_file(pcap_path, Options{});
  }
  /// Test seam: `file_ops` overrides the OS surface the mapping uses
  /// (fault injection, forced read-fallback). Null means the real kernel.
  static Result<AnalysisReport> analyze_file(const std::string& pcap_path,
                                             const Options& options,
                                             net::FileOps* file_ops);
};

/// Every §6 computation over a query of the ingest lanes, in one pass:
/// the view's cursor yields the lanes' records in canonical order, read in
/// place, and each record feeds every stage's accumulator once. Batch
/// analysis, live queries and the final streaming report all end here.
/// Callers supply the bandwidth report because only they know how the
/// packets were obtained. `pool` fans the closing analytics out
/// (clustering restarts and assignment, PCA reductions, per-connection
/// chains) with thread-count-invariant results; null runs inline.
AnalysisReport analyze_view(analysis::DatasetView& view,
                            analysis::BandwidthReport bandwidth, exec::Pool* pool);

struct RenderOptions {
  /// Appends the wall-clock stage-timing footer (nondeterministic; keep
  /// off when diffing reports).
  bool profile = false;
};

/// Human-readable multi-section summary of a report.
std::string render_report(const AnalysisReport& report, const NameMap& names,
                          const RenderOptions& render_options);
std::string render_report(const AnalysisReport& report, const NameMap& names);

}  // namespace uncharted::core
