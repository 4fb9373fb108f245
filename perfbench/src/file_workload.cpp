// file_y1: the batch user's path. The Y1 capture sits on disk as a pcap and
// is run through CaptureAnalyzer::analyze_file in a closed loop (the next
// pass starts when the previous report is out). The traced variant splits
// one pass into its layers with cumulative ingest prefixes over the same
// mapped frames and a span around every §6 stage.
#include <cstdio>
#include <optional>

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
#include "core/export.hpp"
#include "iec104/parser.hpp"
#include "net/flow.hpp"
#include "net/frame.hpp"
#include "net/mapping.hpp"
#include "net/pcap.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncharted;

namespace {

/// Rounds of the traced prefixes and pass; each layer reports its best
/// round (see best()).
constexpr int kTraceRounds = 9;
/// report_to_json is timed this many times on each pass's report: one call
/// takes about 0.2 ms, so a single sample is mostly timer and cache noise.
constexpr int kQueryRepeats = 5;

/// The mapped capture and its frame views (the net.pcap_walk layer).
struct Walk {
  std::optional<net::PcapMapping> mapping;
  std::vector<net::FrameView> frames;
};

Walk walk_pcap(const std::string& path) {
  Walk w;
  auto mapping = net::PcapMapping::open(path);
  if (!mapping) return w;
  w.mapping.emplace(std::move(*mapping));
  auto cursor = net::PcapCursor::open(w.mapping->bytes());
  if (!cursor) return w;
  net::FrameView view;
  while (cursor->next(view)) w.frames.push_back(view);
  return w;
}

}  // namespace

void run_file(const Inputs& in, const Settings& s, const AfterTrial& after_trial,
              RunResult& r) {
  const auto opts = analyzer_options();
  const double frames = static_cast<double>(in.frames);

  // One warm-up pass fills the page cache and the allocator; the peak
  // resident set is that of this pass.
  reset_peak_rss_or_warn();
  if (!core::CaptureAnalyzer::analyze_file(in.pcap_path, opts)) {
    r.fail("warm-up analyze_file failed");
  }
  const double peak_mb = peak_rss_mb();

  std::vector<double> pass_ms, cpu_us, query_ms;
  double delivered = 1.0;
  const auto start = Clock::now();
  while (pass_ms.size() < 3 || seconds_between(start, Clock::now()) < s.seconds) {
    const double cpu0 = thread_cpu_s();
    const auto t0 = Clock::now();
    auto report = core::CaptureAnalyzer::analyze_file(in.pcap_path, opts);
    pass_ms.push_back(ms_since(t0));
    cpu_us.push_back(1e6 * (thread_cpu_s() - cpu0) / frames);
    r.attempted += in.frames;
    if (!report) {
      r.failed += in.frames;
      r.fail("analyze_file: " + report.error().str());
      continue;
    }
    std::string json;
    for (int q = 0; q < kQueryRepeats; ++q) {
      const auto tq = Clock::now();
      json = core::report_to_json(*report);
      query_ms.push_back(ms_since(tq));
    }
    delivered = std::min(delivered, static_cast<double>(report->stats.packets) / frames);
    if (json != in.oracle_json) {
      r.failed += in.frames;
      r.fail("analyze_file report differs from the in-memory batch report");
    } else {
      r.failed += in.frames - report->stats.packets;
    }
    after_trial();
  }

  // A trial is one pass. In a closed loop every frame of a pass waits for
  // that pass's report, so a pass's lag p50 and p99 both equal its wall
  // time; the run reports its best trial (see best()).
  r.add("frames_per_s", frames / (best(pass_ms) / 1000.0), "1/s");
  r.add("cpu_us_per_frame", best(cpu_us), "us");
  r.add("lag_ms_p50", best(pass_ms), "ms");
  r.add("lag_ms_p99", best(pass_ms), "ms");
  r.add("query_ms_p50", best(query_ms), "ms");
  r.add("frames_delivered_frac", delivered, "frac");
  r.add("peak_rss_mb", peak_mb, "MB");
  std::fprintf(stderr, "perfbench: file_y1 %zu passes\n", pass_ms.size());
}

void trace_file(const Inputs& in, RunResult& r) {
  const auto opts = analyzer_options();
  analysis::CaptureDataset::Options ds_opts;
  ds_opts.mode = opts.mode;
  ds_opts.parser_mode = opts.parser_mode;

  // Untraced reference passes, for the tracing overhead. The first, untimed,
  // checks the file path's output.
  {
    const auto checked = core::CaptureAnalyzer::analyze_file(in.pcap_path, opts);
    r.attempted += in.frames;
    if (!checked || core::report_to_json(*checked) != in.oracle_json) {
      r.failed += in.frames;
      r.fail("analyze_file report differs from the in-memory batch report");
    }
  }
  std::vector<double> untraced_ms;
  for (int i = 0; i < kTraceRounds; ++i) {
    const auto t0 = Clock::now();
    (void)core::CaptureAnalyzer::analyze_file(in.pcap_path, opts);
    untraced_ms.push_back(ms_since(t0));
  }

  std::vector<double> walk, decode, flow, parse, add, finish, bandwidth, flows,
      clustering, markov, typing, series, seq_audit, conformance, teardown,
      report_json, traced_pass, self_sum;
  analysis::DatasetStats stats;
  std::size_t records = 0, arena_bytes = 0, frame_count = 0;
  bool reconstruction_matches = true;

  for (int round = 0; round < kTraceRounds; ++round) {
    // Prefix passes over the same mapped frames: decode only, then
    // +flow table, then +per-packet APDU parse. Their differences are the
    // marginal cost of each layer.
    Walk prefix = walk_pcap(in.pcap_path);
    const auto& views = prefix.frames;
    {
      auto t0 = Clock::now();
      net::DecodedFrame frame;
      std::size_t ok = 0;
      for (const auto& v : views) ok += net::decode_frame_into(v.data, frame);
      decode.push_back(ms_since(t0));
      if (ok == 0) r.fail("decode prefix decoded nothing");
    }
    {
      auto t0 = Clock::now();
      net::FlowTable table;
      net::DecodedFrame frame;
      for (const auto& v : views) {
        if (net::decode_frame_into(v.data, frame)) table.add(v.ts, frame);
      }
      flow.push_back(ms_since(t0));
    }
    {
      auto t0 = Clock::now();
      net::FlowTable table;
      net::DecodedFrame frame;
      iec104::ApduStreamParser parser(opts.parser_mode);
      std::vector<iec104::ParsedApdu> apdus;
      std::vector<iec104::ParseFailure> failures;
      for (const auto& v : views) {
        if (!net::decode_frame_into(v.data, frame)) continue;
        table.add(v.ts, frame);
        const bool iec104 = frame.tcp.src_port == ds_opts.iec104_port ||
                            frame.tcp.dst_port == ds_opts.iec104_port;
        if (!iec104 || frame.payload.empty()) continue;
        parser.reset_stream();
        parser.feed(v.ts, frame.payload);
        parser.finish(v.ts);
        parser.drain(apdus, failures);
        apdus.clear();
        failures.clear();
      }
      parse.push_back(ms_since(t0));
    }

    // The traced pass: the batch pipeline split at every layer boundary,
    // each piece inside its own span. Its objects live in optionals so the
    // teardown analyze_file pays on return gets a span of its own too.
    const auto pass0 = Clock::now();
    auto t0 = Clock::now();
    std::optional<Walk> w = walk_pcap(in.pcap_path);
    walk.push_back(ms_since(t0));
    frame_count = w->frames.size();

    std::optional<analysis::DatasetBuilder> builder(std::in_place, ds_opts);
    t0 = Clock::now();
    builder->add_packets(w->frames);
    add.push_back(ms_since(t0));
    arena_bytes = builder->record_arena_bytes();
    t0 = Clock::now();
    std::optional<analysis::CaptureDataset> dataset = builder->finish();
    finish.push_back(ms_since(t0));
    t0 = Clock::now();
    analysis::BandwidthReport bw = analysis::analyze_bandwidth(w->frames);
    bandwidth.push_back(ms_since(t0));

    std::optional<core::AnalysisReport> report(std::in_place);
    report->stats = dataset->stats();
    t0 = Clock::now();
    report->flows = analysis::analyze_flows(dataset->flow_table());
    flows.push_back(ms_since(t0));
    report->compliance = dataset->compliance();
    t0 = Clock::now();
    report->clustering = analysis::cluster_sessions(*dataset, opts.cluster_k, nullptr);
    clustering.push_back(ms_since(t0));
    t0 = Clock::now();
    report->chains = analysis::build_connection_chains(*dataset, nullptr);
    markov.push_back(ms_since(t0));
    t0 = Clock::now();
    report->station_types = analysis::classify_stations(*dataset);
    report->typeids = analysis::typeid_distribution(*dataset);
    report->typeid_stations = analysis::typeid_station_counts(*dataset);
    typing.push_back(ms_since(t0));
    t0 = Clock::now();
    auto ts = analysis::extract_time_series(*dataset);
    report->variance_ranking = analysis::rank_by_normalized_variance(ts);
    if (opts.keep_series) report->series = std::move(ts);
    series.push_back(ms_since(t0));
    report->bandwidth = std::move(bw);
    t0 = Clock::now();
    report->sequence_audit = analysis::audit_sequences(*dataset);
    seq_audit.push_back(ms_since(t0));
    t0 = Clock::now();
    report->conformance = analysis::audit_conformance(*dataset);
    conformance.push_back(ms_since(t0));
    report->degradation.counters = report->stats.degradation;
    const double pipeline_ms = ms_since(pass0);

    // Outside the pass: the query-side serialization and the check that
    // the reconstruction still equals analyze_dataset's output (a clean
    // capture has no degradation warnings). A mismatch means the spans no
    // longer cover the pipeline.
    t0 = Clock::now();
    const std::string json = core::report_to_json(*report);
    report_json.push_back(ms_since(t0));
    if (json != in.oracle_json) reconstruction_matches = false;
    stats = report->stats;
    records = dataset->records().size();

    t0 = Clock::now();
    report.reset();
    dataset.reset();
    builder.reset();
    w.reset();
    teardown.push_back(ms_since(t0));
    traced_pass.push_back(pipeline_ms + teardown.back());
    self_sum.push_back(walk.back() + add.back() + finish.back() + bandwidth.back() +
                       flows.back() + clustering.back() + markov.back() +
                       typing.back() + series.back() + seq_audit.back() +
                       conformance.back() + teardown.back());
  }
  if (!reconstruction_matches) {
    std::fprintf(stderr,
                 "perfbench: warning: the traced pass no longer reproduces "
                 "analyze_file's report; layer spans may not cover the pipeline\n");
  }

  const double b_decode = best(decode), b_flow = best(flow), b_parse = best(parse);
  r.add("net.pcap_walk_ms", best(walk), "ms");
  r.add("net.decode_ms", b_decode, "ms");
  r.add("net.flow_ms", b_flow - b_decode, "ms");
  r.add("iec104.parse_ms", b_parse - b_flow, "ms");
  r.add("analysis.build_ms", best(add) + best(finish), "ms");
  r.add("analysis.append_ms", best(add) - b_parse, "ms");
  r.add("analysis.finish_ms", best(finish), "ms");
  r.add("analysis.bandwidth_ms", best(bandwidth), "ms");
  r.add("analysis.flows_ms", best(flows), "ms");
  r.add("analysis.clustering_ms", best(clustering), "ms");
  r.add("analysis.markov_ms", best(markov), "ms");
  r.add("analysis.typing_ms", best(typing), "ms");
  r.add("analysis.series_ms", best(series), "ms");
  r.add("analysis.seq_audit_ms", best(seq_audit), "ms");
  r.add("analysis.conformance_ms", best(conformance), "ms");
  r.add("analysis.teardown_ms", best(teardown), "ms");
  r.add("core.report_json_ms", best(report_json), "ms");
  r.add("file.traced_pass_ms", best(traced_pass), "ms");
  // Coverage: the share of a real analyze_file pass that no span accounts for.
  r.add("file.unaccounted_frac", 1.0 - best(self_sum) / best(untraced_ms), "frac");
  r.add("trace.file_overhead_ms", best(traced_pass) - best(untraced_ms), "ms");
  r.add("net.frames", static_cast<double>(frame_count), "count");
  r.add("net.undecodable_frames", static_cast<double>(stats.undecodable_frames), "count");
  r.add("iec104.apdus", static_cast<double>(stats.apdus), "count");
  r.add("iec104.apdu_failures", static_cast<double>(stats.apdu_failures), "count");
  r.add("analysis.records", static_cast<double>(records), "count");
  r.add("analysis.arena_bytes", static_cast<double>(arena_bytes), "bytes");
  r.attempted += frame_count * kTraceRounds;
}

}  // namespace perfbench
