#include "core/streaming.hpp"

#include "core/checkpoint.hpp"
#include "exec/pool.hpp"
#include "util/strings.hpp"

namespace uncharted::core {

namespace {

analysis::CaptureDataset::Options dataset_options(const StreamingOptions& options) {
  analysis::CaptureDataset::Options ds_opts;
  ds_opts.mode = options.analyze.mode;
  ds_opts.parser_mode = options.analyze.parser_mode;
  return ds_opts;
}

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions options)
    : options_(std::move(options)),
      pool_(exec::Pool::for_threads(options_.analyze.threads)),
      engine_(dataset_options(options_), options_.budgets, pool_.get(),
              options_.stall_hook) {}

// Lanes must quiesce before the pool dies: engine_ (declared after pool_)
// is destroyed first, joining its TaskGroup.
StreamingAnalyzer::~StreamingAnalyzer() = default;

void StreamingAnalyzer::add_packet(const net::FrameView& frame) {
  engine_.add_packet(frame, &bandwidth_);
  if (options_.checkpoint_every_packets > 0 && !options_.checkpoint_path.empty() &&
      engine_.quiescent() &&
      packets_consumed() - last_checkpoint_packets_ >=
          options_.checkpoint_every_packets) {
    // A failed periodic write must not stop ingestion (a full disk should
    // degrade durability, not availability); remember it for the report.
    if (auto st = write_checkpoint(); !st) checkpoint_error_ = st.error().str();
  }
}

void StreamingAnalyzer::add_packets(std::span<const net::FrameView> frames) {
  for (const auto& frame : frames) add_packet(frame);
}

Status StreamingAnalyzer::save_state(ByteWriter& w) {
  if (auto st = engine_.save(w); !st) return st;
  bandwidth_.save(w);
  return Status::Ok();
}

Status StreamingAnalyzer::load_state(ByteReader& r) {
  if (auto st = engine_.load(r); !st) return st;
  if (auto st = bandwidth_.load(r); !st) return st;
  last_checkpoint_packets_ = packets_consumed();
  return Status::Ok();
}

AnalysisReport StreamingAnalyzer::report_snapshot() {
  // Pressure first: it drains the lanes, which the query then needs
  // anyway. Frames deferred behind a wedged lane stay deferred — absent
  // from the records, but already in bandwidth_.
  const auto pressure = this->pressure();
  analysis::DatasetView view;
  engine_.query(view);
  auto report = analyze_view(view, bandwidth_.finish(), pool_.get());
  report.degradation.resources = pressure;
  if (pressure.any()) {
    report.degradation.warnings.push_back(
        "resource budgets enforced: " + format_count(pressure.flow_evictions) +
        " flow evictions, " + format_count(pressure.reassembly_flushes) +
        " reassembly flushes, " + format_count(pressure.records_evicted) +
        " records evicted, " + format_count(pressure.parsers_evicted) +
        " parsers retired — headline metrics undercount accordingly");
  }
  return report;
}

Status StreamingAnalyzer::write_checkpoint() {
  ByteWriter w;
  if (auto st = save_state(w); !st) return st;
  if (auto st = write_checkpoint_file(options_.checkpoint_path, w.view()); !st) {
    return st;
  }
  last_checkpoint_packets_ = packets_consumed();
  return Status::Ok();
}

Status StreamingAnalyzer::checkpoint_now() {
  if (options_.checkpoint_path.empty()) {
    return Error{"checkpoint-unconfigured", "no checkpoint_path set"};
  }
  return write_checkpoint();
}

bool StreamingAnalyzer::try_restore() {
  if (options_.checkpoint_path.empty()) return false;
  auto payload = read_latest_checkpoint(options_.checkpoint_path);
  if (!payload) return false;  // missing/corrupt/truncated: start fresh
  ByteReader r(payload.value());
  // A load failure (bad lane count, truncated payload) means re-ingesting
  // from the start is the correct recovery; treat like a missing
  // checkpoint. Note a partial load may have mutated builder state — the
  // builders tolerate that only because every caller discards the analyzer
  // or starts from packet 0 on false.
  return static_cast<bool>(load_state(r));
}

AnalysisReport StreamingAnalyzer::finalize() {
  // The report covers every admitted frame, and so does the shutdown
  // checkpoint: wedged lanes are released first.
  engine_.poll_deferred(true);
  if (!options_.checkpoint_path.empty()) {
    // Shutdown checkpoint: a restart after this point resumes at the end
    // of input instead of re-ingesting.
    if (auto st = write_checkpoint(); !st) checkpoint_error_ = st.error().str();
  }
  auto report = report_snapshot();
  if (!checkpoint_error_.empty()) {
    report.degradation.warnings.push_back("checkpoint write failed: " +
                                          checkpoint_error_);
  }
  return report;
}

Result<AnalysisReport> analyze_file_streaming(const std::string& pcap_path,
                                              const StreamingOptions& options) {
  // The capture is mmap'd (read only when unmappable) and records are fed
  // straight off the mapping as views.
  auto mapping = net::PcapMapping::open(pcap_path, nullptr);
  if (!mapping) return mapping.error();
  auto probe = net::PcapCursor::open(mapping->bytes());
  if (!probe) return probe.error();
  // Count records up front: the checkpoint-beyond-end check below needs the
  // total before the first packet is admitted. A second cursor pass over
  // the mapping is header walking only — no payloads are touched.
  std::uint64_t total = 0;
  {
    net::FrameView v;
    while (probe->next(v)) ++total;
  }

  StreamingAnalyzer analyzer(options);
  std::uint64_t skip = 0;
  bool checkpoint_ignored = false;
  if (analyzer.try_restore()) {
    skip = analyzer.packets_consumed();
    // A checkpoint past the end of this file means it belongs to some
    // other input; restart clean rather than silently produce nothing.
    if (skip > total) {
      checkpoint_ignored = true;
      skip = 0;
    }
  }

  auto feed = [&](StreamingAnalyzer& an) {
    auto cursor = net::PcapCursor::open(mapping->bytes());
    net::FrameView view;
    std::uint64_t index = 0;
    while (cursor->next(view)) {
      if (index++ < skip) continue;
      an.add_packet(view);
    }
  };

  AnalysisReport report;
  if (checkpoint_ignored) {
    StreamingAnalyzer fresh(options);
    feed(fresh);
    report = fresh.finalize();
    report.degradation.warnings.push_back(
        "checkpoint ignored: cursor beyond end of input");
  } else {
    feed(analyzer);
    report = analyzer.finalize();
  }
  if (probe->truncated_tail()) {
    report.degradation.pcap_truncated = true;
    report.degradation.warnings.insert(report.degradation.warnings.begin(),
                                       probe->warning());
  }
  return report;
}

}  // namespace uncharted::core
