#include "core/streaming.hpp"

#include <algorithm>

#include "core/checkpoint.hpp"
#include "exec/pool.hpp"
#include "util/strings.hpp"

namespace uncharted::core {

namespace {

// Checkpoint payload engine tags: a sharded checkpoint cannot restore into
// a single builder (or vice versa), so the payload says which wrote it.
constexpr std::uint8_t kEngineSingle = 1;
constexpr std::uint8_t kEngineSharded = 2;

analysis::CaptureDataset::Options dataset_options(const StreamingOptions& options) {
  analysis::CaptureDataset::Options ds_opts;
  ds_opts.mode = options.analyze.mode;
  ds_opts.parser_mode = options.analyze.parser_mode;
  return ds_opts;
}

unsigned resolve_stream_threads(unsigned threads) {
  return threads == 0 ? exec::Pool::default_threads() : threads;
}

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(StreamingOptions options)
    : options_(std::move(options)) {
  unsigned threads = resolve_stream_threads(options_.analyze.threads);
  if (threads > 1) {
    pool_ = std::make_unique<exec::Pool>(threads);
    sharded_ = std::make_unique<analysis::ShardedDatasetBuilder>(
        dataset_options(options_), options_.budgets, pool_.get(),
        options_.analyze.shard_count);
  } else {
    single_ = std::make_unique<analysis::DatasetBuilder>(dataset_options(options_),
                                                         options_.budgets);
  }
  std::size_t shards = std::max<std::size_t>(options_.analyze.shard_count, 1);
  deferred_.resize(shards);
  shard_ingested_.resize(shards, 0);
}

// Lanes must quiesce before the pool dies: sharded_ (declared after
// pool_) is destroyed first, joining its TaskGroup.
StreamingAnalyzer::~StreamingAnalyzer() = default;

std::uint64_t StreamingAnalyzer::packets_consumed() const {
  return sharded_ ? sharded_->packets_consumed() : single_->packets_consumed();
}

analysis::ResourcePressure StreamingAnalyzer::pressure() {
  return sharded_ ? sharded_->pressure() : single_->pressure();
}

std::size_t StreamingAnalyzer::deferral_shard(const net::CapturedPacket& pkt) const {
  return analysis::shard_of(pkt.data, deferred_.size());
}

void StreamingAnalyzer::ingest(std::size_t shard, const net::CapturedPacket& pkt,
                               analysis::BandwidthAccumulator* bandwidth) {
  if (sharded_) {
    sharded_->add_packet(pkt);
  } else {
    single_->add_packet(pkt, bandwidth);
  }
  ++shard_ingested_[shard];
}

void StreamingAnalyzer::add_packet(const net::CapturedPacket& pkt) {
  std::size_t shard = deferral_shard(pkt);
  // A non-empty queue keeps deferring even if the hook cleared — per-shard
  // order must survive the stall, and only poll_deferred() drains in order.
  bool defer = !deferred_[shard].empty() ||
               (options_.stall_hook && options_.stall_hook(shard));
  // Bandwidth is accounted at admission, before any stall deferral, so the
  // byte/interval series the report derives from does not depend on when a
  // wedged shard recovers. A packet the single builder ingests right now
  // is accounted from the builder's own decode of it; every other packet
  // (deferred, or bound for a shard lane) is decoded here.
  if (defer || sharded_) bandwidth_.add_packet(pkt);
  if (defer) {
    deferred_[shard].push_back(pkt);
    ++deferred_total_;
    return;
  }
  ingest(shard, pkt, sharded_ ? nullptr : &bandwidth_);
  if (options_.checkpoint_every_packets > 0 && !options_.checkpoint_path.empty() &&
      deferred_total_ == 0 &&
      packets_consumed() - last_checkpoint_packets_ >=
          options_.checkpoint_every_packets) {
    // A failed periodic write must not stop ingestion (a full disk should
    // degrade durability, not availability); remember it for the report.
    if (auto st = write_checkpoint(); !st) checkpoint_error_ = st.error().str();
  }
}

std::size_t StreamingAnalyzer::poll_deferred() {
  if (deferred_total_ == 0) return 0;
  std::size_t drained = 0;
  for (std::size_t s = 0; s < deferred_.size(); ++s) {
    auto& q = deferred_[s];
    while (!q.empty() && !(options_.stall_hook && options_.stall_hook(s))) {
      ingest(s, q.front());
      q.pop_front();
      --deferred_total_;
      ++drained;
    }
  }
  return drained;
}

void StreamingAnalyzer::force_drain_deferred() {
  // Finalize override: whatever the hook says, the report must cover every
  // admitted packet. Per-shard order is all correctness requires.
  for (std::size_t s = 0; s < deferred_.size(); ++s) {
    for (const auto& pkt : deferred_[s]) ingest(s, pkt);
    deferred_total_ -= deferred_[s].size();
    deferred_[s].clear();
  }
}

std::vector<analysis::ShardedDatasetBuilder::LaneStat>
StreamingAnalyzer::lane_stats() const {
  std::vector<analysis::ShardedDatasetBuilder::LaneStat> out;
  if (sharded_) {
    out = sharded_->lane_stats();
  } else {
    out.resize(deferred_.size());
    for (std::size_t s = 0; s < out.size(); ++s) {
      out[s].ingested = shard_ingested_[s];
    }
  }
  for (std::size_t s = 0; s < out.size() && s < deferred_.size(); ++s) {
    out[s].queued_packets += deferred_[s].size();
  }
  return out;
}

void StreamingAnalyzer::add_packets(std::span<const net::CapturedPacket> packets) {
  while (!packets.empty()) {
    std::size_t n = std::min(packets.size(), options_.batch_packets);
    for (const auto& pkt : packets.first(n)) add_packet(pkt);
    packets = packets.subspan(n);
  }
}

Status StreamingAnalyzer::save_state(ByteWriter& w) {
  if (sharded_) {
    w.u8(kEngineSharded);
    if (auto st = sharded_->save(w); !st) return st;
  } else {
    w.u8(kEngineSingle);
    if (auto st = single_->save(w); !st) return st;
  }
  bandwidth_.save(w);
  return Status::Ok();
}

Status StreamingAnalyzer::load_state(ByteReader& r) {
  auto engine = r.u8();
  if (!engine) return Error{"streaming-state", "engine tag unreadable"};
  // An engine (or shard-count) mismatch means the state was written under
  // a different --threads configuration; the caller must rebuild fresh.
  if (engine.value() == kEngineSharded) {
    if (!sharded_) return Error{"streaming-engine", "sharded state, single engine"};
    if (auto st = sharded_->load(r); !st) return st;
  } else if (engine.value() == kEngineSingle) {
    if (!single_) return Error{"streaming-engine", "single state, sharded engine"};
    if (auto st = single_->load(r); !st) return st;
  } else {
    return Error{"streaming-engine",
                 "unknown engine tag " + std::to_string(engine.value())};
  }
  if (auto st = bandwidth_.load(r); !st) return st;
  last_checkpoint_packets_ = packets_consumed();
  return Status::Ok();
}

AnalysisReport StreamingAnalyzer::report_snapshot() {
  // Pressure first: on the sharded engine it drains the lanes, which the
  // snapshot then needs anyway. Packets parked behind a wedged shard stay
  // parked — absent from the records, but already in bandwidth_.
  auto pressure = this->pressure();
  auto dataset = sharded_ ? sharded_->snapshot() : single_->snapshot();
  return assemble_report(dataset, pressure);
}

AnalysisReport StreamingAnalyzer::assemble_report(
    const analysis::CaptureDataset& dataset,
    const analysis::ResourcePressure& pressure) const {
  auto report =
      analyze_dataset(dataset, bandwidth_.finish(), options_.analyze, pool_.get());
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
  if (!quiescent()) {
    return Error{"checkpoint-stalled",
                 "packets parked behind a wedged shard; checkpoint would be "
                 "inconsistent"};
  }
  return write_checkpoint();
}

bool StreamingAnalyzer::try_restore() {
  if (options_.checkpoint_path.empty()) return false;
  auto payload = read_latest_checkpoint(options_.checkpoint_path);
  if (!payload) return false;  // missing/corrupt/truncated: start fresh
  ByteReader r(payload.value());
  // A load failure (engine mismatch, truncated payload) means re-ingesting
  // from the start is the correct recovery; treat like a missing
  // checkpoint. Note a partial load may have mutated builder state — the
  // builders tolerate that only because every caller discards the analyzer
  // or starts from packet 0 on false.
  return static_cast<bool>(load_state(r));
}

AnalysisReport StreamingAnalyzer::finalize() {
  force_drain_deferred();
  if (!options_.checkpoint_path.empty()) {
    // Shutdown checkpoint: a restart after this point resumes at the end
    // of input instead of re-ingesting.
    if (auto st = write_checkpoint(); !st) checkpoint_error_ = st.error().str();
  }
  auto final_pressure = pressure();
  auto dataset = sharded_ ? sharded_->finish() : single_->finish();
  auto report = assemble_report(dataset, final_pressure);
  if (!checkpoint_error_.empty()) {
    report.degradation.warnings.push_back("checkpoint write failed: " +
                                          checkpoint_error_);
  }
  return report;
}

Result<AnalysisReport> analyze_file_streaming(const std::string& pcap_path,
                                              const StreamingOptions& options) {
  // The capture is mmap'd (read only when unmappable) and records are fed
  // straight off the mapping; one owning packet is materialized per record
  // because the deferral queues need ownership, but the whole-file slurp
  // and its second per-packet copy are gone.
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
    net::CapturedPacket pkt;
    std::uint64_t index = 0;
    while (cursor->next(view)) {
      if (index++ < skip) continue;
      pkt.ts = view.ts;
      pkt.original_length = view.original_length;
      pkt.data.assign(view.data.begin(), view.data.end());
      an.add_packet(pkt);
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
