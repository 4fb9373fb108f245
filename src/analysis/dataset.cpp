#include "analysis/dataset.hpp"

#include <algorithm>
#include <iterator>

namespace uncharted::analysis {

EndpointPair EndpointPair::of(net::Ipv4Addr x, net::Ipv4Addr y) {
  if (y < x) std::swap(x, y);
  return EndpointPair{x, y};
}

CaptureDataset CaptureDataset::build(std::span<const net::FrameView> frames,
                                     const Options& options) {
  DatasetBuilder builder(options);
  builder.add_packets(frames);
  return builder.finish();
}

DatasetBuilder::DatasetBuilder(CaptureDataset::Options options,
                               ResourceBudgets budgets)
    : options_(options),
      budgets_(budgets),
      record_arena_(std::make_shared<util::RecordArena>()),
      packet_parser_(options.parser_mode) {
  packet_parser_.set_arena(record_arena_->resource());
  if (options_.mode == ParseMode::kReassembled) {
    reassembler_.emplace(reassembly_sink());
  }
}

net::TcpReassembler::Sink DatasetBuilder::reassembly_sink() {
  return [this](const net::FlowKey& key, Timestamp ts,
                std::span<const std::uint8_t> data) { ingest(key, ts, data); };
}

iec104::ApduStreamParser& DatasetBuilder::parser_for(const net::FlowKey& key) {
  auto it = parsers_.find(key);
  if (it == parsers_.end()) {
    it = parsers_.emplace(key, iec104::ApduStreamParser(options_.parser_mode)).first;
    it->second.set_arena(record_arena_->resource());
  }
  return it->second;
}

FlowDamage& DatasetBuilder::damage_for(const net::FlowKey& key) {
  const std::uint64_t hash = net::flow_key_hash(key);
  FlowDamage* dmg = damage_cache_.find(key, hash);
  if (dmg == nullptr) {
    dmg = &damage_[key];
    damage_cache_.put(key, hash, dmg);
  }
  return *dmg;
}

class DatasetBuilder::RecordSink final : public iec104::ApduSink {
 public:
  RecordSink(DatasetBuilder& builder, const net::FlowKey& key, Timestamp ts)
      : builder_(builder), key_(key), ts_(ts), dmg_(builder.damage_for(key)) {}

  void put(const iec104::ParsedApdu& apdu) override {
    auto& records = builder_.records_;
    if (!records.empty() && ts_ < records.back().ts) ++builder_.backward_steps_;
    // seq: the arrival index within this directed flow.
    records.push_back(ApduRecord{ts_, key_, dmg_.apdus++, apdu});
  }

  FlowDamage& damage() { return dmg_; }

 private:
  DatasetBuilder& builder_;
  const net::FlowKey& key_;
  Timestamp ts_;
  FlowDamage& dmg_;
};

void DatasetBuilder::account_failures(FlowDamage& dmg, iec104::ApduStreamParser& parser) {
  auto& deg = stats_.degradation;
  for (const auto& f : parser.failures()) {
    ++stats_.apdu_failures;
    dmg.last_failure_ts = f.ts;
    // A framed 0x68 start whose length octet exceeds the 253-octet APDU
    // limit is its own damage class: no conforming implementation can emit
    // it, so the conformance audit scores it hostile rather than corrupt.
    if (f.raw.size() >= 2 && f.raw[0] == iec104::kStartByte &&
        f.raw[1] > iec104::kMaxApduLength) {
      ++dmg.oversized;
    }
    switch (f.kind) {
      case iec104::FailureKind::kGarbage:
        ++dmg.garbage;
        dmg.garbage_bytes += f.raw.size();
        ++deg.parser_resyncs;
        deg.garbage_bytes += f.raw.size();
        break;
      case iec104::FailureKind::kUndecodable:
        ++dmg.undecodable;
        ++deg.undecodable_apdus;
        break;
      case iec104::FailureKind::kTruncatedTail:
        ++dmg.truncated;
        deg.truncated_tail_bytes += f.raw.size();
        break;
    }
  }
  parser.clear_failures();
}

void DatasetBuilder::ingest(const net::FlowKey& key, Timestamp ts,
                            std::span<const std::uint8_t> payload) {
  auto& parser = parser_for(key);
  RecordSink sink(*this, key, ts);
  parser.feed(ts, payload, sink);
  account_failures(sink.damage(), parser);
}

void DatasetBuilder::enforce_budgets() {
  if (budgets_.max_flow_entries > 0 &&
      flows_.connection_count() > budgets_.max_flow_entries) {
    pressure_.flow_evictions += flows_.evict_lru(budgets_.max_flow_entries);
  }
  if (reassembler_ && budgets_.max_reassembly_bytes > 0 &&
      reassembler_->pending_bytes() > budgets_.max_reassembly_bytes) {
    pressure_.reassembly_flushes +=
        reassembler_->evict_pending(last_ts_, budgets_.max_reassembly_bytes);
  }
  if (budgets_.max_records > 0 && records_.size() > budgets_.max_records) {
    // Drop a quarter of the budget at once so the O(n) front erase
    // amortizes instead of firing on every subsequent packet.
    std::size_t target = budgets_.max_records - budgets_.max_records / 4;
    std::size_t drop = records_.size() - target;
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(drop));
    pressure_.records_evicted += drop;
  }
  if (budgets_.max_parsers > 0 && parsers_.size() > budgets_.max_parsers) {
    // Idle parsers (no partial frame) carry only a locked profile: retire
    // them first. If that is not enough, retire buffering parsers too —
    // their partial frame becomes an accounted truncated tail.
    for (int pass = 0; pass < 2 && parsers_.size() > budgets_.max_parsers; ++pass) {
      for (auto it = parsers_.begin();
           it != parsers_.end() && parsers_.size() > budgets_.max_parsers;) {
        if (pass == 0 && it->second.buffered_bytes() > 0) {
          ++it;
          continue;
        }
        it->second.finish(last_ts_);
        account_failures(damage_for(it->first), it->second);
        it = parsers_.erase(it);
        ++pressure_.parsers_evicted;
      }
    }
  }

  // Peaks are sampled after enforcement: they are the post-governance
  // high-water marks, so an enforced budget is never reported as exceeded
  // by the one-packet transient that triggered the eviction.
  pressure_.peak_flow_entries =
      std::max<std::uint64_t>(pressure_.peak_flow_entries, flows_.connection_count());
  pressure_.peak_records =
      std::max<std::uint64_t>(pressure_.peak_records, records_.size());
  pressure_.peak_parsers =
      std::max<std::uint64_t>(pressure_.peak_parsers, parsers_.size());
  if (reassembler_) {
    pressure_.peak_reassembly_bytes = std::max<std::uint64_t>(
        pressure_.peak_reassembly_bytes, reassembler_->pending_bytes());
  }
}

void DatasetBuilder::add_packet(Timestamp ts, std::span<const std::uint8_t> data,
                                BandwidthAccumulator* bandwidth) {
  ++packets_consumed_;
  ++stats_.packets;
  last_ts_ = ts;
  net::DecodedFrame frame;
  if (!net::decode_frame_into(data, frame)) {
    ++stats_.undecodable_frames;
    ++stats_.degradation.undecodable_frames;
    if (bandwidth) bandwidth->add_decoded(ts, data.size(), nullptr);
  } else {
    if (bandwidth) bandwidth->add_decoded(ts, data.size(), &frame);
    ++stats_.tcp_packets;
    flows_.add(ts, frame);
    switch (tap_protocol(frame)) {
      case TapProtocol::kIec104: parse_iec104(ts, frame); break;
      case TapProtocol::kC37118: ++stats_.c37118_packets; break;
      case TapProtocol::kIccp: ++stats_.iccp_packets; break;
      case TapProtocol::kOther: ++stats_.other_tcp_packets; break;
    }
  }
  enforce_budgets();
}

void DatasetBuilder::parse_iec104(Timestamp ts, const net::DecodedFrame& frame) {
  if (options_.mode == ParseMode::kReassembled) {
    reassembler_->add(ts, frame);
    return;
  }
  if (frame.payload.empty()) return;
  ++stats_.iec104_payload_packets;
  net::FlowKey key{frame.ip.src, frame.tcp.src_port, frame.ip.dst, frame.tcp.dst_port};
  // Per-packet mode: each payload parsed independently (fresh framing),
  // matching the paper's per-packet SCAPY pipeline. An APDU cut off by
  // the packet boundary is a truncated tail, not silence. The scratch
  // parser is reset, not reconstructed: same semantics, no allocation.
  packet_parser_.reset_stream();
  RecordSink sink(*this, key, ts);
  packet_parser_.feed(ts, frame.payload, sink);
  packet_parser_.finish(ts);
  account_failures(sink.damage(), packet_parser_);
}

void DatasetBuilder::add_packets(std::span<const net::FrameView> frames,
                                 BandwidthAccumulator* bandwidth) {
  for (const auto& frame : frames) add_packet(frame.ts, frame.data, bandwidth);
}

void DatasetBuilder::flush(Timestamp flush_ts) {
  if (!reassembler_) return;
  // End of capture: abandon outstanding holes, deliver what is behind them,
  // then account the partial tails left in the stream parsers.
  reassembler_->flush(flush_ts);
  auto totals = reassembler_->totals();
  stats_.tcp_retransmissions = totals.retransmissions;
  auto& deg = stats_.degradation;
  deg.reassembly_gaps += totals.gaps_skipped;
  deg.reassembly_lost_bytes += totals.lost_bytes;
  deg.overlapping_segments += totals.overlapping_segments;
  deg.aborted_streams += totals.aborted_with_pending;
  deg.wild_segments += totals.wild_segments;
  for (auto& [key, parser] : parsers_) {
    parser.finish(flush_ts);
    account_failures(damage_for(key), parser);
  }
}

std::vector<net::FlowKey> DatasetBuilder::quarantined() const {
  // Quarantine: a directed stream drowning in parse failures is producing
  // mis-decoded APDUs, not telemetry. The policy scores each failure kind
  // by severity; streams crossing the threshold are dropped so one
  // poisoned stream cannot skew the report, and the counters say so. The
  // decision reads only this stream's own damage, so applying it per shard
  // is identical to applying it globally. The default policy is the flat
  // ">= 8 failures, and more failures than APDUs" rule.
  constexpr iec104::QuarantinePolicy policy{};
  std::vector<net::FlowKey> out;
  for (const auto& [key, dmg] : damage_) {
    double score =
        policy.score(dmg.garbage, dmg.undecodable, dmg.truncated, dmg.oversized);
    if (policy.should_quarantine(score, dmg.failures(), dmg.apdus)) out.push_back(key);
  }
  return out;  // damage_ iterates in key order
}

namespace {

void sum_stats(DatasetStats& into, const DatasetStats& from) {
  util::add_fields(into, from, DatasetStats::fields());
  util::add_fields(into.degradation, from.degradation, DegradationCounters::fields());
}

/// The canonical record order: (ts, flow, per-flow seq). A strict total
/// order — no two records share all three — so the merged sequence does
/// not depend on how records were distributed across lanes or runs.
bool canonical_less(const ApduRecord& a, const ApduRecord& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (!(a.flow == b.flow)) return a.flow < b.flow;
  return a.seq < b.seq;
}

bool skipped(std::span<const net::FlowKey> skip, const ApduRecord& rec) {
  return !skip.empty() && std::binary_search(skip.begin(), skip.end(), rec.flow);
}

}  // namespace

void DatasetBuilder::query(Timestamp flush_ts, DatasetView& view) const {
  // The live lane's arena never frees, so a query must not allocate from
  // it: the scratch builder's parsers parse the flush into its own arena.
  auto scratch = std::make_unique<DatasetBuilder>(options_, budgets_);
  scratch->stats_ = stats_;
  scratch->parsers_ = parsers_;
  for (auto& [key, parser] : scratch->parsers_) {
    parser.set_arena(scratch->record_arena_->resource());
  }
  scratch->damage_ = damage_;
  if (reassembler_) {
    scratch->reassembler_.emplace(*reassembler_, scratch->reassembly_sink());
  }
  scratch->flush(flush_ts);

  const auto skip = scratch->quarantined();
  auto& deg = scratch->stats_.degradation;
  deg.quarantined_apdus +=
      view.cursor_.add(records_, skip, backward_steps_ == 0) +
      view.cursor_.add(scratch->records_, skip, scratch->backward_steps_ == 0);
  deg.quarantined_connections += skip.size();
  sum_stats(view.stats_, scratch->stats_);
  view.flows_.merge(net::FlowTable(flows_));
  // Directed flows are lane-affine, so damage maps are disjoint.
  view.damage_.merge(std::move(scratch->damage_));
  view.scratch_.push_back(std::move(scratch));
}

DatasetView::DatasetView() = default;
DatasetView::~DatasetView() = default;

std::uint32_t FlowIds::id(const net::FlowKey& key) {
  const std::uint64_t hash = net::flow_key_hash(key);
  if (const std::uint32_t* cached = cache_.find(key, hash)) return *cached;
  auto it = ids_.try_emplace(key, static_cast<std::uint32_t>(ids_.size())).first;
  cache_.put(key, hash, &it->second);
  return it->second;
}

void ComplianceAccumulator::add(const ApduRecord& rec, std::uint32_t flow) {
  // Compliance is attributed to the outstation (the IEC 104 port owner): a
  // vendor server configured for a legacy RTU mirrors its dialect, but the
  // paper's compliance finding is about the device, not the direction.
  Slot& slot = flow_slot(slots_, flow, [&] {
    return Slot{rec.flow.src_port == iec104::kIec104Port ? rec.flow.src_ip
                                                         : rec.flow.dst_ip};
  });
  ++apdus_;
  if (!rec.apdu.compliant) ++non_compliant_;
  if (!rec.apdu.is_i()) return;
  if (slot.entry == nullptr) slot.entry = &compliance_[slot.station];
  auto& entry = *slot.entry;
  ++entry.i_apdus;
  if (!rec.apdu.compliant) {
    ++entry.non_compliant;
    entry.profile = rec.apdu.profile();
  }
}

std::map<net::Ipv4Addr, CaptureDataset::ComplianceEntry> ComplianceAccumulator::close(
    DatasetStats& stats) {
  stats.apdus = apdus_;
  stats.non_compliant_apdus = non_compliant_;
  return std::move(compliance_);
}

std::size_t RecordCursor::add(std::span<const ApduRecord> records,
                              std::span<const net::FlowKey> skip, bool in_order) {
  if (!skip.empty()) skip = skips_.emplace_back(skip.begin(), skip.end());
  std::size_t skipped_count = 0;
  const ApduRecord* const first = records.data();
  const ApduRecord* const last = first + records.size();
  const ApduRecord* run_begin = first;
  if (!in_order || !skip.empty()) {
    for (const ApduRecord* rec = first; rec != last; ++rec) {
      if (skipped(skip, *rec)) ++skipped_count;
      // Skipped records still cut runs: within a run every timestamp, read
      // or not, is non-decreasing, so an equal-ts stretch is contiguous.
      if (!in_order && rec != first && rec->ts < rec[-1].ts) {
        runs_.push_back(Run{run_begin, rec, skip});
        run_begin = rec;
      }
    }
  }
  if (run_begin != last) runs_.push_back(Run{run_begin, last, skip});
  return skipped_count;
}

void RecordCursor::advance(Run& run) {
  if (run.tie < run.ties.size()) {
    run.head = run.ties[run.tie++];
    return;
  }
  run.ties.clear();
  run.tie = 0;
  while (run.pos != run.end && skipped(run.skip, *run.pos)) ++run.pos;
  if (run.pos == run.end) {
    run.head = nullptr;
    return;
  }
  const ApduRecord* stretch_end = run.pos + 1;
  while (stretch_end != run.end && stretch_end->ts == run.pos->ts) ++stretch_end;
  if (stretch_end - run.pos == 1) {
    run.head = run.pos++;
    return;
  }
  // Equal timestamps: tie-break by (flow, seq) through sorted pointers.
  for (const ApduRecord* rec = run.pos; rec != stretch_end; ++rec) {
    if (!skipped(run.skip, *rec)) run.ties.push_back(rec);
  }
  run.pos = stretch_end;
  std::sort(run.ties.begin(), run.ties.end(),
            [](const ApduRecord* a, const ApduRecord* b) { return canonical_less(*a, *b); });
  advance(run);
}

const ApduRecord* RecordCursor::next() {
  // Min-heap on each run's head record.
  auto later = [this](std::uint32_t a, std::uint32_t b) {
    return canonical_less(*runs_[b].head, *runs_[a].head);
  };
  if (!started_) {
    started_ = true;
    for (std::uint32_t i = 0; i < runs_.size(); ++i) {
      advance(runs_[i]);
      if (runs_[i].head != nullptr) heap_.push_back(i);
    }
    std::make_heap(heap_.begin(), heap_.end(), later);
  }
  if (heap_.size() <= 1) {  // one run left: no merge
    if (heap_.empty()) return nullptr;
    Run& run = runs_[heap_.front()];
    const ApduRecord* out = run.head;
    advance(run);
    if (run.head == nullptr) heap_.clear();
    return out;
  }
  std::pop_heap(heap_.begin(), heap_.end(), later);
  Run& run = runs_[heap_.back()];
  const ApduRecord* out = run.head;
  advance(run);
  if (run.head == nullptr) {
    heap_.pop_back();
  } else {
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  return out;
}

CaptureDataset DatasetBuilder::finish() {
  flush(last_ts_);
  CaptureDataset ds;
  ds.quarantined_ = quarantined();
  if (!ds.quarantined_.empty()) {
    auto dropped = std::erase_if(records_, [&](const ApduRecord& rec) {
      return std::binary_search(ds.quarantined_.begin(), ds.quarantined_.end(),
                                rec.flow);
    });
    stats_.degradation.quarantined_apdus += dropped;
    stats_.degradation.quarantined_connections += ds.quarantined_.size();
  }

  // The lane appends in capture order, so sorting its equal-ts stretches
  // in place leaves one ordered run unless timestamps stepped back.
  for (auto first = records_.begin(); first != records_.end();) {
    auto last = std::next(first);
    while (last != records_.end() && last->ts == first->ts) ++last;
    if (std::distance(first, last) > 1) std::sort(first, last, canonical_less);
    first = last;
  }
  RecordCursor cursor;
  cursor.add(records_, {}, backward_steps_ == 0);
  if (cursor.runs() <= 1) {
    ds.records_ = std::move(records_);  // already canonical: move nothing
  } else {
    // The cursor only reads; the records are ours to move from.
    ds.records_.reserve(records_.size());
    while (const ApduRecord* rec = cursor.next()) {
      ds.records_.push_back(std::move(const_cast<ApduRecord&>(*rec)));
    }
  }

  ds.stats_ = stats_;
  ds.flows_ = std::move(flows_);
  ds.damage_ = std::move(damage_);
  damage_cache_.invalidate();
  // Shared, not moved: the builder's parsers still point at the arena, and
  // the dataset must keep it alive once the records leave the builder.
  ds.arena_ = record_arena_;
  ComplianceAccumulator compliance;
  feed(ds.records_, compliance);
  ds.compliance_ = compliance.close(ds.stats_);
  return ds;
}

namespace {

void save_stats(ByteWriter& w, const DatasetStats& s) {
  util::save_fields(w, s, DatasetStats::fields());
  util::save_fields(w, s.degradation, DegradationCounters::fields());
}

Status load_stats(ByteReader& r, DatasetStats& s) {
  if (auto st = util::load_fields(r, s, DatasetStats::fields()); !st) return st;
  return util::load_fields(r, s.degradation, DegradationCounters::fields());
}

void save_profile(ByteWriter& w, const iec104::CodecProfile& p) {
  w.u8(static_cast<std::uint8_t>(p.cot_octets));
  w.u8(static_cast<std::uint8_t>(p.ioa_octets));
  w.u8(static_cast<std::uint8_t>(p.ca_octets));
}

Result<iec104::CodecProfile> load_profile(ByteReader& r) {
  auto cot = r.u8();
  auto ioa = r.u8();
  auto ca = r.u8();
  if (!ca) return ca.error();
  return iec104::CodecProfile{cot.value(), ioa.value(), ca.value()};
}

}  // namespace

Status DatasetBuilder::save(ByteWriter& w) const {
  save_stats(w, stats_);
  util::save_fields(w, pressure_, ResourcePressure::action_fields());
  util::save_fields(w, pressure_, ResourcePressure::peak_fields());
  flows_.save(w);
  w.u64le(last_ts_);
  w.u64le(packets_consumed_);

  // APDU records travel re-encoded under their own codec profile. The
  // parser only accepts exact decodes, so encode() round-trips.
  w.u32le(static_cast<std::uint32_t>(records_.size()));
  for (const auto& rec : records_) {
    w.u64le(rec.ts);
    rec.flow.save(w);
    w.u64le(rec.ts);  // the record's timestamp again, where the APDU's once was
    save_profile(w, rec.apdu.profile());
    w.u8(rec.apdu.compliant ? 1 : 0);
    w.u32le(rec.apdu.wire_size);
    auto encoded = rec.apdu.encode();
    if (!encoded) return encoded.error();
    w.u32le(static_cast<std::uint32_t>(encoded->size()));
    w.bytes(*encoded);
  }

  w.u32le(static_cast<std::uint32_t>(parsers_.size()));
  for (const auto& [key, parser] : parsers_) {
    key.save(w);
    parser.save(w);
  }

  w.u32le(static_cast<std::uint32_t>(damage_.size()));
  for (const auto& [key, dmg] : damage_) {
    key.save(w);
    util::save_fields(w, dmg, FlowDamage::fields());
  }

  w.u8(reassembler_.has_value() ? 1 : 0);
  if (reassembler_) reassembler_->save(w);
  return Status::Ok();
}

Status DatasetBuilder::load(ByteReader& r) {
  if (auto st = load_stats(r, stats_); !st) return st;
  for (const auto& table : {ResourcePressure::action_fields(), ResourcePressure::peak_fields()}) {
    if (auto st = util::load_fields(r, pressure_, table); !st) return st;
  }
  if (auto st = flows_.load(r); !st) return st;
  auto last_ts = r.u64le();
  auto consumed = r.u64le();
  if (!consumed) return consumed.error();
  last_ts_ = last_ts.value();
  packets_consumed_ = consumed.value();

  auto record_count = r.u32le();
  if (!record_count) return record_count.error();
  // The count comes from the file: refuse one the payload cannot hold
  // before reserving for it. A record is at least its fixed-width fields
  // (two timestamps, flow key, profile, compliance, wire size, length).
  constexpr std::size_t kMinRecordBytes = 8 + 12 + 8 + 3 + 1 + 4 + 4;
  if (record_count.value() > r.remaining() / kMinRecordBytes) {
    return Error{"checkpoint-bad-count", std::to_string(record_count.value()) +
                                             " records in " +
                                             std::to_string(r.remaining()) + " bytes"};
  }
  records_.clear();
  records_.reserve(record_count.value());
  for (std::uint32_t i = 0; i < record_count.value(); ++i) {
    ApduRecord rec;
    auto ts = r.u64le();
    if (!ts) return ts.error();
    rec.ts = ts.value();
    auto flow = net::FlowKey::load(r);
    if (!flow) return flow.error();
    rec.flow = flow.value();
    auto apdu_ts = r.u64le();
    if (!apdu_ts) return apdu_ts.error();
    if (apdu_ts.value() != rec.ts) {
      return Error{"checkpoint-record-mismatch", "APDU timestamp differs from its record's"};
    }
    auto profile = load_profile(r);
    if (!profile) return profile.error();
    auto compliant = r.u8();
    auto wire_size = r.u32le();
    auto len = r.u32le();
    if (!len) return len.error();
    auto bytes = r.bytes(len.value());
    if (!bytes) return bytes.error();
    // A record holds its profile in one octet and its wire size in 16 bits:
    // refuse what they cannot hold rather than truncate it.
    if (!profile->codable()) return Error{"checkpoint-bad-profile", profile->str()};
    if (wire_size.value() > 0xffff) {
      return Error{"checkpoint-bad-wire-size", std::to_string(wire_size.value())};
    }
    if (!iec104::decode_apdu_into(*bytes, *profile, record_arena_->resource(), rec.apdu)) {
      ByteReader apdu_reader(*bytes);
      auto detail = iec104::decode_apdu_layered(apdu_reader, *profile);
      return detail ? Error{"checkpoint-bad-apdu", "bytes beyond the framed APDU"}
                    : detail.error();
    }
    rec.apdu.compliant = compliant.value() != 0;
    rec.apdu.wire_size = static_cast<std::uint16_t>(wire_size.value());
    records_.push_back(rec);
  }

  backward_steps_ = 0;
  for (std::size_t i = 1; i < records_.size(); ++i) {
    if (records_[i].ts < records_[i - 1].ts) ++backward_steps_;
  }

  // seq is not serialized: records were saved in append order, so within
  // each flow that order IS the arrival order, and only the relative order
  // matters to the canonical (ts, flow, seq) comparator. Records collected
  // after the restore continue from the persisted damage counter, which is
  // >= any recomputed value here (it also counts budget-evicted records).
  {
    std::map<net::FlowKey, std::uint64_t> next_seq;
    for (auto& rec : records_) rec.seq = next_seq[rec.flow]++;
  }

  auto parser_count = r.u32le();
  if (!parser_count) return parser_count.error();
  parsers_.clear();
  for (std::uint32_t i = 0; i < parser_count.value(); ++i) {
    auto key = net::FlowKey::load(r);
    if (!key) return key.error();
    auto parser = iec104::ApduStreamParser::load(r);
    if (!parser) return parser.error();
    auto [it, ok] = parsers_.emplace(key.value(), std::move(parser).take());
    // The arena is runtime configuration, not checkpoint state: re-point
    // every restored parser at this builder's arena.
    it->second.set_arena(record_arena_->resource());
  }

  auto damage_count = r.u32le();
  if (!damage_count) return damage_count.error();
  damage_cache_.invalidate();
  damage_.clear();
  for (std::uint32_t i = 0; i < damage_count.value(); ++i) {
    auto key = net::FlowKey::load(r);
    if (!key) return key.error();
    FlowDamage dmg;
    if (auto st = util::load_fields(r, dmg, FlowDamage::fields()); !st) return st;
    damage_[key.value()] = dmg;
  }

  auto has_reassembler = r.u8();
  if (!has_reassembler) return has_reassembler.error();
  if (has_reassembler.value()) {
    if (!reassembler_) {
      return Error{"checkpoint-mode-mismatch",
                   "checkpoint has reassembler state but builder mode is per-packet"};
    }
    if (auto st = reassembler_->load(r); !st) return st;
  }
  return Status::Ok();
}

}  // namespace uncharted::analysis
