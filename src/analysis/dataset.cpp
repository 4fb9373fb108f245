#include "analysis/dataset.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <set>

namespace uncharted::analysis {

EndpointPair EndpointPair::of(net::Ipv4Addr x, net::Ipv4Addr y) {
  if (y < x) std::swap(x, y);
  return EndpointPair{x, y};
}

CaptureDataset CaptureDataset::build(const std::vector<net::CapturedPacket>& packets,
                                     const Options& options) {
  DatasetBuilder builder(options);
  for (const auto& pkt : packets) builder.add_packet(pkt);
  return builder.finish();
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
    reassembler_.emplace(reassembly_sink(), options_.reassembly_limits);
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

void DatasetBuilder::collect(const net::FlowKey& key,
                             std::vector<iec104::ParsedApdu>& apdus,
                             std::vector<iec104::ParseFailure>& failures) {
  auto& deg = stats_.degradation;
  std::uint64_t hash = net::flow_key_hash(key);
  FlowDamage* dmgp = damage_cache_.find(key, hash);
  if (dmgp == nullptr) {
    dmgp = &damage_[key];
    damage_cache_.put(key, hash, dmgp);
  }
  auto& dmg = *dmgp;
  for (const auto& f : failures) {
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
  for (auto& parsed : apdus) {
    ApduRecord rec;
    rec.ts = parsed.ts;
    rec.flow = key;
    rec.seq = dmg.apdus;  // arrival index within this directed flow
    rec.apdu = std::move(parsed);
    records_.push_back(std::move(rec));
    ++dmg.apdus;
  }
  apdus.clear();
  failures.clear();
}

void DatasetBuilder::ingest(const net::FlowKey& key, Timestamp ts,
                            std::span<const std::uint8_t> payload) {
  auto& parser = parser_for(key);
  parser.feed(ts, payload);
  parser.drain(drained_apdus_, drained_failures_);
  collect(key, drained_apdus_, drained_failures_);
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
        it->second.drain(drained_apdus_, drained_failures_);
        collect(it->first, drained_apdus_, drained_failures_);
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

void DatasetBuilder::add_packet_impl(Timestamp ts,
                                     std::span<const std::uint8_t> data,
                                     BandwidthAccumulator* bandwidth) {
  ++packets_consumed_;
  ++stats_.packets;
  last_ts_ = ts;
  net::DecodedFrame frame_storage;
  if (!net::decode_frame_into(data, frame_storage)) {
    ++stats_.undecodable_frames;
    ++stats_.degradation.undecodable_frames;
    if (bandwidth) bandwidth->add_decoded(ts, data.size(), nullptr);
    return;
  }
  const net::DecodedFrame* frame = &frame_storage;
  if (bandwidth) bandwidth->add_decoded(ts, data.size(), frame);
  ++stats_.tcp_packets;
  flows_.add(ts, *frame);

  bool is_iec104 = frame->tcp.src_port == options_.iec104_port ||
                   frame->tcp.dst_port == options_.iec104_port;
  if (!is_iec104) {
    auto on_port = [&](std::uint16_t port) {
      return frame->tcp.src_port == port || frame->tcp.dst_port == port;
    };
    if (on_port(4712)) {
      ++stats_.c37118_packets;
    } else if (on_port(102)) {
      ++stats_.iccp_packets;
    } else {
      ++stats_.other_tcp_packets;
    }
    return;
  }

  if (options_.mode == ParseMode::kReassembled) {
    reassembler_->add(ts, *frame);
  } else if (!frame->payload.empty()) {
    ++stats_.iec104_payload_packets;
    net::FlowKey key{frame->ip.src, frame->tcp.src_port, frame->ip.dst,
                     frame->tcp.dst_port};
    // Per-packet mode: each payload parsed independently (fresh framing),
    // matching the paper's per-packet SCAPY pipeline. An APDU cut off by
    // the packet boundary is a truncated tail, not silence. The scratch
    // parser is reset, not reconstructed: same semantics, no allocation.
    packet_parser_.reset_stream();
    packet_parser_.feed(ts, frame->payload);
    packet_parser_.finish(ts);
    packet_parser_.drain(drained_apdus_, drained_failures_);
    collect(key, drained_apdus_, drained_failures_);
  }
}

void DatasetBuilder::add_packet(Timestamp ts, std::span<const std::uint8_t> data,
                                BandwidthAccumulator* bandwidth) {
  add_packet_impl(ts, data, bandwidth);
  enforce_budgets();
}

void DatasetBuilder::add_packets(std::span<const net::FrameView> frames,
                                 BandwidthAccumulator* bandwidth) {
  if (!budgets_.unlimited()) {
    // Budgets in play: enforcement has to see every packet boundary, or
    // eviction timing would depend on the driver's batch size.
    for (const auto& frame : frames) {
      add_packet_impl(frame.ts, frame.data, bandwidth);
      enforce_budgets();
    }
    return;
  }
  // Unlimited budgets: no enforcement branch can fire, so enforce_budgets
  // degenerates to peak sampling. Flows, records and parsers only grow
  // within a batch, so end-of-batch sampling observes their true peaks;
  // only the (unbudgeted) reassembly transient can be sampled lower.
  for (const auto& frame : frames) add_packet_impl(frame.ts, frame.data, bandwidth);
  enforce_budgets();
}

ShardPartial DatasetBuilder::finish_partial(Timestamp flush_ts) {
  ShardPartial part;

  if (reassembler_) {
    // End of capture: abandon outstanding holes, deliver what is behind
    // them, then account the partial tails left in the stream parsers.
    reassembler_->flush(flush_ts);
    stats_.tcp_retransmissions = reassembler_->retransmitted_segments();
    auto totals = reassembler_->totals();
    auto& deg = stats_.degradation;
    deg.reassembly_gaps += totals.gaps_skipped;
    deg.reassembly_lost_bytes += totals.lost_bytes;
    deg.overlapping_segments += totals.overlapping_segments;
    deg.aborted_streams += totals.aborted_with_pending;
    deg.wild_segments += totals.wild_segments;
    for (auto& [key, parser] : parsers_) {
      parser.finish(flush_ts);
      parser.drain(drained_apdus_, drained_failures_);
      collect(key, drained_apdus_, drained_failures_);
    }
  }

  // Quarantine: a directed stream drowning in parse failures is producing
  // mis-decoded APDUs, not telemetry. The policy scores each failure kind
  // by severity; streams crossing the threshold are dropped so one
  // poisoned stream cannot skew the report, and the counters say so. The
  // decision reads only this stream's own damage, so applying it per shard
  // is identical to applying it globally.
  {
    const auto& policy = options_.quarantine;
    std::set<net::FlowKey> quarantined;
    for (const auto& [key, dmg] : damage_) {
      double score =
          policy.score(dmg.garbage, dmg.undecodable, dmg.truncated, dmg.oversized);
      if (policy.should_quarantine(score, dmg.failures(), dmg.apdus)) {
        quarantined.insert(key);
      }
    }
    if (!quarantined.empty()) {
      auto dropped = std::erase_if(records_, [&](const ApduRecord& rec) {
        return quarantined.count(rec.flow) != 0;
      });
      stats_.degradation.quarantined_apdus += dropped;
      stats_.degradation.quarantined_connections += quarantined.size();
      part.quarantined.assign(quarantined.begin(), quarantined.end());
    }
  }

  part.stats = stats_;
  part.flows = std::move(flows_);
  part.records = std::move(records_);
  part.damage = std::move(damage_);
  // Shared, not moved: the builder's parsers still point at the arena, and
  // the partial must keep it alive once the records leave the builder.
  part.arena = record_arena_;
  damage_cache_.invalidate();
  return part;
}

CaptureDataset DatasetBuilder::finish() {
  std::vector<ShardPartial> one;
  one.push_back(finish_partial(last_ts_));
  return merge_partials(std::move(one), options_);
}

ShardPartial DatasetBuilder::snapshot_partial(Timestamp flush_ts) const {
  // The live lane's arena never frees, so a query must not allocate from
  // it. Copied records land on the heap (a pmr copy never inherits its
  // source's arena); what the flush parses lands in the scratch builder's
  // own arena, which the partial keeps alive.
  DatasetBuilder copy(options_, budgets_);
  copy.stats_ = stats_;
  copy.flows_ = flows_;
  copy.records_ = records_;
  copy.parsers_ = parsers_;
  for (auto& [key, parser] : copy.parsers_) {
    parser.set_arena(copy.record_arena_->resource());
  }
  copy.damage_ = damage_;
  if (reassembler_) copy.reassembler_.emplace(*reassembler_, copy.reassembly_sink());
  copy.last_ts_ = last_ts_;
  copy.pressure_ = pressure_;
  return copy.finish_partial(flush_ts);
}

CaptureDataset DatasetBuilder::snapshot() const {
  std::vector<ShardPartial> one;
  one.push_back(snapshot_partial(last_ts_));
  return merge_partials(std::move(one), options_);
}

namespace {

void sum_degradation(DegradationCounters& into, const DegradationCounters& from) {
  into.undecodable_frames += from.undecodable_frames;
  into.parser_resyncs += from.parser_resyncs;
  into.garbage_bytes += from.garbage_bytes;
  into.undecodable_apdus += from.undecodable_apdus;
  into.truncated_tail_bytes += from.truncated_tail_bytes;
  into.reassembly_gaps += from.reassembly_gaps;
  into.reassembly_lost_bytes += from.reassembly_lost_bytes;
  into.overlapping_segments += from.overlapping_segments;
  into.aborted_streams += from.aborted_streams;
  into.wild_segments += from.wild_segments;
  into.quarantined_connections += from.quarantined_connections;
  into.quarantined_apdus += from.quarantined_apdus;
}

void sum_stats(DatasetStats& into, const DatasetStats& from) {
  into.packets += from.packets;
  into.tcp_packets += from.tcp_packets;
  into.undecodable_frames += from.undecodable_frames;
  into.iec104_payload_packets += from.iec104_payload_packets;
  into.apdus += from.apdus;
  into.apdu_failures += from.apdu_failures;
  into.c37118_packets += from.c37118_packets;
  into.iccp_packets += from.iccp_packets;
  into.other_tcp_packets += from.other_tcp_packets;
  into.non_compliant_apdus += from.non_compliant_apdus;
  into.tcp_retransmissions += from.tcp_retransmissions;
  sum_degradation(into.degradation, from.degradation);
}

}  // namespace

CaptureDataset merge_partials(std::vector<ShardPartial> partials,
                              const CaptureDataset::Options& options) {
  CaptureDataset ds;

  std::size_t total_records = 0;
  std::size_t total_quarantined = 0;
  for (const auto& part : partials) {
    total_records += part.records.size();
    total_quarantined += part.quarantined.size();
  }
  ds.quarantined_.reserve(total_quarantined);

  for (auto& part : partials) {
    sum_stats(ds.stats_, part.stats);
    if (part.arena) ds.arenas_.push_back(std::move(part.arena));
    ds.flows_.merge(std::move(part.flows));
    if (&part == &partials.front()) {
      // First (or only) partial: adopt the vector wholesale. At
      // --threads 1 this elides the element-wise move of every record.
      ds.records_ = std::move(part.records);
      ds.records_.reserve(total_records);
    } else {
      std::move(part.records.begin(), part.records.end(),
                std::back_inserter(ds.records_));
    }
    ds.quarantined_.insert(ds.quarantined_.end(), part.quarantined.begin(),
                           part.quarantined.end());
    // Directed flows are shard-affine, so damage maps are disjoint.
    ds.damage_.merge(std::move(part.damage));
  }
  std::sort(ds.quarantined_.begin(), ds.quarantined_.end());

  // Canonical record order: (ts, flow, per-flow seq). A strict total order
  // — no two records share all three — so the merged sequence is the same
  // no matter how the records were distributed across partials, and the
  // single-shard case reproduces it too. The sort runs over a u32
  // permutation so each fat record (owning a parsed ASDU) is moved exactly
  // once when the permutation is applied, not O(n log n) times inside the
  // sort.
  std::vector<std::uint32_t> order(ds.records_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t ia, std::uint32_t ib) {
                     const ApduRecord& a = ds.records_[ia];
                     const ApduRecord& b = ds.records_[ib];
                     if (a.ts != b.ts) return a.ts < b.ts;
                     if (!(a.flow == b.flow)) return a.flow < b.flow;
                     return a.seq < b.seq;
                   });
  std::vector<ApduRecord> sorted;
  sorted.reserve(ds.records_.size());
  for (std::uint32_t idx : order) sorted.push_back(std::move(ds.records_[idx]));
  ds.records_ = std::move(sorted);

  // Hot columns are filled in the same pass that indexes sessions and
  // connections, so the SoA projection is exactly row-aligned with the
  // canonical record order.
  auto& cols = ds.columns_;
  cols.ts.reserve(ds.records_.size());
  cols.flow_index.reserve(ds.records_.size());
  cols.seq.reserve(ds.records_.size());
  cols.type_id.reserve(ds.records_.size());
  cols.wire_size.reserve(ds.records_.size());
  std::map<net::FlowKey, std::uint32_t> flow_ids;

  for (std::size_t i = 0; i < ds.records_.size(); ++i) {
    const auto& rec = ds.records_[i];
    ++ds.stats_.apdus;
    if (!rec.apdu.compliant) ++ds.stats_.non_compliant_apdus;
    ds.sessions_[{rec.flow.src_ip, rec.flow.dst_ip}].push_back(i);
    ds.connections_[EndpointPair::of(rec.flow.src_ip, rec.flow.dst_ip)].push_back(i);

    auto [fit, fresh] = flow_ids.try_emplace(
        rec.flow, static_cast<std::uint32_t>(ds.flow_keys_.size()));
    if (fresh) ds.flow_keys_.push_back(rec.flow);
    cols.ts.push_back(rec.ts);
    cols.flow_index.push_back(fit->second);
    cols.seq.push_back(rec.seq);
    cols.type_id.push_back(
        rec.apdu.apdu.format == iec104::ApduFormat::kI && rec.apdu.apdu.asdu
            ? static_cast<std::uint16_t>(rec.apdu.apdu.asdu->type)
            : CaptureDataset::kNoTypeId);
    cols.wire_size.push_back(static_cast<std::uint32_t>(rec.apdu.wire_size));

    if (rec.apdu.apdu.format == iec104::ApduFormat::kI) {
      // Attribute to the outstation (the IEC 104 port owner): a vendor
      // server configured for a legacy RTU mirrors its dialect, but the
      // paper's compliance finding is about the device, not the direction.
      net::Ipv4Addr station = rec.flow.src_port == options.iec104_port
                                  ? rec.flow.src_ip
                                  : rec.flow.dst_ip;
      auto& entry = ds.compliance_[station];
      ++entry.i_apdus;
      if (!rec.apdu.compliant) {
        ++entry.non_compliant;
        entry.profile = rec.apdu.profile;
      }
    }
  }

  return ds;
}

namespace {

void save_counters(ByteWriter& w, const DegradationCounters& d) {
  w.u64le(d.undecodable_frames);
  w.u64le(d.parser_resyncs);
  w.u64le(d.garbage_bytes);
  w.u64le(d.undecodable_apdus);
  w.u64le(d.truncated_tail_bytes);
  w.u64le(d.reassembly_gaps);
  w.u64le(d.reassembly_lost_bytes);
  w.u64le(d.overlapping_segments);
  w.u64le(d.aborted_streams);
  w.u64le(d.wild_segments);
  w.u64le(d.quarantined_connections);
  w.u64le(d.quarantined_apdus);
}

Status load_counters(ByteReader& r, DegradationCounters& d) {
  std::array<std::uint64_t*, 12> fields = {
      &d.undecodable_frames,   &d.parser_resyncs,
      &d.garbage_bytes,        &d.undecodable_apdus,
      &d.truncated_tail_bytes, &d.reassembly_gaps,
      &d.reassembly_lost_bytes, &d.overlapping_segments,
      &d.aborted_streams,      &d.wild_segments,
      &d.quarantined_connections, &d.quarantined_apdus};
  for (auto* field : fields) {
    auto v = r.u64le();
    if (!v) return v.error();
    *field = v.value();
  }
  return Status::Ok();
}

void save_stats(ByteWriter& w, const DatasetStats& s) {
  w.u64le(s.packets);
  w.u64le(s.tcp_packets);
  w.u64le(s.undecodable_frames);
  w.u64le(s.iec104_payload_packets);
  w.u64le(s.apdus);
  w.u64le(s.apdu_failures);
  w.u64le(s.c37118_packets);
  w.u64le(s.iccp_packets);
  w.u64le(s.other_tcp_packets);
  w.u64le(s.non_compliant_apdus);
  w.u64le(s.tcp_retransmissions);
  save_counters(w, s.degradation);
}

Status load_stats(ByteReader& r, DatasetStats& s) {
  std::array<std::uint64_t*, 11> fields = {
      &s.packets,         &s.tcp_packets,        &s.undecodable_frames,
      &s.iec104_payload_packets, &s.apdus,       &s.apdu_failures,
      &s.c37118_packets,  &s.iccp_packets,       &s.other_tcp_packets,
      &s.non_compliant_apdus, &s.tcp_retransmissions};
  for (auto* field : fields) {
    auto v = r.u64le();
    if (!v) return v.error();
    *field = v.value();
  }
  return load_counters(r, s.degradation);
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
  pressure_.save(w);
  flows_.save(w);
  w.u64le(last_ts_);
  w.u64le(packets_consumed_);

  // APDU records travel re-encoded under their own codec profile. The
  // parser only accepts exact decodes, so encode(profile) round-trips.
  w.u32le(static_cast<std::uint32_t>(records_.size()));
  for (const auto& rec : records_) {
    w.u64le(rec.ts);
    rec.flow.save(w);
    w.u64le(rec.apdu.ts);
    save_profile(w, rec.apdu.profile);
    w.u8(rec.apdu.compliant ? 1 : 0);
    w.u32le(static_cast<std::uint32_t>(rec.apdu.wire_size));
    auto encoded = rec.apdu.apdu.encode(rec.apdu.profile);
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
    w.u64le(dmg.apdus);
    w.u64le(dmg.garbage);
    w.u64le(dmg.garbage_bytes);
    w.u64le(dmg.undecodable);
    w.u64le(dmg.truncated);
    w.u64le(dmg.oversized);
    w.u64le(dmg.last_failure_ts);
  }

  w.u8(reassembler_.has_value() ? 1 : 0);
  if (reassembler_) reassembler_->save(w);
  return Status::Ok();
}

Status DatasetBuilder::load(ByteReader& r) {
  if (auto st = load_stats(r, stats_); !st) return st;
  auto pressure = ResourcePressure::load(r);
  if (!pressure) return pressure.error();
  pressure_ = pressure.value();
  if (auto st = flows_.load(r); !st) return st;
  auto last_ts = r.u64le();
  auto consumed = r.u64le();
  if (!consumed) return consumed.error();
  last_ts_ = last_ts.value();
  packets_consumed_ = consumed.value();

  auto record_count = r.u32le();
  if (!record_count) return record_count.error();
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
    rec.apdu.ts = apdu_ts.value();
    auto profile = load_profile(r);
    if (!profile) return profile.error();
    rec.apdu.profile = profile.value();
    auto compliant = r.u8();
    auto wire_size = r.u32le();
    auto len = r.u32le();
    if (!len) return len.error();
    auto bytes = r.bytes(len.value());
    if (!bytes) return bytes.error();
    rec.apdu.compliant = compliant.value() != 0;
    rec.apdu.wire_size = wire_size.value();
    ByteReader apdu_reader(*bytes);
    auto apdu =
        iec104::decode_apdu(apdu_reader, rec.apdu.profile, record_arena_->resource());
    if (!apdu) return apdu.error();
    rec.apdu.apdu = std::move(apdu).take();
    records_.push_back(std::move(rec));
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
    std::array<std::uint64_t*, 7> fields = {
        &dmg.apdus,     &dmg.garbage,   &dmg.garbage_bytes, &dmg.undecodable,
        &dmg.truncated, &dmg.oversized, &dmg.last_failure_ts};
    for (auto* field : fields) {
      auto v = r.u64le();
      if (!v) return v.error();
      *field = v.value();
    }
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
