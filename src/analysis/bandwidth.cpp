#include "analysis/bandwidth.hpp"

#include <algorithm>
#include <optional>

#include "net/frame.hpp"

namespace uncharted::analysis {

namespace {
/// Longest silence (in buckets) densely zero-filled in a rate series. At
/// the default 10 s bucket that is ~28 hours; a larger jump is recorded as
/// a discontinuity instead of materializing the gap, so one absurd
/// timestamp cannot balloon the series to gigabytes.
constexpr std::size_t kMaxGapFill = 10'000;
}  // namespace

std::string tap_protocol_name(TapProtocol p) {
  switch (p) {
    case TapProtocol::kIec104: return "IEC 104";
    case TapProtocol::kC37118: return "C37.118";
    case TapProtocol::kIccp: return "ICCP";
    case TapProtocol::kOther: return "other";
  }
  return "?";
}

double BandwidthReport::duration_seconds() const {
  double max_t = 0.0;
  for (const auto& [proto, buckets] : series) {
    if (!buckets.empty()) {
      max_t = std::max(max_t, buckets.back().t_seconds + bucket_seconds);
    }
  }
  return max_t;
}

double BandwidthReport::mean_rate_bps(TapProtocol p) const {
  double dur = duration_seconds();
  if (dur <= 0.0) return 0.0;
  auto it = total_bytes.find(p);
  return it == total_bytes.end() ? 0.0 : static_cast<double>(it->second) / dur;
}

BandwidthReport analyze_bandwidth(const std::vector<net::CapturedPacket>& packets,
                                  double bucket_seconds) {
  BandwidthAccumulator acc(bucket_seconds);
  for (const auto& pkt : packets) acc.add_packet(pkt);
  return acc.finish();
}

BandwidthReport analyze_bandwidth(std::span<const net::FrameView> frames,
                                  double bucket_seconds) {
  BandwidthAccumulator acc(bucket_seconds);
  for (const auto& frame : frames) acc.add_packet(frame.ts, frame.data);
  return acc.finish();
}

BandwidthAccumulator::BandwidthAccumulator(double bucket_seconds)
    : bucket_seconds_(bucket_seconds) {}

void BandwidthAccumulator::add_packet(Timestamp ts,
                                      std::span<const std::uint8_t> data) {
  net::DecodedFrame frame;
  add_decoded(ts, data.size(),
              net::decode_frame_into(data, frame) ? &frame : nullptr);
}

BandwidthAccumulator::ProtoSlot& BandwidthAccumulator::slot_for(TapProtocol proto) {
  ProtoSlot& slot = proto_slots_[static_cast<std::size_t>(proto)];
  if (slot.series == nullptr) {
    slot.series = &series_[proto];
    slot.bytes = &total_bytes_[proto];
    slot.packets = &total_packets_[proto];
  }
  return slot;
}

void BandwidthAccumulator::add_decoded(Timestamp ts, std::size_t wire_bytes,
                                       const net::DecodedFrame* frame) {
  if (!have_start_) {
    start_ts_ = ts;
    have_start_ = true;
  }
  if (frame == nullptr) return;
  TapProtocol proto = tap_protocol(*frame);
  // A packet stamped before the capture start (reordered tap, or a forged
  // timestamp) collapses into bucket 0; unsigned subtraction would
  // otherwise wrap to a ~580,000-year offset.
  std::size_t bucket_index = 0;
  if (ts > start_ts_) {
    double rel = to_seconds(static_cast<DurationUs>(ts - start_ts_));
    bucket_index = static_cast<std::size_t>(rel / bucket_seconds_);
  }
  const double t = static_cast<double>(bucket_index) * bucket_seconds_;

  ProtoSlot& proto_slot = slot_for(proto);
  auto& buckets = *proto_slot.series;
  RateBucket* slot = nullptr;
  if (buckets.empty() || buckets.back().t_seconds < t) {
    // Zero-fill short silences so contiguous traffic plots densely, but a
    // timestamp jump (hostile, corrupt, or a tap left running across an
    // outage) must not allocate one bucket per bucket-width of the gap:
    // past kMaxGapFill the series records a discontinuity — the new bucket
    // carries its own t_seconds and nothing is materialized between.
    const double next_t =
        buckets.empty() ? 0.0 : buckets.back().t_seconds + bucket_seconds_;
    if (t > next_t) {
      auto gap = static_cast<std::size_t>((t - next_t) / bucket_seconds_ + 0.5);
      if (gap <= kMaxGapFill) {
        for (std::size_t i = 0; i < gap; ++i) {
          buckets.push_back(
              RateBucket{next_t + static_cast<double>(i) * bucket_seconds_, 0, 0});
        }
      }
    }
    buckets.push_back(RateBucket{t, 0, 0});
    slot = &buckets.back();
  } else if (buckets.back().t_seconds == t) {
    // The common case: in-order traffic filling the tail bucket.
    slot = &buckets.back();
  } else {
    // Before the tail: the bucket usually exists (dense fill), but a
    // reordered packet can land in an elided gap — insert it in place.
    auto it = std::lower_bound(
        buckets.begin(), buckets.end(), t,
        [](const RateBucket& b, double want) { return b.t_seconds < want; });
    if (it == buckets.end() || it->t_seconds != t) {
      it = buckets.insert(it, RateBucket{t, 0, 0});
    }
    slot = &*it;
  }
  slot->bytes += wire_bytes;
  ++slot->packets;
  *proto_slot.bytes += wire_bytes;
  ++*proto_slot.packets;

  net::FlowKey conn = net::FlowKey{frame->ip.src, frame->tcp.src_port,
                                   frame->ip.dst, frame->tcp.dst_port}
                          .canonical();
  std::uint64_t hash = net::flow_key_hash(conn);
  std::uint64_t* conn_bytes = connection_cache_.find(conn, hash);
  if (conn_bytes == nullptr) {
    conn_bytes = &connection_bytes_[conn];
    connection_cache_.put(conn, hash, conn_bytes);
  }
  *conn_bytes += frame->payload.size();

  if (proto == TapProtocol::kIec104) {
    // A reordered packet would wrap the unsigned gap into an astronomical
    // inter-arrival sample; skip it rather than poison the statistics.
    if (prev_iec104_ && ts >= *prev_iec104_) {
      iec104_interarrival_s_.add(
          to_seconds(static_cast<DurationUs>(ts - *prev_iec104_)));
    }
    prev_iec104_ = ts;
  }
}

BandwidthReport BandwidthAccumulator::finish() const {
  BandwidthReport out;
  out.bucket_seconds = bucket_seconds_;
  out.start_ts = start_ts_;
  out.series = series_;
  out.total_bytes = total_bytes_;
  out.total_packets = total_packets_;
  out.iec104_interarrival_s = iec104_interarrival_s_;
  out.top_connections.assign(connection_bytes_.begin(), connection_bytes_.end());
  std::sort(out.top_connections.begin(), out.top_connections.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (out.top_connections.size() > 20) out.top_connections.resize(20);
  return out;
}

void BandwidthAccumulator::save(ByteWriter& w) const {
  w.f64le(bucket_seconds_);
  w.u8(have_start_ ? 1 : 0);
  w.u64le(start_ts_);
  w.u32le(static_cast<std::uint32_t>(series_.size()));
  for (const auto& [proto, buckets] : series_) {
    w.u8(static_cast<std::uint8_t>(proto));
    w.u32le(static_cast<std::uint32_t>(buckets.size()));
    for (const auto& b : buckets) {
      w.f64le(b.t_seconds);
      w.u64le(b.bytes);
      w.u64le(b.packets);
    }
  }
  auto save_totals = [&w](const std::map<TapProtocol, std::uint64_t>& m) {
    w.u32le(static_cast<std::uint32_t>(m.size()));
    for (const auto& [proto, v] : m) {
      w.u8(static_cast<std::uint8_t>(proto));
      w.u64le(v);
    }
  };
  save_totals(total_bytes_);
  save_totals(total_packets_);
  w.u32le(static_cast<std::uint32_t>(connection_bytes_.size()));
  for (const auto& [key, bytes] : connection_bytes_) {
    key.save(w);
    w.u64le(bytes);
  }
  w.u8(prev_iec104_.has_value() ? 1 : 0);
  if (prev_iec104_) w.u64le(*prev_iec104_);
  iec104_interarrival_s_.save(w);
}

Status BandwidthAccumulator::load(ByteReader& r) {
  // Every map below is rebuilt, so no cached node address survives.
  proto_slots_ = {};
  connection_cache_.invalidate();
  auto bucket = r.f64le();
  auto have_start = r.u8();
  auto start = r.u64le();
  if (!start) return start.error();
  bucket_seconds_ = bucket.value();
  have_start_ = have_start.value() != 0;
  start_ts_ = start.value();

  auto series_count = r.u32le();
  if (!series_count) return series_count.error();
  series_.clear();
  for (std::uint32_t i = 0; i < series_count.value(); ++i) {
    auto proto = r.u8();
    auto bucket_count = r.u32le();
    if (!bucket_count) return bucket_count.error();
    auto& buckets = series_[static_cast<TapProtocol>(proto.value())];
    buckets.reserve(bucket_count.value());
    for (std::uint32_t j = 0; j < bucket_count.value(); ++j) {
      auto t = r.f64le();
      auto bytes = r.u64le();
      auto packets = r.u64le();
      if (!packets) return packets.error();
      buckets.push_back(RateBucket{t.value(), bytes.value(), packets.value()});
    }
  }

  auto load_totals = [&r](std::map<TapProtocol, std::uint64_t>& m) -> Status {
    auto count = r.u32le();
    if (!count) return count.error();
    m.clear();
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      auto proto = r.u8();
      auto v = r.u64le();
      if (!v) return v.error();
      m[static_cast<TapProtocol>(proto.value())] = v.value();
    }
    return Status::Ok();
  };
  if (auto st = load_totals(total_bytes_); !st) return st;
  if (auto st = load_totals(total_packets_); !st) return st;

  auto conn_count = r.u32le();
  if (!conn_count) return conn_count.error();
  connection_bytes_.clear();
  for (std::uint32_t i = 0; i < conn_count.value(); ++i) {
    auto key = net::FlowKey::load(r);
    if (!key) return key.error();
    auto bytes = r.u64le();
    if (!bytes) return bytes.error();
    connection_bytes_[key.value()] = bytes.value();
  }

  auto has_prev = r.u8();
  if (!has_prev) return has_prev.error();
  prev_iec104_.reset();
  if (has_prev.value()) {
    auto prev = r.u64le();
    if (!prev) return prev.error();
    prev_iec104_ = prev.value();
  }
  auto stats = RunningStats::load(r);
  if (!stats) return stats.error();
  iec104_interarrival_s_ = stats.value();
  return Status::Ok();
}

}  // namespace uncharted::analysis
