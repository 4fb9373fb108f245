#include "net/reassembly.hpp"

#include <array>

namespace uncharted::net {

namespace {
/// Serial-number comparison (RFC 1982 style) for 32-bit sequence numbers.
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
}  // namespace

void StreamStats::accumulate(const StreamStats& o) {
  retransmissions += o.retransmissions;
  overlapping_segments += o.overlapping_segments;
  out_of_order += o.out_of_order;
  delivered_bytes += o.delivered_bytes;
  gaps_skipped += o.gaps_skipped;
  lost_bytes += o.lost_bytes;
  resets += o.resets;
  aborted_with_pending += o.aborted_with_pending;
  wild_segments += o.wild_segments;
}

TcpStreamDirection::TcpStreamDirection(const TcpStreamDirection& other)
    : limits_(other.limits_),
      initialized_(other.initialized_),
      next_seq_(other.next_seq_),
      pending_bytes_(other.pending_bytes_),
      stats_(other.stats_) {
  for (const auto& [seq, data] : other.pending_) pending_[seq] = slab_.store(data);
}

void TcpStreamDirection::drain_contiguous(StreamChunk& chunk) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    std::uint32_t start = it->first;
    std::uint32_t end = start + static_cast<std::uint32_t>(it->second.size());
    if (!seq_lt(next_seq_, end)) {
      // Fully stale buffered segment.
      pending_bytes_ -= it->second.size();
      it = pending_.erase(it);
      continue;
    }
    if (seq_lt(next_seq_, start)) break;  // gap remains
    std::uint32_t skip = next_seq_ - start;
    chunk.data.insert(chunk.data.end(), it->second.begin() + skip, it->second.end());
    stats_.delivered_bytes += it->second.size() - skip;
    next_seq_ = end;
    pending_bytes_ -= it->second.size();
    it = pending_.erase(it);
  }
  // The slab is monotonic: an empty buffer is the one moment every byte in
  // it (drained entries and overwrite waste alike) is reclaimable at once.
  if (pending_.empty()) slab_.reset();
}

StreamChunk TcpStreamDirection::skip_hole(Timestamp ts) {
  StreamChunk chunk;
  chunk.ts = ts;
  if (pending_.empty()) return chunk;
  std::uint32_t start = pending_.begin()->first;
  ++stats_.gaps_skipped;
  stats_.lost_bytes += start - next_seq_;
  next_seq_ = start;
  drain_contiguous(chunk);
  return chunk;
}

std::vector<StreamChunk> TcpStreamDirection::on_segment(
    Timestamp ts, const TcpHeader& tcp, std::span<const std::uint8_t> payload) {
  std::vector<StreamChunk> out;

  if (!initialized_) {
    // First segment seen in this direction anchors the stream. A SYN
    // consumes one sequence number.
    next_seq_ = tcp.seq + (tcp.syn() ? 1 : 0);
    initialized_ = true;
    if (tcp.syn()) {
      if (payload.empty()) return out;
    }
  }

  if (payload.empty()) return out;

  std::uint32_t seg_start = tcp.seq;
  std::uint32_t seg_end = seg_start + static_cast<std::uint32_t>(payload.size());

  if (!seq_lt(next_seq_, seg_end)) {
    // Entire segment is at or before next_seq_: a pure retransmission.
    ++stats_.retransmissions;
    return out;
  }

  if (seq_lt(seg_start, next_seq_)) {
    // Partial overlap: the head was already delivered, keep only the
    // unseen suffix so no byte is ever delivered twice.
    ++stats_.overlapping_segments;
    std::uint32_t skip = next_seq_ - seg_start;
    payload = payload.subspan(skip);
    seg_start = next_seq_;
  }

  if (seg_start != next_seq_) {
    if (seg_start - next_seq_ > limits_.max_window_bytes) {
      // Far outside any receive window: a corrupted sequence number, not
      // a reorder. Buffering it would fake an enormous hole.
      ++stats_.wild_segments;
      return out;
    }
    // Out of order: copy into the slab (the only place the zero-copy path
    // ever copies payload bytes) and buffer for later. Overwrite-same-start
    // keeps the longest; the superseded copy becomes slab waste until the
    // buffer next drains empty.
    ++stats_.out_of_order;
    auto it = pending_.find(seg_start);
    if (it == pending_.end()) {
      pending_bytes_ += payload.size();
      pending_[seg_start] = slab_.store(payload);
    } else if (it->second.size() < payload.size()) {
      pending_bytes_ += payload.size() - it->second.size();
      it->second = slab_.store(payload);
    }
    // Past the cap the hole in front can no longer be waited out: abandon
    // it, deliver the buffered data, and keep memory bounded. The slab's
    // full footprint (waste included) counts against the byte cap — the
    // budget bounds memory actually held, not just live bytes.
    while (pending_bytes_ > limits_.max_pending_bytes ||
           slab_.bytes_used() > limits_.max_pending_bytes ||
           pending_.size() > limits_.max_pending_segments) {
      auto chunk = skip_hole(ts);
      if (!chunk.data.empty()) out.push_back(std::move(chunk));
    }
    return out;
  }

  // In-order: deliver this segment, then drain any now-contiguous buffers.
  StreamChunk chunk;
  chunk.ts = ts;
  chunk.data.assign(payload.begin(), payload.end());
  next_seq_ = seg_end;
  stats_.delivered_bytes += chunk.data.size();
  drain_contiguous(chunk);
  out.push_back(std::move(chunk));
  return out;
}

void TcpStreamDirection::on_reset(Timestamp ts) {
  (void)ts;
  ++stats_.resets;
  if (!pending_.empty()) {
    // The connection died with a hole outstanding: whatever was buffered
    // behind it can never be framed reliably, count it all as lost.
    ++stats_.aborted_with_pending;
    ++stats_.gaps_skipped;
    stats_.lost_bytes += pending_bytes_;
    pending_.clear();
    pending_bytes_ = 0;
    slab_.reset();
  }
  // Re-anchor on the next segment (a reused tuple starts a fresh stream;
  // an injected RST in the middle of a live stream resumes where the
  // peer's data continues).
  initialized_ = false;
}

std::vector<StreamChunk> TcpStreamDirection::flush(Timestamp ts) {
  std::vector<StreamChunk> out;
  while (!pending_.empty()) {
    auto chunk = skip_hole(ts);
    if (!chunk.data.empty()) out.push_back(std::move(chunk));
  }
  return out;
}

void TcpStreamDirection::save(ByteWriter& w) const {
  w.u8(initialized_ ? 1 : 0);
  w.u32le(next_seq_);
  w.u32le(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [seq, data] : pending_) {
    w.u32le(seq);
    w.u32le(static_cast<std::uint32_t>(data.size()));
    w.bytes(data);
  }
  w.u64le(stats_.retransmissions);
  w.u64le(stats_.overlapping_segments);
  w.u64le(stats_.out_of_order);
  w.u64le(stats_.delivered_bytes);
  w.u64le(stats_.gaps_skipped);
  w.u64le(stats_.lost_bytes);
  w.u64le(stats_.resets);
  w.u64le(stats_.aborted_with_pending);
  w.u64le(stats_.wild_segments);
}

Result<TcpStreamDirection> TcpStreamDirection::load(ByteReader& r,
                                                    ReassemblyLimits limits) {
  TcpStreamDirection dir(limits);
  auto initialized = r.u8();
  auto next_seq = r.u32le();
  auto count = r.u32le();
  if (!count) return count.error();
  dir.initialized_ = initialized.value() != 0;
  dir.next_seq_ = next_seq.value();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto seq = r.u32le();
    auto len = r.u32le();
    if (!len) return len.error();
    auto data = r.bytes(len.value());
    if (!data) return data.error();
    dir.pending_bytes_ += data->size();
    dir.pending_[seq.value()] = dir.slab_.store(*data);
  }
  std::array<std::uint64_t*, 9> fields = {
      &dir.stats_.retransmissions, &dir.stats_.overlapping_segments,
      &dir.stats_.out_of_order,    &dir.stats_.delivered_bytes,
      &dir.stats_.gaps_skipped,    &dir.stats_.lost_bytes,
      &dir.stats_.resets,          &dir.stats_.aborted_with_pending,
      &dir.stats_.wild_segments};
  for (auto* field : fields) {
    auto v = r.u64le();
    if (!v) return v.error();
    *field = v.value();
  }
  return dir;
}

void TcpReassembler::add(Timestamp ts, const DecodedFrame& frame) {
  FlowKey key{frame.ip.src, frame.tcp.src_port, frame.ip.dst, frame.tcp.dst_port};
  auto it = directions_.find(key);
  if (it == directions_.end()) {
    it = directions_.emplace(key, TcpStreamDirection(limits_)).first;
  }
  auto& dir = it->second;
  if (sink_) {
    dir.deliver_segment(ts, frame.tcp, frame.payload,
                        [&](Timestamp cts, std::span<const std::uint8_t> data) {
                          sink_(key, cts, data);
                        });
  } else {
    dir.deliver_segment(ts, frame.tcp, frame.payload,
                        [](Timestamp, std::span<const std::uint8_t>) {});
  }
  if (frame.tcp.rst()) {
    // A reset kills both directions of the connection.
    dir.on_reset(ts);
    auto rev = directions_.find(key.reversed());
    if (rev != directions_.end()) rev->second.on_reset(ts);
  }
}

void TcpReassembler::flush(Timestamp ts) {
  for (auto& [key, dir] : directions_) {
    for (auto& chunk : dir.flush(ts)) {
      if (sink_) sink_(key, chunk.ts, chunk.data);
    }
  }
}

std::uint64_t TcpReassembler::retransmitted_segments() const {
  std::uint64_t total = 0;
  for (const auto& [key, dir] : directions_) total += dir.retransmitted_segments();
  return total;
}

std::uint64_t TcpReassembler::retransmissions_for(const FlowKey& key) const {
  auto it = directions_.find(key);
  return it == directions_.end() ? 0 : it->second.retransmitted_segments();
}

StreamStats TcpReassembler::totals() const {
  StreamStats total;
  for (const auto& [key, dir] : directions_) total.accumulate(dir.stats());
  return total;
}

std::size_t TcpReassembler::pending_bytes() const {
  // Slab footprint, not live bytes: budgets govern memory actually held,
  // and the arena only reclaims when a direction drains empty.
  std::size_t total = 0;
  for (const auto& [key, dir] : directions_) total += dir.slab_bytes();
  return total;
}

std::size_t TcpReassembler::evict_pending(Timestamp ts, std::size_t max_bytes) {
  std::size_t flushed = 0;
  while (pending_bytes() > max_bytes) {
    auto victim = directions_.end();
    for (auto it = directions_.begin(); it != directions_.end(); ++it) {
      if (it->second.slab_bytes() == 0) continue;
      if (victim == directions_.end() ||
          it->second.slab_bytes() > victim->second.slab_bytes()) {
        victim = it;
      }
    }
    if (victim == directions_.end()) break;
    for (auto& chunk : victim->second.flush(ts)) {
      if (sink_) sink_(victim->first, chunk.ts, chunk.data);
    }
    ++flushed;
  }
  return flushed;
}

void TcpReassembler::save(ByteWriter& w) const {
  w.u32le(static_cast<std::uint32_t>(directions_.size()));
  for (const auto& [key, dir] : directions_) {
    key.save(w);
    dir.save(w);
  }
}

Status TcpReassembler::load(ByteReader& r) {
  auto count = r.u32le();
  if (!count) return count.error();
  directions_.clear();
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto key = FlowKey::load(r);
    if (!key) return key.error();
    auto dir = TcpStreamDirection::load(r, limits_);
    if (!dir) return dir.error();
    directions_.emplace(key.value(), std::move(dir).take());
  }
  return Status::Ok();
}

}  // namespace uncharted::net
