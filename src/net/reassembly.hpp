// TCP stream reassembly with retransmission detection and degraded-mode
// gap handling.
//
// The paper found that "repeated U16/U32" anomalies were in fact TCP-layer
// retransmissions (§6.3.1), so the reassembler must (a) deliver each payload
// byte at most once in sequence order, and (b) report how many segments were
// retransmissions, per direction, so the application layer can distinguish
// genuine protocol repeats from link noise.
//
// Degraded captures add two requirements. A lost segment opens a hole that
// may never fill, so the out-of-order buffer is bounded (bytes + segment
// count); exceeding the cap — or reaching end of capture / a mid-stream
// RST — records a gap, skips next_seq_ ahead to the buffered data, and
// delivers what can still be delivered. Every anomaly is counted in
// StreamStats so the analyzer's DegradationReport can say exactly what was
// lost. Sequence wrap-around is handled via serial number arithmetic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "net/flow.hpp"
#include "net/frame.hpp"
#include "util/arena.hpp"
#include "util/timebase.hpp"

namespace uncharted::net {

/// A contiguous chunk of application bytes delivered in stream order.
struct StreamChunk {
  Timestamp ts = 0;                 ///< timestamp of the segment that completed it
  std::vector<std::uint8_t> data;
};

/// Caps on the out-of-order buffer of one stream direction. When either is
/// exceeded the hole in front of the buffered data is abandoned (recorded
/// as a gap) and delivery skips ahead, bounding memory per direction.
struct ReassemblyLimits {
  std::size_t max_pending_bytes = 256 * 1024;
  std::size_t max_pending_segments = 64;
  /// A segment starting further than this ahead of next_seq_ is outside
  /// any plausible receive window — in practice a corrupted sequence
  /// number — and is discarded (counted as wild) rather than buffered,
  /// so one flipped bit cannot fake a multi-gigabyte hole.
  std::uint32_t max_window_bytes = 1 << 20;
};

/// Per-direction counters. All monotone over the life of the stream.
struct StreamStats {
  std::uint64_t retransmissions = 0;       ///< fully duplicate segments
  std::uint64_t overlapping_segments = 0;  ///< partial overlaps (head trimmed)
  std::uint64_t out_of_order = 0;          ///< segments buffered past a hole
  std::uint64_t delivered_bytes = 0;
  std::uint64_t gaps_skipped = 0;   ///< holes abandoned (cap, flush or RST)
  std::uint64_t lost_bytes = 0;     ///< width of abandoned holes + data dropped by RST
  std::uint64_t resets = 0;         ///< RST segments observed
  std::uint64_t aborted_with_pending = 0;  ///< RST while data was buffered
  std::uint64_t wild_segments = 0;  ///< discarded: start beyond max_window_bytes

  void accumulate(const StreamStats& o);
};

/// One direction of one connection.
class TcpStreamDirection {
 public:
  explicit TcpStreamDirection(ReassemblyLimits limits = {}) : limits_(limits) {}

  /// Deep copy: the pending segments are re-stored in the copy's own slab,
  /// so the copy shares no bytes with the original. Slab waste is not
  /// carried over, exactly as across a save/load round trip.
  TcpStreamDirection(const TcpStreamDirection& other);
  TcpStreamDirection& operator=(const TcpStreamDirection&) = delete;
  TcpStreamDirection(TcpStreamDirection&&) = default;
  TcpStreamDirection& operator=(TcpStreamDirection&&) = default;

  /// Feeds a segment; returns application chunks that became contiguous
  /// (possibly after skipping an abandoned hole).
  std::vector<StreamChunk> on_segment(Timestamp ts, const TcpHeader& tcp,
                                      std::span<const std::uint8_t> payload);

  /// Zero-copy delivery: the common in-order segment with nothing buffered
  /// is handed to `deliver(ts, payload)` as the borrowed span — no copy, no
  /// chunk allocation; the span is valid only during the call. Every other
  /// case (anchor, retransmission, overlap, out-of-order, drain behind a
  /// filled hole) falls back to on_segment() and delivers owned chunks.
  template <typename Deliver>
  void deliver_segment(Timestamp ts, const TcpHeader& tcp,
                       std::span<const std::uint8_t> payload, Deliver&& deliver) {
    if (initialized_ && pending_.empty() && !payload.empty() &&
        tcp.seq == next_seq_) {
      next_seq_ += static_cast<std::uint32_t>(payload.size());
      stats_.delivered_bytes += payload.size();
      deliver(ts, payload);
      return;
    }
    for (auto& chunk : on_segment(ts, tcp, payload)) {
      deliver(chunk.ts, std::span<const std::uint8_t>(chunk.data));
    }
  }

  /// A RST tore the stream down: buffered out-of-order data can never
  /// complete, so it is dropped (counted as lost) and the direction
  /// re-anchors on the next segment, if any.
  void on_reset(Timestamp ts);

  /// End of capture: abandons any remaining hole and delivers what was
  /// buffered behind it. Idempotent once pending data is drained.
  std::vector<StreamChunk> flush(Timestamp ts);

  const StreamStats& stats() const { return stats_; }
  std::uint64_t retransmitted_segments() const { return stats_.retransmissions; }
  std::uint64_t delivered_bytes() const { return stats_.delivered_bytes; }
  std::uint64_t out_of_order_segments() const { return stats_.out_of_order; }
  std::uint64_t overlapping_segments() const { return stats_.overlapping_segments; }

  /// Live bytes buffered out of order right now.
  std::size_t pending_bytes() const { return pending_bytes_; }

  /// The OOO slab's full footprint: live bytes plus arena waste (segments
  /// superseded by a longer overwrite, drained entries not yet reclaimed).
  /// This, not pending_bytes(), is what the direction actually holds in
  /// memory, so resource governance evicts against it. The slab is
  /// monotonic and reclaims everything at once whenever the buffer drains
  /// empty, so footprint == live bytes in the steady state.
  std::size_t slab_bytes() const { return slab_.bytes_used(); }

  /// Checkpoint serialization: anchor, OOO buffer and counters. Limits are
  /// configuration, not state — the loader supplies them.
  void save(ByteWriter& w) const;
  static Result<TcpStreamDirection> load(ByteReader& r, ReassemblyLimits limits);

 private:
  /// Appends now-contiguous pending buffers to `chunk`.
  void drain_contiguous(StreamChunk& chunk);
  /// Abandons the hole before the first pending buffer; returns the chunk
  /// delivered from behind it (empty data if nothing was pending).
  StreamChunk skip_hole(Timestamp ts);

  ReassemblyLimits limits_;
  bool initialized_ = false;
  std::uint32_t next_seq_ = 0;  ///< next expected sequence number
  /// OOO buffer: seq -> bytes held in slab_. Spans stay valid until the
  /// slab resets, which only happens once the map is empty.
  std::map<std::uint32_t, std::span<const std::uint8_t>> pending_;
  std::size_t pending_bytes_ = 0;
  util::MonotonicArena slab_{16 * 1024};  ///< backing store for pending_
  StreamStats stats_;
};

/// Reassembles both directions of every connection in a capture and hands
/// application chunks to a sink keyed by the directed flow.
class TcpReassembler {
 public:
  /// sink(directed_key, ts, data): invoked for every delivered chunk. For
  /// in-order traffic `data` borrows the caller's payload (valid only
  /// during the call); buffered deliveries borrow a transient chunk.
  /// Either way the sink must copy what it keeps.
  using Sink =
      std::function<void(const FlowKey&, Timestamp, std::span<const std::uint8_t>)>;

  explicit TcpReassembler(Sink sink, ReassemblyLimits limits = {})
      : sink_(std::move(sink)), limits_(limits) {}

  /// Deep copy of `other`'s stream state that delivers into `sink`: a
  /// scratch reassembler can then be flushed without touching the original.
  TcpReassembler(const TcpReassembler& other, Sink sink)
      : sink_(std::move(sink)), limits_(other.limits_), directions_(other.directions_) {}

  /// Feeds one decoded frame. RST flags reset both directions of the flow.
  void add(Timestamp ts, const DecodedFrame& frame);

  /// End of capture: flushes every direction through the sink.
  void flush(Timestamp ts);

  /// Total retransmitted segments across all directions.
  std::uint64_t retransmitted_segments() const;

  /// Retransmissions for one directed flow (0 if unseen).
  std::uint64_t retransmissions_for(const FlowKey& key) const;

  /// Sum of every direction's counters.
  StreamStats totals() const;

  /// Total bytes buffered out of order across all directions.
  std::size_t pending_bytes() const;

  /// Resource governance: while total pending exceeds `max_bytes`, force-
  /// flushes the direction holding the most buffered data — the hole in
  /// front of it is abandoned (a recorded gap) and what was buffered is
  /// delivered through the sink at time ts. Returns directions flushed.
  std::size_t evict_pending(Timestamp ts, std::size_t max_bytes);

  /// Checkpoint serialization of every tracked direction.
  void save(ByteWriter& w) const;
  Status load(ByteReader& r);

 private:
  Sink sink_;
  ReassemblyLimits limits_;
  std::map<FlowKey, TcpStreamDirection> directions_;
};

}  // namespace uncharted::net
