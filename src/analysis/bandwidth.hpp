// Bandwidth and timing analysis — the first prong of the paper's approach
// ("traffic analysis of TCP flows, bandwidth used, and timing
// characteristics of the packets").
//
// Produces per-protocol byte/packet rate time series (bucketed), per-
// connection byte totals, and packet inter-arrival statistics for the
// IEC 104 traffic.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/flow.hpp"
#include "net/frame.hpp"
#include "net/pcap.hpp"
#include "util/ptrcache.hpp"
#include "util/stats.hpp"

namespace uncharted::analysis {

/// Protocol classes on the tap.
enum class TapProtocol { kIec104, kC37118, kIccp, kOther };

std::string tap_protocol_name(TapProtocol p);

/// One bucket of a rate series.
struct RateBucket {
  double t_seconds = 0.0;  ///< bucket start, relative to capture start
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

struct BandwidthReport {
  double bucket_seconds = 0.0;
  Timestamp start_ts = 0;
  /// Byte/packet rate per protocol over time.
  std::map<TapProtocol, std::vector<RateBucket>> series;
  /// Whole-capture totals.
  std::map<TapProtocol, std::uint64_t> total_bytes;
  std::map<TapProtocol, std::uint64_t> total_packets;
  /// Top talkers (canonical connection -> payload bytes), descending.
  std::vector<std::pair<net::FlowKey, std::uint64_t>> top_connections;
  /// IEC 104 packet inter-arrival statistics (all packets on port 2404).
  RunningStats iec104_interarrival_s;

  double duration_seconds() const;
  /// Mean throughput for a protocol in bytes/second.
  double mean_rate_bps(TapProtocol p) const;
};

/// Computes the report with the given time bucket (default 10 s).
BandwidthReport analyze_bandwidth(const std::vector<net::CapturedPacket>& packets,
                                  double bucket_seconds = 10.0);
/// Zero-copy variant over frame views (the mmap'd-file path).
BandwidthReport analyze_bandwidth(std::span<const net::FrameView> frames,
                                  double bucket_seconds = 10.0);

/// Incremental bandwidth accounting: one packet at a time, checkpointable.
/// The batch and streaming analyzers feed it from the DatasetBuilder's own
/// decode of each frame (DatasetBuilder::add_packets(frames, &acc)), so a
/// frame is decoded once for both; `add_packet` and `analyze_bandwidth`
/// decode for themselves and serve callers without a builder.
class BandwidthAccumulator {
 public:
  explicit BandwidthAccumulator(double bucket_seconds = 10.0);

  /// Not copyable or movable: the slot caches hold addresses of this
  /// accumulator's own map nodes.
  BandwidthAccumulator(const BandwidthAccumulator&) = delete;
  BandwidthAccumulator& operator=(const BandwidthAccumulator&) = delete;

  void add_packet(const net::CapturedPacket& pkt) {
    add_packet(pkt.ts, pkt.data);
  }
  /// Zero-copy form: all accounting reads only the timestamp and the raw
  /// frame bytes, so views and owning packets take the same path.
  void add_packet(Timestamp ts, std::span<const std::uint8_t> data);

  /// Accounts one already-decoded frame of `wire_bytes` captured bytes.
  /// Null means the frame did not decode: it still opens the capture
  /// (sets the start timestamp) but is otherwise not counted.
  void add_decoded(Timestamp ts, std::size_t wire_bytes,
                   const net::DecodedFrame* frame);

  /// Snapshot of the report so far (top talkers sorted and truncated).
  BandwidthReport finish() const;

  /// Checkpoint serialization. The bucket width is saved too — it shapes
  /// the series, so a restore under a different width must not silently
  /// mix scales (load adopts the saved width).
  void save(ByteWriter& w) const;
  Status load(ByteReader& r);

 private:
  double bucket_seconds_;
  bool have_start_ = false;
  Timestamp start_ts_ = 0;
  std::map<TapProtocol, std::vector<RateBucket>> series_;
  std::map<TapProtocol, std::uint64_t> total_bytes_;
  std::map<TapProtocol, std::uint64_t> total_packets_;
  std::map<net::FlowKey, std::uint64_t> connection_bytes_;
  std::optional<Timestamp> prev_iec104_;
  RunningStats iec104_interarrival_s_;

  /// Node addresses of one protocol's entries in the three per-protocol
  /// maps (std::map nodes are stable under insertion).
  struct ProtoSlot {
    std::vector<RateBucket>* series = nullptr;
    std::uint64_t* bytes = nullptr;
    std::uint64_t* packets = nullptr;
  };
  ProtoSlot& slot_for(TapProtocol proto);

  /// Per-TapProtocol slots in front of the maps, which stay the source of
  /// truth; load() clears them.
  std::array<ProtoSlot, static_cast<std::size_t>(TapProtocol::kOther) + 1>
      proto_slots_{};
  /// Short-circuit for the per-packet connection_bytes_ lookup.
  DirectMappedCache<net::FlowKey, std::uint64_t, 1024> connection_cache_;
};

}  // namespace uncharted::analysis
