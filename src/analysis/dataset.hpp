// Capture dataset: the common substrate of all analyses.
//
// Decodes every frame, tracks TCP flows, and extracts the IEC 104 APDU
// stream per directed connection. Two parse modes are supported:
//   - kPerPacket: each TCP payload is parsed independently, the way the
//     paper's SCAPY pipeline worked. TCP retransmissions then surface as
//     duplicated APDUs — the effect the paper traced in §6.3.1.
//   - kReassembled: payloads are first run through TCP reassembly, so
//     retransmissions are deduplicated (the ablation).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <optional>

#include "analysis/bandwidth.hpp"
#include "analysis/resource.hpp"
#include "util/arena.hpp"
#include "util/fields.hpp"
#include "iec104/conformance.hpp"
#include "iec104/constants.hpp"
#include "iec104/parser.hpp"
#include "net/flow.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"
#include "util/ptrcache.hpp"

namespace uncharted::analysis {

enum class ParseMode { kPerPacket, kReassembled };

/// One parsed APDU with its position in the capture: 8 + 16 + 8 + 24
/// bytes. The APDU's objects live in the lane's record arena.
struct ApduRecord {
  Timestamp ts = 0;
  net::FlowKey flow;  ///< directed 4-tuple it travelled on
  /// Arrival index within this directed flow (0-based). Part of the
  /// canonical record order (ts, flow, seq): timestamps tie across flows
  /// whenever a burst shares a capture tick, and reading several record
  /// lanes must not depend on the order they are read in. Within a flow
  /// the sequence is the parse order, which every execution — one lane,
  /// many, or restored from a checkpoint — reproduces.
  std::uint64_t seq = 0;
  iec104::ParsedApdu apdu;
};
static_assert(sizeof(ApduRecord) <= 64, "an ApduRecord must fit one cache line");

/// Typed error counters for degraded-mode ingestion: everything the
/// pipeline dropped, skipped or quarantined instead of crashing on. All
/// monotone during a build; `any()` is false for a clean capture (benign
/// TCP retransmissions and orderly RSTs are accounted elsewhere).
struct DegradationCounters {
  std::uint64_t undecodable_frames = 0;   ///< frames that failed L2-L4 decode
  std::uint64_t parser_resyncs = 0;       ///< 0x68 hunts after lost framing
  std::uint64_t garbage_bytes = 0;        ///< bytes skipped while resyncing
  std::uint64_t undecodable_apdus = 0;    ///< framed APDUs no profile explains
  std::uint64_t truncated_tail_bytes = 0; ///< partial APDUs at stream end
  std::uint64_t reassembly_gaps = 0;      ///< sequence holes abandoned
  std::uint64_t reassembly_lost_bytes = 0;///< width of those holes
  std::uint64_t overlapping_segments = 0; ///< partially re-sent segments
  std::uint64_t aborted_streams = 0;      ///< RST with data still buffered
  std::uint64_t wild_segments = 0;        ///< discarded out-of-window segments
  std::uint64_t quarantined_connections = 0;  ///< poisoned streams excluded
  std::uint64_t quarantined_apdus = 0;        ///< their APDUs, not reported

  /// Every field, in checkpoint order (util/fields.hpp).
  static constexpr auto fields() {
    using S = DegradationCounters;
    return std::to_array<util::Field<S>>({
        {"undecodable_frames", &S::undecodable_frames},
        {"parser_resyncs", &S::parser_resyncs},
        {"garbage_bytes", &S::garbage_bytes},
        {"undecodable_apdus", &S::undecodable_apdus},
        {"truncated_tail_bytes", &S::truncated_tail_bytes},
        {"reassembly_gaps", &S::reassembly_gaps},
        {"reassembly_lost_bytes", &S::reassembly_lost_bytes},
        {"overlapping_segments", &S::overlapping_segments},
        {"aborted_streams", &S::aborted_streams},
        {"wild_segments", &S::wild_segments},
        {"quarantined_connections", &S::quarantined_connections},
        {"quarantined_apdus", &S::quarantined_apdus},
    });
  }

  /// True iff the capture showed any damage at all.
  bool any() const { return total() != 0; }
  std::uint64_t total() const { return util::sum_fields(*this, fields()); }
  bool operator==(const DegradationCounters&) const = default;
};
static_assert(sizeof(DegradationCounters) ==
              DegradationCounters::fields().size() * sizeof(std::uint64_t));

/// Totals for the capture.
struct DatasetStats {
  std::uint64_t packets = 0;
  std::uint64_t tcp_packets = 0;
  std::uint64_t undecodable_frames = 0;  ///< non-IPv4/TCP or truncated
  std::uint64_t iec104_payload_packets = 0;
  std::uint64_t apdus = 0;
  std::uint64_t apdu_failures = 0;
  /// Fig 5: the tap also carries synchrophasor and inter-control-center
  /// traffic; classified by well-known port.
  std::uint64_t c37118_packets = 0;   ///< port 4712
  std::uint64_t iccp_packets = 0;     ///< port 102
  std::uint64_t other_tcp_packets = 0;
  std::uint64_t non_compliant_apdus = 0;
  std::uint64_t tcp_retransmissions = 0;  ///< reassembled mode only
  DegradationCounters degradation;

  /// Every field but `degradation`, in checkpoint order; the names are the
  /// keys of the report's "stats" JSON.
  static constexpr auto fields() {
    using S = DatasetStats;
    return std::to_array<util::Field<S>>({
        {"packets", &S::packets},
        {"tcp_packets", &S::tcp_packets},
        {"undecodable_frames", &S::undecodable_frames},
        {"iec104_payload_packets", &S::iec104_payload_packets},
        {"apdus", &S::apdus},
        {"apdu_failures", &S::apdu_failures},
        {"c37118_packets", &S::c37118_packets},
        {"iccp_packets", &S::iccp_packets},
        {"other_tcp_packets", &S::other_tcp_packets},
        {"non_compliant_apdus", &S::non_compliant_apdus},
        {"tcp_retransmissions", &S::tcp_retransmissions},
    });
  }
  bool operator==(const DatasetStats&) const = default;
};
static_assert(sizeof(DatasetStats) == DatasetStats::fields().size() * sizeof(std::uint64_t) +
                                          sizeof(DegradationCounters));

/// Per-directed-flow parse damage: how many APDUs parsed cleanly and what
/// each failure was. This is both the quarantine evidence (scored by
/// iec104::QuarantinePolicy) and the parse-level input to the conformance
/// audit, which needs the failure *kinds* — a garbage flood reads very
/// differently from a dribble of truncated tails.
struct FlowDamage {
  std::uint64_t apdus = 0;
  std::uint64_t garbage = 0;        ///< resync events
  std::uint64_t garbage_bytes = 0;  ///< bytes skipped across them
  std::uint64_t undecodable = 0;    ///< framed APDUs no profile explains
  std::uint64_t truncated = 0;      ///< partial frames abandoned
  std::uint64_t oversized = 0;      ///< frames whose length octet exceeds 253
  Timestamp last_failure_ts = 0;

  /// Every field, in checkpoint order.
  static constexpr auto fields() {
    using S = FlowDamage;
    return std::to_array<util::Field<S>>({
        {"apdus", &S::apdus},
        {"garbage", &S::garbage},
        {"garbage_bytes", &S::garbage_bytes},
        {"undecodable", &S::undecodable},
        {"truncated", &S::truncated},
        {"oversized", &S::oversized},
        {"last_failure_ts", &S::last_failure_ts},
    });
  }

  std::uint64_t failures() const { return garbage + undecodable + truncated; }
  bool operator==(const FlowDamage&) const = default;
};
static_assert(sizeof(FlowDamage) == FlowDamage::fields().size() * sizeof(std::uint64_t));

/// An undirected endpoint pair (a "connection" in the paper's sense:
/// C1-O7, C2-O30, ...). Ports are ignored so reconnections merge.
struct EndpointPair {
  net::Ipv4Addr a;  ///< lower address
  net::Ipv4Addr b;

  static EndpointPair of(net::Ipv4Addr x, net::Ipv4Addr y);
  auto operator<=>(const EndpointPair&) const = default;
  std::string str() const { return a.str() + " <-> " + b.str(); }
};

class CaptureDataset {
 public:
  struct Options {
    ParseMode mode = ParseMode::kPerPacket;
    iec104::ApduStreamParser::Mode parser_mode =
        iec104::ApduStreamParser::Mode::kTolerant;
    /// Only payloads to/from this TCP port are parsed as IEC 104 (see
    /// tap_protocol). Not settable.
    static constexpr std::uint16_t iec104_port = iec104::kIec104Port;
  };

  /// Builds the dataset over frame views (spans into an mmap'd capture or
  /// owning packets; the backing bytes must outlive the call).
  static CaptureDataset build(std::span<const net::FrameView> frames,
                              const Options& options);
  static CaptureDataset build(std::span<const net::FrameView> frames) {
    return build(frames, Options{});
  }

  const DatasetStats& stats() const { return stats_; }
  const net::FlowTable& flow_table() const { return flows_; }
  /// All APDUs in capture order.
  const std::vector<ApduRecord>& records() const { return records_; }

  /// Per-outstation count of I-format APDUs that required a legacy profile,
  /// and total I-format APDUs on its connections — the §6.1 compliance
  /// report (commands the server mirrors in the RTU's dialect count toward
  /// the RTU).
  struct ComplianceEntry {
    std::uint64_t i_apdus = 0;
    std::uint64_t non_compliant = 0;
    iec104::CodecProfile profile;  ///< profile that explained the traffic
  };
  const std::map<net::Ipv4Addr, ComplianceEntry>& compliance() const {
    return compliance_;
  }

  /// Directed flows excluded from the dataset by the quarantine rule.
  const std::vector<net::FlowKey>& quarantined_flows() const { return quarantined_; }

  /// Per-directed-flow parse damage (including quarantined flows), so the
  /// conformance audit can attribute parse-level hostility to peers.
  const std::map<net::FlowKey, FlowDamage>& damage() const { return damage_; }

 private:
  friend class DatasetBuilder;

  /// The builder's arena holding the records' information objects.
  /// Declared first so it is destroyed last, after the records that point
  /// into it.
  std::shared_ptr<util::RecordArena> arena_;
  DatasetStats stats_;
  net::FlowTable flows_;
  std::vector<ApduRecord> records_;
  std::map<net::Ipv4Addr, ComplianceEntry> compliance_;
  std::vector<net::FlowKey> quarantined_;
  std::map<net::FlowKey, FlowDamage> damage_;
};

/// Dense ids for directed flows: 0, 1, 2... in order of first sight. A
/// pass over records resolves each record's flow here once, and every
/// accumulator it feeds indexes its per-flow state by that id.
class FlowIds {
 public:
  std::uint32_t id(const net::FlowKey& key);

 private:
  std::map<net::FlowKey, std::uint32_t> ids_;
  DirectMappedCache<net::FlowKey, std::uint32_t, 1024> cache_;
};

/// The per-flow slot of an accumulator. Every accumulator of a pass sees
/// every record, so a flow's id is always at most the slot count: `make`
/// resolves the slot on the flow's first record.
template <typename T, typename Make>
T& flow_slot(std::vector<T>& slots, std::uint32_t flow, Make&& make) {
  if (flow == slots.size()) slots.push_back(make());
  return slots[flow];
}

/// Feeds `records` (canonical order) once to each accumulator.
template <typename... Accumulators>
void feed(std::span<const ApduRecord> records, Accumulators&... accumulators) {
  FlowIds ids;
  for (const auto& rec : records) {
    const std::uint32_t flow = ids.id(rec.flow);
    (accumulators.add(rec, flow), ...);
  }
}

/// §6.1 compliance and the record totals of DatasetStats: attributes each
/// I-format APDU to its outstation (the owner of iec104::kIec104Port).
class ComplianceAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  /// Sets stats.apdus and stats.non_compliant_apdus; returns compliance().
  std::map<net::Ipv4Addr, CaptureDataset::ComplianceEntry> close(DatasetStats& stats);

 private:
  struct Slot {
    net::Ipv4Addr station;
    /// Created on the flow's first I-format record: compliance() lists
    /// only stations with I-format traffic.
    CaptureDataset::ComplianceEntry* entry = nullptr;
  };
  std::map<net::Ipv4Addr, CaptureDataset::ComplianceEntry> compliance_;
  std::vector<Slot> slots_;
  std::uint64_t apdus_ = 0;
  std::uint64_t non_compliant_ = 0;
};

/// Read-only reader of records in the canonical (ts, flow, seq) order. Each
/// added span (a lane's records, in append order) is cut into ordered
/// runs: a new run starts wherever timestamps step backwards, and a
/// stretch of equal timestamps is buffered as pointers and sorted by
/// (flow, seq) when the reader reaches it. The runs are k-way merged. The
/// records are never moved or modified, so a live lane can be read in
/// place while its builder stays intact.
class RecordCursor {
 public:
  /// Adds one span; records of the flows in `skip` (sorted) are passed
  /// over. Returns how many were skipped. `in_order` promises timestamps
  /// never step back, which spares the scan for run boundaries. Call
  /// before the first next().
  std::size_t add(std::span<const ApduRecord> records,
                  std::span<const net::FlowKey> skip = {}, bool in_order = false);
  /// The next record, or nullptr once every run is exhausted.
  const ApduRecord* next();
  /// Ordered runs found by add() (1 for any in-order lane).
  std::size_t runs() const { return runs_.size(); }

 private:
  struct Run {
    const ApduRecord* pos = nullptr;  ///< first record not yet buffered
    const ApduRecord* end = nullptr;
    std::span<const net::FlowKey> skip;
    std::vector<const ApduRecord*> ties{};  ///< sorted equal-ts stretch
    std::size_t tie = 0;                  ///< next unread entry of ties
    const ApduRecord* head = nullptr;     ///< next record, null when done
  };
  void advance(Run& run);

  std::deque<std::vector<net::FlowKey>> skips_;  ///< stable storage
  std::vector<Run> runs_;
  std::vector<std::uint32_t> heap_;  ///< min-heap of live runs by head
  bool started_ = false;
};

class DatasetView;

/// Incremental dataset construction: packets go in one at a time (or in
/// bounded batches), budgets are enforced as state grows, and the whole
/// builder can be checkpointed mid-capture and restored after a crash.
/// `CaptureDataset::build` is now a thin wrapper over one of these; the
/// streaming analyzer drives it directly.
class DatasetBuilder {
 public:
  explicit DatasetBuilder(CaptureDataset::Options options = {},
                          ResourceBudgets budgets = {});

  DatasetBuilder(const DatasetBuilder&) = delete;
  DatasetBuilder& operator=(const DatasetBuilder&) = delete;

  /// Ingests one frame. Budgets are enforced, and peaks sampled, after
  /// each call. A non-null `bandwidth` is fed from this call's decode of
  /// the frame (BandwidthAccumulator::add_decoded), so the frame is decoded
  /// once for both.
  /// `data` is only read during the call: payload bytes are copied only
  /// where they must outlive it — out-of-order reassembly segments, partial
  /// APDU tails, and failure evidence.
  void add_packet(Timestamp ts, std::span<const std::uint8_t> data,
                  BandwidthAccumulator* bandwidth = nullptr);

  /// add_packet over each frame in turn.
  void add_packets(std::span<const net::FrameView> frames,
                   BandwidthAccumulator* bandwidth = nullptr);

  /// Packets ingested so far — the resume cursor a checkpoint stores.
  std::uint64_t packets_consumed() const { return packets_consumed_; }

  /// Enforcement actions and high-water marks so far.
  const ResourcePressure& pressure() const { return pressure_; }

  /// Finalizes this one lane into a dataset: flushes reassembly and the
  /// parsers at last_ts(), drops the quarantined flows' records, and puts
  /// the records in canonical (ts, flow, seq) order — stretches of equal
  /// timestamps are sorted in place, and a RecordCursor merge moves the
  /// records only when the lane's timestamps stepped back. One pass then
  /// fills compliance and the record totals. The builder is spent
  /// afterwards; ingest into a fresh one.
  CaptureDataset finish();

  /// Adds this lane to a live query without spending the builder or
  /// copying its records: the small state (stats, parsers, reassembler,
  /// damage) is copied into a scratch builder, which is flushed at
  /// `flush_ts` exactly as finish() flushes at last_ts(). `flush_ts` must
  /// be the GLOBAL last dispatched timestamp, not this lane's —
  /// truncated-tail failures are stamped with it and feed the conformance
  /// audit, so a lane that went quiet early still flushes at the capture's
  /// end. The records that flush produces become one more span of the
  /// view's cursor, and the lane's own records are read in place, minus
  /// the flows the scratch damage quarantines. Nothing is allocated from
  /// this builder's record arena, so record_arena_bytes() is unchanged.
  void query(Timestamp flush_ts, DatasetView& view) const;

  /// Timestamp of the most recently ingested packet.
  Timestamp last_ts() const { return last_ts_; }

  /// Heap bytes held by this lane's record arena (parsed-ASDU object
  /// storage). Monotone until the lane dies — record eviction trims the
  /// record count but arena blocks are only reclaimed wholesale, which is
  /// why governance and the allocation-budget tests watch this number.
  std::size_t record_arena_bytes() const { return record_arena_->heap_bytes(); }

  /// Checkpoint serialization. Options and budgets are configuration and
  /// are NOT saved — construct the restoring builder with the same ones
  /// (a mismatch is a caller bug).
  /// APDU records are stored re-encoded in their own codec profile; save
  /// fails only if a record cannot be re-encoded (cannot happen for
  /// parser-produced records, which round-trip by construction).
  Status save(ByteWriter& w) const;
  Status load(ByteReader& r);

 private:
  /// End of capture for this lane: flushes the reassembler at `flush_ts`,
  /// then accounts the partial tails left in the stream parsers.
  void flush(Timestamp flush_ts);
  /// Flows whose damage crosses the quarantine policy, sorted.
  std::vector<net::FlowKey> quarantined() const;
  /// The IEC 104 half of add_packet: into the reassembler, or (per-packet
  /// mode) one fresh parse of the frame's payload.
  void parse_iec104(Timestamp ts, const net::DecodedFrame& frame);
  /// The parser sink of one feed: appends each APDU to records_.
  class RecordSink;
  /// The reassembler's delivery target: this builder's ingest().
  net::TcpReassembler::Sink reassembly_sink();
  iec104::ApduStreamParser& parser_for(const net::FlowKey& key);
  FlowDamage& damage_for(const net::FlowKey& key);
  /// Accounts the failures `parser` (of the flow `dmg` belongs to) has
  /// collected, and clears them.
  void account_failures(FlowDamage& dmg, iec104::ApduStreamParser& parser);
  void ingest(const net::FlowKey& key, Timestamp ts,
              std::span<const std::uint8_t> payload);
  void enforce_budgets();

  CaptureDataset::Options options_;
  ResourceBudgets budgets_;

  /// Backs the parsed-ASDU object storage of everything this lane parses.
  /// Declared before records_/parsers_/scratch (destroyed after them) and
  /// shared into the finished dataset, which keeps it alive.
  std::shared_ptr<util::RecordArena> record_arena_;

  DatasetStats stats_;
  net::FlowTable flows_;
  std::vector<ApduRecord> records_;
  /// Appends whose timestamp fell below the previous record's. Zero means
  /// records_ is in timestamp order; eviction never lowers it, so nonzero
  /// only means "maybe not".
  std::uint64_t backward_steps_ = 0;
  std::map<net::FlowKey, iec104::ApduStreamParser> parsers_;
  std::map<net::FlowKey, FlowDamage> damage_;
  /// Short-circuit for the per-packet damage_ lookup in damage_for(). Any
  /// path that moves or clears damage_ must invalidate it.
  DirectMappedCache<net::FlowKey, FlowDamage, 1024> damage_cache_;
  std::optional<net::TcpReassembler> reassembler_;
  Timestamp last_ts_ = 0;
  std::uint64_t packets_consumed_ = 0;
  ResourcePressure pressure_;
  /// Per-packet-mode scratch parser, reset_stream()ed per payload so its
  /// buffers keep their capacity instead of reallocating every packet.
  iec104::ApduStreamParser packet_parser_;
};

/// A live query over one or more lanes: what finish() would see, read in
/// place. Stats are summed, flow tables and damage copied, and the records
/// stay in their lanes (plus each lane's flushed tail, owned here); the
/// cursor yields them once, in canonical order. The lanes must not ingest
/// while a view reads them.
class DatasetView {
 public:
  DatasetView();
  ~DatasetView();
  DatasetView(const DatasetView&) = delete;
  DatasetView& operator=(const DatasetView&) = delete;

  const DatasetStats& stats() const { return stats_; }
  const net::FlowTable& flow_table() const { return flows_; }
  const std::map<net::FlowKey, FlowDamage>& damage() const { return damage_; }
  RecordCursor& records() { return cursor_; }

 private:
  friend class DatasetBuilder;
  /// Flushed scratch builders: they own the tail records and their arena.
  std::vector<std::unique_ptr<DatasetBuilder>> scratch_;
  DatasetStats stats_;
  net::FlowTable flows_;
  std::map<net::FlowKey, FlowDamage> damage_;
  RecordCursor cursor_;
};

}  // namespace uncharted::analysis
