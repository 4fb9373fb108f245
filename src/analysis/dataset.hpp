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
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "analysis/bandwidth.hpp"
#include "analysis/resource.hpp"
#include "util/arena.hpp"
#include "iec104/conformance.hpp"
#include "iec104/parser.hpp"
#include "net/flow.hpp"
#include "net/pcap.hpp"
#include "net/reassembly.hpp"
#include "util/ptrcache.hpp"

namespace uncharted::analysis {

enum class ParseMode { kPerPacket, kReassembled };

/// One parsed APDU with its position in the capture.
struct ApduRecord {
  Timestamp ts = 0;
  net::FlowKey flow;  ///< directed 4-tuple it travelled on
  /// Arrival index within this directed flow (0-based). Part of the
  /// canonical record order (ts, flow, seq): timestamps tie across flows
  /// whenever a burst shares a capture tick, and the merge of per-shard
  /// record lanes must not depend on which shard finished first. Within a
  /// flow the sequence is the parse order, which every execution —
  /// sequential, sharded, or restored from a checkpoint — reproduces.
  std::uint64_t seq = 0;
  iec104::ParsedApdu apdu;
};

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

  /// True iff the capture showed any damage at all.
  bool any() const { return total() != 0; }
  std::uint64_t total() const {
    return undecodable_frames + parser_resyncs + garbage_bytes +
           undecodable_apdus + truncated_tail_bytes + reassembly_gaps +
           reassembly_lost_bytes + overlapping_segments + aborted_streams +
           wild_segments + quarantined_connections + quarantined_apdus;
  }
};

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
};

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

  std::uint64_t failures() const { return garbage + undecodable + truncated; }
};

/// An undirected endpoint pair (a "connection" in the paper's sense:
/// C1-O7, C2-O30, ...). Ports are ignored so reconnections merge.
struct EndpointPair {
  net::Ipv4Addr a;  ///< lower address
  net::Ipv4Addr b;

  static EndpointPair of(net::Ipv4Addr x, net::Ipv4Addr y);
  auto operator<=>(const EndpointPair&) const = default;
  std::string str() const { return a.str() + " <-> " + b.str(); }
};

struct ShardPartial;

class CaptureDataset {
 public:
  struct Options {
    ParseMode mode = ParseMode::kPerPacket;
    iec104::ApduStreamParser::Mode parser_mode =
        iec104::ApduStreamParser::Mode::kTolerant;
    /// Only payloads to/from this TCP port are treated as IEC 104.
    std::uint16_t iec104_port = 2404;
    /// Bounds on per-direction out-of-order buffering (reassembled mode).
    net::ReassemblyLimits reassembly_limits;
    /// Severity-weighted quarantine: a directed stream whose damage score
    /// crosses the policy threshold (and whose failures outnumber its
    /// successful APDUs, under the default policy) is quarantined — its
    /// (likely mis-decoded) APDUs are dropped from the dataset so one
    /// poisoned stream cannot skew compliance, clustering or type
    /// statistics. The defaults reproduce the former flat ">= 8 failures"
    /// rule; score_threshold = 0 disables quarantine.
    iec104::QuarantinePolicy quarantine;
  };

  /// Builds the dataset from captured packets.
  static CaptureDataset build(const std::vector<net::CapturedPacket>& packets,
                              const Options& options);
  static CaptureDataset build(const std::vector<net::CapturedPacket>& packets) {
    return build(packets, Options{});
  }
  /// Zero-copy build over frame views (spans into an mmap'd capture or
  /// owning packets; the backing bytes must outlive the call).
  static CaptureDataset build(std::span<const net::FrameView> frames,
                              const Options& options);

  const DatasetStats& stats() const { return stats_; }
  const net::FlowTable& flow_table() const { return flows_; }
  /// All APDUs in capture order.
  const std::vector<ApduRecord>& records() const { return records_; }

  /// APDU indices per directed (src_ip -> dst_ip) session, capture order.
  const std::map<std::pair<net::Ipv4Addr, net::Ipv4Addr>, std::vector<std::size_t>>&
  sessions() const {
    return sessions_;
  }

  /// APDU indices per undirected endpoint pair, capture order.
  const std::map<EndpointPair, std::vector<std::size_t>>& connections() const {
    return connections_;
  }

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

  /// Structure-of-arrays projection of records(): the columns the counting
  /// analyses (type distributions, rate stats) actually touch, laid out
  /// contiguously so a pass over a million records walks flat arrays
  /// instead of striding through fat ApduRecords. Row i describes
  /// records()[i]; built once after the canonical sort.
  struct HotColumns {
    std::vector<Timestamp> ts;
    /// Index into flow_keys() — per-record flow identity as a small int.
    std::vector<std::uint32_t> flow_index;
    std::vector<std::uint64_t> seq;
    /// ASDU type identification, or kNoTypeId for S/U frames (no ASDU).
    std::vector<std::uint16_t> type_id;
    std::vector<std::uint32_t> wire_size;
  };
  /// type_id column sentinel: the record carries no ASDU. Real typeIDs are
  /// 8-bit, so the sentinel can never collide.
  static constexpr std::uint16_t kNoTypeId = 0xffff;

  const HotColumns& columns() const { return columns_; }
  /// Directed flow keys in order of first appearance in records();
  /// flow_index values index into this.
  const std::vector<net::FlowKey>& flow_keys() const { return flow_keys_; }

  /// Directed flows excluded from the dataset by the quarantine rule.
  const std::vector<net::FlowKey>& quarantined_flows() const { return quarantined_; }

  /// Per-directed-flow parse damage (including quarantined flows), so the
  /// conformance audit can attribute parse-level hostility to peers.
  const std::map<net::FlowKey, FlowDamage>& damage() const { return damage_; }

 private:
  friend class DatasetBuilder;
  friend CaptureDataset merge_partials(std::vector<ShardPartial> partials,
                                       const Options& options);

  /// Lane arenas backing the records' parsed-ASDU object storage. Declared
  /// first so they are destroyed last — records_ must release its pmr
  /// vectors while their resource is still alive.
  std::vector<std::shared_ptr<util::RecordArena>> arenas_;
  DatasetStats stats_;
  net::FlowTable flows_;
  std::vector<ApduRecord> records_;
  std::map<std::pair<net::Ipv4Addr, net::Ipv4Addr>, std::vector<std::size_t>> sessions_;
  std::map<EndpointPair, std::vector<std::size_t>> connections_;
  std::map<net::Ipv4Addr, ComplianceEntry> compliance_;
  std::vector<net::FlowKey> quarantined_;
  std::map<net::FlowKey, FlowDamage> damage_;
  HotColumns columns_;
  std::vector<net::FlowKey> flow_keys_;
};

/// One shard's contribution to a dataset: everything a DatasetBuilder
/// accumulated, flushed and quarantined, but not yet sorted or indexed.
/// Partials from flow-disjoint shards merge into the same CaptureDataset a
/// single sequential builder would have produced (see merge_partials).
struct ShardPartial {
  /// The lane's record arena (declared first: destroyed after records).
  /// Travels with the records whose ASDU objects it backs.
  std::shared_ptr<util::RecordArena> arena;
  DatasetStats stats;
  net::FlowTable flows;
  std::vector<ApduRecord> records;
  std::vector<net::FlowKey> quarantined;
  std::map<net::FlowKey, FlowDamage> damage;
};

/// Deterministic order-independent reducer: folds shard partials into one
/// CaptureDataset. Integer stats are summed, flow tables merged (disjoint
/// across shards by construction), records concatenated and re-sorted into
/// the canonical (ts, flow, seq) order, then sessions / connections /
/// compliance are indexed exactly as a sequential finish() would. The
/// result is invariant under any permutation of `partials`.
CaptureDataset merge_partials(std::vector<ShardPartial> partials,
                              const CaptureDataset::Options& options);

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

  /// Ingests one captured packet. Budgets are enforced after each call.
  /// A non-null `bandwidth` is fed from this call's decode of the frame
  /// (BandwidthAccumulator::add_decoded), so the frame is decoded once for
  /// both; every add path below takes the same optional accumulator.
  void add_packet(const net::CapturedPacket& pkt,
                  BandwidthAccumulator* bandwidth = nullptr) {
    add_packet(pkt.ts, pkt.data, bandwidth);
  }

  /// Zero-copy variant: `data` is only read during the call (the mmap'd
  /// frame-view ingest path). Payload bytes are copied only where they must
  /// outlive the call — out-of-order reassembly segments, partial APDU
  /// tails, and failure evidence.
  void add_packet(Timestamp ts, std::span<const std::uint8_t> data,
                  BandwidthAccumulator* bandwidth = nullptr);

  /// Batched ingest over frame views: the whole batch is decoded
  /// back-to-back and — when no budget is set, so enforcement cannot fire —
  /// the budget/peak bookkeeping runs once per batch instead of once per
  /// packet. With budgets set, enforcement stays per-packet: governance
  /// timing is observable (eviction order, pressure counters) and must not
  /// depend on how the driver batched the input.
  void add_packets(std::span<const net::FrameView> frames,
                   BandwidthAccumulator* bandwidth = nullptr);

  /// Packets ingested so far — the resume cursor a checkpoint stores.
  std::uint64_t packets_consumed() const { return packets_consumed_; }

  /// Enforcement actions and high-water marks so far.
  const ResourcePressure& pressure() const { return pressure_; }

  /// Finalizes: flushes reassembly, applies quarantine, sorts and indexes.
  /// The builder is spent afterwards; ingest into a fresh one.
  CaptureDataset finish();

  /// Shard-lane variant of finish(): flushes and quarantines but leaves
  /// sorting and indexing to merge_partials(). `flush_ts` must be the
  /// GLOBAL last dispatched timestamp, not this shard's — truncated-tail
  /// failures are stamped with it and feed the conformance audit, so a
  /// shard that went quiet early must still flush at the capture's end.
  /// finish() is exactly merge_partials({finish_partial(last_ts())}).
  ShardPartial finish_partial(Timestamp flush_ts);

  /// Exactly what finish_partial(flush_ts) would return, without spending
  /// the builder: the mutable state is copied into a scratch builder,
  /// which is finished instead. Nothing is allocated from this builder's
  /// record arena, so record_arena_bytes() is unchanged.
  ShardPartial snapshot_partial(Timestamp flush_ts) const;

  /// finish() without spending the builder:
  /// merge_partials({snapshot_partial(last_ts())}).
  CaptureDataset snapshot() const;

  /// Timestamp of the most recently ingested packet.
  Timestamp last_ts() const { return last_ts_; }

  /// Heap bytes held by this lane's record arena (parsed-ASDU object
  /// storage). Monotone until the lane dies — record eviction trims the
  /// record count but arena blocks are only reclaimed wholesale, which is
  /// why governance and the allocation-budget tests watch this number.
  std::size_t record_arena_bytes() const { return record_arena_->heap_bytes(); }

  /// Checkpoint serialization. Options and budgets are configuration and
  /// are NOT saved — construct the restoring builder with the same ones
  /// (a mismatch is a caller bug, like mismatched ReassemblyLimits).
  /// APDU records are stored re-encoded in their own codec profile; save
  /// fails only if a record cannot be re-encoded (cannot happen for
  /// parser-produced records, which round-trip by construction).
  Status save(ByteWriter& w) const;
  Status load(ByteReader& r);

 private:
  /// add_packet without the budget epilogue — the shared decode body.
  void add_packet_impl(Timestamp ts, std::span<const std::uint8_t> data,
                       BandwidthAccumulator* bandwidth);
  /// The reassembler's delivery target: this builder's ingest().
  net::TcpReassembler::Sink reassembly_sink();
  iec104::ApduStreamParser& parser_for(const net::FlowKey& key);
  /// Accounts freshly drained parse results for one directed flow.
  void collect(const net::FlowKey& key, std::vector<iec104::ParsedApdu>& apdus,
               std::vector<iec104::ParseFailure>& failures);
  void ingest(const net::FlowKey& key, Timestamp ts,
              std::span<const std::uint8_t> payload);
  void enforce_budgets();

  CaptureDataset::Options options_;
  ResourceBudgets budgets_;

  /// Backs the parsed-ASDU object storage of everything this lane parses.
  /// Declared before records_/parsers_/scratch (destroyed after them) and
  /// shared into the ShardPartial so the dataset keeps it alive.
  std::shared_ptr<util::RecordArena> record_arena_;

  DatasetStats stats_;
  net::FlowTable flows_;
  std::vector<ApduRecord> records_;
  std::map<net::FlowKey, iec104::ApduStreamParser> parsers_;
  std::map<net::FlowKey, FlowDamage> damage_;
  /// Short-circuit for the per-packet damage_ lookup in collect(). Any
  /// path that moves or clears damage_ must invalidate it.
  DirectMappedCache<net::FlowKey, FlowDamage, 1024> damage_cache_;
  std::optional<net::TcpReassembler> reassembler_;
  Timestamp last_ts_ = 0;
  std::uint64_t packets_consumed_ = 0;
  ResourcePressure pressure_;
  /// Scratch for drain(); members so buffers are reused across packets.
  std::vector<iec104::ParsedApdu> drained_apdus_;
  std::vector<iec104::ParseFailure> drained_failures_;
  /// Per-packet-mode scratch parser, reset_stream()ed per payload so its
  /// buffers keep their capacity instead of reallocating every packet.
  iec104::ApduStreamParser packet_parser_;
};

}  // namespace uncharted::analysis
