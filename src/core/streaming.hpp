// Streaming analysis: bounded-memory ingestion with checkpoint/restore.
//
// The batch CaptureAnalyzer holds the whole capture in memory; fine for a
// day of traffic, wrong for a permanent monitor. StreamingAnalyzer consumes
// packets one bounded batch at a time, keeps only builder state (flow
// table, per-direction parsers, APDU records — each under a resource
// budget), and periodically snapshots that state to a crash-safe
// checkpoint file. After a crash, `try_restore` resumes from the newest
// valid generation and the driver re-reads the input from
// `packets_consumed()`, reproducing the batch report exactly when budgets
// never bound.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/resource.hpp"
#include "analysis/sharded.hpp"
#include "core/analyzer.hpp"

namespace uncharted::exec {
class Pool;
}  // namespace uncharted::exec

namespace uncharted::core {

/// Test-only stall seam: called with a packet's shard index before it is
/// handed to the analysis engine. Returning true parks the packet in a
/// per-shard deferred queue instead — the shard is "wedged" — until a
/// later poll_deferred() finds the hook returning false again. Per-shard
/// order is preserved, and the shard index is computed with the same
/// endpoint-pair hash at every --threads value, so a stalled-then-drained
/// run produces the same report on both engines.
using StallHook = std::function<bool(std::size_t shard)>;

struct StreamingOptions {
  CaptureAnalyzer::Options analyze;
  /// Budgets handed to the DatasetBuilder. Default: unlimited.
  analysis::ResourceBudgets budgets;
  /// add_packets() slice size — bounds how much work happens between
  /// checkpoint opportunities.
  std::size_t batch_packets = 1024;
  /// Write a checkpoint every N consumed packets (0 = only on finalize).
  std::uint64_t checkpoint_every_packets = 0;
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// Test-only: wedge selected shards (see StallHook above). Empty = never.
  StallHook stall_hook;
};

class StreamingAnalyzer {
 public:
  explicit StreamingAnalyzer(StreamingOptions options);
  ~StreamingAnalyzer();  // out of line: pool_ is only forward-declared here

  StreamingAnalyzer(const StreamingAnalyzer&) = delete;
  StreamingAnalyzer& operator=(const StreamingAnalyzer&) = delete;

  /// Ingests one frame; writes a checkpoint when the interval elapses.
  /// Checkpoint write failures never interrupt ingestion — they surface as
  /// a degradation warning in the final report. The view need only live
  /// for the call: a frame that must wait (a deferral queue, a shard
  /// lane's staged batch) is copied once, there.
  void add_packet(const net::FrameView& frame);

  /// Ingests a span in `batch_packets`-sized slices.
  void add_packets(std::span<const net::FrameView> frames);

  /// Packets ingested so far; after try_restore(), the resume cursor.
  std::uint64_t packets_consumed() const;

  /// Re-checks the stall hook for every wedged shard and ingests (in
  /// per-shard order) everything whose shard is no longer stalled. Returns
  /// the number of packets drained. Cheap no-op when nothing is deferred.
  std::size_t poll_deferred();

  /// No packets are parked behind a wedged shard. Checkpoints composed
  /// with external cursors are only consistent when this holds — a parked
  /// packet is counted by the cursor but absent from builder state.
  bool quiescent() const { return deferred_total_ == 0; }

  /// Per-shard progress for the health watchdogs: packets handed to the
  /// engine and packets queued behind it (engine lanes + deferred). On the
  /// single-builder engine the "lanes" are the same hash partition the
  /// sharded engine would use, so watchdog wiring is thread-count-neutral.
  std::vector<analysis::ShardedDatasetBuilder::LaneStat> lane_stats() const;

  /// Budget enforcement so far. Drains in-flight lane work first on the
  /// sharded engine, hence by value and non-const.
  analysis::ResourcePressure pressure();

  /// Writes a checkpoint now (error if no checkpoint_path configured).
  Status checkpoint_now();

  /// Serializes the full analyzer state (engine tag + builder + bandwidth)
  /// into `w` — the payload `write_checkpoint()` wraps in the v3 container.
  /// Exposed so a daemon can compose it with its own durable state into
  /// one atomic checkpoint.
  Status save_state(ByteWriter& w);

  /// Restores state previously written by save_state(). The engine (and
  /// shard count) must match the current configuration; a mismatch is an
  /// error and the analyzer should be discarded and rebuilt fresh.
  Status load_state(ByteReader& r);

  /// The report over everything ingested so far, without spending the
  /// analyzer: serves live queries on a daemon that keeps ingesting
  /// afterwards. Every lane's small state is copied and flushed
  /// (DatasetBuilder::query) and its records are read in place, in one
  /// pass that feeds every §6 accumulator (analyze_view); nothing is
  /// cached, so every call recomputes from the current state. Equals finalize() of a fresh analyzer fed the same packets,
  /// except that packets parked behind a wedged shard are missing from the
  /// records but present in the bandwidth series (accounted at admission),
  /// and that a failed checkpoint write is not reported here.
  AnalysisReport report_snapshot();

  /// Loads the newest valid checkpoint generation, if any. Returns true
  /// when state was restored, false when no usable checkpoint exists (the
  /// analyzer stays fresh — corrupt or truncated files are skipped, never
  /// fatal). Call before feeding any packets.
  bool try_restore();

  /// Final checkpoint (when configured), then the full §6 report. The
  /// analyzer is spent afterwards.
  AnalysisReport finalize();

 private:
  Status write_checkpoint();
  /// Adds `pressure` and its warning to a §6 report: shared by finalize()
  /// and report_snapshot() so the two cannot drift apart.
  AnalysisReport with_pressure(AnalysisReport report,
                               const analysis::ResourcePressure& pressure) const;
  /// Hands `frame` to the engine. `bandwidth` is fed from the single
  /// builder's decode; deferred and sharded packets pass null, because
  /// they were accounted at admission.
  void ingest(std::size_t shard, const net::FrameView& frame,
              analysis::BandwidthAccumulator* bandwidth = nullptr);
  void force_drain_deferred();

  StreamingOptions options_;
  /// Engine selection: threads <= 1 uses the single DatasetBuilder (the
  /// seed code path, byte-for-byte); more threads use the flow-sharded
  /// builder over pool_. Exactly one of single_/sharded_ is set. pool_ is
  /// declared first so it outlives the lanes that run on it.
  std::unique_ptr<exec::Pool> pool_;
  std::unique_ptr<analysis::DatasetBuilder> single_;
  std::unique_ptr<analysis::ShardedDatasetBuilder> sharded_;
  analysis::BandwidthAccumulator bandwidth_;
  std::uint64_t last_checkpoint_packets_ = 0;
  std::string checkpoint_error_;  ///< last failed write, for the report
  /// Stall-deferral state, one slot per deferral shard (the sharded
  /// engine's shard count on both engines). Driver-thread only.
  std::vector<std::deque<net::CapturedPacket>> deferred_;
  std::vector<std::uint64_t> shard_ingested_;
  std::size_t deferred_total_ = 0;
};

/// Streams a pcap file: restore from checkpoint if present, skip what was
/// already consumed, ingest the rest, finalize. The crash-recovery entry
/// point for drivers and the soak harness.
Result<AnalysisReport> analyze_file_streaming(const std::string& pcap_path,
                                              const StreamingOptions& options);

}  // namespace uncharted::core
