// Streaming analysis: bounded-memory ingestion with checkpoint/restore.
//
// The batch CaptureAnalyzer holds the whole capture in memory; fine for a
// day of traffic, wrong for a permanent monitor. StreamingAnalyzer consumes
// packets one frame at a time, keeps only builder state (flow
// table, per-direction parsers, APDU records — each under a resource
// budget), and periodically snapshots that state to a crash-safe
// checkpoint file. After a crash, `try_restore` resumes from the newest
// valid generation and the driver re-reads the input from
// `packets_consumed()`, reproducing the batch report exactly when budgets
// never bound.
#pragma once

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

struct StreamingOptions {
  CaptureAnalyzer::Options analyze;
  /// Global budgets, divided across the engine's lanes. Default: unlimited.
  analysis::ResourceBudgets budgets;
  /// Write a checkpoint every N consumed packets (0 = only on finalize).
  std::uint64_t checkpoint_every_packets = 0;
  /// Checkpoint file path; empty disables checkpointing entirely.
  std::string checkpoint_path;
  /// Test-only: wedge selected lanes (see analysis::StallHook). Empty =
  /// never.
  analysis::StallHook stall_hook;
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
  /// for the call: a frame that must wait (a wedged lane's deferred queue,
  /// a lane's staged batch) is copied once, there.
  void add_packet(const net::FrameView& frame);

  /// Ingests a span, one add_packet() per frame.
  void add_packets(std::span<const net::FrameView> frames);

  /// Packets ingested so far; after try_restore(), the resume cursor.
  std::uint64_t packets_consumed() const { return engine_.packets_consumed(); }

  /// Hands the frames of every lane the stall hook no longer wedges to
  /// their lanes, in order. Returns the number handed on. Cheap no-op when
  /// nothing is deferred.
  std::size_t poll_deferred() { return engine_.poll_deferred(); }

  /// No frame waits behind a wedged lane. Checkpoints composed with
  /// external cursors are only consistent when this holds — a deferred
  /// frame is counted by the cursor but absent from the lane's state.
  bool quiescent() const { return engine_.quiescent(); }

  /// Per-lane progress for the health watchdogs: packets handed to each
  /// lane's builder and packets queued behind it (staged batches and
  /// deferred frames). One entry per lane of the engine.
  std::vector<analysis::ShardedDatasetBuilder::LaneStat> lane_stats() const {
    return engine_.lane_stats();
  }

  /// Budget enforcement so far. Drains in-flight lane work first, hence
  /// non-const.
  analysis::ResourcePressure pressure() { return engine_.pressure(); }

  /// Writes a checkpoint now (error if no checkpoint_path configured).
  Status checkpoint_now();

  /// Serializes the full analyzer state (engine lanes + bandwidth) into
  /// `w` — the payload `write_checkpoint()` wraps in the v4 container. It
  /// starts with the lane count. Exposed so a daemon can compose it with
  /// its own durable state into one atomic checkpoint. Fails while frames
  /// are deferred (see quiescent()).
  Status save_state(ByteWriter& w);

  /// Restores state previously written by save_state(), with the lane
  /// count it was written with, whatever `--threads` says now. On error
  /// the analyzer should be discarded and rebuilt fresh.
  Status load_state(ByteReader& r);

  /// The report over everything ingested so far, without spending the
  /// analyzer: serves live queries on a daemon that keeps ingesting
  /// afterwards. Every lane's small state is copied and flushed
  /// (DatasetBuilder::query) and its records are read in place, in one
  /// pass that feeds every §6 accumulator (analyze_view); nothing is
  /// cached, so every call recomputes from the current state. finalize()
  /// is this query once the deferred frames are released; a snapshot
  /// differs from it only in that frames deferred behind a wedged lane are
  /// missing from the records but present in the bandwidth series
  /// (accounted at admission), and that a failed checkpoint write is not
  /// reported here.
  AnalysisReport report_snapshot();

  /// Loads the newest valid checkpoint generation, if any. Returns true
  /// when state was restored, false when no usable checkpoint exists (the
  /// analyzer stays fresh — corrupt or truncated files are skipped, never
  /// fatal). Call before feeding any packets.
  bool try_restore();

  /// Releases every deferred frame, writes the shutdown checkpoint (when
  /// configured), then returns report_snapshot() plus the warning of a
  /// failed checkpoint write: the full §6 report, read from the lanes in
  /// place like any query.
  AnalysisReport finalize();

 private:
  Status write_checkpoint();

  StreamingOptions options_;
  /// Null at one thread: the engine's lanes then run on the caller's
  /// thread. Declared first so it outlives the lanes that run on it.
  std::unique_ptr<exec::Pool> pool_;
  analysis::ShardedDatasetBuilder engine_;
  analysis::BandwidthAccumulator bandwidth_;
  std::uint64_t last_checkpoint_packets_ = 0;
  std::string checkpoint_error_;  ///< last failed write, for the report
};

}  // namespace uncharted::core
