// Flow-sharded parallel dataset construction.
//
// The hot path — decode, flow tracking, TCP reassembly, APDU parsing — is
// embarrassingly parallel per connection but stateful within one: the
// reassembler, stream parser and flow record for a connection must see its
// packets in order. So packets are partitioned by *endpoint pair*: every
// packet between two IP addresses (both directions, all port pairs) lands
// in the same shard ("lane"), and each lane owns a full DatasetBuilder. A
// lane therefore sees exactly the subsequence of the capture a sequential
// builder restricted to its connections would have seen. A report reads
// the lanes in place through query(): a DatasetView whose RecordCursor
// yields every lane's records once, in the canonical order, so the report
// is invariant under lane count, thread count and completion order
// (whenever resource budgets never bind — bounded state is divided per
// lane, so an *enforced* budget evicts on different packet boundaries, and
// reports can differ between lane counts). Batch analysis is one ingest
// and one query at end of stream; a live daemon queries as often as it
// likes. A fresh builder has one lane per pool worker; a restored one
// keeps its checkpoint's lane count.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/resource.hpp"

namespace uncharted::exec {
class Pool;
class TaskGroup;
}  // namespace uncharted::exec

namespace uncharted::analysis {

/// Lane-count cap for a checkpoint: load() refuses a payload that claims
/// more lanes (or none) before it allocates any.
inline constexpr std::size_t kMaxLanes = 1024;

/// Shard index for a raw frame: SplitMix64 hash of the undirected IPv4
/// endpoint pair (via net::peek_ipv4_pair — no checksum work, no TCP
/// decode). Frames too mangled to even read addresses from go to shard 0,
/// where the full decode fails and is counted exactly as sequentially.
std::size_t shard_of(std::span<const std::uint8_t> frame, std::size_t shard_count);

/// Splits global budgets into a per-shard slice: every bounded resource
/// gets ceil(budget / shards); 0 (unlimited) stays 0.
ResourceBudgets divide_budgets(const ResourceBudgets& budgets, std::size_t shards);

/// Test-only stall seam: called on the driver thread with a frame's lane
/// before the frame is handed to that lane. Returning true wedges the
/// lane: the frame waits in the lane's deferred queue, and so does every
/// later frame of that lane, until poll_deferred() finds the hook
/// returning false again.
using StallHook = std::function<bool(std::size_t lane)>;

/// The ingest engine: frames arrive one at a time on the driver thread —
/// from batch analysis, the streaming analyzer and the daemon alike — and
/// are routed to lanes, one per pool worker (one with no pool), each
/// owning a DatasetBuilder. With no pool a frame goes straight into its
/// lane's builder on the driver thread, and that decode feeds the
/// bandwidth accumulator. With a pool each lane is a strand — a FIFO of
/// frame batches plus an "a drain task is scheduled" flag — so a lane's
/// builder only ever runs on one thread at a time while different lanes
/// run concurrently; the driver stages a small batch per lane to amortize
/// locking, and accounts bandwidth at admission. Every frame that waits
/// (staged, pending or deferred) waits as bytes in a net::FrameQueue: the
/// caller's buffer may be overwritten as soon as add_packet returns.
///
/// drain() is the quiescence barrier: after it returns no lane task is
/// running and every dispatched packet has been ingested. save()/load()/
/// pressure()/query() require it (they take it themselves).
class ShardedDatasetBuilder {
 public:
  ShardedDatasetBuilder(CaptureDataset::Options options, ResourceBudgets budgets,
                        exec::Pool* pool, StallHook stall = {});
  ~ShardedDatasetBuilder();

  ShardedDatasetBuilder(const ShardedDatasetBuilder&) = delete;
  ShardedDatasetBuilder& operator=(const ShardedDatasetBuilder&) = delete;

  /// Routes one frame to its lane; `bandwidth`, when given, accounts it
  /// exactly once, in arrival order. A frame that must wait (a lane's
  /// staged batch, a wedged lane's deferred queue) is copied once, into
  /// that batch's or queue's byte buffer.
  void add_packet(const net::FrameView& frame, BandwidthAccumulator* bandwidth);

  /// Packets admitted so far, deferred ones included — the resume cursor,
  /// mirroring DatasetBuilder::packets_consumed().
  std::uint64_t packets_consumed() const { return dispatched_; }

  /// Hands every wedged lane's deferred frames, in order, to the lane once
  /// the stall hook releases it — or, with `force`, whatever the hook says.
  /// Returns the number of frames handed on.
  std::size_t poll_deferred(bool force = false);

  /// No frame waits behind a wedged lane. save() requires it: a deferred
  /// frame is counted by the cursor but absent from the lane's state.
  bool quiescent() const { return deferred_ == 0; }

  /// Per-lane progress snapshot for the health watchdogs: how many packets
  /// a lane's builder has ingested and how many sit queued behind it
  /// (pending batches and deferred frames, not the driver's staging
  /// buffer). Lock-free reads of per-lane atomics — safe to call from the
  /// driver thread while lane tasks run; values from different lanes are
  /// not a consistent cut.
  struct LaneStat {
    std::uint64_t ingested = 0;
    std::size_t queued_packets = 0;
  };
  std::vector<LaneStat> lane_stats() const;

  /// Barrier: flushes staging, waits for every lane to go idle, rethrows
  /// the first exception any lane task raised.
  void drain();

  /// Sum of per-lane enforcement actions, max of per-lane peaks.
  /// Drains first.
  ResourcePressure pressure();

  /// A query without spending the builder: drains, then adds every lane
  /// to `view` (DatasetBuilder::query) at the global cursor timestamp.
  /// Deferred frames stay deferred: a final report releases them first
  /// (poll_deferred(true)). The lanes keep ingesting afterwards as if
  /// nothing happened, once the view is done reading them.
  void query(DatasetView& view);

  /// Checkpoint serialization: lane count, cursor, global last timestamp,
  /// then each lane's DatasetBuilder state. save() fails while frames are
  /// deferred. load() rebuilds the lanes to the checkpoint's count, which
  /// need not match the pool's workers; it refuses a count of 0 or above
  /// kMaxLanes (the caller starts fresh — re-ingesting is always correct).
  Status save(ByteWriter& w);
  Status load(ByteReader& r);

 private:
  struct Lane;

  /// Replaces the lanes with `count` fresh ones, each with its budget slice.
  void make_lanes(std::size_t count);
  void push_batch(Lane& lane, net::FrameQueue&& batch);
  void drain_lane(Lane& lane);

  CaptureDataset::Options options_;
  ResourceBudgets budgets_;  ///< global; each lane gets a slice
  exec::Pool* pool_;
  StallHook stall_;
  std::unique_ptr<exec::TaskGroup> group_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<net::FrameQueue> staging_;  ///< driver-only
  std::size_t deferred_ = 0;  ///< frames in every lane's deferred queue
  std::uint64_t dispatched_ = 0;
  Timestamp last_ts_ = 0;  ///< ts of the last dispatched packet
};

}  // namespace uncharted::analysis
