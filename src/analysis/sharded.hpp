// Flow-sharded parallel dataset construction.
//
// The hot path — decode, flow tracking, TCP reassembly, APDU parsing — is
// embarrassingly parallel per connection but stateful within one: the
// reassembler, stream parser and flow record for a connection must see its
// packets in order. So packets are partitioned by *endpoint pair*: every
// packet between two IP addresses (both directions, all port pairs) lands
// in the same shard, each shard owns a full DatasetBuilder, and shard
// results fold into one CaptureDataset through merge_partials(), whose
// output is invariant under shard count, thread count and completion
// order. A shard therefore sees exactly the subsequence of the capture a
// sequential builder restricted to its connections would have seen, and
// the merged dataset is byte-identical to the sequential one (whenever
// resource budgets never bind — bounded state is divided per shard, so an
// *enforced* budget evicts on different packet boundaries).
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

/// Default shard count. Fixed — deliberately NOT derived from the worker
/// count — so the shard a connection maps to, the per-shard budget slices
/// and the checkpoint layout are identical at every --threads value.
inline constexpr std::size_t kDefaultShardCount = 16;

/// Shard index for a raw frame: SplitMix64 hash of the undirected IPv4
/// endpoint pair (via net::peek_ipv4_pair — no checksum work, no TCP
/// decode). Frames too mangled to even read addresses from go to shard 0,
/// where the full decode fails and is counted exactly as sequentially.
std::size_t shard_of(std::span<const std::uint8_t> frame, std::size_t shard_count);

/// Splits global budgets into a per-shard slice: every bounded resource
/// gets ceil(budget / shards); 0 (unlimited) stays 0.
ResourceBudgets divide_budgets(const ResourceBudgets& budgets, std::size_t shards);

/// Wall-clock hook for the profiler layer: called with a stage label and
/// elapsed milliseconds. Keeps analysis free of a core/profiler dependency.
using StageHook = std::function<void(const char* stage, double wall_ms)>;

/// Batch entry point: partitions `packets` by shard (index lists — no
/// packet copies), runs one DatasetBuilder per non-empty shard on the
/// pool, and merges. With a null pool the shards run inline, in order —
/// same code path, same result. `pressure_out`, when given, receives the
/// sum of per-shard enforcement counters and the max of per-shard peaks;
/// `on_stage` receives fan-out and merge wall times.
CaptureDataset build_dataset_sharded(const std::vector<net::CapturedPacket>& packets,
                                     const CaptureDataset::Options& options,
                                     exec::Pool* pool,
                                     std::size_t shard_count = kDefaultShardCount,
                                     const ResourceBudgets& budgets = {},
                                     ResourcePressure* pressure_out = nullptr,
                                     const StageHook& on_stage = {});

/// Zero-copy batch entry: same partition/merge machinery over frame views
/// (spans into an mmap'd capture or owning packets, which must outlive the
/// call). Produces byte-identical datasets to the owning overload.
CaptureDataset build_dataset_sharded(std::span<const net::FrameView> frames,
                                     const CaptureDataset::Options& options,
                                     exec::Pool* pool,
                                     std::size_t shard_count = kDefaultShardCount,
                                     const ResourceBudgets& budgets = {},
                                     ResourcePressure* pressure_out = nullptr,
                                     const StageHook& on_stage = {});

/// Streaming counterpart: packets arrive one at a time on the driver
/// thread and are routed to per-shard lanes. Each lane is a strand — a
/// FIFO of packet batches plus an "a drain task is scheduled" flag — so a
/// lane's builder only ever runs on one thread at a time while different
/// lanes run concurrently. The driver buffers a small staging batch per
/// lane to amortize locking.
///
/// drain() is the quiescence barrier: after it returns no lane task is
/// running and every dispatched packet has been ingested. save()/load()/
/// pressure()/finish()/query() require it (they take it themselves).
class ShardedDatasetBuilder {
 public:
  ShardedDatasetBuilder(CaptureDataset::Options options, ResourceBudgets budgets,
                        exec::Pool* pool,
                        std::size_t shard_count = kDefaultShardCount);
  ~ShardedDatasetBuilder();

  ShardedDatasetBuilder(const ShardedDatasetBuilder&) = delete;
  ShardedDatasetBuilder& operator=(const ShardedDatasetBuilder&) = delete;

  /// Routes one frame to its lane. The lane's staged batch takes a copy,
  /// the one copy a frame gets on its way to a lane builder.
  void add_packet(const net::FrameView& frame);

  /// Packets dispatched so far — the resume cursor, mirroring
  /// DatasetBuilder::packets_consumed().
  std::uint64_t packets_consumed() const { return dispatched_; }

  /// Per-lane progress snapshot for the health watchdogs: how many packets
  /// a lane's builder has ingested and how many sit queued behind it
  /// (pending batches, not the driver's staging buffer). Lock-free reads
  /// of per-lane atomics — safe to call from the driver thread while lane
  /// tasks run; values from different lanes are not a consistent cut.
  struct LaneStat {
    std::uint64_t ingested = 0;
    std::size_t queued_packets = 0;
  };
  std::vector<LaneStat> lane_stats() const;

  /// Barrier: flushes staging, waits for every lane to go idle, rethrows
  /// the first exception any lane task raised.
  void drain();

  /// Sum of per-shard enforcement actions, max of per-shard peaks.
  /// Drains first.
  ResourcePressure pressure();

  /// Flushes every lane at the global cursor timestamp and merges. The
  /// builder is spent afterwards.
  CaptureDataset finish();

  /// A live query without spending the builder: drains, then adds every
  /// lane to `view` (DatasetBuilder::query) at the global cursor
  /// timestamp. The lanes keep ingesting afterwards as if nothing
  /// happened, once the view is done reading them.
  void query(DatasetView& view);

  /// Checkpoint serialization: shard count, cursor, global last timestamp,
  /// then each lane's DatasetBuilder state. load() refuses a checkpoint
  /// whose shard count differs from this builder's (the caller starts
  /// fresh — re-ingesting is always correct).
  Status save(ByteWriter& w);
  Status load(ByteReader& r);

 private:
  struct Lane;

  void push_batch(Lane& lane, std::vector<net::CapturedPacket>&& batch);
  void drain_lane(Lane& lane);

  CaptureDataset::Options options_;
  exec::Pool* pool_;
  std::unique_ptr<exec::TaskGroup> group_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::vector<net::CapturedPacket>> staging_;  ///< driver-only
  std::size_t staging_batch_ = 256;
  std::uint64_t dispatched_ = 0;
  Timestamp last_ts_ = 0;  ///< ts of the last dispatched packet
};

}  // namespace uncharted::analysis
