#include "analysis/sharded.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "exec/pool.hpp"
#include "net/frame.hpp"
#include "util/rng.hpp"

namespace uncharted::analysis {

std::size_t shard_of(std::span<const std::uint8_t> frame, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  auto pair = net::peek_ipv4_pair(frame);
  if (!pair) return 0;
  auto [x, y] = *pair;
  EndpointPair ep = EndpointPair::of(x, y);
  // SplitMix64 as a finalizer: one next() over the packed pair scrambles
  // the low bits the modulo looks at (raw SCADA addresses are sequential).
  SplitMix64 mix((static_cast<std::uint64_t>(ep.a.value) << 32) | ep.b.value);
  return static_cast<std::size_t>(mix.next() % shard_count);
}

ResourceBudgets divide_budgets(const ResourceBudgets& budgets, std::size_t shards) {
  if (shards <= 1) return budgets;
  auto slice = [shards](std::size_t b) {
    return b == 0 ? std::size_t{0} : (b + shards - 1) / shards;
  };
  ResourceBudgets out;
  out.max_flow_entries = slice(budgets.max_flow_entries);
  out.max_reassembly_bytes = slice(budgets.max_reassembly_bytes);
  out.max_records = slice(budgets.max_records);
  out.max_parsers = slice(budgets.max_parsers);
  return out;
}

namespace {

net::FrameView to_view(const net::CapturedPacket& pkt) {
  return net::FrameView{pkt.ts, pkt.original_length, pkt.data};
}
net::FrameView to_view(const net::FrameView& view) { return view; }

void fold_pressure(ResourcePressure& into, const ResourcePressure& from) {
  into.flow_evictions += from.flow_evictions;
  into.reassembly_flushes += from.reassembly_flushes;
  into.records_evicted += from.records_evicted;
  into.parsers_evicted += from.parsers_evicted;
  // Peaks are concurrent high-water marks; the max across shards is the
  // honest single number (summing would claim simultaneity never observed).
  into.peak_flow_entries = std::max(into.peak_flow_entries, from.peak_flow_entries);
  into.peak_reassembly_bytes =
      std::max(into.peak_reassembly_bytes, from.peak_reassembly_bytes);
  into.peak_records = std::max(into.peak_records, from.peak_records);
  into.peak_parsers = std::max(into.peak_parsers, from.peak_parsers);
}

/// Both frame representations expose `.ts` and `.data` (an owning vector
/// or a borrowed span — shard_of and the builder take spans either way),
/// so one template serves both public overloads identically.
template <typename Frame>
CaptureDataset build_dataset_sharded_impl(std::span<const Frame> packets,
                                          const CaptureDataset::Options& options,
                                          exec::Pool* pool, std::size_t shard_count,
                                          const ResourceBudgets& budgets,
                                          ResourcePressure* pressure_out,
                                          const StageHook& on_stage) {
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };

  if (shard_count == 0) shard_count = 1;
  // Partition by index — routing is a header peek, far cheaper than the
  // decode the shard will do, so the driver loop is not the bottleneck.
  std::vector<std::vector<std::size_t>> members(shard_count);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    members[shard_of(packets[i].data, shard_count)].push_back(i);
  }
  Timestamp flush_ts = packets.empty() ? Timestamp{0} : packets.back().ts;
  ResourceBudgets per_shard = divide_budgets(budgets, shard_count);

  std::vector<ShardPartial> partials(shard_count);
  std::vector<ResourcePressure> pressures(shard_count);
  {
    auto start = Clock::now();
    exec::TaskGroup group(pool);
    for (std::size_t s = 0; s < shard_count; ++s) {
      if (members[s].empty()) continue;
      group.run([&, s] {
        DatasetBuilder builder(options, per_shard);
        // Gather the shard's frames into one contiguous batch so the
        // builder's batched path amortizes its per-packet bookkeeping.
        // Views only — for owning packets this borrows, never copies.
        std::vector<net::FrameView> batch;
        batch.reserve(members[s].size());
        for (std::size_t idx : members[s]) batch.push_back(to_view(packets[idx]));
        builder.add_packets(batch);
        pressures[s] = builder.pressure();
        partials[s] = builder.finish_partial(flush_ts);
      });
    }
    group.wait();
    if (on_stage) on_stage("shard fan-out", ms_since(start));
  }

  if (pressure_out) {
    *pressure_out = ResourcePressure{};
    for (const auto& p : pressures) fold_pressure(*pressure_out, p);
  }
  auto start = Clock::now();
  auto dataset = merge_partials(std::move(partials), options);
  if (on_stage) on_stage("shard merge", ms_since(start));
  return dataset;
}

}  // namespace

CaptureDataset build_dataset_sharded(const std::vector<net::CapturedPacket>& packets,
                                     const CaptureDataset::Options& options,
                                     exec::Pool* pool, std::size_t shard_count,
                                     const ResourceBudgets& budgets,
                                     ResourcePressure* pressure_out,
                                     const StageHook& on_stage) {
  return build_dataset_sharded_impl<net::CapturedPacket>(
      packets, options, pool, shard_count, budgets, pressure_out, on_stage);
}

CaptureDataset build_dataset_sharded(std::span<const net::FrameView> frames,
                                     const CaptureDataset::Options& options,
                                     exec::Pool* pool, std::size_t shard_count,
                                     const ResourceBudgets& budgets,
                                     ResourcePressure* pressure_out,
                                     const StageHook& on_stage) {
  return build_dataset_sharded_impl<net::FrameView>(
      frames, options, pool, shard_count, budgets, pressure_out, on_stage);
}

struct ShardedDatasetBuilder::Lane {
  std::mutex m;
  std::deque<std::vector<net::CapturedPacket>> pending;
  bool active = false;  ///< a drain task is scheduled or running
  DatasetBuilder builder;
  // Health-watchdog counters, readable without the lane mutex.
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::size_t> queued{0};

  Lane(const CaptureDataset::Options& options, const ResourceBudgets& budgets)
      : builder(options, budgets) {}
};

ShardedDatasetBuilder::ShardedDatasetBuilder(CaptureDataset::Options options,
                                             ResourceBudgets budgets,
                                             exec::Pool* pool,
                                             std::size_t shard_count)
    : options_(options), pool_(pool) {
  if (shard_count == 0) shard_count = 1;
  group_ = std::make_unique<exec::TaskGroup>(pool_);
  ResourceBudgets per_shard = divide_budgets(budgets, shard_count);
  lanes_.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    lanes_.push_back(std::make_unique<Lane>(options_, per_shard));
  }
  staging_.resize(shard_count);
}

ShardedDatasetBuilder::~ShardedDatasetBuilder() {
  // TaskGroup's destructor joins outstanding lane tasks; they only touch
  // lanes_, which outlives group_ in member order (declared before it).
  group_.reset();
}

void ShardedDatasetBuilder::add_packet(const net::CapturedPacket& pkt) {
  std::size_t s = shard_of(pkt.data, lanes_.size());
  ++dispatched_;
  last_ts_ = pkt.ts;
  auto& batch = staging_[s];
  batch.push_back(pkt);
  if (batch.size() >= staging_batch_) {
    push_batch(*lanes_[s], std::move(batch));
    batch = {};
  }
}

void ShardedDatasetBuilder::push_batch(Lane& lane,
                                       std::vector<net::CapturedPacket>&& batch) {
  bool schedule = false;
  lane.queued.fetch_add(batch.size(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(lane.m);
    lane.pending.push_back(std::move(batch));
    if (!lane.active) {
      lane.active = true;
      schedule = true;
    }
  }
  // The strand invariant: at most one drain task per lane exists, so the
  // lane's builder is never touched by two threads. Scheduling outside the
  // lock keeps pool submission (which may block on backpressure) out of
  // the lane's critical section.
  if (schedule) group_->run([this, &lane] { drain_lane(lane); });
}

void ShardedDatasetBuilder::drain_lane(Lane& lane) {
  for (;;) {
    std::vector<net::CapturedPacket> batch;
    {
      std::lock_guard<std::mutex> lock(lane.m);
      if (lane.pending.empty()) {
        lane.active = false;
        return;
      }
      batch = std::move(lane.pending.front());
      lane.pending.pop_front();
    }
    lane.builder.add_packets(net::as_frame_views(batch));
    lane.ingested.fetch_add(batch.size(), std::memory_order_relaxed);
    lane.queued.fetch_sub(batch.size(), std::memory_order_relaxed);
  }
}

std::vector<ShardedDatasetBuilder::LaneStat> ShardedDatasetBuilder::lane_stats()
    const {
  std::vector<LaneStat> out(lanes_.size());
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    out[s].ingested = lanes_[s]->ingested.load(std::memory_order_relaxed);
    // Staging is deliberately excluded: it is a driver-side batching
    // buffer flushed on a deterministic threshold, so packets parked
    // there under a slow trickle are normal operation, not lane demand —
    // counting them would make the lane watchdog see phantom stalls.
    out[s].queued_packets = lanes_[s]->queued.load(std::memory_order_relaxed);
  }
  return out;
}

void ShardedDatasetBuilder::drain() {
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    if (!staging_[s].empty()) {
      push_batch(*lanes_[s], std::move(staging_[s]));
      staging_[s] = {};
    }
  }
  group_->wait();
}

ResourcePressure ShardedDatasetBuilder::pressure() {
  drain();
  ResourcePressure total;
  for (const auto& lane : lanes_) fold_pressure(total, lane->builder.pressure());
  return total;
}

template <typename PartialFn>
CaptureDataset ShardedDatasetBuilder::merge_lanes(PartialFn partial) {
  drain();
  std::vector<ShardPartial> partials(lanes_.size());
  {
    exec::TaskGroup group(pool_);
    for (std::size_t s = 0; s < lanes_.size(); ++s) {
      group.run([&, s] { partials[s] = partial(lanes_[s]->builder); });
    }
    group.wait();
  }
  return merge_partials(std::move(partials), options_);
}

CaptureDataset ShardedDatasetBuilder::finish() {
  return merge_lanes(
      [this](DatasetBuilder& lane) { return lane.finish_partial(last_ts_); });
}

CaptureDataset ShardedDatasetBuilder::snapshot() {
  return merge_lanes(
      [this](const DatasetBuilder& lane) { return lane.snapshot_partial(last_ts_); });
}

Status ShardedDatasetBuilder::save(ByteWriter& w) {
  drain();
  w.u32le(static_cast<std::uint32_t>(lanes_.size()));
  w.u64le(dispatched_);
  w.u64le(last_ts_);
  for (auto& lane : lanes_) {
    if (auto st = lane->builder.save(w); !st) return st;
  }
  return Status::Ok();
}

Status ShardedDatasetBuilder::load(ByteReader& r) {
  drain();
  auto shard_count = r.u32le();
  if (!shard_count) return shard_count.error();
  if (shard_count.value() != lanes_.size()) {
    return Error{"checkpoint-shard-mismatch",
                 "checkpoint has " + std::to_string(shard_count.value()) +
                     " shards, builder has " + std::to_string(lanes_.size())};
  }
  auto dispatched = r.u64le();
  auto last_ts = r.u64le();
  if (!last_ts) return last_ts.error();
  for (auto& lane : lanes_) {
    if (auto st = lane->builder.load(r); !st) return st;
  }
  dispatched_ = dispatched.value();
  last_ts_ = last_ts.value();
  return Status::Ok();
}

}  // namespace uncharted::analysis
