#include "analysis/sharded.hpp"

#include <algorithm>
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

/// Frames a pooled lane's staged batch collects before it is handed on: a
/// lock and a task submission amortized over this many frames.
constexpr std::size_t kStagingBatch = 256;

void fold_pressure(ResourcePressure& into, const ResourcePressure& from) {
  util::add_fields(into, from, ResourcePressure::action_fields());
  // Peaks are concurrent high-water marks; the max across shards is the
  // honest single number (summing would claim simultaneity never observed).
  for (const auto& f : ResourcePressure::peak_fields()) {
    into.*f.member = std::max(into.*f.member, from.*f.member);
  }
}

}  // namespace

struct ShardedDatasetBuilder::Lane {
  std::mutex m;
  std::deque<net::FrameQueue> pending;
  bool active = false;  ///< a drain task is scheduled or running
  /// Frames held while the stall hook wedges this lane. Driver-only.
  net::FrameQueue deferred;
  DatasetBuilder builder;
  // Health-watchdog counters, readable without the lane mutex.
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::size_t> queued{0};

  /// `ingested` has one writer at a time — the driver with no pool, else
  /// the lane's one drain task — so a plain load and store does; `queued`
  /// is written by the driver and the drain task both and stays an RMW.
  void count_ingested(std::size_t n) {
    ingested.store(ingested.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
  }

  Lane(const CaptureDataset::Options& options, const ResourceBudgets& budgets)
      : builder(options, budgets) {}
};

ShardedDatasetBuilder::ShardedDatasetBuilder(CaptureDataset::Options options,
                                             ResourceBudgets budgets,
                                             exec::Pool* pool, StallHook stall)
    : options_(options), budgets_(budgets), pool_(pool), stall_(std::move(stall)) {
  group_ = std::make_unique<exec::TaskGroup>(pool_);
  make_lanes(std::min<std::size_t>(pool_ ? pool_->worker_count() : 1, kMaxLanes));
}

ShardedDatasetBuilder::~ShardedDatasetBuilder() {
  // TaskGroup's destructor joins outstanding lane tasks; they only touch
  // lanes_, which outlives group_ in member order (declared before it).
  group_.reset();
}

void ShardedDatasetBuilder::make_lanes(std::size_t count) {
  ResourceBudgets slice = divide_budgets(budgets_, count);
  lanes_.clear();
  lanes_.reserve(count);
  for (std::size_t s = 0; s < count; ++s) {
    lanes_.push_back(std::make_unique<Lane>(options_, slice));
  }
  staging_.assign(count, {});
  deferred_ = 0;
}

void ShardedDatasetBuilder::add_packet(const net::FrameView& frame,
                                       BandwidthAccumulator* bandwidth) {
  std::size_t s = shard_of(frame.data, lanes_.size());
  Lane& lane = *lanes_[s];
  ++dispatched_;
  last_ts_ = frame.ts;
  // A lane with deferred frames keeps deferring even once the hook clears:
  // only poll_deferred() hands them on, in order.
  bool defer = !lane.deferred.empty() || (stall_ && stall_(s));
  if (!pool_ && !defer) {
    lane.builder.add_packet(frame.ts, frame.data, bandwidth);
    lane.count_ingested(1);
    return;
  }
  // The frame waits, so it is accounted now: the bandwidth series must not
  // depend on when a lane gets to it.
  if (bandwidth) bandwidth->add_packet(frame.ts, frame.data);
  if (defer) {
    lane.deferred.push(frame.ts, frame.original_length, frame.data);
    ++deferred_;
    return;
  }
  auto& batch = staging_[s];
  batch.push(frame.ts, frame.original_length, frame.data);
  if (batch.size() >= kStagingBatch) push_batch(lane, std::exchange(batch, {}));
}

void ShardedDatasetBuilder::push_batch(Lane& lane, net::FrameQueue&& batch) {
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
    net::FrameQueue batch;
    {
      std::lock_guard<std::mutex> lock(lane.m);
      if (lane.pending.empty()) {
        lane.active = false;
        return;
      }
      batch = std::move(lane.pending.front());
      lane.pending.pop_front();
    }
    const std::size_t count = batch.size();
    for (; !batch.empty(); batch.pop()) {
      const net::FrameView frame = batch.front();
      lane.builder.add_packet(frame.ts, frame.data);
    }
    lane.count_ingested(count);
    lane.queued.fetch_sub(count, std::memory_order_relaxed);
  }
}

std::size_t ShardedDatasetBuilder::poll_deferred(bool force) {
  if (deferred_ == 0) return 0;
  std::size_t released = 0;
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    Lane& lane = *lanes_[s];
    if (lane.deferred.empty() || (!force && stall_ && stall_(s))) continue;
    released += lane.deferred.size();
    // Staged frames are older than every deferred one, so they go first;
    // the deferred queue then goes on whole, as one batch. With no pool
    // the lane drains inline. Already accounted at admission: no
    // bandwidth feed.
    if (!staging_[s].empty()) push_batch(lane, std::exchange(staging_[s], {}));
    push_batch(lane, std::exchange(lane.deferred, {}));
  }
  deferred_ -= released;
  return released;
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
    out[s].queued_packets = lanes_[s]->queued.load(std::memory_order_relaxed) +
                            lanes_[s]->deferred.size();
  }
  return out;
}

void ShardedDatasetBuilder::drain() {
  for (std::size_t s = 0; s < lanes_.size(); ++s) {
    if (!staging_[s].empty()) push_batch(*lanes_[s], std::exchange(staging_[s], {}));
  }
  group_->wait();
}

ResourcePressure ShardedDatasetBuilder::pressure() {
  drain();
  ResourcePressure total;
  for (const auto& lane : lanes_) fold_pressure(total, lane->builder.pressure());
  return total;
}

void ShardedDatasetBuilder::query(DatasetView& view) {
  drain();
  for (const auto& lane : lanes_) lane->builder.query(last_ts_, view);
}

Status ShardedDatasetBuilder::save(ByteWriter& w) {
  if (!quiescent()) {
    return Error{"checkpoint-deferred",
                 "frames deferred behind a wedged lane; checkpoint would be "
                 "inconsistent"};
  }
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
  auto lanes = r.u32le();
  if (!lanes) return lanes.error();
  if (lanes.value() == 0 || lanes.value() > kMaxLanes) {
    return Error{"checkpoint-lanes", "checkpoint claims " +
                                         std::to_string(lanes.value()) +
                                         " lanes (1.." + std::to_string(kMaxLanes) +
                                         " allowed)"};
  }
  auto dispatched = r.u64le();
  auto last_ts = r.u64le();
  if (!last_ts) return last_ts.error();
  make_lanes(lanes.value());
  for (auto& lane : lanes_) {
    if (auto st = lane->builder.load(r); !st) return st;
  }
  dispatched_ = dispatched.value();
  last_ts_ = last_ts.value();
  return Status::Ok();
}

}  // namespace uncharted::analysis
