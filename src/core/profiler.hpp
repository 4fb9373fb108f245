// Profiling, in both of this file's senses:
//  - StageTimings / ScopedStageTimer: wall-clock per-stage timers for the
//    analysis pipeline (shard fan-out, merge, each §6 analytics stage),
//    rendered behind --profile and fed by the throughput benchmark.
//  - NetworkProfiler: the whitelist the paper's conclusion proposes —
//    correlate cyber profiles (per-connection Markov/bigram models, known
//    endpoints, per-station typeID and IOA sets) with physical profiles
//    (value ranges, the generator-activation signature) and flag
//    deviations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/markov.hpp"
#include "analysis/physical.hpp"
#include "core/names.hpp"

namespace uncharted::core {

/// One timed pipeline stage.
struct StageTiming {
  std::string stage;
  double wall_ms = 0.0;
};

/// Ordered wall-clock stage timings for one analysis run. Wall time is
/// inherently nondeterministic, so timings live OUTSIDE every determinism
/// surface: they are excluded from report_to_json and rendered only when
/// RenderOptions.profile asks for them. At threads <= 1 the "ingest" stage
/// includes bandwidth accounting (it rides on the builder's decode); the
/// sharded path times it as a separate "bandwidth" stage.
struct StageTimings {
  std::vector<StageTiming> stages;

  void add(std::string stage, double wall_ms) {
    stages.push_back(StageTiming{std::move(stage), wall_ms});
  }
  double total_ms() const {
    double total = 0.0;
    for (const auto& s : stages) total += s.wall_ms;
    return total;
  }
  bool empty() const { return stages.empty(); }
};

/// RAII stage timer: appends to `timings` on destruction; a null target
/// makes it a no-op so call sites need no conditionals.
class ScopedStageTimer {
 public:
  ScopedStageTimer(StageTimings* timings, std::string stage)
      : timings_(timings), stage_(std::move(stage)),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedStageTimer() {
    if (!timings_) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    timings_->add(std::move(stage_),
                  std::chrono::duration<double, std::milli>(elapsed).count());
  }

  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  StageTimings* timings_;
  std::string stage_;
  std::chrono::steady_clock::time_point start_;
};

enum class AnomalyKind {
  kUnknownStation,        ///< endpoint never seen during learning
  kUnknownTypeId,         ///< station sent a typeID it never used before
  kUnknownIoa,            ///< station reported an unknown IOA
  kUnseenTransition,      ///< APDU bigram never observed on this connection class
  kValueOutOfRange,       ///< measurement far outside the learned range
  kUnexpectedInterrogation, ///< I100 from a server that never interrogated
  kSpecViolation,           ///< direction/cause rule violation (validate_asdu)
};

std::string anomaly_kind_name(AnomalyKind k);

struct Anomaly {
  AnomalyKind kind;
  std::string description;
  Timestamp ts = 0;
};

/// Learn-then-detect profiler over capture datasets.
class NetworkProfiler {
 public:
  /// Learns the whitelist from a (presumed benign) capture.
  void learn(const analysis::CaptureDataset& dataset);

  /// Checks another capture against the whitelist.
  std::vector<Anomaly> detect(const analysis::CaptureDataset& dataset,
                              const NameMap& names = {}) const;

  /// Learned state introspection (for tests and reports).
  std::size_t known_stations() const { return station_typeids_.size(); }
  const analysis::BigramModel& sequence_model() const { return bigrams_; }

 private:
  struct ValueRange {
    double lo = 0.0;
    double hi = 0.0;
    bool initialized = false;
  };

  std::set<net::Ipv4Addr> stations_;
  std::map<net::Ipv4Addr, std::set<std::uint8_t>> station_typeids_;
  std::map<net::Ipv4Addr, std::set<std::uint32_t>> station_ioas_;
  std::set<net::Ipv4Addr> interrogators_;  ///< servers that sent I100
  analysis::BigramModel bigrams_;          ///< pooled over all connections
  std::map<analysis::SeriesKey, ValueRange> ranges_;
};

}  // namespace uncharted::core
