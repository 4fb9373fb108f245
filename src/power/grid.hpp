// Area grid model: aggregate swing-equation frequency dynamics over a set
// of generators and loads, with schedulable disturbance events.
//
// The model is deliberately low-order — the paper's Figs 18-21 depend on
// the *shape* of frequency/power/voltage trajectories (unmet load raises
// frequency, AGC ramps generation back down, reconnection reverses it), not
// on transmission-level power flow. One synchronous area, uniform frequency.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "power/generator.hpp"
#include "util/rng.hpp"

namespace uncharted::power {

struct LoadConfig {
  std::string name;
  double base_mw = 100.0;
  double noise_fraction = 0.005;  ///< per-step multiplicative noise
};

/// One controllable/disturbable load block.
class Load {
 public:
  explicit Load(LoadConfig config) : config_(std::move(config)) {}

  /// Disconnects (load loss: the Fig 18 "unmet load" event).
  void disconnect() { connected_ = false; }
  void reconnect() { connected_ = true; }
  bool connected() const { return connected_; }

  double demand_mw(Rng& rng) const {
    if (!connected_) return 0.0;
    return config_.base_mw * (1.0 + config_.noise_fraction * rng.normal());
  }

  const LoadConfig& config() const { return config_; }

 private:
  LoadConfig config_;
  bool connected_ = true;
};

struct GridConfig {
  double nominal_frequency_hz = 60.0;
  /// Aggregate inertia constant H (s) on the total generation base.
  double inertia_s = 5.0;
  /// Load damping: %/Hz of load change per Hz of frequency deviation.
  double damping = 1.5;
  std::uint64_t noise_seed = 42;
};

/// A scheduled disturbance.
struct GridEvent {
  double at_seconds = 0.0;
  std::function<void()> apply;
  std::string description;
};

class GridModel {
 public:
  explicit GridModel(GridConfig config);

  /// Takes ownership of a generator; returns its index.
  std::size_t add_generator(Generator gen);
  std::size_t add_load(Load load);

  Generator& generator(std::size_t i) { return generators_.at(i); }
  const Generator& generator(std::size_t i) const { return generators_.at(i); }
  Load& load(std::size_t i) { return loads_.at(i); }
  std::size_t generator_count() const { return generators_.size(); }

  /// Schedules `apply` to run when simulation time reaches `at_seconds`.
  void schedule(double at_seconds, std::string description, std::function<void()> apply);

  /// Advances by dt seconds: fires due events, steps generators, integrates
  /// the swing equation.
  void step(double dt);

  double time_seconds() const { return time_s_; }
  double frequency_hz() const { return frequency_hz_; }
  double total_generation_mw() const;
  double total_load_mw() const { return last_load_mw_; }
  const GridConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

 private:
  GridConfig config_;
  std::vector<Generator> generators_;
  std::vector<Load> loads_;
  std::vector<GridEvent> pending_events_;
  double time_s_ = 0.0;
  double frequency_hz_;
  double last_load_mw_ = 0.0;
  Rng rng_;
};

}  // namespace uncharted::power
