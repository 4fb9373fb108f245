// Generator model: setpoint tracking with ramp limits plus the
// synchronization sequence the paper observes on the wire (Fig 20/21):
// voltage ramps 0 -> nominal, breaker status 0 -> 2 (closed), then active
// power ramps while reactive power settles positive or negative.
#pragma once

#include <cstdint>
#include <string>

namespace uncharted::power {

/// Breaker/connection status as encoded in double-point telemetry:
/// 0 = intermediate, 1 = off/open, 2 = on/closed (paper Table 8 Status(0,1,2)).
enum class BreakerStatus : std::uint8_t {
  kIntermediate = 0,
  kOpen = 1,
  kClosed = 2,
};

/// Generator lifecycle during synchronization.
enum class GeneratorPhase {
  kOffline,       ///< shut down: V=0, P=0, breaker open
  kRampingUp,     ///< field energized: V ramps to nominal, breaker open
  kSynchronizing, ///< V at nominal, matching frequency/phase, breaker open
  kOnline,        ///< breaker closed, delivering power
};

struct GeneratorConfig {
  std::string name;
  double capacity_mw = 100.0;
  double ramp_mw_per_s = 1.0;        ///< AGC ramp rate limit
  double governor_droop = 0.05;      ///< 5% droop primary frequency response
  double nominal_voltage_kv = 130.0; ///< at the step-up transformer input
  double voltage_ramp_kv_per_s = 2.0;
  double sync_duration_s = 60.0;     ///< time in kSynchronizing before close
  bool agc_participant = true;
  double participation_factor = 1.0; ///< share of AGC regulation
};

class Generator {
 public:
  explicit Generator(GeneratorConfig config, bool start_online = true,
                     double initial_mw = 0.0);

  /// AGC (or operator) setpoint in MW; tracked at the ramp limit while online.
  void set_setpoint(double mw);
  double setpoint() const { return setpoint_mw_; }

  /// Begins the offline -> online synchronization sequence.
  void begin_startup();
  /// Trips the unit: breaker opens, voltage collapses.
  void trip();

  /// Advances the model by dt seconds.
  void step(double dt);

  /// Target primary frequency response (governor droop) requested by the
  /// grid model; the unit tracks it with a first-order lag (turbine/governor
  /// time constant) in step(). Included in output_mw() while online.
  void set_governor_target(double mw) { governor_target_mw_ = mw; }

  GeneratorPhase phase() const { return phase_; }
  BreakerStatus breaker() const { return breaker_; }
  /// Delivered active power: AGC dispatch plus governor response.
  double output_mw() const {
    return phase_ == GeneratorPhase::kOnline ? output_mw_ + governor_mw_ : output_mw_;
  }
  /// Reactive power follows grid voltage needs; signed.
  double reactive_mvar() const { return reactive_mvar_; }
  double terminal_voltage_kv() const { return voltage_kv_; }
  /// Stator current in kA derived from S = sqrt(P^2+Q^2) and V.
  double current_ka() const;
  const GeneratorConfig& config() const { return config_; }

 private:
  GeneratorConfig config_;
  GeneratorPhase phase_;
  BreakerStatus breaker_;
  double setpoint_mw_ = 0.0;
  double output_mw_ = 0.0;   ///< dispatched power (setpoint tracking)
  double governor_mw_ = 0.0;        ///< primary frequency response on top
  double governor_target_mw_ = 0.0; ///< droop target being tracked
  double reactive_mvar_ = 0.0;
  double voltage_kv_ = 0.0;
  double sync_elapsed_s_ = 0.0;
};

}  // namespace uncharted::power
