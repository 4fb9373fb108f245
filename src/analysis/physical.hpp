// Physical-measurement deep packet inspection (§6.4, Figs 18-21): extract
// per-IOA time series from I-format payloads, rank them by normalized
// variance to surface "interesting" events, correlate AGC set points with
// generator response, and match the generator-synchronization signature
// state machine of Fig 21.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "util/ptrcache.hpp"
#include "util/timebase.hpp"

namespace uncharted::analysis {

/// Identifies one telemetry point: outstation IP + IOA.
struct SeriesKey {
  net::Ipv4Addr station;
  std::uint32_t ioa = 0;
  auto operator<=>(const SeriesKey&) const = default;
  std::string str() const { return station.str() + "#" + std::to_string(ioa); }
};

struct SeriesPoint {
  Timestamp ts;
  double value;
};

struct TimeSeries {
  std::uint8_t type_id = 0;  ///< ASDU type carrying it
  std::vector<SeriesPoint> points;

  double min_value() const;
  double max_value() const;
};

/// Collects the points of every numeric monitor-direction series; close()
/// sorts each series by timestamp.
class SeriesAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  std::map<SeriesKey, TimeSeries> close();

 private:
  std::map<SeriesKey, TimeSeries> series_;
  /// Fronts series_: map nodes are stable, and a capture has far fewer
  /// series than points, so nearly every point's lookup is a cache hit.
  DirectMappedCache<SeriesKey, TimeSeries, 4096> cache_;
};

/// All numeric monitor-direction series in the capture.
std::map<SeriesKey, TimeSeries> extract_time_series(const CaptureDataset& dataset);

/// Set-point commands (I50 C_SE_NC act) addressed to each station.
std::map<net::Ipv4Addr, TimeSeries> extract_setpoint_series(const CaptureDataset& dataset);

/// Normalized-variance ranking: series whose variation is largest relative
/// to their mean — the paper's screen for "interesting" events.
struct VarianceRank {
  SeriesKey key;
  std::uint8_t type_id = 0;
  double normalized_variance = 0.0;
  std::size_t samples = 0;
};
std::vector<VarianceRank> rank_by_normalized_variance(
    const std::map<SeriesKey, TimeSeries>& series, std::size_t min_samples = 8);

/// Fig 21 signature: the legal generator-activation sequence.
enum class SignatureState {
  kIdle,          ///< V ~ 0, P ~ 0, status open/intermediate
  kVoltageRamp,   ///< V rising towards nominal, P still ~0
  kSynchronized,  ///< V at nominal, P ~ 0, breaker still open
  kBreakerClosed, ///< status -> 2
  kPowerRamp,     ///< P rising after breaker close
};

std::string signature_state_name(SignatureState s);

/// Detected generator-activation event.
struct GeneratorActivation {
  bool complete = false;       ///< full legal sequence observed in order
  Timestamp voltage_ramp_at = 0;
  Timestamp synchronized_at = 0;
  Timestamp breaker_closed_at = 0;
  Timestamp power_ramp_at = 0;
  std::vector<SignatureState> trajectory;
};

/// Runs the Fig 21 state machine over one station's voltage, breaker-status
/// and active-power series. `nominal_kv` is the expected plateau.
GeneratorActivation detect_generator_activation(const TimeSeries& voltage,
                                                const TimeSeries& status,
                                                const TimeSeries& power,
                                                double nominal_kv = 130.0);

/// Fig 19: correlation between AGC set points and a generator's measured
/// output (Pearson r of setpoint vs the power value `lag_s` later).
double setpoint_response_correlation(const TimeSeries& setpoints, const TimeSeries& power,
                                     double lag_s = 8.0);

/// Simple step detection: largest absolute jump between consecutive
/// samples, for flagging events like the Fig 18 voltage jump 0 -> 120 kV.
struct StepEvent {
  Timestamp at = 0;
  double delta = 0.0;
};
std::optional<StepEvent> largest_step(const TimeSeries& series);

}  // namespace uncharted::analysis
