#include "analysis/physical.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace uncharted::analysis {

double TimeSeries::min_value() const {
  double m = points.empty() ? 0.0 : points.front().value;
  for (const auto& p : points) m = std::min(m, p.value);
  return m;
}

double TimeSeries::max_value() const {
  double m = points.empty() ? 0.0 : points.front().value;
  for (const auto& p : points) m = std::max(m, p.value);
  return m;
}

void SeriesAccumulator::add(const ApduRecord& rec, std::uint32_t /*flow*/) {
  const auto& apdu = rec.apdu;
  if (!apdu.is_i()) return;
  // Monitor direction only: data flowing from the outstation.
  if (rec.flow.src_port != iec104::kIec104Port) return;
  auto type = static_cast<std::uint8_t>(apdu.type);
  if (type >= 45) return;  // commands / system types carry no telemetry
  for (const auto& obj : apdu.objects()) {
    double value = 0.0;
    if (!iec104::numeric_value(obj.value, value)) continue;
    SeriesKey key{rec.flow.src_ip, obj.ioa};
    std::uint64_t hash =
        SplitMix64((static_cast<std::uint64_t>(key.station.value) << 32) | key.ioa).next();
    TimeSeries* found = cache_.find(key, hash);
    if (found == nullptr) {
      found = &series_[key];
      cache_.put(key, hash, found);
    }
    found->type_id = type;
    Timestamp ts = obj.time ? obj.time->to_timestamp() : rec.ts;
    found->points.push_back(SeriesPoint{ts, value});
  }
}

std::map<SeriesKey, TimeSeries> SeriesAccumulator::close() {
  for (auto& [key, series] : series_) {
    std::sort(series.points.begin(), series.points.end(),
              [](const SeriesPoint& a, const SeriesPoint& b) { return a.ts < b.ts; });
  }
  cache_.invalidate();
  return std::move(series_);
}

std::map<SeriesKey, TimeSeries> extract_time_series(const CaptureDataset& dataset) {
  SeriesAccumulator acc;
  feed(dataset.records(), acc);
  return acc.close();
}

std::map<net::Ipv4Addr, TimeSeries> extract_setpoint_series(const CaptureDataset& dataset) {
  std::map<net::Ipv4Addr, TimeSeries> out;
  for (const auto& rec : dataset.records()) {
    const auto& apdu = rec.apdu;
    if (!apdu.is_i()) continue;
    if (apdu.type != iec104::TypeId::C_SE_NC_1) continue;
    if (apdu.cause() != iec104::Cause::kActivation) continue;
    // Control direction: the target outstation owns the IEC 104 port.
    if (rec.flow.dst_port != iec104::kIec104Port) continue;
    for (const auto& obj : apdu.objects()) {
      if (const auto* sp = std::get_if<iec104::SetpointFloat>(&obj.value)) {
        auto& series = out[rec.flow.dst_ip];
        series.type_id = 50;
        series.points.push_back(SeriesPoint{rec.ts, sp->value});
      }
    }
  }
  return out;
}

std::vector<VarianceRank> rank_by_normalized_variance(
    const std::map<SeriesKey, TimeSeries>& series, std::size_t min_samples) {
  std::vector<VarianceRank> out;
  for (const auto& [key, ts] : series) {
    if (ts.points.size() < min_samples) continue;
    std::vector<double> values;
    values.reserve(ts.points.size());
    for (const auto& p : ts.points) values.push_back(p.value);
    out.push_back(VarianceRank{key, ts.type_id, normalized_variance(values),
                               ts.points.size()});
  }
  std::sort(out.begin(), out.end(), [](const VarianceRank& a, const VarianceRank& b) {
    return a.normalized_variance > b.normalized_variance;
  });
  return out;
}

std::string signature_state_name(SignatureState s) {
  switch (s) {
    case SignatureState::kIdle: return "idle";
    case SignatureState::kVoltageRamp: return "voltage-ramp";
    case SignatureState::kSynchronized: return "synchronized";
    case SignatureState::kBreakerClosed: return "breaker-closed";
    case SignatureState::kPowerRamp: return "power-ramp";
  }
  return "?";
}

GeneratorActivation detect_generator_activation(const TimeSeries& voltage,
                                                const TimeSeries& status,
                                                const TimeSeries& power,
                                                double nominal_kv) {
  GeneratorActivation out;
  SignatureState state = SignatureState::kIdle;
  out.trajectory.push_back(state);

  auto status_at = [&](Timestamp ts) {
    double last = 0.0;
    for (const auto& p : status.points) {
      if (p.ts > ts) break;
      last = p.value;
    }
    return last;
  };
  auto power_at = [&](Timestamp ts) {
    double last = 0.0;
    for (const auto& p : power.points) {
      if (p.ts > ts) break;
      last = p.value;
    }
    return last;
  };

  // Drive the machine from the voltage series (the leading indicator),
  // consulting status/power at each step.
  for (const auto& p : voltage.points) {
    double v = p.value;
    double st = status_at(p.ts);
    double pw = power_at(p.ts);

    switch (state) {
      case SignatureState::kIdle:
        if (v > 0.05 * nominal_kv && st < 1.5) {
          state = SignatureState::kVoltageRamp;
          out.voltage_ramp_at = p.ts;
        }
        break;
      case SignatureState::kVoltageRamp:
        if (v >= 0.95 * nominal_kv && st < 1.5 && pw < 0.02 * nominal_kv) {
          state = SignatureState::kSynchronized;
          out.synchronized_at = p.ts;
        }
        break;
      case SignatureState::kSynchronized:
        if (st >= 1.5) {
          state = SignatureState::kBreakerClosed;
          out.breaker_closed_at = p.ts;
        }
        break;
      case SignatureState::kBreakerClosed:
        if (pw > 1.0) {
          state = SignatureState::kPowerRamp;
          out.power_ramp_at = p.ts;
          out.complete = true;
        }
        break;
      case SignatureState::kPowerRamp:
        break;
    }
    if (out.trajectory.back() != state) out.trajectory.push_back(state);
    if (out.complete) break;
  }
  return out;
}

double setpoint_response_correlation(const TimeSeries& setpoints, const TimeSeries& power,
                                     double lag_s) {
  if (setpoints.points.size() < 3 || power.points.empty()) return 0.0;
  std::vector<double> x, y;
  for (const auto& sp : setpoints.points) {
    Timestamp target = sp.ts + from_seconds(lag_s);
    // Power sample closest to (and not before) the lagged time.
    auto it = std::lower_bound(power.points.begin(), power.points.end(), target,
                               [](const SeriesPoint& p, Timestamp t) { return p.ts < t; });
    if (it == power.points.end()) continue;
    x.push_back(sp.value);
    y.push_back(it->value);
  }
  if (x.size() < 3) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::optional<StepEvent> largest_step(const TimeSeries& series) {
  if (series.points.size() < 2) return std::nullopt;
  StepEvent best{0, 0.0};
  for (std::size_t i = 1; i < series.points.size(); ++i) {
    double delta = series.points[i].value - series.points[i - 1].value;
    if (std::fabs(delta) > std::fabs(best.delta)) {
      best.delta = delta;
      best.at = series.points[i].ts;
    }
  }
  return best;
}

}  // namespace uncharted::analysis
