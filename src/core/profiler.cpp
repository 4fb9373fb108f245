#include "core/profiler.hpp"

#include <algorithm>
#include <cmath>

#include "iec104/validate.hpp"

namespace uncharted::core {

std::string anomaly_kind_name(AnomalyKind k) {
  switch (k) {
    case AnomalyKind::kUnknownStation: return "unknown-station";
    case AnomalyKind::kUnknownTypeId: return "unknown-typeid";
    case AnomalyKind::kUnknownIoa: return "unknown-ioa";
    case AnomalyKind::kUnseenTransition: return "unseen-transition";
    case AnomalyKind::kValueOutOfRange: return "value-out-of-range";
    case AnomalyKind::kUnexpectedInterrogation: return "unexpected-interrogation";
    case AnomalyKind::kSpecViolation: return "spec-violation";
  }
  return "?";
}

namespace {
net::Ipv4Addr station_of(const analysis::ApduRecord& rec) {
  return rec.flow.src_port == iec104::kIec104Port ? rec.flow.src_ip : rec.flow.dst_ip;
}
}  // namespace

void NetworkProfiler::learn(const analysis::CaptureDataset& dataset) {
  for (const auto& rec : dataset.records()) {
    net::Ipv4Addr station = station_of(rec);
    stations_.insert(station);
    station_typeids_.try_emplace(station);
    if (rec.apdu.is_i()) {
      station_typeids_[station].insert(static_cast<std::uint8_t>(rec.apdu.type));
      if (rec.apdu.type == iec104::TypeId::C_IC_NA_1 &&
          rec.flow.dst_port == iec104::kIec104Port) {
        interrogators_.insert(rec.flow.src_ip);
      }
      if (rec.flow.src_port == iec104::kIec104Port) {
        for (const auto& obj : rec.apdu.objects()) {
          station_ioas_[station].insert(obj.ioa);
        }
      }
    }
  }

  for (const auto& chain : analysis::build_connection_chains(dataset)) {
    bigrams_.add_chain(chain.chain, chain.first_token, chain.last_token);
  }

  for (const auto& [key, series] : analysis::extract_time_series(dataset)) {
    ValueRange& r = ranges_[key];
    for (const auto& p : series.points) {
      if (!r.initialized) {
        r.lo = r.hi = p.value;
        r.initialized = true;
      } else {
        r.lo = std::min(r.lo, p.value);
        r.hi = std::max(r.hi, p.value);
      }
    }
  }
}

std::vector<Anomaly> NetworkProfiler::detect(const analysis::CaptureDataset& dataset,
                                             const NameMap& names) const {
  std::vector<Anomaly> anomalies;
  auto push = [&](AnomalyKind kind, Timestamp ts, std::string description) {
    anomalies.push_back(Anomaly{kind, std::move(description), ts});
  };

  std::set<std::string> seen;  // dedupe repeated identical findings
  auto push_once = [&](AnomalyKind kind, Timestamp ts, const std::string& description) {
    if (seen.insert(anomaly_kind_name(kind) + "|" + description).second) {
      push(kind, ts, description);
    }
  };

  for (const auto& rec : dataset.records()) {
    net::Ipv4Addr station = station_of(rec);
    if (!stations_.count(station)) {
      push_once(AnomalyKind::kUnknownStation, rec.ts, name_of(names, station));
      continue;
    }
    if (!rec.apdu.is_i()) continue;
    auto type = static_cast<std::uint8_t>(rec.apdu.type);

    auto known_types = station_typeids_.find(station);
    if (known_types != station_typeids_.end() && !known_types->second.count(type)) {
      push_once(AnomalyKind::kUnknownTypeId, rec.ts,
                name_of(names, station) + " typeID " + std::to_string(type));
    }
    if (rec.apdu.type == iec104::TypeId::C_IC_NA_1 &&
        rec.flow.dst_port == iec104::kIec104Port &&
        !interrogators_.count(rec.flow.src_ip)) {
      push_once(AnomalyKind::kUnexpectedInterrogation, rec.ts,
                name_of(names, rec.flow.src_ip) + " -> " + name_of(names, station));
    }
    if (rec.flow.src_port == iec104::kIec104Port) {
      auto known_ioas = station_ioas_.find(station);
      for (const auto& obj : rec.apdu.objects()) {
        if (known_ioas != station_ioas_.end() && !known_ioas->second.count(obj.ioa)) {
          push_once(AnomalyKind::kUnknownIoa, rec.ts,
                    name_of(names, station) + " ioa " + std::to_string(obj.ioa));
        }
      }
    }

    // Specification rules hold regardless of what was learned.
    auto direction = rec.flow.src_port == iec104::kIec104Port
                         ? iec104::Direction::kFromOutstation
                         : iec104::Direction::kFromController;
    for (const auto& v : iec104::validate_asdu(rec.apdu.asdu(), direction)) {
      push_once(AnomalyKind::kSpecViolation, rec.ts,
                name_of(names, station) + ": " +
                    iec104::violation_kind_name(v.kind) + " (" + v.detail + ")");
    }
  }

  for (const auto& chain : analysis::build_connection_chains(dataset)) {
    if (bigrams_.contains_unseen_transition(chain.chain, chain.first_token,
                                            chain.last_token)) {
      push_once(AnomalyKind::kUnseenTransition, 0, chain.pair.str());
    }
  }

  for (const auto& [key, series] : analysis::extract_time_series(dataset)) {
    auto it = ranges_.find(key);
    if (it == ranges_.end() || !it->second.initialized) continue;
    double span = std::max(1e-6, it->second.hi - it->second.lo);
    for (const auto& p : series.points) {
      if (p.value > it->second.hi + 0.5 * span || p.value < it->second.lo - 0.5 * span) {
        push_once(AnomalyKind::kValueOutOfRange, p.ts, key.str());
        break;
      }
    }
  }

  std::sort(anomalies.begin(), anomalies.end(),
            [](const Anomaly& a, const Anomaly& b) { return a.ts < b.ts; });
  return anomalies;
}

}  // namespace uncharted::core
