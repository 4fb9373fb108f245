// ASDU typeID distribution (Table 7) and typeID -> physical measurement
// mapping (Table 8).
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"

namespace uncharted::analysis {

/// Table 7: per-typeID ASDU counts and shares.
struct TypeIdDistribution {
  std::map<std::uint8_t, std::uint64_t> counts;
  std::uint64_t total = 0;

  double percentage(std::uint8_t type) const {
    auto it = counts.find(type);
    if (it == counts.end() || total == 0) return 0.0;
    return static_cast<double>(it->second) / static_cast<double>(total);
  }
  /// (typeID, count) sorted by count descending.
  std::vector<std::pair<std::uint8_t, std::uint64_t>> sorted() const;
};

/// Counts I-format ASDUs per typeID.
class TypeIdAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  TypeIdDistribution close() const;

 private:
  std::array<std::uint64_t, 256> counts_{};
};

TypeIdDistribution typeid_distribution(const CaptureDataset& dataset);

/// Table 8: per-typeID transmitting-station count. A station "transmits" a
/// typeID when an I-format ASDU with it originates from the station's IP
/// (server-originated commands count the *target* station, matching the
/// paper's per-station accounting of AGC-SP and interrogations).
struct TypeIdStations {
  std::map<std::uint8_t, std::set<net::Ipv4Addr>> stations;

  std::size_t station_count(std::uint8_t type) const {
    auto it = stations.find(type);
    return it == stations.end() ? 0 : it->second.size();
  }
};

/// Collects each typeID's stations; a (flow, typeID) pair is inserted
/// once, later records of the pair only test a bit.
class TypeIdStationAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  TypeIdStations close() { return std::move(out_); }

 private:
  struct Slot {
    net::Ipv4Addr station;
    std::bitset<256> seen{};
  };
  TypeIdStations out_;
  std::vector<Slot> slots_;
};

TypeIdStations typeid_station_counts(const CaptureDataset& dataset);

}  // namespace uncharted::analysis
