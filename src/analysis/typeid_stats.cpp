#include "analysis/typeid_stats.hpp"

#include <algorithm>
#include <array>
#include <bitset>

namespace uncharted::analysis {

std::vector<std::pair<std::uint8_t, std::uint64_t>> TypeIdDistribution::sorted() const {
  std::vector<std::pair<std::uint8_t, std::uint64_t>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

TypeIdDistribution typeid_distribution(const CaptureDataset& dataset) {
  // Counting pass over the SoA type_id column: one flat u16 array instead
  // of a pointer chase through every fat record's optional ASDU.
  std::array<std::uint64_t, 256> counts{};
  for (std::uint16_t type : dataset.columns().type_id) {
    if (type != CaptureDataset::kNoTypeId) ++counts[static_cast<std::uint8_t>(type)];
  }
  TypeIdDistribution dist;
  for (std::size_t type = 0; type < counts.size(); ++type) {
    if (counts[type] == 0) continue;
    dist.counts.emplace_hint(dist.counts.end(), static_cast<std::uint8_t>(type),
                             counts[type]);
    dist.total += counts[type];
  }
  return dist;
}

TypeIdStations typeid_station_counts(const CaptureDataset& dataset) {
  TypeIdStations out;
  // The outstation owns the IEC 104 port; commands from a server are
  // attributed to the outstation they address. Resolved once per directed
  // flow, then the per-record loop reads only the two hot columns.
  const auto& keys = dataset.flow_keys();
  std::vector<net::Ipv4Addr> station_of(keys.size());
  for (std::size_t f = 0; f < keys.size(); ++f) {
    station_of[f] = keys[f].src_port == iec104::kIec104Port ? keys[f].src_ip
                                                            : keys[f].dst_ip;
  }
  // Each (type, flow) pair is inserted once; later records of the pair
  // only test a bit.
  std::vector<std::bitset<256>> seen(keys.size());
  const auto& cols = dataset.columns();
  for (std::size_t i = 0; i < cols.type_id.size(); ++i) {
    if (cols.type_id[i] == CaptureDataset::kNoTypeId) continue;
    const auto type = static_cast<std::uint8_t>(cols.type_id[i]);
    const std::uint32_t f = cols.flow_index[i];
    if (seen[f].test(type)) continue;
    seen[f].set(type);
    out.stations[type].insert(station_of[f]);
  }
  return out;
}

}  // namespace uncharted::analysis
