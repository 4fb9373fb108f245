#include "analysis/typeid_stats.hpp"

#include <algorithm>

namespace uncharted::analysis {

std::vector<std::pair<std::uint8_t, std::uint64_t>> TypeIdDistribution::sorted() const {
  std::vector<std::pair<std::uint8_t, std::uint64_t>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

namespace {

/// The record's ASDU typeID, or -1 when it carries no I-format ASDU.
int type_of(const ApduRecord& rec) {
  if (!rec.apdu.is_i()) return -1;
  return static_cast<std::uint8_t>(rec.apdu.type);
}

}  // namespace

void TypeIdAccumulator::add(const ApduRecord& rec, std::uint32_t /*flow*/) {
  if (int type = type_of(rec); type >= 0) ++counts_[static_cast<std::size_t>(type)];
}

TypeIdDistribution TypeIdAccumulator::close() const {
  TypeIdDistribution dist;
  for (std::size_t type = 0; type < counts_.size(); ++type) {
    if (counts_[type] == 0) continue;
    dist.counts.emplace_hint(dist.counts.end(), static_cast<std::uint8_t>(type),
                             counts_[type]);
    dist.total += counts_[type];
  }
  return dist;
}

TypeIdDistribution typeid_distribution(const CaptureDataset& dataset) {
  TypeIdAccumulator acc;
  feed(dataset.records(), acc);
  return acc.close();
}

void TypeIdStationAccumulator::add(const ApduRecord& rec, std::uint32_t flow) {
  // The outstation owns the IEC 104 port; commands from a server are
  // attributed to the outstation they address.
  Slot& slot = flow_slot(slots_, flow, [&] {
    return Slot{rec.flow.src_port == iec104::kIec104Port ? rec.flow.src_ip
                                                         : rec.flow.dst_ip};
  });
  const int type = type_of(rec);
  if (type < 0 || slot.seen.test(static_cast<std::size_t>(type))) return;
  slot.seen.set(static_cast<std::size_t>(type));
  out_.stations[static_cast<std::uint8_t>(type)].insert(slot.station);
}

TypeIdStations typeid_station_counts(const CaptureDataset& dataset) {
  TypeIdStationAccumulator acc;
  feed(dataset.records(), acc);
  return acc.close();
}

}  // namespace uncharted::analysis
