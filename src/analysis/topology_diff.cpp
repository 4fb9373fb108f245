#include "analysis/topology_diff.hpp"

#include <algorithm>

namespace uncharted::analysis {

std::map<net::Ipv4Addr, StationInventory> station_inventory(const CaptureDataset& dataset) {
  std::map<net::Ipv4Addr, StationInventory> out;
  for (const auto& rec : dataset.records()) {
    // Outstations own the IEC 104 port; count every endpoint that appears
    // on either side of outstation traffic.
    net::Ipv4Addr station = rec.flow.src_port == iec104::kIec104Port ? rec.flow.src_ip
                                                                     : rec.flow.dst_ip;
    auto& inv = out[station];
    inv.station = station;
    ++inv.apdus;
    if (rec.apdu.is_i() && rec.flow.src_port == iec104::kIec104Port) {
      auto type = static_cast<std::uint8_t>(rec.apdu.type);
      if (type < 45) {  // monitor-direction telemetry only
        for (const auto& obj : rec.apdu.objects()) inv.ioas.insert(obj.ioa);
      }
    }
  }
  return out;
}

std::string station_change_name(StationChange c) {
  switch (c) {
    case StationChange::kAdded: return "added";
    case StationChange::kRemoved: return "removed";
    case StationChange::kMoreIoas: return "more IOAs";
    case StationChange::kFewerIoas: return "fewer IOAs";
    case StationChange::kUnchanged: return "unchanged";
  }
  return "?";
}

TopologyDiff diff_topology(const CaptureDataset& before, const CaptureDataset& after) {
  auto inv_before = station_inventory(before);
  auto inv_after = station_inventory(after);

  TopologyDiff diff;
  std::set<net::Ipv4Addr> all;
  for (const auto& [ip, inv] : inv_before) all.insert(ip);
  for (const auto& [ip, inv] : inv_after) all.insert(ip);

  for (const auto& ip : all) {
    TopologyDiffEntry e;
    e.station = ip;
    auto b = inv_before.find(ip);
    auto a = inv_after.find(ip);
    e.ioas_before = b == inv_before.end() ? 0 : b->second.ioas.size();
    e.ioas_after = a == inv_after.end() ? 0 : a->second.ioas.size();

    if (b == inv_before.end()) {
      e.change = StationChange::kAdded;
      ++diff.added;
    } else if (a == inv_after.end()) {
      e.change = StationChange::kRemoved;
      ++diff.removed;
    } else if (e.ioas_after > e.ioas_before) {
      e.change = StationChange::kMoreIoas;
      ++diff.more_ioas;
    } else if (e.ioas_after < e.ioas_before) {
      e.change = StationChange::kFewerIoas;
      ++diff.fewer_ioas;
    } else {
      e.change = StationChange::kUnchanged;
      ++diff.unchanged;
      if (e.ioas_before > 0) ++diff.unchanged_reporting;
    }
    diff.entries.push_back(e);
  }
  return diff;
}

}  // namespace uncharted::analysis
