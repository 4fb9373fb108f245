#include "analysis/classify.hpp"

#include <algorithm>

namespace uncharted::analysis {

std::string station_type_description(StationType t) {
  switch (t) {
    case StationType::kType1: return "No secondary connection and I-format only";
    case StationType::kType2: return "With secondary connection and U16&U32";
    case StationType::kType3: return "U-format only";
    case StationType::kType4: return "I-format only to both servers";
    case StationType::kType5: return "Single server with both I and U formats";
    case StationType::kType6: return "With secondary connection I-format and U16 only";
    case StationType::kType7: return "Reset-backup: unanswered U16 keep-alives";
    case StationType::kType8: return "Switchover observed (keep-alive then I100 + data)";
  }
  return "?";
}

void StationTypingAccumulator::add(const ApduRecord& rec, std::uint32_t flow) {
  Connection* c = flow_slot(by_flow_, flow, [&] {
    auto pair = EndpointPair::of(rec.flow.src_ip, rec.flow.dst_ip);
    auto [it, fresh] = connections_.try_emplace(pair);
    if (fresh) {
      // The outstation owns port 2404 on its flows.
      auto& conn = it->second;
      conn.station = rec.flow.dst_port == iec104::kIec104Port ? rec.flow.dst_ip
                                                                : rec.flow.src_ip;
      conn.profile.server = conn.station == pair.a ? pair.b : pair.a;
    }
    return &it->second;
  });
  ConnectionProfile& p = c->profile;
  const auto& apdu = rec.apdu;
  switch (apdu.format) {
    case iec104::ApduFormat::kI:
      if (rec.flow.src_ip == c->station) {
        ++p.i_from_station;
      } else {
        ++p.i_from_server;
      }
      c->seen_i = true;
      if (apdu.type == iec104::TypeId::C_IC_NA_1) p.has_i100 = true;
      break;
    case iec104::ApduFormat::kU:
      switch (apdu.u_function) {
        case iec104::UFunction::kTestFrAct:
          ++p.u16;
          if (!c->seen_i) p.u_before_i = true;
          break;
        case iec104::UFunction::kTestFrCon:
          ++p.u32;
          break;
        case iec104::UFunction::kStartDtAct:
        case iec104::UFunction::kStartDtCon:
          ++p.startdt;
          break;
        default:
          break;
      }
      break;
    case iec104::ApduFormat::kS:
      break;
  }
}

std::vector<StationClassification> StationTypingAccumulator::close() const {
  // station IP -> server IP -> profile
  std::map<net::Ipv4Addr, std::map<net::Ipv4Addr, const ConnectionProfile*>> profiles;
  for (const auto& [pair, conn] : connections_) {
    profiles[conn.station][conn.profile.server] = &conn.profile;
  }

  std::vector<StationClassification> out;
  for (auto& [station, by_server] : profiles) {
    StationClassification sc;
    sc.station = station;
    for (const auto& [server, p] : by_server) sc.connections.push_back(*p);

    std::size_t i_conns = 0, u_only_conns = 0, dead_u16_conns = 0, healthy_u_conns = 0;
    bool any_switchover = false, any_inband_test = false;
    for (const auto& p : sc.connections) {
      bool has_i = p.i_from_station + p.i_from_server > 0;
      bool has_u = p.u16 + p.u32 > 0;
      if (has_i) ++i_conns;
      if (!has_i && has_u) {
        ++u_only_conns;
        if (p.u16 > 0 && p.u32 == 0) {
          ++dead_u16_conns;
        } else {
          ++healthy_u_conns;
        }
      }
      if (p.has_i100 && p.u_before_i && p.startdt > 0) any_switchover = true;
      if (has_i && p.u16 > 0 && p.u32 > 0) any_inband_test = true;
    }

    if (any_switchover) {
      sc.type = StationType::kType8;
    } else if (i_conns >= 2) {
      sc.type = StationType::kType4;
    } else if (i_conns == 1 && dead_u16_conns > 0) {
      sc.type = StationType::kType6;
    } else if (i_conns == 1 && healthy_u_conns > 0) {
      sc.type = StationType::kType2;
    } else if (i_conns == 1 && any_inband_test) {
      sc.type = StationType::kType5;
    } else if (i_conns == 1) {
      sc.type = StationType::kType1;
    } else if (dead_u16_conns > 0 && healthy_u_conns == 0) {
      sc.type = StationType::kType7;
    } else {
      sc.type = StationType::kType3;
    }
    out.push_back(std::move(sc));
  }
  return out;
}

std::vector<StationClassification> classify_stations(const CaptureDataset& dataset) {
  StationTypingAccumulator acc;
  feed(dataset.records(), acc);
  return acc.close();
}

std::map<StationType, std::size_t> type_histogram(
    const std::vector<StationClassification>& stations) {
  std::map<StationType, std::size_t> hist;
  for (const auto& s : stations) ++hist[s.type];
  return hist;
}

}  // namespace uncharted::analysis
