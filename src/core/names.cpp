#include "core/names.hpp"

#include "iec104/constants.hpp"

namespace uncharted::core {

NameMap name_map(const sim::Topology& topology) {
  NameMap names;
  for (const auto& server : topology.servers) names[server.ip] = server.name;
  for (const auto& os : topology.outstations) names[os.ip] = os.name();
  return names;
}

NameMap infer_names(std::span<const net::FlowRecord> flows) {
  NameMap names;
  for (const auto& flow : flows) {
    if (flow.bytes == 0) continue;
    const net::FlowKey& k = flow.key;
    if (k.src_port == iec104::kIec104Port) {
      names.emplace(k.src_ip, "station-" + k.src_ip.str());
      names.emplace(k.dst_ip, "server-" + k.dst_ip.str());
    } else if (k.dst_port == iec104::kIec104Port) {
      names.emplace(k.dst_ip, "station-" + k.dst_ip.str());
      names.emplace(k.src_ip, "server-" + k.src_ip.str());
    }
  }
  return names;
}

std::string name_of(const NameMap& names, net::Ipv4Addr ip) {
  auto it = names.find(ip);
  return it == names.end() ? ip.str() : it->second;
}

}  // namespace uncharted::core
