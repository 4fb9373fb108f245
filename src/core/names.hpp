// Endpoint naming: maps IP addresses to the paper's C*/O* labels when the
// topology is known (simulated captures), or to generic role-based names
// inferred from traffic otherwise.
#pragma once

#include <map>
#include <span>
#include <string>

#include "net/flow.hpp"
#include "net/headers.hpp"
#include "sim/topology.hpp"

namespace uncharted::core {

using NameMap = std::map<net::Ipv4Addr, std::string>;

/// Names from a known topology (C1..C4, O1..O58).
NameMap name_map(const sim::Topology& topology);

/// Heuristic names from traffic alone: on each flow that carried payload
/// on the IEC 104 port, the endpoint owning the port becomes
/// "station-<ip>" and its peer "server-<ip>". The first flow to name an
/// endpoint wins.
NameMap infer_names(std::span<const net::FlowRecord> flows);

/// Lookup with fallback to the dotted quad.
std::string name_of(const NameMap& names, net::Ipv4Addr ip);

}  // namespace uncharted::core
