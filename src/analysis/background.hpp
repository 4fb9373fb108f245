// Analysis of the non-IEC-104 traffic on the tap (Fig 5): C37.118
// synchrophasor streams and ICCP control-center links. The paper left
// these protocols "for future studies"; this module provides the first
// pass — stream inventory, frame rates, PMU channel maps, ICCP data-set
// activity — using the same reassembly substrate as the IEC 104 pipeline.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "iccp/iccp.hpp"
#include "net/flow.hpp"
#include "net/pcap.hpp"
#include "synchro/c37118.hpp"

namespace uncharted::analysis {

/// One synchrophasor stream (a directed PMU -> concentrator connection).
struct PmuStreamSummary {
  net::Ipv4Addr source;
  net::Ipv4Addr sink;
  std::uint16_t idcode = 0;
  std::string station_name;           ///< from the CFG-2 frame, if seen
  std::vector<std::string> channels;  ///< phasor names
  std::uint16_t configured_rate = 0;  ///< CFG-2 DATA_RATE
  std::uint64_t data_frames = 0;
  std::uint64_t config_frames = 0;
  std::uint64_t command_frames = 0;
  std::uint64_t bad_frames = 0;
  double measured_rate_fps = 0.0;     ///< data frames / observed span
  double mean_freq_deviation_mhz = 0.0;
};

/// One ICCP association (an endpoint pair on port 102).
struct IccpLinkSummary {
  net::Ipv4Addr a;
  net::Ipv4Addr b;
  std::vector<std::string> associations;  ///< association names seen
  std::uint64_t reports = 0;
  std::uint64_t reads = 0;
  std::uint64_t points = 0;           ///< total point values transferred
  std::map<std::string, std::uint64_t> point_names;  ///< per-name counts
};

struct BackgroundTraffic {
  std::vector<PmuStreamSummary> pmu_streams;
  std::vector<IccpLinkSummary> iccp_links;
  std::uint64_t c37118_packets = 0;
  std::uint64_t iccp_packets = 0;
};

/// Reassembles and decodes the port-4712 and port-102 traffic in a capture.
BackgroundTraffic analyze_background(std::span<const net::FrameView> frames);

}  // namespace uncharted::analysis
