// Outstation classification into the paper's eight interaction types
// (Table 6 + Fig 17), inferred purely from observed traffic.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/dataset.hpp"
#include "analysis/markov.hpp"

namespace uncharted::analysis {

/// Paper types. Values match the paper's numbering.
enum class StationType {
  kType1 = 1,  ///< no secondary connection, I-format only
  kType2 = 2,  ///< secondary with proper U16&U32
  kType3 = 3,  ///< U-format only (pure backup RTU)
  kType4 = 4,  ///< I-format only, to both servers
  kType5 = 5,  ///< single server, both I and U formats
  kType6 = 6,  ///< secondary sees I-format and U16 only (reset backup)
  kType7 = 7,  ///< U16-only reset-backup connections (the (1,1) point)
  kType8 = 8,  ///< switchover observed: U keep-alive then STARTDT + I100
};

std::string station_type_description(StationType t);

/// Per-connection observation used for the classification.
struct ConnectionProfile {
  net::Ipv4Addr server;
  std::uint64_t i_from_station = 0;
  std::uint64_t i_from_server = 0;
  std::uint64_t u16 = 0;   ///< TESTFR act seen
  std::uint64_t u32 = 0;   ///< TESTFR con seen
  std::uint64_t startdt = 0;
  bool has_i100 = false;
  bool u_before_i = false;  ///< keep-alive phase preceding data (switchover)
};

struct StationClassification {
  net::Ipv4Addr station;
  StationType type = StationType::kType1;
  std::vector<ConnectionProfile> connections;
};

/// Folds records into per-connection profiles. A connection's outstation
/// (the IEC 104 port owner) is fixed by its first record.
class StationTypingAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  /// One classification per outstation, in address order.
  std::vector<StationClassification> close() const;

 private:
  struct Connection {
    net::Ipv4Addr station;
    ConnectionProfile profile;
    bool seen_i = false;
  };
  std::map<EndpointPair, Connection> connections_;
  std::vector<Connection*> by_flow_;
};

/// Classifies every outstation (IEC 104 port owner) in the capture.
std::vector<StationClassification> classify_stations(const CaptureDataset& dataset);

/// Fig 17 bar data: count per type.
std::map<StationType, std::size_t> type_histogram(
    const std::vector<StationClassification>& stations);

}  // namespace uncharted::analysis
