// Conformance audit: runs the IEC 104 conformance state machine over every
// TCP connection in a capture dataset and aggregates the profiles per
// endpoint pair (the paper's C-O "connection" granularity). Machines are
// keyed by the directed 4-tuple's canonical form, NOT by endpoint pair, so
// a reconnect or redundancy switchover starts a fresh machine instead of
// reading as a hostile sequence reset.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/dataset.hpp"
#include "iec104/conformance.hpp"

namespace uncharted::analysis {

/// Merged conformance result for one endpoint pair.
struct ConnectionConformance {
  EndpointPair pair;
  iec104::Verdict verdict = iec104::Verdict::kClean;  ///< worst across flows
  iec104::ConformanceProfile profile;  ///< counts summed, timers maxed
  std::size_t flows = 0;               ///< TCP connections merged in
};

/// Capture-wide conformance summary (part of AnalysisReport).
struct ConformanceReport {
  std::vector<ConnectionConformance> entries;  ///< ordered by endpoint pair
  std::uint64_t clean_connections = 0;
  std::uint64_t legacy_connections = 0;
  std::uint64_t suspect_connections = 0;
  std::uint64_t hostile_connections = 0;
  std::uint64_t hostile_events = 0;  ///< across all entries

  bool any_hostile() const { return hostile_connections > 0; }
};

/// Folds records into one conformance machine per TCP connection. Flows
/// whose establishing SYN/SYN-ACK are in `flows` get the definitive
/// fresh-connection machine, everything else anchors mid-stream; close()
/// adds the parse-level damage and aggregates per endpoint pair.
class ConformanceAccumulator {
 public:
  explicit ConformanceAccumulator(const net::FlowTable& flows,
                                  const iec104::ConformancePolicy& policy = {});
  void add(const ApduRecord& rec, std::uint32_t flow);
  ConformanceReport close(const std::map<net::FlowKey, FlowDamage>& damage);

 private:
  struct Slot {
    iec104::ConformanceMachine* machine;
    bool from_controller;
  };
  iec104::ConformanceMachine& machine_for(const net::FlowKey& canonical);

  iec104::ConformancePolicy policy_;
  std::map<net::FlowKey, iec104::ConformanceMachine> machines_;
  std::vector<Slot> slots_;
};

/// Runs the conformance machines over `dataset`. The outstation side of
/// each flow is the owner of iec104::kIec104Port; flows whose establishing
/// SYN/SYN-ACK are inside the capture get the definitive fresh-connection
/// state machine, everything else anchors mid-stream.
ConformanceReport audit_conformance(const CaptureDataset& dataset,
                                    const iec104::ConformancePolicy& policy = {});

}  // namespace uncharted::analysis
