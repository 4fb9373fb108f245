#include "analysis/conformance_audit.hpp"

#include <algorithm>
#include <map>
#include <vector>

namespace uncharted::analysis {

namespace {

/// Folds one per-flow profile into the pair-level aggregate.
void merge_profile(iec104::ConformanceProfile& into,
                   const iec104::ConformanceProfile& from) {
  into.apdus += from.apdus;
  into.i_apdus += from.i_apdus;
  into.warn_score += from.warn_score;
  into.hostile_events += from.hostile_events;
  into.legacy_events += from.legacy_events;
  into.timers.max_idle_s = std::max(into.timers.max_idle_s, from.timers.max_idle_s);
  into.timers.max_ack_delay_s =
      std::max(into.timers.max_ack_delay_s, from.timers.max_ack_delay_s);
  into.timers.max_testfr_rtt_s =
      std::max(into.timers.max_testfr_rtt_s, from.timers.max_testfr_rtt_s);
  into.timers.max_startdt_rtt_s =
      std::max(into.timers.max_startdt_rtt_s, from.timers.max_startdt_rtt_s);
  for (const auto& v : from.violations) {
    auto it = std::find_if(into.violations.begin(), into.violations.end(),
                           [&](const auto& e) { return e.code == v.code; });
    if (it == into.violations.end()) {
      into.violations.push_back(v);
    } else {
      it->count += v.count;
      it->first_ts = std::min(it->first_ts, v.first_ts);
      it->last_ts = std::max(it->last_ts, v.last_ts);
    }
  }
}

}  // namespace

ConformanceReport audit_conformance(const CaptureDataset& dataset,
                                    const iec104::ConformancePolicy& policy,
                                    std::uint16_t iec104_port) {
  std::map<net::FlowKey, iec104::ConformanceMachine> machines;

  auto machine_for = [&](const net::FlowKey& canonical) -> iec104::ConformanceMachine& {
    auto it = machines.find(canonical);
    if (it == machines.end()) {
      it = machines.emplace(canonical, iec104::ConformanceMachine(policy)).first;
    }
    return it->second;
  };

  // Fresh connections (SYN + SYN-ACK inside the capture) get the strict
  // state machine: STOPDT initial state, sequence counters pinned to zero.
  for (const auto& flow : dataset.flow_table().flows()) {
    if (flow.saw_syn && flow.saw_synack) {
      machine_for(flow.key.canonical()).on_connection_open(flow.first_ts);
    }
  }

  // Records are in capture (time) order; each feeds its flow's machine,
  // resolved once per directed flow through the dense flow id.
  const auto& keys = dataset.flow_keys();
  std::vector<iec104::ConformanceMachine*> machine_of(keys.size());
  std::vector<bool> from_controller(keys.size());
  for (std::size_t f = 0; f < keys.size(); ++f) {
    machine_of[f] = &machine_for(keys[f].canonical());
    from_controller[f] = keys[f].src_port != iec104_port;
  }
  const auto& records = dataset.records();
  const auto& flow_index = dataset.columns().flow_index;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    const std::uint32_t f = flow_index[i];
    machine_of[f]->on_apdu(rec.ts, from_controller[f], rec.apdu.apdu, rec.apdu.profile);
  }

  // Parse-level damage, including flows the quarantine dropped from
  // records(): a stream too poisoned to trust is still evidence about the
  // peer — often the strongest evidence there is.
  for (const auto& [key, dmg] : dataset.damage()) {
    auto& machine = machine_for(key.canonical());
    Timestamp ts = dmg.last_failure_ts;
    machine.on_parse_failures(ts, iec104::FailureKind::kGarbage, dmg.garbage);
    machine.on_parse_failures(ts, iec104::FailureKind::kUndecodable, dmg.undecodable);
    machine.on_parse_failures(ts, iec104::FailureKind::kTruncatedTail, dmg.truncated);
    // Oversized frames are already inside one of the above kind counters;
    // this call only adds their hostile-severity classification.
    machine.on_parse_failures(ts, iec104::FailureKind::kUndecodable, 0, dmg.oversized);
  }

  // Aggregate per endpoint pair: counts sum, the verdict is the worst
  // verdict of any single flow (summing warn scores across flows would
  // punish a pair for reconnecting often).
  std::map<EndpointPair, ConnectionConformance> pairs;
  for (const auto& [key, machine] : machines) {
    auto pair_key = EndpointPair::of(key.src_ip, key.dst_ip);
    auto& entry = pairs[pair_key];
    entry.pair = pair_key;
    entry.verdict = std::max(entry.verdict, machine.verdict());
    merge_profile(entry.profile, machine.profile());
    ++entry.flows;
  }

  ConformanceReport report;
  for (auto& [pair_key, entry] : pairs) {
    switch (entry.verdict) {
      case iec104::Verdict::kClean: ++report.clean_connections; break;
      case iec104::Verdict::kLegacy: ++report.legacy_connections; break;
      case iec104::Verdict::kSuspect: ++report.suspect_connections; break;
      case iec104::Verdict::kHostile: ++report.hostile_connections; break;
    }
    report.hostile_events += entry.profile.hostile_events;
    report.entries.push_back(std::move(entry));
  }
  return report;
}

}  // namespace uncharted::analysis
