#include "analysis/conformance_audit.hpp"

#include <algorithm>

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

ConformanceAccumulator::ConformanceAccumulator(const net::FlowTable& flows,
                                               const iec104::ConformancePolicy& policy)
    : policy_(policy) {
  // Fresh connections (SYN + SYN-ACK inside the capture) get the strict
  // state machine: STOPDT initial state, sequence counters pinned to zero.
  for (const auto& flow : flows.flows()) {
    if (flow.saw_syn && flow.saw_synack) {
      machine_for(flow.key.canonical()).on_connection_open(flow.first_ts);
    }
  }
}

iec104::ConformanceMachine& ConformanceAccumulator::machine_for(
    const net::FlowKey& canonical) {
  auto it = machines_.find(canonical);
  if (it == machines_.end()) {
    it = machines_.emplace(canonical, iec104::ConformanceMachine(policy_)).first;
  }
  return it->second;
}

void ConformanceAccumulator::add(const ApduRecord& rec, std::uint32_t flow) {
  // Each record feeds its flow's machine, resolved once per directed flow.
  const Slot& slot = flow_slot(slots_, flow, [&] {
    return Slot{&machine_for(rec.flow.canonical()),
                rec.flow.src_port != iec104::kIec104Port};
  });
  slot.machine->on_apdu(rec.ts, slot.from_controller, rec.apdu);
}

ConformanceReport ConformanceAccumulator::close(
    const std::map<net::FlowKey, FlowDamage>& damage) {
  // Parse-level damage, including flows the quarantine dropped from the
  // records: a stream too poisoned to trust is still evidence about the
  // peer — often the strongest evidence there is.
  for (const auto& [key, dmg] : damage) {
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
  for (const auto& [key, machine] : machines_) {
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

ConformanceReport audit_conformance(const CaptureDataset& dataset,
                                    const iec104::ConformancePolicy& policy) {
  ConformanceAccumulator acc(dataset.flow_table(), policy);
  feed(dataset.records(), acc);
  return acc.close(dataset.damage());
}

}  // namespace uncharted::analysis
