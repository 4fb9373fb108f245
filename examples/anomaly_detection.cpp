// anomaly_detection: the paper's proposed future-work use case (§7) —
// learn a cyber+physical whitelist from a benign capture, then flag an
// Industroyer-style intrusion.
//
// The injected attack follows the 2016 Ukraine playbook the paper
// describes: a new host connects to outstations, sweeps them with
// interrogation commands (the paper notes one I100 does what Industroyer's
// IOA brute-force did), then fires breaker-open double commands.
#include <cstdio>

#include "analysis/conformance_audit.hpp"
#include "core/analyzer.hpp"
#include "core/profiler.hpp"
#include "sim/capture.hpp"
#include "sim/tcp.hpp"

using namespace uncharted;

namespace {

/// Builds the attack traffic against three outstations of the Y1 fleet.
std::vector<net::CapturedPacket> build_attack(const sim::CaptureResult& benign) {
  std::vector<net::CapturedPacket> packets;
  Rng rng(666);
  Timestamp t = benign.truth.start_ts + from_seconds(10.0);
  auto attacker_ip = net::Ipv4Addr::from_octets(10, 0, 0, 66);

  for (int id : {1, 5, 31}) {
    const auto* os = benign.topology.find_outstation(id);
    sim::Endpoint attacker = sim::Endpoint::make(attacker_ip, 40000 + static_cast<std::uint16_t>(id));
    sim::Endpoint rtu = sim::Endpoint::make(os->ip, iec104::kIec104Port);
    sim::SimTcpConnection conn(
        attacker, rtu,
        [&](Timestamp ts, std::vector<std::uint8_t> frame) {
          net::CapturedPacket pkt;
          pkt.ts = ts;
          pkt.original_length = static_cast<std::uint32_t>(frame.size());
          pkt.data = std::move(frame);
          packets.push_back(std::move(pkt));
        },
        &rng);

    t = conn.open(t + from_seconds(1.0));
    auto send = [&](const iec104::Apdu& apdu) {
      t = conn.send(t + 50'000, true, apdu.encode().value());
    };
    send(iec104::Apdu::make_u(iec104::UFunction::kStartDtAct));

    // Recon: general interrogation reveals every IOA at once.
    iec104::Asdu gi;
    gi.type = iec104::TypeId::C_IC_NA_1;
    gi.cot.cause = iec104::Cause::kActivation;
    gi.common_address = static_cast<std::uint16_t>(id);
    gi.objects.push_back({0, iec104::InterrogationCommand{20}, std::nullopt});
    send(iec104::Apdu::make_i(0, 0, gi));

    // Attack: breaker-open double commands on guessed IOAs.
    for (std::uint32_t ioa = 1101; ioa <= 1103; ++ioa) {
      iec104::Asdu cmd;
      cmd.type = iec104::TypeId::C_DC_NA_1;
      cmd.cot.cause = iec104::Cause::kActivation;
      cmd.common_address = static_cast<std::uint16_t>(id);
      cmd.objects.push_back({ioa, iec104::DoubleCommand{1, false, 0}, std::nullopt});
      send(iec104::Apdu::make_i(static_cast<std::uint16_t>(ioa - 1100), 0, cmd));
    }
    conn.close_rst(t + 100'000, true);
  }
  return packets;
}

}  // namespace

int main() {
  std::printf("1. generating a benign day of operation (learning corpus)...\n");
  auto benign = sim::generate_capture(sim::CaptureConfig::y1(600.0));
  auto benign_ds = analysis::CaptureDataset::build(net::as_frame_views(benign.packets));
  core::NameMap names = core::name_map(benign.topology);

  std::printf("2. learning the cyber/physical whitelist (%zu APDUs)...\n",
              benign_ds.records().size());
  core::NetworkProfiler profiler;
  profiler.learn(benign_ds);
  std::printf("   known outstations: %zu\n", profiler.known_stations());

  std::printf("3. replaying benign traffic through the detector...\n");
  auto benign_alerts = profiler.detect(benign_ds, names);
  std::printf("   alerts on benign traffic: %zu\n", benign_alerts.size());

  std::printf("4. injecting Industroyer-style attack traffic...\n");
  auto mixed = benign.packets;
  auto attack = build_attack(benign);
  mixed.insert(mixed.end(), attack.begin(), attack.end());
  std::sort(mixed.begin(), mixed.end(),
            [](const net::CapturedPacket& a, const net::CapturedPacket& b) {
              return a.ts < b.ts;
            });
  auto mixed_ds = analysis::CaptureDataset::build(net::as_frame_views(mixed));

  auto alerts = profiler.detect(mixed_ds, names);
  std::printf("5. detector output on the mixed capture (%zu alerts):\n", alerts.size());
  std::size_t shown = 0;
  for (const auto& a : alerts) {
    bool novel = true;
    for (const auto& b : benign_alerts) {
      if (b.description == a.description &&
          core::anomaly_kind_name(b.kind) == core::anomaly_kind_name(a.kind)) {
        novel = false;
      }
    }
    if (!novel) continue;
    std::printf("   [%-24s] %s\n", core::anomaly_kind_name(a.kind).c_str(),
                a.description.c_str());
    if (++shown >= 12) {
      std::printf("   ...\n");
      break;
    }
  }
  if (shown == 0) {
    std::printf("   (no new alerts -- detection failed!)\n");
    return 1;
  }
  std::printf("6. conformance audit (no learning phase needed):\n");
  auto benign_conf = analysis::audit_conformance(benign_ds);
  auto mixed_conf = analysis::audit_conformance(mixed_ds);
  std::printf("   benign capture: %llu hostile connections\n",
              static_cast<unsigned long long>(benign_conf.hostile_connections));
  for (const auto& entry : mixed_conf.entries) {
    if (entry.verdict != iec104::Verdict::kHostile) continue;
    std::printf("   [hostile] %-12s <-> %-12s  %s\n",
                core::name_of(names, entry.pair.a).c_str(),
                core::name_of(names, entry.pair.b).c_str(),
                entry.profile.summary().c_str());
  }
  if (benign_conf.any_hostile() || !mixed_conf.any_hostile()) {
    std::printf("   (conformance audit missed the attack or flagged benign traffic!)\n");
    return 1;
  }

  std::printf("\nThe attacker host, its interrogation sweep, and the never-before-seen\n"
              "breaker commands (typeID 46) all surface as whitelist violations; the\n"
              "conformance machine flags the same connections from protocol state\n"
              "alone (commands sent before STARTDT was ever confirmed).\n");
  return 0;
}
