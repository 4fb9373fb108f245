#include "sim/topology.hpp"

#include <algorithm>
#include <cassert>

namespace uncharted::sim {

namespace {

using net::Ipv4Addr;

OutstationSpec make(int id, int substation, ServerPair pair, bool y1, bool y2,
                    OutstationType type) {
  OutstationSpec o;
  o.id = id;
  o.substation = substation;
  o.pair = pair;
  o.in_y1 = y1;
  o.in_y2 = y2;
  o.type = type;
  o.ip = Ipv4Addr::from_octets(10, 1, static_cast<std::uint8_t>(substation),
                               static_cast<std::uint8_t>(id));
  return o;
}

}  // namespace

Topology Topology::paper_topology() {
  Topology t;

  t.servers = {
      {"C1", Ipv4Addr::from_octets(10, 0, 0, 1)},
      {"C2", Ipv4Addr::from_octets(10, 0, 0, 2)},
      {"C3", Ipv4Addr::from_octets(10, 0, 0, 3)},
      {"C4", Ipv4Addr::from_octets(10, 0, 0, 4)},
  };

  // Substations. S2, S19 and S20 are the auxiliary (no-generator) ones;
  // S23-S27 only appear in the Y2 capture (Table 2: new substations, IEC 101
  // upgrades, and the site under maintenance in Y1).
  for (int s = 1; s <= 27; ++s) {
    SubstationSpec sub;
    sub.id = s;
    sub.has_generator = (s != 2 && s != 19 && s != 20);
    sub.in_y1 = (s < 23);
    sub.in_y2 = (s != 2);  // S2 lost its connection to the operator in Y2
    t.substations.push_back(sub);
  }

  using OT = OutstationType;
  using SP = ServerPair;
  auto& o = t.outstations;

  // --- Pair C1/C2 ----------------------------------------------------------
  o.push_back(make(1, 1, SP::kC1C2, true, true, OT::kType2_Ideal));
  o.push_back(make(2, 2, SP::kC1C2, true, false, OT::kType1_PrimaryOnly));
  o.push_back(make(3, 1, SP::kC1C2, true, true, OT::kType3_BackupOnly));
  o.push_back(make(4, 3, SP::kC1C2, true, true, OT::kType2_Ideal));
  o.push_back(make(5, 4, SP::kC1C2, true, true, OT::kType6_RejectBackupWithI));
  o.push_back(make(6, 4, SP::kC1C2, true, true, OT::kType7_ResetBackup));
  o.push_back(make(7, 6, SP::kC1C2, true, true, OT::kType7_ResetBackup));
  o.push_back(make(8, 6, SP::kC1C2, true, true, OT::kType6_RejectBackupWithI));
  o.push_back(make(9, 5, SP::kC1C2, true, true, OT::kType7_ResetBackup));
  o.push_back(make(15, 5, SP::kC1C2, true, false, OT::kType7_ResetBackup));
  o.push_back(make(24, 7, SP::kC1C2, true, true, OT::kType7_ResetBackup));
  o.push_back(make(25, 7, SP::kC1C2, true, true, OT::kType2_Ideal));
  // O28 was the operating (reporting) RTU of S12 in Y1 — its replacement
  // O51 took over in Y2 — and its backup connection from C2 was one of the
  // paper's (1,1) reset connections while its data retained the IEC 101
  // single-octet COT.
  o.push_back(make(28, 12, SP::kC1C2, true, false, OT::kType6_RejectBackupWithI));
  o.push_back(make(29, 13, SP::kC1C2, true, true, OT::kType8_Switchover));
  o.push_back(make(30, 14, SP::kC1C2, true, true, OT::kType7_ResetBackup));
  o.push_back(make(35, 9, SP::kC1C2, true, true, OT::kType7_ResetBackup));
  o.push_back(make(39, 20, SP::kC1C2, true, true, OT::kType1_PrimaryOnly));
  o.push_back(make(40, 11, SP::kC1C2, true, true, OT::kType8_Switchover));
  o.push_back(make(42, 11, SP::kC1C2, true, true, OT::kType8_Switchover));
  o.push_back(make(44, 22, SP::kC1C2, true, true, OT::kType5_StaleSpontaneous));
  o.push_back(make(45, 22, SP::kC1C2, true, true, OT::kType1_PrimaryOnly));
  o.push_back(make(49, 3, SP::kC1C2, true, true, OT::kType3_BackupOnly));
  o.push_back(make(51, 12, SP::kC1C2, false, true, OT::kType3_BackupOnly));
  o.push_back(make(52, 23, SP::kC1C2, false, true, OT::kType2_Ideal));
  o.push_back(make(54, 25, SP::kC1C2, false, true, OT::kType2_Ideal));
  o.push_back(make(56, 13, SP::kC1C2, false, true, OT::kType3_BackupOnly));
  o.push_back(make(57, 14, SP::kC1C2, false, true, OT::kType3_BackupOnly));

  // --- Pair C3/C4 ----------------------------------------------------------
  // S10 is the paper's "newer substation with 14 RTUs": each generator has a
  // reporting RTU plus a redundant keep-alive-only RTU.
  o.push_back(make(10, 10, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(11, 10, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(12, 10, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(13, 10, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(14, 10, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(16, 10, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(17, 10, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(18, 10, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(19, 10, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(20, 10, SP::kC3C4, true, false, OT::kType8_Switchover));
  o.push_back(make(21, 10, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(22, 10, SP::kC3C4, true, false, OT::kType3_BackupOnly));
  o.push_back(make(23, 10, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(33, 10, SP::kC3C4, true, false, OT::kType3_BackupOnly));
  o.push_back(make(26, 8, SP::kC3C4, true, true, OT::kType4_BothServersI));
  o.push_back(make(27, 8, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(31, 15, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(32, 16, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(34, 17, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(36, 18, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(37, 19, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(38, 20, SP::kC3C4, true, false, OT::kType3_BackupOnly));
  o.push_back(make(41, 21, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(43, 21, SP::kC3C4, true, true, OT::kType2_Ideal));
  o.push_back(make(46, 16, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(47, 18, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(48, 19, SP::kC3C4, true, true, OT::kType3_BackupOnly));
  o.push_back(make(50, 24, SP::kC3C4, false, true, OT::kType2_Ideal));
  o.push_back(make(53, 27, SP::kC3C4, false, true, OT::kType2_Ideal));
  o.push_back(make(55, 26, SP::kC3C4, false, true, OT::kType2_Ideal));
  o.push_back(make(58, 15, SP::kC3C4, false, true, OT::kType8_Switchover));

  std::sort(o.begin(), o.end(),
            [](const OutstationSpec& a, const OutstationSpec& b) { return a.id < b.id; });
  assert(o.size() == 58);

  auto at = [&](int id) -> OutstationSpec& {
    auto it = std::find_if(o.begin(), o.end(),
                           [id](const OutstationSpec& s) { return s.id == id; });
    assert(it != o.end());
    return *it;
  };

  // §6.1: legacy IEC 101 options carried over TCP. O37 uses 2-octet IOAs;
  // O53, O58 and O28 use a 1-octet cause of transmission.
  at(37).legacy_ioa = true;
  at(53).legacy_cot = true;
  at(58).legacy_cot = true;
  at(28).legacy_cot = true;

  // Fig 9 / Table 3: how the misbehaving backup connections fail.
  // RST-on-SYN produces the mass of sub-second flows; silent-ignore (Y1
  // only, on outstations gone by Y2) produces SYN-only "long-lived" flows.
  for (int id : {6, 7, 9, 15, 24, 28, 35}) {
    at(id).reject_mode = BackupRejectMode::kRstReject;
  }
  for (int id : {5, 8}) {  // Type 6: I to active server, backup reset
    at(id).reject_mode = BackupRejectMode::kAcceptThenReset;
  }
  at(30).reject_mode = BackupRejectMode::kAcceptThenReset;
  // §6.3 cluster-0 outlier: C2-O30 secondary with T3 = 430 s vs ~30 s norm.
  at(30).secondary_t3_s = 430.0;
  for (int id : {2, 33, 38}) {
    at(id).reject_mode = BackupRejectMode::kSilentIgnore;
  }

  // Table 8: four stations receive AGC set points (I50).
  for (int id : {1, 10, 31, 34}) at(id).agc_generator = true;

  // IOA counts: deterministic, 4-8 points for keep-alive-only RTUs,
  // 10-34 for reporting RTUs. Exactly the 14 outstations below (in the 7
  // unchanged substations, plus O37) keep identical counts across years.
  const std::vector<int> unchanged = {1, 3, 4, 49, 24, 25, 32, 46, 36, 47, 41, 43, 34, 37};
  for (auto& os : o) {
    bool backup_only = os.type == OutstationType::kType3_BackupOnly ||
                       os.type == OutstationType::kType7_ResetBackup;
    int base = backup_only ? 4 + (os.id * 3) % 5 : 10 + (os.id * 7) % 25;
    os.ioa_count_y1 = base;
    bool keep = std::find(unchanged.begin(), unchanged.end(), os.id) != unchanged.end();
    if (keep) {
      os.ioa_count_y2 = base;
    } else {
      // Drift: field devices added or removed (Fig 6 arrows).
      int delta = ((os.id * 5) % 7) - 3;  // -3..3
      if (delta == 0) delta = (os.id % 2) ? 2 : -2;
      os.ioa_count_y2 = std::max(2, base + delta);
    }
  }

  return t;
}

const OutstationSpec* Topology::find_outstation(int id) const {
  auto it = std::find_if(outstations.begin(), outstations.end(),
                         [id](const OutstationSpec& s) { return s.id == id; });
  return it == outstations.end() ? nullptr : &*it;
}

const ControlServerSpec& Topology::primary_server(const OutstationSpec& o) const {
  return servers[o.pair == ServerPair::kC1C2 ? 0 : 2];
}

const ControlServerSpec& Topology::backup_server(const OutstationSpec& o) const {
  return servers[o.pair == ServerPair::kC1C2 ? 1 : 3];
}

}  // namespace uncharted::sim
