// The Fig-6 network: 4 control servers (C1-C4), 27 substations (S1-S27),
// 58 outstations (O1-O58), and the per-outstation behaviours the paper
// reports. Everything the paper states explicitly is encoded verbatim
// (Table 2 adds/removes, the §6.1 non-compliant devices, the (1,1)
// reset-backup connections, the C2-O30 T3 misconfiguration, the C4-O22
// test traffic, S10's 14 redundant RTUs, the Type 5/6 singletons). Details
// the paper leaves unstated (exact IOA counts, which substations host which
// outstations beyond the named ones) are invented deterministically so that
// the published aggregates hold: 49 outstations visible in Y1, 51 in Y2,
// 14 outstations / 7 substations unchanged, ~34% pure-backup RTUs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "power/measurement.hpp"

namespace uncharted::sim {

/// Which redundant server pair serves an outstation.
enum class ServerPair {
  kC1C2,  ///< primary C1, backup C2
  kC3C4,  ///< primary C3, backup C4
};

/// Outstation communication behaviour (paper Table 6 types 1-6 plus the
/// Fig 17 extensions: 7 = reset-backup, 8 = switchover with I100).
enum class OutstationType {
  kType1_PrimaryOnly = 1,     ///< I-format to primary, no backup connection
  kType2_Ideal = 2,           ///< I-format + proper U16/U32 backup
  kType3_BackupOnly = 3,      ///< redundant RTU: keep-alives only
  kType4_BothServersI = 4,    ///< I-format only, switched servers between captures
  kType5_StaleSpontaneous = 5,///< spontaneous-only with large thresholds (T3 kicks in)
  kType6_RejectBackupWithI = 6, ///< I to active server, backup SYN rejected
  kType7_ResetBackup = 7,     ///< backup connection reset: the (1,1) Markov point
  kType8_Switchover = 8,      ///< observed switchover: U16/U32 then STARTDT + I100
};

/// How the outstation mishandles backup connection attempts (Fig 9 / §6.2).
enum class BackupRejectMode {
  kNone,          ///< accepts the backup connection (standard behaviour)
  kRstReject,     ///< answers the server's SYN with RST (sub-second flows)
  kSilentIgnore,  ///< never answers the SYN (SYN-only "long-lived" flows)
  kAcceptThenReset, ///< completes handshake, ignores U16, resets after a while
};

/// One telemetry point an outstation reports.
struct SignalSpec {
  std::uint32_t ioa = 0;
  power::PhysicalSymbol symbol = power::PhysicalSymbol::kOther;
  std::uint8_t type_id = 13;     ///< ASDU typeID used to report it
  double period_s = 0.0;         ///< periodic reporting interval; 0 = spontaneous
  double threshold = 0.0;        ///< spontaneous reporting threshold
  double scale = 1.0;            ///< multiplier applied to the physical source
  int source = -1;               ///< generator index in the grid; -1 = area value
};

struct OutstationSpec {
  int id = 0;  ///< 1..58 -> "O<id>"
  int substation = 0;  ///< 1..27 -> "S<substation>"
  ServerPair pair = ServerPair::kC1C2;
  bool in_y1 = true;
  bool in_y2 = true;
  OutstationType type = OutstationType::kType2_Ideal;
  BackupRejectMode reject_mode = BackupRejectMode::kNone;
  /// Non-standard encodings (§6.1): 1-octet COT (O53/O58/O28), 2-octet IOA (O37).
  bool legacy_cot = false;
  bool legacy_ioa = false;
  /// T3 override on the secondary connection (seconds); the paper's C2-O30
  /// outlier used ~430 s instead of ~30 s.
  std::optional<double> secondary_t3_s;
  int ioa_count_y1 = 0;
  int ioa_count_y2 = 0;
  bool agc_generator = false;  ///< receives I50 AGC set points
  net::Ipv4Addr ip;
  std::vector<SignalSpec> signals;  ///< filled by build_signals()

  std::string name() const {
    std::string out = "O";
    out += std::to_string(id);
    return out;
  }
  std::string substation_name() const { return "S" + std::to_string(substation); }
  int ioa_count(bool year2) const { return year2 ? ioa_count_y2 : ioa_count_y1; }
};

struct SubstationSpec {
  int id = 0;
  bool has_generator = true;
  bool in_y1 = true;
  bool in_y2 = true;

  std::string name() const { return "S" + std::to_string(id); }
};

struct ControlServerSpec {
  std::string name;  ///< "C1".."C4"
  net::Ipv4Addr ip;
};

/// The complete network description.
struct Topology {
  std::vector<ControlServerSpec> servers;  ///< C1..C4
  std::vector<SubstationSpec> substations;
  std::vector<OutstationSpec> outstations;

  /// Builds the paper's topology (Fig 6 + Table 2).
  static Topology paper_topology();

  const OutstationSpec* find_outstation(int id) const;
  const ControlServerSpec& primary_server(const OutstationSpec& o) const;
  const ControlServerSpec& backup_server(const OutstationSpec& o) const;

  /// Outstations visible in the given year's capture.
  std::vector<const OutstationSpec*> outstations_in_year(bool year2) const;
};

}  // namespace uncharted::sim
