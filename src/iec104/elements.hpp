// Information element value types for every IEC-104-supported ASDU type.
//
// Each InformationObject pairs an Information Object Address (IOA) with one
// element value (a variant over the structures below) and an optional
// CP56Time2a tag for the *_T*_1 types.
#pragma once

#include <cstdint>
#include <memory_resource>
#include <string>
#include <variant>
#include <vector>

#include "iec104/constants.hpp"
#include "iec104/cp56time.hpp"
#include "iec104/quality.hpp"

namespace uncharted::iec104 {

// --- Monitor direction -----------------------------------------------------

/// M_SP_NA_1 / M_SP_TB_1: single-point (on/off) with SIQ quality.
struct SinglePoint {
  bool on = false;
  Quality quality;
  bool operator==(const SinglePoint&) const = default;
};

/// M_DP_NA_1 / M_DP_TB_1: double-point; state 0=intermediate, 1=off, 2=on,
/// 3=indeterminate (the paper's breaker Status(0,1,2) series, Table 8).
struct DoublePoint {
  std::uint8_t state = 0;
  Quality quality;
  bool operator==(const DoublePoint&) const = default;
};

/// M_ST_NA_1 / M_ST_TB_1: transformer tap style step position (VTI + QDS).
struct StepPosition {
  std::int8_t value = 0;  ///< -64..63
  bool transient = false;
  Quality quality;
  bool operator==(const StepPosition&) const = default;
};

/// M_BO_NA_1 / M_BO_TB_1: 32-bit bitstring with QDS.
struct Bitstring32 {
  std::uint32_t bits = 0;
  Quality quality;
  bool operator==(const Bitstring32&) const = default;
};

/// M_ME_NA_1 / M_ME_TD_1 / M_ME_ND_1: normalized value (16-bit fixed point
/// in [-1, 1)); M_ME_ND_1 omits the quality octet on the wire.
struct NormalizedValue {
  std::int16_t raw = 0;
  Quality quality;

  double value() const { return static_cast<double>(raw) / 32768.0; }
  static std::int16_t to_raw(double v);
  bool operator==(const NormalizedValue&) const = default;
};

/// M_ME_NB_1 / M_ME_TE_1: scaled 16-bit integer with QDS.
struct ScaledValue {
  std::int16_t value = 0;
  Quality quality;
  bool operator==(const ScaledValue&) const = default;
};

/// M_ME_NC_1 / M_ME_TF_1: IEEE short float with QDS — the workhorse types
/// (I13, I36) carrying 97% of the paper's traffic.
struct ShortFloat {
  float value = 0.0f;
  Quality quality;
  bool operator==(const ShortFloat&) const = default;
};

/// M_IT_NA_1 / M_IT_TB_1: binary counter reading (energy totals).
struct IntegratedTotals {
  std::int32_t counter = 0;
  std::uint8_t sequence = 0;  ///< 5-bit seq + CY/CA/IV flags
  bool operator==(const IntegratedTotals&) const = default;
};

/// M_PS_NA_1: packed single points with status-change detection.
struct PackedSinglePoints {
  std::uint16_t status = 0;
  std::uint16_t change = 0;
  Quality quality;
  bool operator==(const PackedSinglePoints&) const = default;
};

/// M_EP_TD_1: protection equipment event.
struct ProtectionEvent {
  std::uint8_t event = 0;        ///< SEP
  std::uint16_t elapsed_ms = 0;  ///< CP16Time2a
  bool operator==(const ProtectionEvent&) const = default;
};

/// M_EP_TE_1: packed start events of protection equipment.
struct ProtectionStartEvents {
  std::uint8_t events = 0;        ///< SPE
  std::uint8_t quality = 0;       ///< QDP
  std::uint16_t duration_ms = 0;  ///< CP16Time2a
  bool operator==(const ProtectionStartEvents&) const = default;
};

/// M_EP_TF_1: packed output circuit information of protection equipment.
struct ProtectionOutputCircuit {
  std::uint8_t circuits = 0;       ///< OCI
  std::uint8_t quality = 0;        ///< QDP
  std::uint16_t operating_ms = 0;  ///< CP16Time2a
  bool operator==(const ProtectionOutputCircuit&) const = default;
};

/// M_EI_NA_1: end of initialization.
struct EndOfInit {
  std::uint8_t cause = 0;  ///< COI
  bool operator==(const EndOfInit&) const = default;
};

// --- Control direction ------------------------------------------------------

/// C_SC_NA_1 / C_SC_TA_1: single command (SCO).
struct SingleCommand {
  bool on = false;
  bool select = false;        ///< S/E bit: select (true) vs execute
  std::uint8_t qualifier = 0; ///< QU bits
  bool operator==(const SingleCommand&) const = default;
};

/// C_DC_NA_1 / C_DC_TA_1: double command (DCO).
struct DoubleCommand {
  std::uint8_t state = 0;  ///< 1=off, 2=on
  bool select = false;
  std::uint8_t qualifier = 0;
  bool operator==(const DoubleCommand&) const = default;
};

/// C_RC_NA_1 / C_RC_TA_1: regulating step command (RCO).
struct RegulatingStep {
  std::uint8_t step = 0;  ///< 1=lower, 2=higher
  bool select = false;
  std::uint8_t qualifier = 0;
  bool operator==(const RegulatingStep&) const = default;
};

/// C_SE_NA_1 / C_SE_TA_1: set point, normalized.
struct SetpointNormalized {
  std::int16_t raw = 0;
  std::uint8_t qos = 0;
  bool operator==(const SetpointNormalized&) const = default;
};

/// C_SE_NB_1 / C_SE_TB_1: set point, scaled.
struct SetpointScaled {
  std::int16_t value = 0;
  std::uint8_t qos = 0;
  bool operator==(const SetpointScaled&) const = default;
};

/// C_SE_NC_1 / C_SE_TC_1: set point, short float — the AGC set point type
/// (I50) the paper maps to "AGC-SP" in Table 8.
struct SetpointFloat {
  float value = 0.0f;
  std::uint8_t qos = 0;
  bool operator==(const SetpointFloat&) const = default;
};

/// C_BO_NA_1 / C_BO_TA_1: bitstring command.
struct BitstringCommand {
  std::uint32_t bits = 0;
  bool operator==(const BitstringCommand&) const = default;
};

// --- System direction ---------------------------------------------------

/// C_IC_NA_1: general interrogation (the paper's I100).
struct InterrogationCommand {
  std::uint8_t qualifier = 20;  ///< QOI; 20 = station interrogation
  bool operator==(const InterrogationCommand&) const = default;
};

/// C_CI_NA_1: counter interrogation.
struct CounterInterrogation {
  std::uint8_t qualifier = 5;  ///< QCC
  bool operator==(const CounterInterrogation&) const = default;
};

/// C_RD_NA_1: read command (no element payload).
struct ReadCommand {
  bool operator==(const ReadCommand&) const = default;
};

/// C_CS_NA_1: clock synchronization; the element *is* the CP56 time.
struct ClockSync {
  Cp56Time2a time;
  bool operator==(const ClockSync&) const = default;
};

/// C_RP_NA_1: reset process.
struct ResetProcess {
  std::uint8_t qualifier = 1;  ///< QRP
  bool operator==(const ResetProcess&) const = default;
};

/// C_TS_TA_1: test command with time tag.
struct TestCommand {
  std::uint16_t counter = 0;  ///< TSC
  bool operator==(const TestCommand&) const = default;
};

// --- Parameter direction ---------------------------------------------------

/// P_ME_NA_1: parameter, normalized value.
struct ParameterNormalized {
  std::int16_t raw = 0;
  std::uint8_t qpm = 0;
  bool operator==(const ParameterNormalized&) const = default;
};

/// P_ME_NB_1: parameter, scaled value.
struct ParameterScaled {
  std::int16_t value = 0;
  std::uint8_t qpm = 0;
  bool operator==(const ParameterScaled&) const = default;
};

/// P_ME_NC_1: parameter, short float.
struct ParameterFloat {
  float value = 0.0f;
  std::uint8_t qpm = 0;
  bool operator==(const ParameterFloat&) const = default;
};

/// P_AC_NA_1: parameter activation.
struct ParameterActivation {
  std::uint8_t qpa = 0;
  bool operator==(const ParameterActivation&) const = default;
};

// --- File transfer -----------------------------------------------------

/// F_FR_NA_1: file ready.
struct FileReady {
  std::uint16_t file_name = 0;   ///< NOF
  std::uint32_t length = 0;      ///< LOF, 24-bit on the wire
  std::uint8_t qualifier = 0;    ///< FRQ
  bool operator==(const FileReady&) const = default;
};

/// F_SR_NA_1: section ready.
struct SectionReady {
  std::uint16_t file_name = 0;
  std::uint8_t section = 0;    ///< NOS
  std::uint32_t length = 0;    ///< LOF, 24-bit
  std::uint8_t qualifier = 0;  ///< SRQ
  bool operator==(const SectionReady&) const = default;
};

/// F_SC_NA_1: call directory / select file / call file / call section.
struct CallFile {
  std::uint16_t file_name = 0;
  std::uint8_t section = 0;
  std::uint8_t qualifier = 0;  ///< SCQ
  bool operator==(const CallFile&) const = default;
};

/// F_LS_NA_1: last section / last segment.
struct LastSection {
  std::uint16_t file_name = 0;
  std::uint8_t section = 0;
  std::uint8_t qualifier = 0;  ///< LSQ
  std::uint8_t checksum = 0;   ///< CHS
  bool operator==(const LastSection&) const = default;
};

/// F_AF_NA_1: ack file / ack section.
struct AckFile {
  std::uint16_t file_name = 0;
  std::uint8_t section = 0;
  std::uint8_t qualifier = 0;  ///< AFQ
  bool operator==(const AckFile&) const = default;
};

/// F_SG_NA_1: one file segment (the only variable-length element).
struct Segment {
  std::uint16_t file_name = 0;
  std::uint8_t section = 0;
  /// LOS bytes. pmr so a segment decoded into a record arena keeps its
  /// bytes there too: arena objects are never destroyed one by one.
  std::pmr::vector<std::uint8_t> data;
  bool operator==(const Segment&) const = default;
};

/// F_DR_TA_1: one directory entry (time tag carried in the object's tag).
struct DirectoryEntry {
  std::uint16_t file_name = 0;
  std::uint32_t length = 0;  ///< LOF, 24-bit
  std::uint8_t status = 0;   ///< SOF
  bool operator==(const DirectoryEntry&) const = default;
};

/// F_SC_NB_1: query log / request archive file.
struct QueryLog {
  std::uint16_t file_name = 0;
  Cp56Time2a start;
  Cp56Time2a stop;
  bool operator==(const QueryLog&) const = default;
};

/// Variant over every element kind.
using ElementValue = std::variant<
    SinglePoint, DoublePoint, StepPosition, Bitstring32, NormalizedValue, ScaledValue,
    ShortFloat, IntegratedTotals, PackedSinglePoints, ProtectionEvent,
    ProtectionStartEvents, ProtectionOutputCircuit, EndOfInit, SingleCommand,
    DoubleCommand, RegulatingStep, SetpointNormalized, SetpointScaled, SetpointFloat,
    BitstringCommand, InterrogationCommand, CounterInterrogation, ReadCommand, ClockSync,
    ResetProcess, TestCommand, ParameterNormalized, ParameterScaled, ParameterFloat,
    ParameterActivation, FileReady, SectionReady, CallFile, LastSection, AckFile, Segment,
    DirectoryEntry, QueryLog>;

/// Does this typeID carry a CP56Time2a tag after the element?
bool has_time_tag(TypeId t);

/// Fixed on-wire element size excluding IOA and time tag; -1 for the
/// variable-length F_SG_NA_1 segment.
int element_size(TypeId t);

/// If the element carries a numeric process value (measured value, set
/// point, step position, counter), returns it as double.
bool numeric_value(const ElementValue& v, double& out);

/// Human-readable rendering of the element for reports.
std::string element_str(const ElementValue& v);

}  // namespace uncharted::iec104
