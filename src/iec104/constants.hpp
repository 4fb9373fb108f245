// IEC 60870-5-104 protocol constants: type identifications, causes of
// transmission, U-format functions.
//
// The TypeID list is exactly the 54 ASDU types IEC 104 supports out of the
// 127 defined by IEC 101 (paper Table 5).
#pragma once

#include <cstdint>
#include <string>

namespace uncharted::iec104 {

/// IEC 104 default TCP port.
constexpr std::uint16_t kIec104Port = 2404;

/// APDU start byte.
constexpr std::uint8_t kStartByte = 0x68;

/// Maximum APDU length field value (control fields + ASDU).
constexpr std::size_t kMaxApduLength = 253;

/// ASDU type identification (Table 5 of the paper).
enum class TypeId : std::uint8_t {
  M_SP_NA_1 = 1,    ///< Single-point information
  M_DP_NA_1 = 3,    ///< Double-point information
  M_ST_NA_1 = 5,    ///< Step position information
  M_BO_NA_1 = 7,    ///< Bitstring of 32 bits
  M_ME_NA_1 = 9,    ///< Measured value, normalized
  M_ME_NB_1 = 11,   ///< Measured value, scaled
  M_ME_NC_1 = 13,   ///< Measured value, short float
  M_IT_NA_1 = 15,   ///< Integrated totals
  M_PS_NA_1 = 20,   ///< Packed single-point with status change detection
  M_ME_ND_1 = 21,   ///< Measured value, normalized, no quality descriptor
  M_SP_TB_1 = 30,   ///< Single-point + CP56Time2a
  M_DP_TB_1 = 31,   ///< Double-point + CP56Time2a
  M_ST_TB_1 = 32,   ///< Step position + CP56Time2a
  M_BO_TB_1 = 33,   ///< Bitstring 32 + CP56Time2a
  M_ME_TD_1 = 34,   ///< Measured normalized + CP56Time2a
  M_ME_TE_1 = 35,   ///< Measured scaled + CP56Time2a
  M_ME_TF_1 = 36,   ///< Measured short float + CP56Time2a
  M_IT_TB_1 = 37,   ///< Integrated totals + CP56Time2a
  M_EP_TD_1 = 38,   ///< Event of protection equipment + CP56Time2a
  M_EP_TE_1 = 39,   ///< Packed start events of protection + CP56Time2a
  M_EP_TF_1 = 40,   ///< Packed output circuit info + CP56Time2a
  C_SC_NA_1 = 45,   ///< Single command
  C_DC_NA_1 = 46,   ///< Double command
  C_RC_NA_1 = 47,   ///< Regulating step command
  C_SE_NA_1 = 48,   ///< Set point, normalized
  C_SE_NB_1 = 49,   ///< Set point, scaled
  C_SE_NC_1 = 50,   ///< Set point, short float
  C_BO_NA_1 = 51,   ///< Bitstring 32 command
  C_SC_TA_1 = 58,   ///< Single command + CP56Time2a
  C_DC_TA_1 = 59,   ///< Double command + CP56Time2a
  C_RC_TA_1 = 60,   ///< Regulating step + CP56Time2a
  C_SE_TA_1 = 61,   ///< Set point normalized + CP56Time2a
  C_SE_TB_1 = 62,   ///< Set point scaled + CP56Time2a
  C_SE_TC_1 = 63,   ///< Set point short float + CP56Time2a
  C_BO_TA_1 = 64,   ///< Bitstring 32 + CP56Time2a
  M_EI_NA_1 = 70,   ///< End of initialization
  C_IC_NA_1 = 100,  ///< Interrogation command
  C_CI_NA_1 = 101,  ///< Counter interrogation command
  C_RD_NA_1 = 102,  ///< Read command
  C_CS_NA_1 = 103,  ///< Clock synchronization command
  C_RP_NA_1 = 105,  ///< Reset process command
  C_TS_TA_1 = 107,  ///< Test command + CP56Time2a
  P_ME_NA_1 = 110,  ///< Parameter of measured value, normalized
  P_ME_NB_1 = 111,  ///< Parameter of measured value, scaled
  P_ME_NC_1 = 112,  ///< Parameter of measured value, short float
  P_AC_NA_1 = 113,  ///< Parameter activation
  F_FR_NA_1 = 120,  ///< File ready
  F_SR_NA_1 = 121,  ///< Section ready
  F_SC_NA_1 = 122,  ///< Call directory/file/section
  F_LS_NA_1 = 123,  ///< Last section/segment
  F_AF_NA_1 = 124,  ///< Ack file/section
  F_SG_NA_1 = 125,  ///< Segment
  F_DR_TA_1 = 126,  ///< Directory
  F_SC_NB_1 = 127,  ///< Query log, request archive file
};

/// True if the code is one of the 54 IEC-104-supported typeIDs.
bool is_supported_type(std::uint8_t code);

/// "M_ME_TF_1"-style acronym; "TYPE_<n>" for unknown codes.
std::string type_acronym(TypeId t);

/// Cause of transmission (low 6 bits of the COT octet).
enum class Cause : std::uint8_t {
  kPeriodic = 1,          ///< cyclic
  kBackground = 2,
  kSpontaneous = 3,
  kInitialized = 4,
  kRequest = 5,
  kActivation = 6,
  kActivationCon = 7,
  kDeactivation = 8,
  kDeactivationCon = 9,
  kActivationTerm = 10,
  kReturnRemote = 11,
  kReturnLocal = 12,
  kFile = 13,
  kInterrogatedByStation = 20,  ///< response to a general interrogation
  kInterrogatedByGroup1 = 21,
  kUnknownTypeId = 44,
  kUnknownCause = 45,
  kUnknownCommonAddress = 46,
  kUnknownIoa = 47,
};

std::string cause_name(Cause c);

/// U-format function bits (control field 1 without the 0x03 discriminator).
/// Token names follow the paper's Table 4 (U1..U32).
enum class UFunction : std::uint8_t {
  kStartDtAct = 0x04,   ///< U1
  kStartDtCon = 0x08,   ///< U2
  kStopDtAct = 0x10,    ///< U4
  kStopDtCon = 0x20,    ///< U8
  kTestFrAct = 0x40,    ///< U16
  kTestFrCon = 0x80,    ///< U32
};

std::string u_function_name(UFunction f);

/// Default IEC 104 timer values in seconds (§4 of the paper).
struct Timers {
  double t0 = 30.0;  ///< connection establishment timeout
  double t1 = 15.0;  ///< send/test APDU timeout
  double t2 = 10.0;  ///< acknowledgement timeout (t2 < t1)
  double t3 = 20.0;  ///< keep-alive idle timeout
};

/// Default k/w transmission parameters (max unacked I APDUs / ack-every-w).
constexpr int kDefaultK = 12;
constexpr int kDefaultW = 8;

}  // namespace uncharted::iec104
