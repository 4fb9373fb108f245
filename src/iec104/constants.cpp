#include "iec104/constants.hpp"

namespace uncharted::iec104 {

bool is_supported_type(std::uint8_t code) {
  switch (static_cast<TypeId>(code)) {
    case TypeId::M_SP_NA_1:
    case TypeId::M_DP_NA_1:
    case TypeId::M_ST_NA_1:
    case TypeId::M_BO_NA_1:
    case TypeId::M_ME_NA_1:
    case TypeId::M_ME_NB_1:
    case TypeId::M_ME_NC_1:
    case TypeId::M_IT_NA_1:
    case TypeId::M_PS_NA_1:
    case TypeId::M_ME_ND_1:
    case TypeId::M_SP_TB_1:
    case TypeId::M_DP_TB_1:
    case TypeId::M_ST_TB_1:
    case TypeId::M_BO_TB_1:
    case TypeId::M_ME_TD_1:
    case TypeId::M_ME_TE_1:
    case TypeId::M_ME_TF_1:
    case TypeId::M_IT_TB_1:
    case TypeId::M_EP_TD_1:
    case TypeId::M_EP_TE_1:
    case TypeId::M_EP_TF_1:
    case TypeId::C_SC_NA_1:
    case TypeId::C_DC_NA_1:
    case TypeId::C_RC_NA_1:
    case TypeId::C_SE_NA_1:
    case TypeId::C_SE_NB_1:
    case TypeId::C_SE_NC_1:
    case TypeId::C_BO_NA_1:
    case TypeId::C_SC_TA_1:
    case TypeId::C_DC_TA_1:
    case TypeId::C_RC_TA_1:
    case TypeId::C_SE_TA_1:
    case TypeId::C_SE_TB_1:
    case TypeId::C_SE_TC_1:
    case TypeId::C_BO_TA_1:
    case TypeId::M_EI_NA_1:
    case TypeId::C_IC_NA_1:
    case TypeId::C_CI_NA_1:
    case TypeId::C_RD_NA_1:
    case TypeId::C_CS_NA_1:
    case TypeId::C_RP_NA_1:
    case TypeId::C_TS_TA_1:
    case TypeId::P_ME_NA_1:
    case TypeId::P_ME_NB_1:
    case TypeId::P_ME_NC_1:
    case TypeId::P_AC_NA_1:
    case TypeId::F_FR_NA_1:
    case TypeId::F_SR_NA_1:
    case TypeId::F_SC_NA_1:
    case TypeId::F_LS_NA_1:
    case TypeId::F_AF_NA_1:
    case TypeId::F_SG_NA_1:
    case TypeId::F_DR_TA_1:
    case TypeId::F_SC_NB_1:
      return true;
  }
  return false;
}

std::string type_acronym(TypeId t) {
  switch (t) {
    case TypeId::M_SP_NA_1: return "M_SP_NA_1";
    case TypeId::M_DP_NA_1: return "M_DP_NA_1";
    case TypeId::M_ST_NA_1: return "M_ST_NA_1";
    case TypeId::M_BO_NA_1: return "M_BO_NA_1";
    case TypeId::M_ME_NA_1: return "M_ME_NA_1";
    case TypeId::M_ME_NB_1: return "M_ME_NB_1";
    case TypeId::M_ME_NC_1: return "M_ME_NC_1";
    case TypeId::M_IT_NA_1: return "M_IT_NA_1";
    case TypeId::M_PS_NA_1: return "M_PS_NA_1";
    case TypeId::M_ME_ND_1: return "M_ME_ND_1";
    case TypeId::M_SP_TB_1: return "M_SP_TB_1";
    case TypeId::M_DP_TB_1: return "M_DP_TB_1";
    case TypeId::M_ST_TB_1: return "M_ST_TB_1";
    case TypeId::M_BO_TB_1: return "M_BO_TB_1";
    case TypeId::M_ME_TD_1: return "M_ME_TD_1";
    case TypeId::M_ME_TE_1: return "M_ME_TE_1";
    case TypeId::M_ME_TF_1: return "M_ME_TF_1";
    case TypeId::M_IT_TB_1: return "M_IT_TB_1";
    case TypeId::M_EP_TD_1: return "M_EP_TD_1";
    case TypeId::M_EP_TE_1: return "M_EP_TE_1";
    case TypeId::M_EP_TF_1: return "M_EP_TF_1";
    case TypeId::C_SC_NA_1: return "C_SC_NA_1";
    case TypeId::C_DC_NA_1: return "C_DC_NA_1";
    case TypeId::C_RC_NA_1: return "C_RC_NA_1";
    case TypeId::C_SE_NA_1: return "C_SE_NA_1";
    case TypeId::C_SE_NB_1: return "C_SE_NB_1";
    case TypeId::C_SE_NC_1: return "C_SE_NC_1";
    case TypeId::C_BO_NA_1: return "C_BO_NA_1";
    case TypeId::C_SC_TA_1: return "C_SC_TA_1";
    case TypeId::C_DC_TA_1: return "C_DC_TA_1";
    case TypeId::C_RC_TA_1: return "C_RC_TA_1";
    case TypeId::C_SE_TA_1: return "C_SE_TA_1";
    case TypeId::C_SE_TB_1: return "C_SE_TB_1";
    case TypeId::C_SE_TC_1: return "C_SE_TC_1";
    case TypeId::C_BO_TA_1: return "C_BO_TA_1";
    case TypeId::M_EI_NA_1: return "M_EI_NA_1";
    case TypeId::C_IC_NA_1: return "C_IC_NA_1";
    case TypeId::C_CI_NA_1: return "C_CI_NA_1";
    case TypeId::C_RD_NA_1: return "C_RD_NA_1";
    case TypeId::C_CS_NA_1: return "C_CS_NA_1";
    case TypeId::C_RP_NA_1: return "C_RP_NA_1";
    case TypeId::C_TS_TA_1: return "C_TS_TA_1";
    case TypeId::P_ME_NA_1: return "P_ME_NA_1";
    case TypeId::P_ME_NB_1: return "P_ME_NB_1";
    case TypeId::P_ME_NC_1: return "P_ME_NC_1";
    case TypeId::P_AC_NA_1: return "P_AC_NA_1";
    case TypeId::F_FR_NA_1: return "F_FR_NA_1";
    case TypeId::F_SR_NA_1: return "F_SR_NA_1";
    case TypeId::F_SC_NA_1: return "F_SC_NA_1";
    case TypeId::F_LS_NA_1: return "F_LS_NA_1";
    case TypeId::F_AF_NA_1: return "F_AF_NA_1";
    case TypeId::F_SG_NA_1: return "F_SG_NA_1";
    case TypeId::F_DR_TA_1: return "F_DR_TA_1";
    case TypeId::F_SC_NB_1: return "F_SC_NB_1";
  }
  return "TYPE_" + std::to_string(static_cast<int>(t));
}

std::string cause_name(Cause c) {
  switch (c) {
    case Cause::kPeriodic: return "periodic";
    case Cause::kBackground: return "background";
    case Cause::kSpontaneous: return "spontaneous";
    case Cause::kInitialized: return "initialized";
    case Cause::kRequest: return "request";
    case Cause::kActivation: return "activation";
    case Cause::kActivationCon: return "activation-con";
    case Cause::kDeactivation: return "deactivation";
    case Cause::kDeactivationCon: return "deactivation-con";
    case Cause::kActivationTerm: return "activation-term";
    case Cause::kReturnRemote: return "return-remote";
    case Cause::kReturnLocal: return "return-local";
    case Cause::kFile: return "file";
    case Cause::kInterrogatedByStation: return "interrogated-station";
    case Cause::kInterrogatedByGroup1: return "interrogated-group1";
    case Cause::kUnknownTypeId: return "unknown-typeid";
    case Cause::kUnknownCause: return "unknown-cause";
    case Cause::kUnknownCommonAddress: return "unknown-common-address";
    case Cause::kUnknownIoa: return "unknown-ioa";
  }
  return "cause-" + std::to_string(static_cast<int>(c));
}

std::string u_function_name(UFunction f) {
  switch (f) {
    case UFunction::kStartDtAct: return "STARTDT act";
    case UFunction::kStartDtCon: return "STARTDT con";
    case UFunction::kStopDtAct: return "STOPDT act";
    case UFunction::kStopDtCon: return "STOPDT con";
    case UFunction::kTestFrAct: return "TESTFR act";
    case UFunction::kTestFrCon: return "TESTFR con";
  }
  return "U?";
}

}  // namespace uncharted::iec104
