// Semantic validation of ASDUs beyond wire-format correctness: direction
// rules (monitor types flow from outstations, commands from servers),
// cause-of-transmission compatibility per type, and qualifier sanity.
// These are the checks a specification-based IDS layers on top of parsing
// — the natural hardening of the paper's whitelist proposal (§7).
#pragma once

#include <string>
#include <vector>

#include "iec104/asdu.hpp"

namespace uncharted::iec104 {

/// Message direction relative to the outstation.
enum class Direction {
  kFromOutstation,  ///< monitor direction
  kFromController,  ///< control direction
};

/// Broad type classes (IEC 60870-5-101 §7.1 groupings).
enum class TypeCategory {
  kMonitor,    ///< M_* process information
  kControl,    ///< C_SC..C_BO commands
  kSystem,     ///< interrogation, clock, reset, test
  kParameter,  ///< P_* parameter loading
  kFile,       ///< F_* file transfer
};

TypeCategory type_category(TypeId t);

enum class ViolationKind {
  kWrongDirection,    ///< e.g. a measured value sent by the server
  kCauseMismatch,     ///< COT not legal for this type
  kBadQualifier,      ///< e.g. QOI outside 20..36
  kSequenceOverflow,  ///< SQ set with non-contiguous addressing semantics
};

std::string violation_kind_name(ViolationKind k);

struct Violation {
  ViolationKind kind;
  std::string detail;
};

/// Validates one ASDU observed travelling in `direction`.
/// Returns every rule violation found (empty = clean).
std::vector<Violation> validate_asdu(const AsduView& asdu, Direction direction);

}  // namespace uncharted::iec104
