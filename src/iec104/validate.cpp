#include "iec104/validate.hpp"

namespace uncharted::iec104 {

TypeCategory type_category(TypeId t) {
  auto code = static_cast<std::uint8_t>(t);
  if (code < 45) return TypeCategory::kMonitor;
  if (code <= 64) return TypeCategory::kControl;
  if (code == 70) return TypeCategory::kMonitor;  // end of init: monitor dir
  if (code <= 107) return TypeCategory::kSystem;
  if (code <= 113) return TypeCategory::kParameter;
  return TypeCategory::kFile;
}

std::string violation_kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::kWrongDirection: return "wrong-direction";
    case ViolationKind::kCauseMismatch: return "cause-mismatch";
    case ViolationKind::kBadQualifier: return "bad-qualifier";
    case ViolationKind::kSequenceOverflow: return "sequence-overflow";
  }
  return "?";
}

namespace {

bool is_activation_family(Cause c) {
  switch (c) {
    case Cause::kActivation:
    case Cause::kActivationCon:
    case Cause::kDeactivation:
    case Cause::kDeactivationCon:
    case Cause::kActivationTerm:
      return true;
    default:
      return false;
  }
}

bool is_monitor_cause(Cause c) {
  auto v = static_cast<std::uint8_t>(c);
  return c == Cause::kPeriodic || c == Cause::kBackground || c == Cause::kSpontaneous ||
         c == Cause::kInitialized || c == Cause::kRequest ||
         c == Cause::kReturnRemote || c == Cause::kReturnLocal ||
         (v >= 20 && v <= 41);  // interrogated-by-station/group, counter groups
}

bool is_error_cause(Cause c) {
  auto v = static_cast<std::uint8_t>(c);
  return v >= 44 && v <= 47;
}

}  // namespace

std::vector<Violation> validate_asdu(const AsduView& asdu, Direction direction) {
  std::vector<Violation> out;
  auto add = [&](ViolationKind kind, std::string detail) {
    out.push_back(Violation{kind, std::move(detail)});
  };
  TypeCategory category = type_category(asdu.type);
  Cause cause = asdu.cot.cause;
  // Built only for a violation: most ASDUs have none.
  auto label = [&asdu] { return type_acronym(asdu.type); };

  // Error causes (unknown type/cause/CA/IOA mirrors) are legal both ways.
  if (is_error_cause(cause)) return out;

  switch (category) {
    case TypeCategory::kMonitor:
      if (direction == Direction::kFromController) {
        add(ViolationKind::kWrongDirection, label() + " sent by control station");
      }
      if (!is_monitor_cause(cause)) {
        add(ViolationKind::kCauseMismatch,
            label() + " with cause " + cause_name(cause));
      }
      break;

    case TypeCategory::kControl:
    case TypeCategory::kParameter:
      // Act from the controller, con/term mirrored by the outstation.
      if (!is_activation_family(cause)) {
        add(ViolationKind::kCauseMismatch, label() + " with cause " + cause_name(cause));
      } else if (direction == Direction::kFromController &&
                 (cause == Cause::kActivationCon || cause == Cause::kActivationTerm ||
                  cause == Cause::kDeactivationCon)) {
        add(ViolationKind::kWrongDirection,
            label() + " confirmation sent by control station");
      } else if (direction == Direction::kFromOutstation &&
                 (cause == Cause::kActivation || cause == Cause::kDeactivation)) {
        add(ViolationKind::kWrongDirection, label() + " activation sent by outstation");
      }
      break;

    case TypeCategory::kSystem:
      if (!is_activation_family(cause) && !is_monitor_cause(cause)) {
        add(ViolationKind::kCauseMismatch, label() + " with cause " + cause_name(cause));
      }
      if (direction == Direction::kFromOutstation &&
          (cause == Cause::kActivation || cause == Cause::kDeactivation)) {
        add(ViolationKind::kWrongDirection, label() + " activation sent by outstation");
      }
      break;

    case TypeCategory::kFile:
      // File transfer flows both ways; cause 13 (file) or request family.
      if (cause != Cause::kFile && cause != Cause::kRequest &&
          !is_activation_family(cause) && !is_monitor_cause(cause)) {
        add(ViolationKind::kCauseMismatch, label() + " with cause " + cause_name(cause));
      }
      break;
  }

  // Qualifier checks.
  for (const auto& obj : asdu.objects) {
    if (const auto* gi = std::get_if<InterrogationCommand>(&obj.value)) {
      if (gi->qualifier != 0 && (gi->qualifier < 20 || gi->qualifier > 36)) {
        add(ViolationKind::kBadQualifier,
            "QOI " + std::to_string(gi->qualifier) + " outside 20..36");
      }
    }
    if (const auto* dp = std::get_if<DoublePoint>(&obj.value)) {
      (void)dp;  // states 0..3 all representable; nothing to flag
    }
  }

  // SQ with a single object is pointless but legal; SQ with >127 objects is
  // impossible on the wire. Flag SQ where addresses would wrap the IOA
  // space (contiguity contract).
  if (asdu.sequence && !asdu.objects.empty()) {
    std::uint32_t base = asdu.objects.front().ioa;
    if (base + asdu.objects.size() - 1 > 0xffffff) {
      add(ViolationKind::kSequenceOverflow,
          "SQ range exceeds 24-bit IOA space from base " + std::to_string(base));
    }
  }
  return out;
}

}  // namespace uncharted::iec104
