#include "iec104/conformance.hpp"

#include <algorithm>
#include <sstream>

#include "iec104/validate.hpp"

namespace uncharted::iec104 {

std::string severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kLegacy: return "legacy";
    case Severity::kWarn: return "warn";
    case Severity::kHostile: return "hostile";
  }
  return "?";
}

std::string violation_code_name(ViolationCode c) {
  switch (c) {
    case ViolationCode::kIBeforeStartDt: return "i-before-startdt";
    case ViolationCode::kDataAfterStopDt: return "data-after-stopdt";
    case ViolationCode::kUnsolicitedConfirm: return "unsolicited-confirm";
    case ViolationCode::kDuplicateStartDt: return "duplicate-startdt";
    case ViolationCode::kWindowOverflow: return "window-overflow";
    case ViolationCode::kAckOfUnsent: return "ack-of-unsent";
    case ViolationCode::kAckRegression: return "ack-regression";
    case ViolationCode::kAckStarvation: return "ack-starvation";
    case ViolationCode::kSequenceGap: return "sequence-gap";
    case ViolationCode::kSequenceDuplicate: return "sequence-duplicate";
    case ViolationCode::kSequenceReset: return "sequence-reset";
    case ViolationCode::kLegacyProfile: return "legacy-profile";
    case ViolationCode::kCotTypeMismatch: return "cot-type-mismatch";
    case ViolationCode::kWrongDirection: return "wrong-direction";
    case ViolationCode::kBadQualifier: return "bad-qualifier";
    case ViolationCode::kOversizedApdu: return "oversized-apdu";
    case ViolationCode::kGarbageTraffic: return "garbage-traffic";
    case ViolationCode::kUndecodableTraffic: return "undecodable-traffic";
    case ViolationCode::kDribbleTraffic: return "dribble-traffic";
    case ViolationCode::kTimerDeviation: return "timer-deviation";
  }
  return "?";
}

std::string verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kClean: return "clean";
    case Verdict::kLegacy: return "legacy";
    case Verdict::kSuspect: return "suspect";
    case Verdict::kHostile: return "hostile";
  }
  return "?";
}

Severity ConformancePolicy::severity(ViolationCode c) const {
  switch (c) {
    // Protocol-impossible from a conforming peer: the hostile set.
    case ViolationCode::kIBeforeStartDt:
    case ViolationCode::kDataAfterStopDt:
    case ViolationCode::kUnsolicitedConfirm:
    case ViolationCode::kWindowOverflow:
    case ViolationCode::kAckOfUnsent:
    case ViolationCode::kOversizedApdu:
      return Severity::kHostile;
    // Expected capture artifacts and measured-in-the-wild behaviour.
    case ViolationCode::kSequenceGap:
    case ViolationCode::kSequenceDuplicate:
    case ViolationCode::kTimerDeviation:
      return Severity::kInfo;
    case ViolationCode::kLegacyProfile:
      return whitelist_legacy_profiles ? Severity::kLegacy : Severity::kWarn;
    // Operationally possible but suspicious; accumulates warn score.
    case ViolationCode::kDuplicateStartDt:
    case ViolationCode::kAckRegression:
    case ViolationCode::kAckStarvation:
    case ViolationCode::kSequenceReset:
    case ViolationCode::kCotTypeMismatch:
    case ViolationCode::kWrongDirection:
    case ViolationCode::kBadQualifier:
    case ViolationCode::kGarbageTraffic:
    case ViolationCode::kUndecodableTraffic:
    case ViolationCode::kDribbleTraffic:
      return Severity::kWarn;
  }
  return Severity::kWarn;
}

double ConformancePolicy::warn_weight(ViolationCode c) const {
  switch (c) {
    // A sequence regression is an endpoint restart at best, a desync
    // attack at worst; weigh it double so a handful turns hostile.
    case ViolationCode::kSequenceReset:
      return 2.0;
    // Parse-level floods arrive in volume; a half weight means ~16 events
    // (not 8) cross the hostile score, keeping brief corruption suspect.
    case ViolationCode::kGarbageTraffic:
    case ViolationCode::kUndecodableTraffic:
    case ViolationCode::kDribbleTraffic:
      return 0.5;
    default:
      return 1.0;
  }
}

const ViolationRecord* ConformanceProfile::find(ViolationCode c) const {
  for (const auto& v : violations) {
    if (v.code == c) return &v;
  }
  return nullptr;
}

std::string ConformanceProfile::summary() const {
  std::ostringstream os;
  os << apdus << " apdus";
  std::vector<const ViolationRecord*> ordered;
  for (const auto& v : violations) ordered.push_back(&v);
  std::sort(ordered.begin(), ordered.end(), [](const auto* a, const auto* b) {
    if (a->severity != b->severity)
      return static_cast<int>(a->severity) > static_cast<int>(b->severity);
    return a->count > b->count;
  });
  for (const auto* v : ordered) {
    os << ", " << violation_code_name(v->code) << " x" << v->count << " ("
       << severity_name(v->severity) << ")";
  }
  return os.str();
}

ConformanceMachine::ConformanceMachine(ConformancePolicy policy)
    : policy_(policy) {}

void ConformanceMachine::on_connection_open(Timestamp ts) {
  (void)ts;
  fresh_ = true;
  dt_ = DtState::kStopped;
  // A fresh connection starts both V(S) counters and both ack levels at
  // zero, so ack-of-unsent and I-before-STARTDT become decidable.
  for (auto& dir : dirs_) {
    dir.seen_i = false;
    dir.next_ns = 0;
    dir.acked_known = true;
    dir.acked = 0;
  }
}

bool ConformanceMachine::flagged(ViolationCode code) const {
  return std::any_of(profile_.violations.begin(), profile_.violations.end(),
                     [code](const ViolationRecord& v) { return v.code == code; });
}

void ConformanceMachine::flag(ViolationCode code, Timestamp ts,
                              const std::string& detail, std::uint64_t count) {
  if (count == 0) return;
  Severity sev = policy_.severity(code);
  ViolationRecord* rec = nullptr;
  for (auto& v : profile_.violations) {
    if (v.code == code) {
      rec = &v;
      break;
    }
  }
  if (!rec) {
    profile_.violations.push_back(ViolationRecord{code, sev, 0, ts, ts, detail});
    rec = &profile_.violations.back();
  }
  rec->count += count;
  // Deferred regression judgement back-dates its duplicate to the frame
  // that regressed, so a record's span must absorb out-of-order stamps.
  rec->first_ts = std::min(rec->first_ts, ts);
  rec->last_ts = std::max(rec->last_ts, ts);
  switch (sev) {
    case Severity::kHostile:
      profile_.hostile_events += count;
      break;
    case Severity::kWarn:
      profile_.warn_score += policy_.warn_weight(code) * count;
      break;
    case Severity::kLegacy:
      profile_.legacy_events += count;
      break;
    case Severity::kInfo:
      break;
  }
}

void ConformanceMachine::observe_idle(Timestamp ts) {
  if (any_apdu_) {
    double idle = to_seconds(static_cast<DurationUs>(ts - last_apdu_ts_));
    profile_.timers.max_idle_s = std::max(profile_.timers.max_idle_s, idle);
    if (!timer_deviation_idle_ && idle > policy_.timers.t3 * policy_.timer_grace) {
      timer_deviation_idle_ = true;
      std::ostringstream os;
      os << "idle " << idle << "s exceeds t3=" << policy_.timers.t3
         << "s (keep-alive loop slower than standard)";
      flag(ViolationCode::kTimerDeviation, ts, os.str());
    }
  }
  any_apdu_ = true;
  last_apdu_ts_ = ts;
}

void ConformanceMachine::handle_u(Timestamp ts, bool from_controller,
                                  UFunction f) {
  DirState& sender = dirs_[from_controller ? 0 : 1];
  DirState& peer = dirs_[from_controller ? 1 : 0];
  switch (f) {
    case UFunction::kStartDtAct:
      if (dt_ == DtState::kStarted || dt_ == DtState::kStartPending) {
        flag(ViolationCode::kDuplicateStartDt, ts,
             "STARTDT act while data transfer already active");
      }
      dt_ = DtState::kStartPending;
      stop_act_from_controller_ = false;
      startdt_act_ts_ = ts;
      startdt_act_seen_ = true;
      break;
    case UFunction::kStartDtCon:
      if (dt_ == DtState::kStartPending) {
        double rtt = to_seconds(static_cast<DurationUs>(ts - startdt_act_ts_));
        profile_.timers.max_startdt_rtt_s =
            std::max(profile_.timers.max_startdt_rtt_s, rtt);
        dt_ = DtState::kStarted;
      } else if (dt_ == DtState::kUnknown && !startdt_act_seen_) {
        // Mid-stream anchor: the act predates the capture.
        dt_ = DtState::kStarted;
      } else if (dt_ == DtState::kStarted) {
        // Transfer already active: a retransmitted con, not an attack.
        flag(ViolationCode::kSequenceDuplicate, ts, "STARTDT con repeated");
      } else {
        flag(ViolationCode::kUnsolicitedConfirm, ts,
             "STARTDT con without a pending act");
      }
      break;
    case UFunction::kStopDtAct:
      dt_ = DtState::kStopPending;
      stop_act_from_controller_ = from_controller;
      break;
    case UFunction::kStopDtCon:
      if (dt_ == DtState::kStopPending || dt_ == DtState::kUnknown) {
        dt_ = DtState::kStoppedAfter;
      } else if (dt_ == DtState::kStoppedAfter) {
        flag(ViolationCode::kSequenceDuplicate, ts, "STOPDT con repeated");
      } else {
        flag(ViolationCode::kUnsolicitedConfirm, ts,
             "STOPDT con without a pending act");
      }
      break;
    case UFunction::kTestFrAct:
      sender.testfr_outstanding = true;
      sender.testfr_ts = ts;
      break;
    case UFunction::kTestFrCon:
      // The matching act came from the opposite direction.
      if (peer.testfr_outstanding) {
        double rtt = to_seconds(static_cast<DurationUs>(ts - peer.testfr_ts));
        profile_.timers.max_testfr_rtt_s =
            std::max(profile_.timers.max_testfr_rtt_s, rtt);
        peer.testfr_outstanding = false;
        peer.testfr_exchange_seen = true;
      } else if (peer.testfr_exchange_seen) {
        // An exchange completed; a stray extra con right after it is a
        // retransmitted copy, not an attack.
        flag(ViolationCode::kSequenceDuplicate, ts, "TESTFR con repeated");
      } else if (!fresh_ && !sender.testfr_anchor_used) {
        // Mid-stream: exactly one con may answer an act sent before the
        // capture began. A second unmatched con has no such excuse.
        sender.testfr_anchor_used = true;
      } else {
        flag(ViolationCode::kUnsolicitedConfirm, ts,
             "TESTFR con without a pending act");
      }
      break;
  }
}

bool ConformanceMachine::handle_sequence(Timestamp ts, DirState& dir,
                                         std::uint16_t send_seq) {
  std::uint16_t ns = seq15(send_seq);
  if (!dir.seen_i) {
    dir.seen_i = true;
    if (fresh_ && ns != 0) {
      std::ostringstream os;
      os << "first N(S)=" << ns << " on a fresh connection (expected 0)";
      flag(ViolationCode::kSequenceGap, ts, os.str());
    }
    if (!dir.acked_known) {
      // Mid-stream: count the window from here; earlier traffic is unseen.
      dir.acked_known = true;
      dir.acked = ns;
    }
    dir.next_ns = seq15_next(ns);
  } else {
    int delta = seq15_delta(ns, dir.next_ns);
    if (dir.pending_regress) {
      if (ns == dir.regress_ns) {
        // Yet another copy of the same regressed frame.
        flag(ViolationCode::kSequenceDuplicate, ts, "N(S) repeated");
        ++profile_.i_apdus;
        return false;
      }
      if (delta == 0) {
        // The stream resumed exactly where it left off: the regressed
        // frame was a TCP retransmission surfacing late (§6.3.1).
        flag(ViolationCode::kSequenceDuplicate, dir.regress_ts, "N(S) repeated");
      } else {
        // The stream did not resume: the regression was real. Re-anchor
        // from the rewound value; stale acks would cascade regressions.
        std::ostringstream os;
        os << "N(S) regressed from " << dir.next_ns << " to " << dir.regress_ns;
        flag(ViolationCode::kSequenceReset, dir.regress_ts, os.str());
        dir.next_ns = seq15_next(dir.regress_ns);
        dir.acked_known = true;
        dir.acked = dir.regress_ns;
        dir.recv_since_ack = 0;
        delta = seq15_delta(ns, dir.next_ns);
      }
      dir.pending_regress = false;
    }
    if (delta == 0) {
      dir.next_ns = seq15_next(ns);
    } else if (delta > 0) {
      std::ostringstream os;
      os << "N(S) jumped " << delta << " ahead (capture loss)";
      flag(ViolationCode::kSequenceGap, ts, os.str());
      dir.next_ns = seq15_next(ns);
      if (dir.acked_known && seq15_delta(dir.next_ns, dir.acked) < 0) {
        // The lost frames were presumably acked too; keep the anchor sane.
        dir.acked = ns;
      }
    } else if (dir.acked_known && seq15_delta(ns, dir.acked) < 0) {
      // Regression to a frame the peer already acknowledged: necessarily a
      // stale copy — a genuine restart below the ack level would be dead on
      // arrival at a real stack (§6.3.1 retransmission artifact).
      flag(ViolationCode::kSequenceDuplicate, ts, "N(S) repeated");
      ++profile_.i_apdus;
      return false;
    } else {
      // Regression above the ack level: judgement deferred until the next
      // frame (see DirState). A stale copy's N(R) must not feed ack
      // tracking either.
      dir.pending_regress = true;
      dir.regress_ns = ns;
      dir.regress_ts = ts;
      ++profile_.i_apdus;
      return false;
    }
  }
  ++profile_.i_apdus;
  if (dir.acked_known) {
    int outstanding = seq15_ahead(dir.next_ns, dir.acked);
    if (outstanding == 1) dir.oldest_unacked_ts = ts;
    if (outstanding > policy_.k + policy_.window_slack) {
      std::ostringstream os;
      os << outstanding << " unacknowledged I-frames exceed k=" << policy_.k;
      flag(ViolationCode::kWindowOverflow, ts, os.str());
    }
  }
  ++dir.recv_since_ack;
  if (dir.recv_since_ack == policy_.w * policy_.ack_starvation_factor + 1) {
    std::ostringstream os;
    os << dir.recv_since_ack << " I-frames without a reverse acknowledgement"
       << " (w=" << policy_.w << ")";
    flag(ViolationCode::kAckStarvation, ts, os.str());
  }
  return true;
}

void ConformanceMachine::handle_ack(Timestamp ts, bool from_controller,
                                    std::uint16_t nr) {
  nr = seq15(nr);
  DirState& dd = dirs_[from_controller ? 1 : 0];  // frames being acked
  if (!dd.acked_known) {
    // Mid-stream anchor: the ack level when the capture joined.
    dd.acked_known = true;
    dd.acked = nr;
    dd.recv_since_ack = 0;
    return;
  }
  int advance = seq15_delta(nr, dd.acked);
  if (advance == 0) return;
  if (advance < 0) {
    if (-advance <= policy_.k + policy_.w) {
      // A slightly older N(R) is a retransmitted copy of an earlier ack
      // surfacing late, not the peer un-acknowledging frames.
      flag(ViolationCode::kSequenceDuplicate, ts, "stale N(R) repeated");
    } else {
      std::ostringstream os;
      os << "N(R) regressed from " << dd.acked << " to " << nr;
      flag(ViolationCode::kAckRegression, ts, os.str());
    }
    return;
  }
  // V(S) of the acked direction: next_ns once traffic was seen; zero on a
  // fresh connection that has sent nothing yet.
  bool vs_known = dd.seen_i || fresh_;
  std::uint16_t vs = dd.seen_i ? dd.next_ns : 0;
  if (vs_known && seq15_delta(nr, vs) > 0) {
    if (fresh_) {
      std::ostringstream os;
      os << "N(R)=" << nr << " acknowledges beyond V(S)=" << vs;
      flag(ViolationCode::kAckOfUnsent, ts, os.str());
      return;  // do not advance the anchor past reality
    }
    // Mid-stream, ack-ahead is indistinguishable from capture loss of the
    // acked I-frames: record the gap and resynchronize.
    std::ostringstream os;
    os << "peer acknowledged " << seq15_delta(nr, vs)
       << " I-frames the capture never saw";
    flag(ViolationCode::kSequenceGap, ts, os.str());
    dd.next_ns = nr;
  }
  if (dd.oldest_unacked_ts != 0) {
    double delay = to_seconds(static_cast<DurationUs>(ts - dd.oldest_unacked_ts));
    profile_.timers.max_ack_delay_s =
        std::max(profile_.timers.max_ack_delay_s, delay);
    if (!timer_deviation_ack_ && delay > policy_.timers.t2 * policy_.timer_grace) {
      timer_deviation_ack_ = true;
      std::ostringstream os;
      os << "acknowledgement after " << delay << "s exceeds t2="
         << policy_.timers.t2 << "s";
      flag(ViolationCode::kTimerDeviation, ts, os.str());
    }
  }
  dd.acked = nr;
  dd.recv_since_ack = 0;
  if (dd.seen_i && seq15_delta(nr, dd.next_ns) == 0) dd.oldest_unacked_ts = 0;
}

void ConformanceMachine::on_apdu(Timestamp ts, bool from_controller,
                                 const ParsedApdu& apdu) {
  observe_idle(ts);
  ++profile_.apdus;
  switch (apdu.format) {
    case ApduFormat::kU:
      handle_u(ts, from_controller, apdu.u_function);
      return;
    case ApduFormat::kS:
      handle_ack(ts, from_controller, apdu.recv_seq);
      return;
    case ApduFormat::kI:
      break;
  }

  // Data-transfer state: is an I-frame even legal right now?
  switch (dt_) {
    case DtState::kUnknown:
      dt_ = DtState::kStarted;  // mid-stream anchor: transfer was active
      break;
    case DtState::kStarted:
      break;
    case DtState::kStopped:
      flag(ViolationCode::kIBeforeStartDt, ts,
           "I-frame on a fresh connection before STARTDT");
      break;
    case DtState::kStartPending:
      if (from_controller) {
        // The activating station must wait for STARTDT con before data —
        // the classic Industroyer-style blind command ordering.
        flag(ViolationCode::kIBeforeStartDt, ts,
             "I-frame sent before STARTDT was confirmed");
      } else {
        // The outstation answers the act with con, then data; a missing
        // con here is capture loss, not an attack.
        dt_ = DtState::kStarted;
      }
      break;
    case DtState::kStopPending:
      if (from_controller == stop_act_from_controller_) {
        flag(ViolationCode::kDataAfterStopDt, ts,
             "I-frame from the station that requested STOPDT");
      }
      // The peer may drain queued frames until it confirms the stop.
      break;
    case DtState::kStoppedAfter:
      flag(ViolationCode::kDataAfterStopDt, ts,
           "I-frame after STOPDT was confirmed");
      break;
  }

  if (handle_sequence(ts, dirs_[from_controller ? 0 : 1], apdu.send_seq)) {
    handle_ack(ts, from_controller, apdu.recv_seq);
  }

  if (!apdu.profile().is_standard()) {
    // A record keeps the detail of its first occurrence: build it once.
    flag(ViolationCode::kLegacyProfile, ts,
         flagged(ViolationCode::kLegacyProfile)
             ? std::string()
             : "decoded with legacy profile " + apdu.profile().str());
  }
  Direction direction = from_controller ? Direction::kFromController
                                        : Direction::kFromOutstation;
  for (const auto& v : validate_asdu(apdu.asdu(), direction)) {
    ViolationCode code = ViolationCode::kCotTypeMismatch;
    switch (v.kind) {
      case ViolationKind::kWrongDirection:
        code = ViolationCode::kWrongDirection;
        break;
      case ViolationKind::kCauseMismatch:
        code = ViolationCode::kCotTypeMismatch;
        break;
      case ViolationKind::kBadQualifier:
      case ViolationKind::kSequenceOverflow:
        code = ViolationCode::kBadQualifier;
        break;
    }
    flag(code, ts, v.detail);
  }
}

void ConformanceMachine::on_parse_failures(Timestamp ts, FailureKind kind,
                                           std::uint64_t events,
                                           std::uint64_t oversized) {
  if (oversized > 0) {
    flag(ViolationCode::kOversizedApdu, ts,
         "frame length octet beyond the 253-octet APDU limit", oversized);
    events = events > oversized ? events - oversized : 0;
  }
  switch (kind) {
    case FailureKind::kGarbage:
      flag(ViolationCode::kGarbageTraffic, ts,
           "stream desynchronized; bytes skipped to resync", events);
      break;
    case FailureKind::kUndecodable:
      flag(ViolationCode::kUndecodableTraffic, ts,
           "framed APDU no codec profile explains", events);
      break;
    case FailureKind::kTruncatedTail:
      flag(ViolationCode::kDribbleTraffic, ts,
           "partial frame abandoned (dribble or cut stream)", events);
      break;
  }
}

Verdict ConformanceMachine::verdict() const {
  if (profile_.hostile_events > 0 || profile_.warn_score >= policy_.hostile_score)
    return Verdict::kHostile;
  if (profile_.warn_score > 0.0) return Verdict::kSuspect;
  if (profile_.legacy_events > 0) return Verdict::kLegacy;
  return Verdict::kClean;
}

}  // namespace uncharted::iec104
