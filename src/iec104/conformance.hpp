// IEC 104 conformance state machine: tells tolerated legacy deviation
// apart from hostile nonconformance, per directed connection.
//
// The paper's §6.1 finding is that real BPS endpoints violate the standard
// in *benign* ways — O37 kept a 2-octet IOA, O53/O58/O28 a 1-octet COT —
// and its §7 future work is using the measured models to catch
// Industroyer-style intrusions. Doing that demands a machine that scores
// the paper's deviations clean (they are whitelisted as kLegacy) while
// flagging protocol-impossible behaviour — I-frames before STARTDT on a
// fresh connection, acknowledgements of never-sent frames, k-window
// overflow, confirmation frames nobody asked for — as kHostile.
//
// The machine tracks one TCP connection (both directions) and is
// deliberately capture-friendly: without on_connection_open() it anchors
// mid-stream like the paper's taps do (the first I-frame is continuity,
// an unmatched STARTDT con is an anchor, not an attack). Timer behaviour
// (T1/T2/T3) is *observed* and reported, never scored hostile: the paper
// measured a 430 s keep-alive loop on C2-O30, so timer deviation is a
// fingerprint, not an indictment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "iec104/apdu.hpp"
#include "iec104/constants.hpp"
#include "iec104/parser.hpp"
#include "iec104/seq15.hpp"
#include "util/timebase.hpp"

namespace uncharted::iec104 {

/// How bad one conformance violation is.
enum class Severity {
  kInfo,     ///< expected capture artifacts: loss gaps, TCP retransmissions
  kLegacy,   ///< the paper's whitelisted IEC 101 leftovers (O37, O53/O58/O28)
  kWarn,     ///< suspicious but operationally possible; accumulates score
  kHostile,  ///< protocol-impossible from a conforming peer
};

std::string severity_name(Severity s);

/// Everything the machine can flag.
enum class ViolationCode {
  // Data-transfer (STARTDT/STOPDT) state machine.
  kIBeforeStartDt,      ///< I-frame on a connection known to be in STOPDT
  kDataAfterStopDt,     ///< I-frame after an observed STOPDT confirmation
  kUnsolicitedConfirm,  ///< STARTDT/STOPDT/TESTFR con without a matching act
  kDuplicateStartDt,    ///< STARTDT act while data transfer is already active
  // k/w window and 15-bit sequence arithmetic.
  kWindowOverflow,      ///< more than k I-frames outstanding unacknowledged
  kAckOfUnsent,         ///< N(R) acknowledging beyond the peer's V(S)
  kAckRegression,       ///< N(R) moving backwards
  kAckStarvation,       ///< far more than w I-frames received without any ack
  kSequenceGap,         ///< N(S) forward jump (capture loss)
  kSequenceDuplicate,   ///< N(S) repeated (TCP retransmission, §6.3.1)
  kSequenceReset,       ///< N(S) regression (endpoint restart — or desync)
  // Encoding and semantics.
  kLegacyProfile,       ///< whitelisted §6.1 deviation (2-octet IOA, 1-octet COT)
  kCotTypeMismatch,     ///< COT illegal for the TypeID (compatibility matrix)
  kWrongDirection,      ///< monitor type from the controller, act from the RTU
  kBadQualifier,        ///< qualifier outside its defined range
  kOversizedApdu,       ///< length octet beyond the 253-octet APDU limit
  // Parse-level floods, fed from the stream parser's failure taxonomy.
  kGarbageTraffic,      ///< desynchronized bytes the parser had to skip
  kUndecodableTraffic,  ///< framed APDUs no codec profile explains
  kDribbleTraffic,      ///< partial frames abandoned (slowloris dribble)
  // Observed-timer deviations (never hostile; a fingerprint).
  kTimerDeviation,      ///< observed T1/T2/T3 behaviour outside the defaults
};

std::string violation_code_name(ViolationCode c);

/// Severity policy: classifies violations and weighs them into a verdict.
/// One policy serves all three consumers — the analysis audit, the
/// redundancy supervisor's circuit breaker, and (via QuarantinePolicy)
/// the dataset quarantine.
struct ConformancePolicy {
  int k = kDefaultK;  ///< max unacknowledged I-frames the sender may hold
  int w = kDefaultW;  ///< receiver must acknowledge at latest every w
  Timers timers;      ///< reference values for observed-timer deviations
  /// Slack added to k before kWindowOverflow fires (capture-edge tolerance).
  int window_slack = 0;
  /// kAckStarvation fires past w * ack_starvation_factor received I-frames
  /// with no acknowledgement in the reverse direction.
  int ack_starvation_factor = 4;
  /// Observed idle/ack latencies beyond timer * timer_grace are recorded as
  /// kTimerDeviation (info).
  double timer_grace = 3.0;
  /// Score the paper's legacy profiles kLegacy (clean verdict) instead of
  /// kWarn. This is the measured-deviation whitelist.
  bool whitelist_legacy_profiles = true;
  /// Accumulated warn weight at which a profile turns hostile even without
  /// a single hostile-severity event (repeated desyncs, failure floods).
  double hostile_score = 8.0;

  Severity severity(ViolationCode c) const;
  /// Weight a kWarn violation contributes towards hostile_score.
  double warn_weight(ViolationCode c) const;
};

/// Severity-weighted quarantine scoring for degraded-mode ingestion. This
/// replaces the old flat ">= 8 parse failures" heuristic: failure kinds
/// weigh differently, and the threshold is a score, not a count. Defaults
/// reproduce the former behaviour exactly (all weights 1, threshold 8,
/// failures must outnumber successes).
struct QuarantinePolicy {
  double garbage_weight = 1.0;      ///< per resync event
  double undecodable_weight = 1.0;  ///< per unexplained framed APDU
  double truncated_weight = 1.0;    ///< per abandoned partial frame
  double oversized_weight = 0.0;    ///< extra weight per oversized frame
  /// Score at which a directed stream is quarantined; 0 disables.
  double score_threshold = 8.0;
  /// Additionally require failures to outnumber parsed APDUs, so a stream
  /// that is mostly healthy is never dropped for a bad patch.
  bool require_failures_exceed_apdus = true;

  double score(std::uint64_t garbage, std::uint64_t undecodable,
               std::uint64_t truncated, std::uint64_t oversized) const {
    return garbage * garbage_weight + undecodable * undecodable_weight +
           truncated * truncated_weight + oversized * oversized_weight;
  }
  bool should_quarantine(double violation_score, std::uint64_t failures,
                         std::uint64_t apdus) const {
    if (score_threshold <= 0.0) return false;
    if (violation_score < score_threshold) return false;
    return !require_failures_exceed_apdus || failures > apdus;
  }
};

/// One aggregated violation: every occurrence of `code` on the connection.
struct ViolationRecord {
  ViolationCode code = ViolationCode::kSequenceGap;
  Severity severity = Severity::kInfo;
  std::uint64_t count = 0;
  Timestamp first_ts = 0;
  Timestamp last_ts = 0;
  std::string detail;  ///< first occurrence, human-readable
};

/// Timer behaviour derived from timestamps — observed, not enforced.
struct TimerObservations {
  double max_idle_s = 0.0;         ///< longest gap between APDUs (T3 proxy)
  double max_ack_delay_s = 0.0;    ///< longest I-frame-to-ack latency (T2 proxy)
  double max_testfr_rtt_s = -1.0;  ///< slowest TESTFR act->con (T1 proxy), -1 none
  double max_startdt_rtt_s = -1.0; ///< slowest STARTDT act->con, -1 none
};

/// The machine's overall judgement of a connection.
enum class Verdict {
  kClean,    ///< fully conforming
  kLegacy,   ///< conforming modulo whitelisted paper deviations
  kSuspect,  ///< warn-severity violations below the hostile score
  kHostile,  ///< hostile-severity event, or warn score past the threshold
};

std::string verdict_name(Verdict v);

/// Per-connection conformance result.
struct ConformanceProfile {
  std::uint64_t apdus = 0;
  std::uint64_t i_apdus = 0;
  std::vector<ViolationRecord> violations;  ///< aggregated by code
  TimerObservations timers;
  double warn_score = 0.0;
  std::uint64_t hostile_events = 0;
  std::uint64_t legacy_events = 0;

  const ViolationRecord* find(ViolationCode c) const;
  std::uint64_t count(ViolationCode c) const {
    const auto* rec = find(c);
    return rec ? rec->count : 0;
  }
  /// One-line rendering: verdict, score, top violations.
  std::string summary() const;
};

/// Incremental conformance tracker for one TCP connection (both
/// directions). Feed APDUs in capture order; direction is "true when the
/// frame travels controller -> outstation" (the outstation owns the
/// IEC 104 port). Live endpoints call on_connection_open() so STOPDT
/// state is definitive; capture consumers call it only when the
/// establishing SYN was inside the capture.
class ConformanceMachine {
 public:
  explicit ConformanceMachine(ConformancePolicy policy = {});

  /// A fresh transport connection was observed: the connection is
  /// definitively in STOPDT and both sequence counters are at zero.
  void on_connection_open(Timestamp ts);

  /// One decoded APDU. Its profile is the codec profile that explained it
  /// (legacy profiles trip the whitelist path).
  void on_apdu(Timestamp ts, bool from_controller, const ParsedApdu& apdu);
  /// The same for an owning Apdu decoded under `profile`.
  void on_apdu(Timestamp ts, bool from_controller, const Apdu& apdu,
               const CodecProfile& profile = CodecProfile::standard()) {
    on_apdu(ts, from_controller, ParsedApdu::view_of(apdu, profile));
  }

  /// Parse-level damage on this connection: `events` failures of `kind`
  /// plus how many of them were frames claiming an oversized length.
  void on_parse_failures(Timestamp ts, FailureKind kind, std::uint64_t events,
                         std::uint64_t oversized = 0);

  const ConformanceProfile& profile() const { return profile_; }
  Verdict verdict() const;
  bool hostile() const { return verdict() == Verdict::kHostile; }
  const ConformancePolicy& policy() const { return policy_; }

 private:
  /// Data-transfer state. kUnknown anchors mid-stream captures; the two
  /// stopped states are only reached on positive evidence, which is what
  /// keeps benign tail-of-capture traffic from scoring hostile.
  enum class DtState {
    kUnknown,       ///< no evidence yet (capture joined mid-stream)
    kStopped,       ///< fresh connection, no STARTDT yet
    kStartPending,  ///< STARTDT act seen, con outstanding
    kStarted,       ///< STARTDT confirmed (or anchored from I traffic)
    kStopPending,   ///< STOPDT act seen, con outstanding
    kStoppedAfter,  ///< STOPDT confirmed
  };

  struct DirState {
    bool seen_i = false;          ///< N(S) anchor valid
    std::uint16_t next_ns = 0;    ///< next expected N(S)
    bool acked_known = false;     ///< peer-ack anchor valid
    std::uint16_t acked = 0;      ///< highest N(R) the peer acknowledged
    Timestamp oldest_unacked_ts = 0;
    int recv_since_ack = 0;       ///< I-frames we saw with no reverse ack
    bool testfr_outstanding = false;
    Timestamp testfr_ts = 0;
    bool testfr_exchange_seen = false;  ///< a full act->con pair observed
    bool testfr_anchor_used = false;    ///< mid-stream con tolerance spent
    /// A regressed N(S) whose judgement is deferred: a TCP retransmission
    /// surfacing late looks identical to a desync rewind until the NEXT
    /// frame shows whether the stream resumed (retransmission) or
    /// continued from the rewound value (reset).
    bool pending_regress = false;
    std::uint16_t regress_ns = 0;
    Timestamp regress_ts = 0;
  };

  /// A violation of this code is already on record.
  bool flagged(ViolationCode code) const;
  void flag(ViolationCode code, Timestamp ts, const std::string& detail,
            std::uint64_t count = 1);
  void handle_u(Timestamp ts, bool from_controller, UFunction f);
  /// Returns false when the frame is (possibly) a stale retransmitted
  /// copy whose N(R) must not feed ack tracking.
  bool handle_sequence(Timestamp ts, DirState& dir, std::uint16_t send_seq);
  void handle_ack(Timestamp ts, bool from_controller, std::uint16_t nr);
  void observe_idle(Timestamp ts);

  ConformancePolicy policy_;
  ConformanceProfile profile_;
  DtState dt_ = DtState::kUnknown;
  bool fresh_ = false;  ///< on_connection_open observed
  bool startdt_act_seen_ = false;
  bool stop_act_from_controller_ = false;  ///< who requested kStopPending
  Timestamp startdt_act_ts_ = 0;
  bool timer_deviation_idle_ = false;  ///< flag once, observe continuously
  bool timer_deviation_ack_ = false;
  Timestamp last_apdu_ts_ = 0;
  bool any_apdu_ = false;
  DirState dirs_[2];  ///< [0] controller->outstation, [1] reverse
};

}  // namespace uncharted::iec104
