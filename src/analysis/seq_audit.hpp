// IEC 104 sequence-number audit: per directed connection, verify that
// N(S) increments by one per I-APDU and that N(R) never acknowledges
// beyond what was sent. Gaps indicate capture loss; regressions indicate
// retransmission or endpoint restarts — both useful when judging capture
// quality (the paper's long-lived flows start mid-stream, so the audit
// anchors on the first observed value).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "analysis/dataset.hpp"

namespace uncharted::analysis {

struct SeqAuditEntry {
  net::FlowKey direction;        ///< directed 4-tuple
  std::uint64_t i_apdus = 0;
  std::uint64_t gaps = 0;        ///< forward jumps in N(S) (lost frames)
  std::uint64_t duplicates = 0;  ///< repeated N(S) (retransmissions)
  std::uint64_t resets = 0;      ///< N(S) regressions (endpoint restart)
  std::uint64_t ack_violations = 0;  ///< N(R) beyond peer's N(S)+1 window
};

struct SeqAuditReport {
  std::vector<SeqAuditEntry> entries;  ///< only directions with I traffic
  std::uint64_t total_gaps = 0;
  std::uint64_t total_duplicates = 0;
  std::uint64_t total_ack_violations = 0;
};

/// Folds records into per-direction sequence state. A direction's peer
/// (the reverse flow) is linked when the second of the two first appears;
/// until then the peer has sent nothing, exactly as in a whole-capture
/// audit.
class SeqAuditAccumulator {
 public:
  void add(const ApduRecord& rec, std::uint32_t flow);
  /// Entries in FlowKey order.
  SeqAuditReport close() const;

 private:
  static constexpr std::uint32_t kNoPeer = 0xffffffffu;
  struct Direction {
    bool seen = false;
    std::uint16_t expected_ns = 0;  ///< next N(S) we expect
    std::uint32_t peer = kNoPeer;
    SeqAuditEntry entry;
  };
  std::map<net::FlowKey, std::uint32_t> id_of_;
  std::vector<Direction> dirs_;
};

/// Audits every connection in the dataset.
SeqAuditReport audit_sequences(const CaptureDataset& dataset);

}  // namespace uncharted::analysis
