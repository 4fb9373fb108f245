#include "analysis/seq_audit.hpp"

#include "iec104/seq15.hpp"

namespace uncharted::analysis {

using iec104::seq15_delta;
using iec104::seq15_next;

void SeqAuditAccumulator::add(const ApduRecord& rec, std::uint32_t flow) {
  if (flow == dirs_.size()) {
    dirs_.emplace_back().entry.direction = rec.flow;
    id_of_.emplace(rec.flow, flow);
    auto peer = id_of_.find(rec.flow.reversed());
    if (peer != id_of_.end()) {
      dirs_[flow].peer = peer->second;
      dirs_[peer->second].peer = flow;
    }
  }
  const auto& apdu = rec.apdu;
  auto& st = dirs_[flow];

  if (apdu.format == iec104::ApduFormat::kI) {
    ++st.entry.i_apdus;
    if (!st.seen) {
      st.seen = true;  // anchor mid-stream
      st.expected_ns = seq15_next(apdu.send_seq);
    } else {
      int delta = seq15_delta(apdu.send_seq, st.expected_ns);
      if (delta == 0) {
        st.expected_ns = seq15_next(apdu.send_seq);
      } else if (delta > 0) {
        ++st.entry.gaps;
        st.expected_ns = seq15_next(apdu.send_seq);
      } else if (delta == -1) {
        ++st.entry.duplicates;  // same N(S) again: retransmitted APDU
      } else {
        ++st.entry.resets;
        st.expected_ns = seq15_next(apdu.send_seq);
      }
    }
  }

  // Acknowledgement audit: the N(R) in I/S frames must not exceed the peer
  // direction's next N(S).
  if (apdu.format == iec104::ApduFormat::kI || apdu.format == iec104::ApduFormat::kS) {
    if (st.peer != kNoPeer && dirs_[st.peer].seen) {
      int ahead = seq15_delta(apdu.recv_seq, dirs_[st.peer].expected_ns);
      if (ahead > 0) ++st.entry.ack_violations;
    }
  }
}

SeqAuditReport SeqAuditAccumulator::close() const {
  // Entries in FlowKey order: id_of_ iterates its keys sorted.
  SeqAuditReport report;
  for (const auto& [key, f] : id_of_) {
    const auto& st = dirs_[f];
    if (st.entry.i_apdus == 0 && st.entry.ack_violations == 0) continue;
    report.total_gaps += st.entry.gaps;
    report.total_duplicates += st.entry.duplicates;
    report.total_ack_violations += st.entry.ack_violations;
    report.entries.push_back(st.entry);
  }
  return report;
}

SeqAuditReport audit_sequences(const CaptureDataset& dataset) {
  SeqAuditAccumulator acc;
  feed(dataset.records(), acc);
  return acc.close();
}

}  // namespace uncharted::analysis
