#include "analysis/seq_audit.hpp"

#include "iec104/seq15.hpp"

namespace uncharted::analysis {

using iec104::seq15_delta;
using iec104::seq15_next;

namespace {
struct DirState {
  bool seen = false;
  std::uint16_t expected_ns = 0;  ///< next N(S) we expect
  SeqAuditEntry entry;
};
constexpr std::uint32_t kNoPeer = 0xffffffffu;
}  // namespace

SeqAuditReport audit_sequences(const CaptureDataset& dataset) {
  // Per-direction state is indexed by the dataset's dense flow id, and each
  // direction's reverse is resolved once up front.
  const auto& keys = dataset.flow_keys();
  std::map<net::FlowKey, std::uint32_t> id_of;
  for (std::uint32_t f = 0; f < keys.size(); ++f) id_of.emplace(keys[f], f);
  std::vector<DirState> dirs(keys.size());
  std::vector<std::uint32_t> peer(keys.size(), kNoPeer);
  for (std::uint32_t f = 0; f < keys.size(); ++f) {
    dirs[f].entry.direction = keys[f];
    auto it = id_of.find(keys[f].reversed());
    if (it != id_of.end()) peer[f] = it->second;
  }

  const auto& records = dataset.records();
  const auto& flow_index = dataset.columns().flow_index;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& apdu = records[i].apdu.apdu;
    const std::uint32_t f = flow_index[i];
    auto& st = dirs[f];

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

    // Acknowledgement audit: the N(R) in I/S frames must not exceed the
    // peer direction's next N(S).
    if (apdu.format == iec104::ApduFormat::kI || apdu.format == iec104::ApduFormat::kS) {
      if (peer[f] != kNoPeer && dirs[peer[f]].seen) {
        int ahead = seq15_delta(apdu.recv_seq, dirs[peer[f]].expected_ns);
        if (ahead > 0) ++st.entry.ack_violations;
      }
    }
  }

  // Entries in FlowKey order: id_of iterates its keys sorted.
  SeqAuditReport report;
  for (const auto& [key, f] : id_of) {
    const auto& st = dirs[f];
    if (st.entry.i_apdus == 0 && st.entry.ack_violations == 0) continue;
    report.total_gaps += st.entry.gaps;
    report.total_duplicates += st.entry.duplicates;
    report.total_ack_violations += st.entry.ack_violations;
    report.entries.push_back(st.entry);
  }
  return report;
}

}  // namespace uncharted::analysis
