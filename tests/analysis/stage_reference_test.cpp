// The flow-indexed §6 accumulators against the map-based code they
// replaced. The sequence audit keys its per-direction state by a dense
// flow id, and the chain accumulator and MarkovChain::from_tokens count
// over interned token ids; both must give exactly what the
// straightforward map-per-record versions below give, on a damaged
// capture and on the edge cases.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/markov.hpp"
#include "analysis/seq_audit.hpp"
#include "faultinject/fault.hpp"
#include "iec104/seq15.hpp"
#include "sim/capture.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

using iec104::Apdu;
using testlib::CaptureBuilder;
using testlib::float_asdu;
using testlib::i_apdu;
using testlib::ip;

// --- Reference implementations: one ordered-map lookup per record ---------

SeqAuditReport reference_audit_sequences(const CaptureDataset& dataset) {
  struct DirState {
    bool seen = false;
    std::uint16_t expected_ns = 0;
    SeqAuditEntry entry;
  };
  std::map<net::FlowKey, DirState> dirs;
  for (const auto& rec : dataset.records()) {
    const auto& apdu = rec.apdu;
    auto& st = dirs[rec.flow];
    st.entry.direction = rec.flow;
    if (apdu.format == iec104::ApduFormat::kI) {
      ++st.entry.i_apdus;
      if (!st.seen) {
        st.seen = true;
        st.expected_ns = iec104::seq15_next(apdu.send_seq);
      } else {
        int delta = iec104::seq15_delta(apdu.send_seq, st.expected_ns);
        if (delta == 0) {
          st.expected_ns = iec104::seq15_next(apdu.send_seq);
        } else if (delta > 0) {
          ++st.entry.gaps;
          st.expected_ns = iec104::seq15_next(apdu.send_seq);
        } else if (delta == -1) {
          ++st.entry.duplicates;
        } else {
          ++st.entry.resets;
          st.expected_ns = iec104::seq15_next(apdu.send_seq);
        }
      }
    }
    if (apdu.format == iec104::ApduFormat::kI || apdu.format == iec104::ApduFormat::kS) {
      auto peer_it = dirs.find(rec.flow.reversed());
      if (peer_it != dirs.end() && peer_it->second.seen) {
        int ahead = iec104::seq15_delta(apdu.recv_seq, peer_it->second.expected_ns);
        if (ahead > 0) ++st.entry.ack_violations;
      }
    }
  }
  SeqAuditReport report;
  for (auto& [key, st] : dirs) {
    if (st.entry.i_apdus == 0 && st.entry.ack_violations == 0) continue;
    report.total_gaps += st.entry.gaps;
    report.total_duplicates += st.entry.duplicates;
    report.total_ack_violations += st.entry.ack_violations;
    report.entries.push_back(st.entry);
  }
  return report;
}

struct ReferenceChain {
  std::map<std::string, std::map<std::string, std::uint64_t>> counts;
  std::map<std::string, std::uint64_t> outgoing_totals;
};

ReferenceChain reference_from_tokens(const std::vector<std::string>& tokens) {
  ReferenceChain chain;
  for (const auto& t : tokens) chain.counts.try_emplace(t);
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    ++chain.counts[tokens[i]][tokens[i + 1]];
    ++chain.outgoing_totals[tokens[i]];
  }
  return chain;
}

// --- Comparisons ----------------------------------------------------------

void expect_same_audit(const SeqAuditReport& got, const SeqAuditReport& want) {
  EXPECT_EQ(got.total_gaps, want.total_gaps);
  EXPECT_EQ(got.total_duplicates, want.total_duplicates);
  EXPECT_EQ(got.total_ack_violations, want.total_ack_violations);
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t i = 0; i < got.entries.size(); ++i) {
    const auto& g = got.entries[i];
    const auto& w = want.entries[i];
    SCOPED_TRACE(w.direction.str());
    EXPECT_EQ(g.direction, w.direction);
    EXPECT_EQ(g.i_apdus, w.i_apdus);
    EXPECT_EQ(g.gaps, w.gaps);
    EXPECT_EQ(g.duplicates, w.duplicates);
    EXPECT_EQ(g.resets, w.resets);
    EXPECT_EQ(g.ack_violations, w.ack_violations);
  }
}

void expect_same_chain(const MarkovChain& chain, const std::vector<std::string>& tokens) {
  const auto want = reference_from_tokens(tokens);
  EXPECT_EQ(chain.counts(), want.counts);
  EXPECT_EQ(chain.node_count(), want.counts.size());
  std::size_t edges = 0;
  for (const auto& [node, successors] : want.counts) {
    edges += successors.size();
    auto total = want.outgoing_totals.find(node);
    for (const auto& candidate : want.counts) {
      const std::string& next = candidate.first;
      auto edge = successors.find(next);
      double p = edge == successors.end()
                     ? 0.0
                     : static_cast<double>(edge->second) /
                           static_cast<double>(total->second);
      EXPECT_EQ(chain.probability(node, next), p) << node << " -> " << next;
    }
  }
  EXPECT_EQ(chain.edge_count(), edges);
}

void expect_same_chain(const std::vector<std::string>& tokens) {
  expect_same_chain(MarkovChain::from_tokens(tokens), tokens);
}

/// Reference token sequence per connection: both directions, record order.
std::map<EndpointPair, std::vector<std::string>> reference_tokens(
    const CaptureDataset& dataset) {
  std::map<EndpointPair, std::vector<std::string>> out;
  for (const auto& rec : dataset.records()) {
    out[EndpointPair::of(rec.flow.src_ip, rec.flow.dst_ip)].push_back(
        rec.apdu.token());
  }
  return out;
}

// --- The damaged capture --------------------------------------------------

const std::vector<net::CapturedPacket>& faulted_y1() {
  static const auto packets = faultinject::apply_faults(
      sim::generate_capture(sim::CaptureConfig::y1(90.0)).packets,
      faultinject::FaultConfig::uniform(0.05)).packets;
  return packets;
}

TEST(StageReference, SeqAuditMatchesMapReferenceOnFaultedY1) {
  for (auto mode : {ParseMode::kPerPacket, ParseMode::kReassembled}) {
    SCOPED_TRACE(mode == ParseMode::kPerPacket ? "per-packet" : "reassembled");
    CaptureDataset::Options opts;
    opts.mode = mode;
    auto ds = CaptureDataset::build(net::as_frame_views(faulted_y1()), opts);
    ASSERT_GT(ds.records().size(), 1000u);
    auto got = audit_sequences(ds);
    EXPECT_GT(got.entries.size(), 1u);
    expect_same_audit(got, reference_audit_sequences(ds));
  }
}

TEST(StageReference, MarkovMatchesMapReferenceOnFaultedY1) {
  for (auto mode : {ParseMode::kPerPacket, ParseMode::kReassembled}) {
    SCOPED_TRACE(mode == ParseMode::kPerPacket ? "per-packet" : "reassembled");
    CaptureDataset::Options opts;
    opts.mode = mode;
    auto ds = CaptureDataset::build(net::as_frame_views(faulted_y1()), opts);
    auto chains = build_connection_chains(ds);
    auto tokens = reference_tokens(ds);
    ASSERT_GT(chains.size(), 1u);
    ASSERT_EQ(chains.size(), tokens.size());
    for (const auto& cc : chains) {
      SCOPED_TRACE(cc.pair.str());
      const auto& want = tokens.at(cc.pair);
      expect_same_chain(cc.chain, want);
      EXPECT_EQ(cc.first_token, want.front());
      EXPECT_EQ(cc.last_token, want.back());
    }
  }
}

// --- Edge cases -----------------------------------------------------------

TEST(StageReference, MarkovEmptyInput) {
  const std::vector<std::string> tokens;
  auto chain = MarkovChain::from_tokens(tokens);
  EXPECT_EQ(chain.node_count(), 0u);
  EXPECT_EQ(chain.edge_count(), 0u);
  EXPECT_EQ(chain.str(), "");
  expect_same_chain(tokens);
}

TEST(StageReference, MarkovOneToken) {
  const std::vector<std::string> tokens = {"U16"};
  auto chain = MarkovChain::from_tokens(tokens);
  EXPECT_EQ(chain.node_count(), 1u);
  EXPECT_EQ(chain.edge_count(), 0u);
  EXPECT_TRUE(chain.has_node("U16"));
  EXPECT_FALSE(chain.has_self_loop("U16"));
  EXPECT_EQ(chain.probability("U16", "U16"), 0.0);
  expect_same_chain(tokens);
}

TEST(StageReference, MarkovSelfLoop) {
  // The Fig 13 (1,1) point: a reset backup answering nothing but U16.
  const std::vector<std::string> tokens = {"U16", "U16", "U16", "U16"};
  auto chain = MarkovChain::from_tokens(tokens);
  EXPECT_EQ(chain.node_count(), 1u);
  EXPECT_EQ(chain.edge_count(), 1u);
  EXPECT_TRUE(chain.has_self_loop("U16"));
  EXPECT_EQ(chain.counts().at("U16").at("U16"), 3u);
  EXPECT_EQ(chain.probability("U16", "U16"), 1.0);
  expect_same_chain(tokens);
}

TEST(StageReference, MarkovNodeWithoutOutgoingEdge) {
  // "I_100" is seen only last: a node with an empty successor map.
  const std::vector<std::string> tokens = {"S", "I_36", "S", "I_36", "I_100"};
  auto chain = MarkovChain::from_tokens(tokens);
  EXPECT_EQ(chain.node_count(), 3u);
  EXPECT_EQ(chain.edge_count(), 3u);
  EXPECT_TRUE(chain.counts().at("I_100").empty());
  EXPECT_EQ(chain.probability("I_100", "S"), 0.0);
  EXPECT_EQ(chain.probability("I_36", "I_100"), 0.5);
  EXPECT_EQ(chain.str(), "I_36 -> I_100 : 0.500\nI_36 -> S : 0.500\nS -> I_36 : 1.000\n");
  expect_same_chain(tokens);
}

TEST(StageReference, SeqAuditEntriesInFlowKeyOrderWhenSmallestFlowIsSeenLast) {
  // The first record belongs to the largest directed flow; entries must
  // still come out in FlowKey order, not in order of first appearance.
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto low = ip(10, 1, 0, 5);
  auto high = ip(10, 1, 0, 9);
  for (std::uint16_t i = 0; i < 3; ++i) {
    cb.apdu(i * 1000, server, high, true, i_apdu(float_asdu(5, 1, 1.0f), i, 0));
  }
  cb.apdu(5000, server, low, true, i_apdu(float_asdu(5, 1, 1.0f), 7, 0));
  cb.apdu(6000, server, low, true, i_apdu(float_asdu(5, 1, 1.0f), 9, 0));  // gap
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  ASSERT_EQ(ds.records().front().flow.src_ip, high);

  auto report = audit_sequences(ds);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].direction.src_ip, low);
  EXPECT_EQ(report.entries[0].gaps, 1u);
  EXPECT_EQ(report.entries[1].direction.src_ip, high);
  EXPECT_EQ(report.entries[1].i_apdus, 3u);
  expect_same_audit(report, reference_audit_sequences(ds));
}

TEST(StageReference, SeqAuditPeerDirectionAppearingLate) {
  // The server commands first; the station's own I-frames appear late. The
  // server's N(R) is audited only once the station direction has anchored.
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  for (std::uint16_t i = 0; i < 3; ++i) {
    // N(R)=50 while the station has sent nothing: no peer state yet.
    cb.apdu(i * 1000, server, station, false, i_apdu(float_asdu(5, 1, 1.0f), i, 50));
  }
  for (std::uint16_t i = 0; i < 4; ++i) {
    cb.apdu(10'000 + i * 1000, server, station, true, i_apdu(float_asdu(5, 1, 1.0f), i, 3));
  }
  cb.apdu(20'000, server, station, false, Apdu::make_s(4));   // exactly V(S): clean
  cb.apdu(21'000, server, station, false, Apdu::make_s(10));  // beyond V(S)
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));

  auto report = audit_sequences(ds);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.total_ack_violations, 1u);
  for (const auto& e : report.entries) {
    if (e.direction.src_ip == server) {
      EXPECT_EQ(e.i_apdus, 3u);
      EXPECT_EQ(e.ack_violations, 1u);
    } else {
      EXPECT_EQ(e.i_apdus, 4u);
      EXPECT_EQ(e.ack_violations, 0u);
    }
  }
  expect_same_audit(report, reference_audit_sequences(ds));
}

}  // namespace
}  // namespace uncharted::analysis
