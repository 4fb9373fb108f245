#include "analysis/seq_audit.hpp"

#include <gtest/gtest.h>

#include "sim/capture.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

using testlib::CaptureBuilder;
using testlib::float_asdu;
using testlib::i_apdu;
using testlib::ip;

const auto kServer = testlib::ip(10, 0, 0, 1);
const auto kStation = testlib::ip(10, 1, 0, 5);

SeqAuditReport audit(const CaptureBuilder& cb) {
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  return audit_sequences(ds);
}

TEST(SeqAudit, CleanSequenceHasNoFindings) {
  CaptureBuilder cb;
  for (std::uint16_t i = 0; i < 10; ++i) {
    cb.apdu(i * 1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), i, 0));
  }
  auto report = audit(cb);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].i_apdus, 10u);
  EXPECT_EQ(report.total_gaps, 0u);
  EXPECT_EQ(report.total_duplicates, 0u);
  EXPECT_EQ(report.entries[0].resets, 0u);
}

TEST(SeqAudit, MidStreamAnchoring) {
  // A capture starting at N(S)=500 is not a gap.
  CaptureBuilder cb;
  for (std::uint16_t i = 500; i < 505; ++i) {
    cb.apdu(i * 1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), i, 0));
  }
  auto report = audit(cb);
  EXPECT_EQ(report.total_gaps, 0u);
}

TEST(SeqAudit, GapDetected) {
  CaptureBuilder cb;
  cb.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 1, 0));
  cb.apdu(2000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 5, 0));  // 2-4 lost
  auto report = audit(cb);
  EXPECT_EQ(report.total_gaps, 1u);
  // After resync, the stream continues cleanly.
  CaptureBuilder cb2;
  cb2.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 5, 0));
  cb2.apdu(1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 6, 0));
  EXPECT_EQ(audit(cb2).total_gaps, 0u);
}

TEST(SeqAudit, DuplicateDetected) {
  CaptureBuilder cb;
  cb.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));  // repeat
  auto report = audit(cb);
  EXPECT_EQ(report.total_duplicates, 1u);
}

TEST(SeqAudit, ResetDetected) {
  CaptureBuilder cb;
  for (std::uint16_t i = 100; i < 103; ++i) {
    cb.apdu(i * 1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), i, 0));
  }
  cb.apdu(200'000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));
  auto report = audit(cb);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].resets, 1u);
}

TEST(SeqAudit, WrapAroundIsClean) {
  CaptureBuilder cb;
  cb.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 32766, 0));
  cb.apdu(1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 32767, 0));
  cb.apdu(2000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));  // wrap
  auto report = audit(cb);
  EXPECT_EQ(report.total_gaps, 0u);
  EXPECT_EQ(report.entries[0].resets, 0u);
}

TEST(SeqAudit, DuplicateAtWrapIsDuplicateNotReset) {
  // A retransmission straddling the 32767->0 wrap must read as a
  // duplicate (delta -1 in 15-bit arithmetic), never as a reset to the
  // top of the sequence space.
  CaptureBuilder cb;
  cb.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 32766, 0));
  cb.apdu(1000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 32767, 0));
  cb.apdu(2000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 32767, 0));
  cb.apdu(3000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(4000, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));
  auto report = audit(cb);
  EXPECT_EQ(report.total_duplicates, 2u);
  EXPECT_EQ(report.total_gaps, 0u);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].resets, 0u);
}

TEST(SeqAudit, AckAcrossWrapIsClean) {
  CaptureBuilder cb;
  cb.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 32767, 0));
  // N(R)=0 acknowledges the wrapped frame: exactly the station's V(S).
  cb.apdu(1000, kServer, kStation, false, iec104::Apdu::make_s(0));
  EXPECT_EQ(audit(cb).total_ack_violations, 0u);

  // One past the wrapped V(S) is still a violation — the 15-bit compare
  // must not mistake 1 vs 0 for a 32767-frame regression.
  CaptureBuilder cb2;
  cb2.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 32767, 0));
  cb2.apdu(1000, kServer, kStation, false, iec104::Apdu::make_s(1));
  EXPECT_EQ(audit(cb2).total_ack_violations, 1u);
}

TEST(SeqAudit, AckViolationDetected) {
  CaptureBuilder cb;
  // Station sent N(S)=0 only; server acks N(R)=5 — beyond the window.
  cb.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));
  cb.apdu(1000, kServer, kStation, false, iec104::Apdu::make_s(5));
  auto report = audit(cb);
  EXPECT_EQ(report.total_ack_violations, 1u);

  // Acking exactly what was sent is clean.
  CaptureBuilder cb2;
  cb2.apdu(0, kServer, kStation, true, i_apdu(float_asdu(5, 1, 1.0f), 0, 0));
  cb2.apdu(1000, kServer, kStation, false, iec104::Apdu::make_s(1));
  EXPECT_EQ(audit(cb2).total_ack_violations, 0u);
}

TEST(SeqAudit, ReassembledSimCaptureIsClean) {
  // Over reassembled streams (retransmissions deduplicated, per-flow
  // ordering restored) the simulator's sequences audit perfectly clean.
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(120.0));
  CaptureDataset::Options opts;
  opts.mode = ParseMode::kReassembled;
  auto ds = CaptureDataset::build(net::as_frame_views(capture.packets), opts);
  auto report = audit_sequences(ds);
  EXPECT_GT(report.entries.size(), 20u);
  EXPECT_EQ(report.total_gaps, 0u);
  EXPECT_EQ(report.total_duplicates, 0u);
  EXPECT_EQ(report.total_ack_violations, 0u);
}

TEST(SeqAudit, PerPacketModeSurfacesTcpRetransmissions) {
  // In per-packet mode a retransmitted segment re-delivers its APDU out of
  // order, which the audit flags — the same artifact the paper chased in
  // §6.3.1 before attributing it to the TCP layer.
  auto capture = sim::generate_capture(sim::CaptureConfig::y1(120.0));
  auto ds = CaptureDataset::build(net::as_frame_views(capture.packets));
  auto report = audit_sequences(ds);
  EXPECT_GT(report.total_duplicates + report.total_gaps, 0u);
}

}  // namespace
}  // namespace uncharted::analysis
