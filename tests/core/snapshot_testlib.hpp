// Shared checks for StreamingAnalyzer::report_snapshot(): a snapshot over
// a prefix must be byte-identical to finalize() of a fresh analyzer fed
// the same prefix, and queries must leave the lanes they read untouched.
// The capture variants below are the hard cases for a query that reads
// the lanes in place. Used by the streaming suite and, at threads 8, by
// the parallel-determinism suite that also runs under ThreadSanitizer.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/streaming.hpp"
#include "faultinject/fault.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::testlib {

/// `packets` plus one poisoned IEC 104 flow starting at `start`, in
/// capture order. Each of its segments is a skipped byte and an
/// undecodable frame, so the flow crosses the quarantine threshold in both
/// parse modes.
inline std::vector<net::CapturedPacket> with_poisoned_flow(
    std::vector<net::CapturedPacket> packets, Timestamp start) {
  const std::uint8_t junk[] = {0xAA, iec104::kStartByte, 0x02, 0x00, 0x00};
  CaptureBuilder cb;
  for (int i = 0; i < 16; ++i) {
    cb.segment(start + i * 100'000, ip(10, 9, 9, 9), ip(10, 0, 2, 50), false, junk);
  }
  packets.insert(packets.end(), cb.packets().begin(), cb.packets().end());
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::CapturedPacket& a, const net::CapturedPacket& b) {
                     return a.ts < b.ts;
                   });
  return packets;
}

/// `packets` with every timestamp cut to whole seconds: bursts of many
/// flows share one timestamp, so the canonical order rests on its
/// (flow, seq) tie-break throughout.
inline std::vector<net::CapturedPacket> with_tied_timestamps(
    std::vector<net::CapturedPacket> packets) {
  for (auto& pkt : packets) pkt.ts -= pkt.ts % 1'000'000;
  return packets;
}

/// `packets` with every 40th packet stamped 2 s before the one captured
/// ahead of it: timestamps step backwards, so a lane holds several
/// ordered runs.
inline std::vector<net::CapturedPacket> with_backward_steps(
    std::vector<net::CapturedPacket> packets) {
  for (std::size_t i = 40; i < packets.size(); i += 40) {
    packets[i].ts = packets[i - 1].ts - std::min<Timestamp>(packets[i - 1].ts, 2'000'000);
  }
  return packets;
}

/// `packets` plus a flow whose first APDUs parse cleanly and which turns
/// to junk at `junk_from`: it crosses the quarantine threshold only
/// mid-stream, when its good APDUs are already records.
inline std::vector<net::CapturedPacket> with_flow_quarantined_midstream(
    std::vector<net::CapturedPacket> packets, Timestamp start, Timestamp junk_from) {
  const std::uint8_t junk[] = {0xAA, iec104::kStartByte, 0x02, 0x00, 0x00};
  CaptureBuilder cb;
  for (int i = 0; i < 4; ++i) {
    cb.apdu(start + i * 100'000, ip(10, 9, 9, 8), ip(10, 0, 2, 51), false,
            iec104::Apdu::make_u(iec104::UFunction::kTestFrAct));
  }
  for (int i = 0; i < 16; ++i) {
    cb.segment(junk_from + i * 100'000, ip(10, 9, 9, 8), ip(10, 0, 2, 51), false, junk);
  }
  packets.insert(packets.end(), cb.packets().begin(), cb.packets().end());
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::CapturedPacket& a, const net::CapturedPacket& b) {
                     return a.ts < b.ts;
                   });
  return packets;
}

/// `packets` with one IEC 104 packet in ten swapped with its successor:
/// in reassembled mode, segments wait behind a hole at most cuts.
inline std::vector<net::CapturedPacket> with_reordered_segments(
    const std::vector<net::CapturedPacket>& packets) {
  faultinject::FaultConfig reorder;
  reorder.reorder_p = 0.1;
  return faultinject::apply_faults(packets, reorder).packets;
}

/// Feeds packets[0, cut) to an analyzer and compares its report_snapshot()
/// with finalize() of a fresh analyzer fed the same prefix. Returns the
/// snapshot so callers can assert what it covered.
inline core::AnalysisReport expect_snapshot_matches_finalize(
    std::span<const net::CapturedPacket> packets, std::size_t cut,
    const core::StreamingOptions& options, const std::string& label) {
  const auto prefix = packets.first(cut);
  core::StreamingAnalyzer live(options);
  live.add_packets(net::as_frame_views(prefix));
  core::AnalysisReport snapshot = live.report_snapshot();

  core::StreamingAnalyzer fresh(options);
  fresh.add_packets(net::as_frame_views(prefix));
  EXPECT_EQ(core::report_to_json(snapshot), core::report_to_json(fresh.finalize()))
      << label << ": snapshot differs from finalize() of the same prefix";
  EXPECT_EQ(snapshot.stats.packets, cut) << label;
  return snapshot;
}

/// Queries at three cuts, keeps ingesting, then finalizes: the report must
/// equal finalize() of an analyzer that was never queried, and — when no
/// budget binds — the batch report, so the queries left the lanes as they
/// were.
inline void expect_queries_leave_lanes_untouched(
    std::span<const net::CapturedPacket> packets, const core::StreamingOptions& options,
    const std::string& label) {
  core::StreamingAnalyzer live(options);
  std::size_t fed = 0;
  for (std::size_t cut : {(packets.size() / 4) | 1, (packets.size() / 2) | 1,
                          (packets.size() * 3 / 4) | 1}) {
    live.add_packets(net::as_frame_views(packets.subspan(fed, cut - fed)));
    fed = cut;
    EXPECT_EQ(live.report_snapshot().stats.packets, cut) << label;
  }
  live.add_packets(net::as_frame_views(packets.subspan(fed)));
  const std::string got = core::report_to_json(live.finalize());

  core::StreamingAnalyzer never_queried(options);
  never_queried.add_packets(net::as_frame_views(packets));
  EXPECT_EQ(got, core::report_to_json(never_queried.finalize()))
      << label << ": queries changed the final report";
  if (options.budgets.unlimited()) {
    std::vector<net::CapturedPacket> all(packets.begin(), packets.end());
    EXPECT_EQ(got, core::report_to_json(core::CaptureAnalyzer::analyze(all, options.analyze)))
        << label << ": final report differs from batch";
  }
}

}  // namespace uncharted::testlib
