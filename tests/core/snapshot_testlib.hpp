// Shared check for StreamingAnalyzer::report_snapshot(): a snapshot over a
// prefix must be byte-identical to finalize() of a fresh analyzer fed the
// same prefix. Used by the streaming suite and, at threads 8, by the
// parallel-determinism suite that also runs under ThreadSanitizer.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/streaming.hpp"
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

/// Feeds packets[0, cut) to an analyzer and compares its report_snapshot()
/// with finalize() of a fresh analyzer fed the same prefix. Returns the
/// snapshot so callers can assert what it covered.
inline core::AnalysisReport expect_snapshot_matches_finalize(
    std::span<const net::CapturedPacket> packets, std::size_t cut,
    const core::StreamingOptions& options, const std::string& label) {
  const auto prefix = packets.first(cut);
  core::StreamingAnalyzer live(options);
  live.add_packets(prefix);
  core::AnalysisReport snapshot = live.report_snapshot();

  core::StreamingAnalyzer fresh(options);
  fresh.add_packets(prefix);
  EXPECT_EQ(core::report_to_json(snapshot), core::report_to_json(fresh.finalize()))
      << label << ": snapshot differs from finalize() of the same prefix";
  EXPECT_EQ(snapshot.stats.packets, cut) << label;
  return snapshot;
}

}  // namespace uncharted::testlib
