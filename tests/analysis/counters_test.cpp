// Pins the checkpoint layout of the counter structs that carry field
// tables (util/fields.hpp): DatasetStats with its DegradationCounters and
// then ResourcePressure open every DatasetBuilder payload, FlowDamage
// follows each damaged flow's key, and net::StreamStats closes every
// TcpStreamDirection payload. Each field gets a distinct value, set by
// name; the payload holding the values in the order checkpoints have
// always used must load into exactly those fields and save back to the
// same bytes, and every proper prefix of it must fail to load.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "analysis/dataset.hpp"
#include "net/reassembly.hpp"

namespace uncharted::analysis {
namespace {

void put(ByteWriter& w, std::initializer_list<std::uint64_t> values) {
  for (auto v : values) w.u64le(v);
}

/// Each prefix is copied into a buffer of exactly its size, so a read past
/// its end is a sanitizer error rather than a quiet read of the rest.
template <typename Load>
void expect_every_cut_fails(std::span<const std::uint8_t> payload, Load load) {
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(payload.begin(),
                                           payload.begin() + static_cast<std::ptrdiff_t>(cut));
    ByteReader r(prefix);
    EXPECT_FALSE(load(r)) << "cut at byte " << cut << " of " << payload.size();
  }
}

TEST(Counters, CheckpointLayoutIsPinned) {
  DatasetStats stats;
  stats.packets = 1;
  stats.tcp_packets = 2;
  stats.undecodable_frames = 3;
  stats.iec104_payload_packets = 4;
  stats.apdus = 5;
  stats.apdu_failures = 6;
  stats.c37118_packets = 7;
  stats.iccp_packets = 8;
  stats.other_tcp_packets = 9;
  stats.non_compliant_apdus = 10;
  stats.tcp_retransmissions = 11;
  DegradationCounters& deg = stats.degradation;
  deg.undecodable_frames = 12;
  deg.parser_resyncs = 13;
  deg.garbage_bytes = 14;
  deg.undecodable_apdus = 15;
  deg.truncated_tail_bytes = 16;
  deg.reassembly_gaps = 17;
  deg.reassembly_lost_bytes = 18;
  deg.overlapping_segments = 19;
  deg.aborted_streams = 20;
  deg.wild_segments = 21;
  deg.quarantined_connections = 22;
  deg.quarantined_apdus = 23;
  ResourcePressure pressure;
  pressure.flow_evictions = 24;
  pressure.reassembly_flushes = 25;
  pressure.records_evicted = 26;
  pressure.parsers_evicted = 27;
  pressure.peak_flow_entries = 28;
  pressure.peak_reassembly_bytes = 29;
  pressure.peak_records = 30;
  pressure.peak_parsers = 31;
  // Far more APDUs than failures, so the flow stays out of quarantine and
  // a query reports the loaded stats unchanged.
  FlowDamage damage;
  damage.apdus = 1000;
  damage.garbage = 32;
  damage.garbage_bytes = 33;
  damage.undecodable = 34;
  damage.truncated = 35;
  damage.oversized = 36;
  damage.last_failure_ts = 37;
  const net::FlowKey key{net::Ipv4Addr::from_octets(10, 1, 7, 7), 2404,
                         net::Ipv4Addr::from_octets(10, 0, 0, 9), 49152};

  // Between the counters and the damage map an empty builder's bytes stand
  // in: flow table, last timestamp, packet cursor, record and parser counts.
  constexpr std::size_t kHead = (11 + 12 + 4 + 4) * 8;
  constexpr std::size_t kDamageOnward = 4 + 1;  // damage count, reassembler flag
  ByteWriter empty;
  ASSERT_TRUE(DatasetBuilder().save(empty).ok());
  ASSERT_GE(empty.size(), kHead + kDamageOnward);

  ByteWriter want;
  put(want, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  put(want, {12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23});
  put(want, {24, 25, 26, 27});
  put(want, {28, 29, 30, 31});
  want.bytes(empty.view().subspan(kHead, empty.size() - kHead - kDamageOnward));
  want.u32le(1);
  key.save(want);
  put(want, {1000, 32, 33, 34, 35, 36, 37});
  want.u8(0);  // per-packet mode: no reassembler

  DatasetBuilder builder;
  ByteReader r(want.view());
  ASSERT_TRUE(builder.load(r).ok());
  EXPECT_TRUE(r.empty());
  DatasetView view;
  builder.query(0, view);
  EXPECT_TRUE(view.stats() == stats);
  EXPECT_TRUE(builder.pressure() == pressure);
  ASSERT_EQ(view.damage().count(key), 1u);
  EXPECT_TRUE(view.damage().at(key) == damage);
  ByteWriter saved;
  ASSERT_TRUE(builder.save(saved).ok());
  EXPECT_EQ(saved.data(), want.data());
  expect_every_cut_fails(want.view(), [](ByteReader& cut) {
    DatasetBuilder b;
    return b.load(cut).ok();
  });

  net::StreamStats stream;
  stream.retransmissions = 38;
  stream.overlapping_segments = 39;
  stream.out_of_order = 40;
  stream.delivered_bytes = 41;
  stream.gaps_skipped = 42;
  stream.lost_bytes = 43;
  stream.resets = 44;
  stream.aborted_with_pending = 45;
  stream.wild_segments = 46;

  ByteWriter dir_want;
  dir_want.u8(1);      // initialized
  dir_want.u32le(7);   // next sequence number
  dir_want.u32le(0);   // no pending segments
  put(dir_want, {38, 39, 40, 41, 42, 43, 44, 45, 46});
  ByteReader dr(dir_want.view());
  auto dir = net::TcpStreamDirection::load(dr, {});
  ASSERT_TRUE(dir.ok());
  EXPECT_TRUE(dr.empty());
  EXPECT_TRUE(dir->stats() == stream);
  ByteWriter dir_saved;
  dir->save(dir_saved);
  EXPECT_EQ(dir_saved.data(), dir_want.data());
  expect_every_cut_fails(dir_want.view(), [](ByteReader& cut) {
    return net::TcpStreamDirection::load(cut, {}).ok();
  });
}

}  // namespace
}  // namespace uncharted::analysis
