#include "net/reassembly.hpp"

#include <memory>

#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace uncharted::net {
namespace {

TcpHeader seg(std::uint32_t seq, std::uint8_t flags = kTcpAck) {
  TcpHeader h;
  h.seq = seq;
  h.flags = flags;
  return h;
}

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) {
  return {list};
}

TEST(StreamDirection, InOrderDelivery) {
  TcpStreamDirection dir;
  auto c1 = dir.on_segment(1, seg(100), bytes({1, 2, 3}));
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_EQ(c1[0].data, bytes({1, 2, 3}));
  auto c2 = dir.on_segment(2, seg(103), bytes({4, 5}));
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_EQ(c2[0].data, bytes({4, 5}));
  EXPECT_EQ(dir.stats().delivered_bytes, 5u);
  EXPECT_EQ(dir.stats().retransmissions, 0u);
}

TEST(StreamDirection, SynConsumesOneSequenceNumber) {
  TcpStreamDirection dir;
  EXPECT_TRUE(dir.on_segment(0, seg(99, kTcpSyn), {}).empty());
  auto c = dir.on_segment(1, seg(100), bytes({7}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({7}));
}

TEST(StreamDirection, ExactDuplicateIsRetransmission) {
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1, 2, 3}));
  auto dup = dir.on_segment(2, seg(100), bytes({1, 2, 3}));
  EXPECT_TRUE(dup.empty());
  EXPECT_EQ(dir.stats().retransmissions, 1u);
  EXPECT_EQ(dir.stats().delivered_bytes, 3u);
}

TEST(StreamDirection, PartialOverlapDeliversOnlyNewTail) {
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1, 2, 3}));
  auto c = dir.on_segment(2, seg(101), bytes({2, 3, 4, 5}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({4, 5}));
  // A partial overlap is its own stat; full duplicates stay retransmissions.
  EXPECT_EQ(dir.stats().overlapping_segments, 1u);
  EXPECT_EQ(dir.stats().retransmissions, 0u);
  EXPECT_EQ(dir.stats().delivered_bytes, 5u);
}

TEST(StreamDirection, OverlapNeverDoubleDeliversAcrossPending) {
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1, 2}));        // next_seq_ = 102
  dir.on_segment(2, seg(104), bytes({5, 6}));        // buffered past a hole
  // Fills the hole and overlaps the pending segment's head.
  auto c = dir.on_segment(3, seg(102), bytes({3, 4, 5}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({3, 4, 5, 6}));
  EXPECT_EQ(dir.stats().delivered_bytes, 6u);
}

TEST(StreamDirection, OutOfOrderBufferedThenDrained) {
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1}));
  auto gap = dir.on_segment(2, seg(103), bytes({4, 5}));
  EXPECT_TRUE(gap.empty());
  EXPECT_EQ(dir.stats().out_of_order, 1u);
  auto c = dir.on_segment(3, seg(101), bytes({2, 3}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({2, 3, 4, 5}));
  EXPECT_EQ(dir.stats().delivered_bytes, 5u);
}

TEST(StreamDirection, SequenceWraparound) {
  TcpStreamDirection dir;
  std::uint32_t near_max = 0xfffffffe;
  auto c1 = dir.on_segment(1, seg(near_max), bytes({1, 2, 3, 4}));
  ASSERT_EQ(c1.size(), 1u);
  auto c2 = dir.on_segment(2, seg(near_max + 4), bytes({5, 6}));  // wraps to 2
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_EQ(c2[0].data, bytes({5, 6}));
}

TEST(StreamDirection, StaleBufferedSegmentDropped) {
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1}));
  dir.on_segment(2, seg(102), bytes({3}));      // buffered
  dir.on_segment(3, seg(102), bytes({3, 4}));   // longer duplicate, replaces
  auto c = dir.on_segment(4, seg(101), bytes({2}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({2, 3, 4}));
}

TEST(StreamDirection, PendingCapAbandonsHoleAndSkipsAhead) {
  ReassemblyLimits limits;
  limits.max_pending_segments = 2;
  TcpStreamDirection dir(limits);
  dir.on_segment(1, seg(100), bytes({1}));  // next_seq_ = 101
  // A hole at 101; three out-of-order segments exceed the 2-segment cap.
  EXPECT_TRUE(dir.on_segment(2, seg(105), bytes({5})).empty());
  EXPECT_TRUE(dir.on_segment(3, seg(106), bytes({6})).empty());
  auto c = dir.on_segment(4, seg(107), bytes({7}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({5, 6, 7}));  // delivered past the abandoned hole
  EXPECT_EQ(dir.stats().gaps_skipped, 1u);
  EXPECT_EQ(dir.stats().lost_bytes, 4u);  // seq 101..104 never arrived
}

TEST(StreamDirection, PendingByteCapBoundsMemory) {
  ReassemblyLimits limits;
  limits.max_pending_bytes = 8;
  TcpStreamDirection dir(limits);
  dir.on_segment(1, seg(100), bytes({1}));
  EXPECT_TRUE(dir.on_segment(2, seg(110), bytes({1, 2, 3, 4, 5, 6})).empty());
  auto c = dir.on_segment(3, seg(116), bytes({7, 8, 9}));  // 9 pending bytes > 8
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data.size(), 9u);
  EXPECT_EQ(dir.stats().gaps_skipped, 1u);
  EXPECT_EQ(dir.stats().lost_bytes, 9u);  // hole 101..109
}

TEST(StreamDirection, WildSegmentBeyondWindowIsDiscarded) {
  // A corrupted sequence number lands a "segment" ~2^31 ahead of the
  // stream. It must be dropped — not buffered as a 2 GiB hole that later
  // inflates lost_bytes when the cap forces a skip-ahead.
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1}));
  EXPECT_TRUE(dir.on_segment(2, seg(100 + (1u << 31)), bytes({9})).empty());
  EXPECT_EQ(dir.stats().wild_segments, 1u);
  EXPECT_EQ(dir.stats().out_of_order, 0u);
  // The stream continues unharmed and flush() finds nothing pending.
  auto c = dir.on_segment(3, seg(101), bytes({2}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_TRUE(dir.flush(4).empty());
  EXPECT_EQ(dir.stats().lost_bytes, 0u);
}

TEST(StreamDirection, FlushDeliversTailBehindUnfilledHole) {
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1, 2}));
  EXPECT_TRUE(dir.on_segment(2, seg(105), bytes({6, 7})).empty());  // hole 102..104
  auto c = dir.flush(3);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({6, 7}));
  EXPECT_EQ(dir.stats().gaps_skipped, 1u);
  EXPECT_EQ(dir.stats().lost_bytes, 3u);
  EXPECT_TRUE(dir.flush(4).empty());  // idempotent
}

TEST(StreamDirection, SequenceWrapWithPendingHole) {
  TcpStreamDirection dir;
  std::uint32_t near_max = 0xfffffffd;
  auto c1 = dir.on_segment(1, seg(near_max), bytes({1, 2}));  // next wraps to 0xffffffff
  ASSERT_EQ(c1.size(), 1u);
  // Out-of-order segment on the far side of the wrap (seq 1).
  EXPECT_TRUE(dir.on_segment(2, seg(1), bytes({4, 5})).empty());
  // The hole-filler spans the wrap: 0xffffffff..0.
  auto c2 = dir.on_segment(3, seg(near_max + 2), bytes({3, 3}));
  ASSERT_EQ(c2.size(), 1u);
  EXPECT_EQ(c2[0].data, bytes({3, 3, 4, 5}));
  EXPECT_EQ(dir.stats().lost_bytes, 0u);
}

TEST(StreamDirection, ResetDropsPendingAndReanchors) {
  TcpStreamDirection dir;
  dir.on_segment(1, seg(100), bytes({1}));
  EXPECT_TRUE(dir.on_segment(2, seg(105), bytes({9, 9})).empty());
  dir.on_reset(3);
  EXPECT_EQ(dir.stats().resets, 1u);
  EXPECT_EQ(dir.stats().aborted_with_pending, 1u);
  EXPECT_EQ(dir.stats().lost_bytes, 2u);  // the buffered bytes died with the RST
  // A reused tuple starts a fresh stream at an unrelated sequence number.
  auto c = dir.on_segment(4, seg(5000), bytes({42}));
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].data, bytes({42}));
}

TEST(Reassembler, RstMidStreamResetsBothDirections) {
  std::vector<std::uint8_t> delivered;
  TcpReassembler r([&](const FlowKey&, Timestamp,
                       std::span<const std::uint8_t> data) {
    delivered.insert(delivered.end(), data.begin(), data.end());
  });

  DecodedFrame fwd;
  fwd.ip.src = Ipv4Addr::parse("10.0.0.1").value();
  fwd.ip.dst = Ipv4Addr::parse("10.1.0.2").value();
  fwd.tcp = seg(100);
  fwd.tcp.src_port = 5000;
  fwd.tcp.dst_port = 2404;
  std::uint8_t d1[] = {1, 2};
  fwd.payload = d1;
  r.add(1, fwd);

  DecodedFrame rst = fwd;
  rst.tcp = seg(102, kTcpRst | kTcpAck);
  rst.tcp.src_port = 5000;
  rst.tcp.dst_port = 2404;
  rst.payload = {};
  r.add(2, rst);
  EXPECT_EQ(r.totals().resets, 1u);

  // Data continuing after the reset re-anchors instead of being dropped.
  DecodedFrame cont = fwd;
  cont.tcp = seg(102);
  cont.tcp.src_port = 5000;
  cont.tcp.dst_port = 2404;
  std::uint8_t d2[] = {3};
  cont.payload = d2;
  r.add(3, cont);
  EXPECT_EQ(delivered, bytes({1, 2, 3}));
}

TEST(Reassembler, FlushDrainsEveryDirection) {
  std::size_t chunks = 0;
  TcpReassembler r([&](const FlowKey&, Timestamp, std::span<const std::uint8_t>) {
    ++chunks;
  });
  DecodedFrame f;
  f.ip.src = Ipv4Addr::parse("10.0.0.1").value();
  f.ip.dst = Ipv4Addr::parse("10.1.0.2").value();
  f.tcp = seg(200);
  f.tcp.src_port = 1;
  f.tcp.dst_port = 2404;
  std::uint8_t d[] = {1};
  f.payload = d;
  r.add(1, f);            // in order, delivered
  f.tcp.seq = 205;        // hole at 201..204
  r.add(2, f);
  EXPECT_EQ(chunks, 1u);
  r.flush(3);
  EXPECT_EQ(chunks, 2u);
  EXPECT_EQ(r.totals().gaps_skipped, 1u);
  EXPECT_EQ(r.totals().lost_bytes, 4u);
}

TEST(Reassembler, RoutesPerDirection) {
  std::map<std::string, std::vector<std::uint8_t>> streams;
  TcpReassembler r([&](const FlowKey& key, Timestamp,
                       std::span<const std::uint8_t> data) {
    auto& s = streams[key.str()];
    s.insert(s.end(), data.begin(), data.end());
  });

  DecodedFrame fwd;
  fwd.ip.src = Ipv4Addr::parse("10.0.0.1").value();
  fwd.ip.dst = Ipv4Addr::parse("10.1.0.2").value();
  fwd.tcp = seg(100);
  fwd.tcp.src_port = 5000;
  fwd.tcp.dst_port = 2404;
  std::uint8_t d1[] = {1, 2};
  fwd.payload = d1;
  r.add(1, fwd);

  DecodedFrame rev;
  rev.ip.src = fwd.ip.dst;
  rev.ip.dst = fwd.ip.src;
  rev.tcp = seg(500);
  rev.tcp.src_port = 2404;
  rev.tcp.dst_port = 5000;
  std::uint8_t d2[] = {9};
  rev.payload = d2;
  r.add(2, rev);

  ASSERT_EQ(streams.size(), 2u);
  EXPECT_EQ(streams["10.0.0.1:5000 -> 10.1.0.2:2404"], bytes({1, 2}));
  EXPECT_EQ(streams["10.1.0.2:2404 -> 10.0.0.1:5000"], bytes({9}));
  EXPECT_EQ(r.totals().retransmissions, 0u);

  r.add(3, fwd);  // duplicate
  EXPECT_EQ(r.totals().retransmissions, 1u);
  FlowKey key{fwd.ip.src, 5000, fwd.ip.dst, 2404};
  EXPECT_EQ(r.retransmissions_for(key), 1u);
  EXPECT_EQ(r.retransmissions_for(key.reversed()), 0u);
}

// pending_bytes() is a running total; this reference model recounts it
// from scratch after every operation. The model is a plain map of stream
// directions fed the same segments, flushes, evictions (largest slab
// first, ties to the lowest key), copies and checkpoint round trips.
TEST(Reassembler, PendingBytesTotalMatchesFullSumUnderRandomOps) {
  using Model = std::map<FlowKey, TcpStreamDirection>;
  auto model_sum = [](const Model& model) {
    std::size_t total = 0;
    for (const auto& [key, dir] : model) total += dir.slab_bytes();
    return total;
  };
  auto noop = [](Timestamp, std::span<const std::uint8_t>) {};
  const std::vector<std::uint8_t> payload(600, 0x5a);

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<FlowKey> keys;
    for (std::uint32_t c = 0; c < 4; ++c) {
      FlowKey k{Ipv4Addr{0x0a000001}, static_cast<std::uint16_t>(50000 + c),
                Ipv4Addr{0x0a010000 + c}, 2404};
      keys.push_back(k);
      keys.push_back(k.reversed());
    }
    std::map<FlowKey, std::uint32_t> frontier;
    for (const auto& k : keys) frontier[k] = static_cast<std::uint32_t>(rng.next_u64());

    auto r = std::make_unique<TcpReassembler>(nullptr);
    Model model;
    std::size_t evictions = 0;
    for (int op = 0; op < 3000; ++op) {
      const Timestamp ts = static_cast<Timestamp>(op);
      const std::uint64_t pick = rng.below(100);
      if (pick < 86) {
        const FlowKey& key = keys[rng.below(keys.size())];
        std::uint32_t& front = frontier[key];
        front += static_cast<std::uint32_t>(rng.below(300));
        DecodedFrame f;
        f.ip.src = key.src_ip;
        f.ip.dst = key.dst_ip;
        f.tcp = seg(front - 2000 + static_cast<std::uint32_t>(rng.below(4000)),
                    rng.below(100) < 3 ? kTcpRst | kTcpAck : kTcpAck);
        f.tcp.src_port = key.src_port;
        f.tcp.dst_port = key.dst_port;
        f.payload = std::span<const std::uint8_t>(payload).first(rng.below(payload.size()));
        r->add(ts, f);
        auto& dir = model[key];
        dir.deliver_segment(ts, f.tcp, f.payload, noop);
        if (f.tcp.rst()) {
          dir.on_reset(ts);
          auto rev = model.find(key.reversed());
          if (rev != model.end()) rev->second.on_reset(ts);
        }
      } else if (pick < 90) {
        r->flush(ts);
        for (auto& [key, dir] : model) dir.flush(ts);
      } else if (pick < 95) {
        const std::size_t max_bytes = rng.below(model_sum(model) + 1);
        std::size_t expected = 0;
        while (model_sum(model) > max_bytes) {
          TcpStreamDirection* victim = nullptr;
          for (auto& [key, dir] : model) {
            if (dir.slab_bytes() == 0) continue;
            if (victim == nullptr || dir.slab_bytes() > victim->slab_bytes()) victim = &dir;
          }
          if (victim == nullptr) break;
          victim->flush(ts);
          ++expected;
        }
        EXPECT_EQ(r->evict_pending(ts, max_bytes), expected);
        evictions += expected;
      } else if (pick < 98) {
        r = std::make_unique<TcpReassembler>(*r, nullptr);
        Model copy(model);
        model = std::move(copy);
      } else {
        ByteWriter w;
        r->save(w);
        r = std::make_unique<TcpReassembler>(nullptr);
        ByteReader reader(w.view());
        ASSERT_TRUE(r->load(reader).ok());
        Model loaded;
        for (const auto& [key, dir] : model) {
          ByteWriter dw;
          dir.save(dw);
          ByteReader dr(dw.view());
          auto back = TcpStreamDirection::load(dr, {});
          ASSERT_TRUE(back.ok());
          loaded.emplace(key, std::move(back).take());
        }
        model = std::move(loaded);
      }
      ASSERT_EQ(r->pending_bytes(), model_sum(model)) << "after op " << op;
    }
    EXPECT_GT(evictions, 0u);
  }
}

}  // namespace
}  // namespace uncharted::net
