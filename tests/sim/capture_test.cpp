#include "sim/capture.hpp"

#include <algorithm>
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "analysis/dataset.hpp"
#include "net/frame.hpp"
#include "net/mapping.hpp"

namespace uncharted::sim {
namespace {

// One shared short capture keeps the suite fast.
const CaptureResult& y1_capture() {
  static const CaptureResult capture = [] {
    CaptureConfig config = CaptureConfig::y1(240.0);
    return generate_capture(config);
  }();
  return capture;
}

TEST(Capture, ProducesDecodableTimeOrderedFrames) {
  const auto& cap = y1_capture();
  ASSERT_GT(cap.packets.size(), 1000u);
  Timestamp prev = 0;
  for (const auto& pkt : cap.packets) {
    EXPECT_GE(pkt.ts, prev);
    prev = pkt.ts;
    auto frame = net::decode_frame(pkt.data);
    ASSERT_TRUE(frame.ok()) << frame.error().str();
  }
  // Capture window respected.
  EXPECT_GE(cap.packets.front().ts, cap.truth.start_ts);
  EXPECT_LT(cap.packets.back().ts, cap.truth.start_ts + from_seconds(240.0));
}

TEST(Capture, DeterministicForSameSeed) {
  CaptureConfig config = CaptureConfig::y1(60.0);
  auto a = generate_capture(config);
  auto b = generate_capture(config);
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    ASSERT_EQ(a.packets[i].ts, b.packets[i].ts) << i;
    ASSERT_EQ(a.packets[i].data, b.packets[i].data) << i;
  }
}

TEST(Capture, DifferentSeedsDiffer) {
  CaptureConfig a = CaptureConfig::y1(60.0);
  CaptureConfig b = a;
  b.seed = 999;
  EXPECT_NE(generate_capture(a).packets.size(), generate_capture(b).packets.size());
}

TEST(Capture, GroundTruthListsY1Fleet) {
  const auto& truth = y1_capture().truth;
  EXPECT_FALSE(truth.year2);
  EXPECT_EQ(truth.outstation_ids.size(), 49u);
  EXPECT_FALSE(truth.signals.empty());
  EXPECT_GT(truth.load_loss_at_s, 0.0);
  EXPECT_GT(truth.generator_online_at_s, truth.load_loss_at_s);
  EXPECT_EQ(truth.generator_online_outstation, 31);
}

TEST(Capture, ContainsNonCompliantLegacyTraffic) {
  const auto& cap = y1_capture();
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(cap.packets));
  EXPECT_GT(ds.stats().non_compliant_apdus, 0u);
  // O37 (2-octet IOA) and O28 (1-octet COT) are the Y1 legacy devices.
  const auto* o37 = cap.topology.find_outstation(37);
  const auto* o28 = cap.topology.find_outstation(28);
  auto it37 = ds.compliance().find(o37->ip);
  ASSERT_NE(it37, ds.compliance().end());
  EXPECT_EQ(it37->second.non_compliant, it37->second.i_apdus);  // 100% invalid
  EXPECT_EQ(it37->second.profile, iec104::CodecProfile::legacy_ioa());
  auto it28 = ds.compliance().find(o28->ip);
  ASSERT_NE(it28, ds.compliance().end());
  EXPECT_EQ(it28->second.profile, iec104::CodecProfile::legacy_cot());
}

TEST(Capture, ParseCleanlyEndToEnd) {
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1_capture().packets));
  EXPECT_EQ(ds.stats().apdu_failures, 0u);
  EXPECT_GT(ds.stats().apdus, 1000u);
  EXPECT_EQ(ds.stats().undecodable_frames, 0u);
}

TEST(Capture, Y2FleetDiffers) {
  CaptureConfig config = CaptureConfig::y2(120.0);
  auto cap = generate_capture(config);
  EXPECT_EQ(cap.truth.outstation_ids.size(), 51u);
  std::set<int> ids(cap.truth.outstation_ids.begin(), cap.truth.outstation_ids.end());
  EXPECT_FALSE(ids.count(2));
  EXPECT_FALSE(ids.count(28));
  EXPECT_TRUE(ids.count(53));
  EXPECT_TRUE(ids.count(58));
}

TEST(Capture, PcapRoundTripPreservesEverything) {
  const auto& cap = y1_capture();
  std::string path =
      (std::filesystem::temp_directory_path() / "uncharted_capture_rt.pcap").string();
  ASSERT_TRUE(write_capture_pcap(cap, path).ok());
  auto mapping = net::PcapMapping::open(path);
  ASSERT_TRUE(mapping.ok());
  auto cursor = net::PcapCursor::open(mapping->bytes());
  ASSERT_TRUE(cursor.ok());
  std::vector<net::FrameView> frames;
  net::FrameView frame;
  while (cursor->next(frame)) frames.push_back(frame);
  EXPECT_FALSE(cursor->truncated_tail());
  ASSERT_EQ(frames.size(), cap.packets.size());
  for (std::size_t i = 0; i < frames.size(); i += 97) {
    EXPECT_EQ(frames[i].ts, cap.packets[i].ts);
    EXPECT_EQ(frames[i].original_length, cap.packets[i].original_length);
    EXPECT_TRUE(std::equal(frames[i].data.begin(), frames[i].data.end(),
                           cap.packets[i].data.begin(), cap.packets[i].data.end()));
  }
  std::filesystem::remove(path);
}

TEST(Capture, ContainsRefusedAndKeepAliveTraffic) {
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1_capture().packets));
  const auto& flows = ds.flow_table().flows();
  std::size_t refused = 0;
  for (const auto& f : flows) {
    if (f.syn_rejected_with_rst) ++refused;
  }
  EXPECT_GT(refused, 100u);  // the Table 3 churn

  // And U16 keep-alives flow on secondary connections.
  std::size_t u16 = 0;
  for (const auto& rec : ds.records()) {
    if (rec.apdu.token() == "U16") ++u16;
  }
  EXPECT_GT(u16, 50u);
}

TEST(Capture, ShorterDurationIsProportionallySmaller) {
  auto small = generate_capture(CaptureConfig::y1(60.0));
  EXPECT_LT(small.packets.size(), y1_capture().packets.size());
}

}  // namespace
}  // namespace uncharted::sim
