#include "core/profiler.hpp"

#include <gtest/gtest.h>

#include "sim/capture.hpp"
#include "tests/analysis/testlib.hpp"

namespace uncharted::core {
namespace {

using testlib::CaptureBuilder;
using testlib::float_asdu;
using testlib::i_apdu;
using testlib::ip;

struct Shared {
  sim::CaptureResult capture;
  analysis::CaptureDataset dataset;
  NetworkProfiler profiler;

  Shared()
      : capture(sim::generate_capture(sim::CaptureConfig::y1(240.0))),
        dataset(analysis::CaptureDataset::build(net::as_frame_views(capture.packets))) {
    profiler.learn(dataset);
  }
};

const Shared& shared() {
  static const Shared s;
  return s;
}

TEST(Profiler, LearnsTheFleet) {
  EXPECT_GT(shared().profiler.known_stations(), 30u);
  EXPECT_GT(shared().profiler.sequence_model().vocabulary_size(), 5u);
}

TEST(Profiler, BenignRerunIsQuiet) {
  // Same traffic it learned from: value/typeID/IOA whitelists must hold.
  auto anomalies = shared().profiler.detect(shared().dataset);
  for (const auto& a : anomalies) {
    EXPECT_NE(a.kind, AnomalyKind::kUnknownStation) << a.description;
    EXPECT_NE(a.kind, AnomalyKind::kUnknownTypeId) << a.description;
    EXPECT_NE(a.kind, AnomalyKind::kUnknownIoa) << a.description;
    EXPECT_NE(a.kind, AnomalyKind::kValueOutOfRange) << a.description;
  }
}

TEST(Profiler, DetectsRogueStation) {
  CaptureBuilder cb;
  cb.apdu(1000, ip(10, 0, 0, 1), ip(192, 168, 66, 66), true,
          i_apdu(float_asdu(666, 1, 1.0f)));
  auto rogue = analysis::CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto anomalies = shared().profiler.detect(rogue);
  ASSERT_FALSE(anomalies.empty());
  EXPECT_EQ(anomalies[0].kind, AnomalyKind::kUnknownStation);
}

TEST(Profiler, DetectsIndustroyerStyleInterrogation) {
  // Industroyer's recon phase: interrogation commands from a host that
  // never interrogated during learning (paper §6.3.1 discussion).
  const auto& topo = shared().capture.topology;
  const auto* o5 = topo.find_outstation(5);

  CaptureBuilder cb;
  iec104::Asdu gi;
  gi.type = iec104::TypeId::C_IC_NA_1;
  gi.cot.cause = iec104::Cause::kActivation;
  gi.common_address = 5;
  gi.objects.push_back({0, iec104::InterrogationCommand{20}, std::nullopt});
  // Attacker machine at a known-server-like address issues the GI.
  cb.apdu(1000, ip(10, 0, 0, 99), o5->ip, false, i_apdu(gi));
  auto attack = analysis::CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto anomalies = shared().profiler.detect(attack);
  bool flagged = false;
  for (const auto& a : anomalies) {
    if (a.kind == AnomalyKind::kUnexpectedInterrogation ||
        a.kind == AnomalyKind::kUnknownStation) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(Profiler, DetectsNewTypeIdFromKnownStation) {
  const auto& topo = shared().capture.topology;
  const auto* o5 = topo.find_outstation(5);
  CaptureBuilder cb;
  // O5 never sent integrated totals (I15) during learning.
  iec104::Asdu it;
  it.type = iec104::TypeId::M_IT_NA_1;
  it.cot.cause = iec104::Cause::kSpontaneous;
  it.common_address = 5;
  it.objects.push_back({1001, iec104::IntegratedTotals{5, 0}, std::nullopt});
  cb.apdu(1000, ip(10, 0, 0, 2), o5->ip, true, i_apdu(it));
  auto anomalies =
      shared().profiler.detect(analysis::CaptureDataset::build(net::as_frame_views(cb.packets())));
  bool flagged = false;
  for (const auto& a : anomalies) {
    if (a.kind == AnomalyKind::kUnknownTypeId) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(Profiler, DetectsUnknownIoa) {
  const auto& sh = shared();
  const auto* o1 = sh.capture.topology.find_outstation(1);
  CaptureBuilder cb;
  cb.apdu(1000, ip(10, 0, 0, 1), o1->ip, true,
          i_apdu(float_asdu(1, 999'999, 1.0f)));
  auto anomalies = sh.profiler.detect(analysis::CaptureDataset::build(net::as_frame_views(cb.packets())));
  bool flagged = false;
  for (const auto& a : anomalies) {
    if (a.kind == AnomalyKind::kUnknownIoa) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(Profiler, DetectsOutOfRangeValue) {
  const auto& sh = shared();
  // Find a learned float series and report a wild value on its IOA.
  const auto* o1 = sh.capture.topology.find_outstation(1);
  std::uint32_t ioa = 0;
  for (const auto& sig : sh.capture.truth.signals) {
    if (sig.outstation_id == 1 && (sig.type_id == 13 || sig.type_id == 36)) {
      ioa = sig.ioa;
      break;
    }
  }
  ASSERT_NE(ioa, 0u);
  CaptureBuilder cb;
  cb.apdu(1000, ip(10, 0, 0, 1), o1->ip, true, i_apdu(float_asdu(1, ioa, 1e7f)));
  auto anomalies = sh.profiler.detect(analysis::CaptureDataset::build(net::as_frame_views(cb.packets())));
  bool flagged = false;
  for (const auto& a : anomalies) {
    if (a.kind == AnomalyKind::kValueOutOfRange) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

TEST(Profiler, DetectsSpecViolations) {
  const auto& sh = shared();
  const auto* o1 = sh.capture.topology.find_outstation(1);
  CaptureBuilder cb;
  // A measured value "sent" by the control server: wrong direction.
  cb.apdu(1000, ip(10, 0, 0, 1), o1->ip, false, i_apdu(float_asdu(1, 1101, 60.0f)));
  // A command with a periodic cause: cause mismatch.
  iec104::Asdu weird;
  weird.type = iec104::TypeId::C_SE_NC_1;
  weird.cot.cause = iec104::Cause::kPeriodic;
  weird.common_address = 1;
  weird.objects.push_back({9001, iec104::SetpointFloat{1.0f, 0}, std::nullopt});
  cb.apdu(2000, ip(10, 0, 0, 1), o1->ip, false, i_apdu(weird));
  auto anomalies = sh.profiler.detect(analysis::CaptureDataset::build(net::as_frame_views(cb.packets())));
  int spec = 0;
  for (const auto& a : anomalies) {
    if (a.kind == AnomalyKind::kSpecViolation) ++spec;
  }
  EXPECT_GE(spec, 2);
}

TEST(Profiler, BenignTrafficHasNoSpecViolations) {
  auto anomalies = shared().profiler.detect(shared().dataset);
  for (const auto& a : anomalies) {
    EXPECT_NE(a.kind, AnomalyKind::kSpecViolation) << a.description;
  }
}

TEST(Profiler, AnomalyKindNames) {
  EXPECT_EQ(anomaly_kind_name(AnomalyKind::kUnknownStation), "unknown-station");
  EXPECT_EQ(anomaly_kind_name(AnomalyKind::kUnseenTransition), "unseen-transition");
}

}  // namespace
}  // namespace uncharted::core
