#include "sim/topology.hpp"

#include <set>

#include <gtest/gtest.h>

namespace uncharted::sim {
namespace {

class PaperTopology : public ::testing::Test {
 protected:
  Topology topo = Topology::paper_topology();
};

TEST_F(PaperTopology, FleetSizesMatchFig6) {
  EXPECT_EQ(topo.servers.size(), 4u);
  EXPECT_EQ(topo.substations.size(), 27u);
  EXPECT_EQ(topo.outstations.size(), 58u);
  std::size_t y1 = 0, y2 = 0;
  for (const auto& o : topo.outstations) {
    y1 += o.in_y1;
    y2 += o.in_y2;
  }
  EXPECT_EQ(y1, 49u);
  EXPECT_EQ(y2, 51u);
}

TEST_F(PaperTopology, Table2AddsAndRemoves) {
  // Added in Y2.
  for (int id : {50, 51, 52, 53, 54, 55, 56, 57, 58}) {
    const auto* o = topo.find_outstation(id);
    ASSERT_NE(o, nullptr) << id;
    EXPECT_FALSE(o->in_y1) << id;
    EXPECT_TRUE(o->in_y2) << id;
  }
  // Removed in Y2.
  for (int id : {2, 15, 20, 22, 28, 33, 38}) {
    const auto* o = topo.find_outstation(id);
    ASSERT_NE(o, nullptr) << id;
    EXPECT_TRUE(o->in_y1) << id;
    EXPECT_FALSE(o->in_y2) << id;
  }
}

TEST_F(PaperTopology, LegacyEncodingFlagsPerSection61) {
  EXPECT_TRUE(topo.find_outstation(37)->legacy_ioa);
  EXPECT_FALSE(topo.find_outstation(37)->legacy_cot);
  for (int id : {28, 53, 58}) {
    EXPECT_TRUE(topo.find_outstation(id)->legacy_cot) << id;
    EXPECT_FALSE(topo.find_outstation(id)->legacy_ioa) << id;
  }
  // Everyone else speaks the standard.
  int legacy = 0;
  for (const auto& o : topo.outstations) {
    if (o.legacy_cot || o.legacy_ioa) ++legacy;
  }
  EXPECT_EQ(legacy, 4);
}

TEST_F(PaperTopology, O30TimerMisconfiguration) {
  const auto* o30 = topo.find_outstation(30);
  ASSERT_TRUE(o30->secondary_t3_s.has_value());
  EXPECT_DOUBLE_EQ(*o30->secondary_t3_s, 430.0);
  // No one else has the override.
  for (const auto& o : topo.outstations) {
    if (o.id != 30) {
      EXPECT_FALSE(o.secondary_t3_s.has_value()) << o.id;
    }
  }
}

TEST_F(PaperTopology, S10HasFourteenRtus) {
  int count = 0;
  for (const auto& o : topo.outstations) {
    if (o.substation == 10) ++count;
  }
  EXPECT_EQ(count, 14);
}

TEST_F(PaperTopology, FourteenOutstationsUnchangedAcrossYears) {
  int unchanged = 0;
  for (const auto& o : topo.outstations) {
    if (o.in_y1 && o.in_y2 && o.ioa_count_y1 == o.ioa_count_y2) ++unchanged;
  }
  EXPECT_EQ(unchanged, 14);  // the paper's "14 outstations out of 58 (25%)"
}

TEST_F(PaperTopology, ResetBackupRoster) {
  // The (1,1) Markov point names ten connections; these outstations carry
  // misbehaving backup channels.
  std::set<int> misbehaving;
  for (const auto& o : topo.outstations) {
    if (o.reject_mode == BackupRejectMode::kRstReject ||
        o.reject_mode == BackupRejectMode::kAcceptThenReset) {
      misbehaving.insert(o.id);
    }
  }
  EXPECT_EQ(misbehaving, (std::set<int>{5, 6, 7, 8, 9, 15, 24, 28, 30, 35}));
}

TEST_F(PaperTopology, SilentIgnoreOnlyOnY1Departures) {
  for (const auto& o : topo.outstations) {
    if (o.reject_mode == BackupRejectMode::kSilentIgnore) {
      EXPECT_TRUE(o.in_y1 && !o.in_y2) << o.id;
    }
  }
}

TEST_F(PaperTopology, ServerAssignments) {
  const auto* o5 = topo.find_outstation(5);
  EXPECT_EQ(topo.primary_server(*o5).name, "C1");
  EXPECT_EQ(topo.backup_server(*o5).name, "C2");
  const auto* o10 = topo.find_outstation(10);
  EXPECT_EQ(topo.primary_server(*o10).name, "C3");
  EXPECT_EQ(topo.backup_server(*o10).name, "C4");
}

TEST_F(PaperTopology, UniqueIpsAndIds) {
  std::set<std::uint32_t> ips;
  std::set<int> ids;
  for (const auto& o : topo.outstations) {
    EXPECT_TRUE(ips.insert(o.ip.value).second) << o.name();
    EXPECT_TRUE(ids.insert(o.id).second) << o.name();
  }
  for (const auto& s : topo.servers) {
    EXPECT_TRUE(ips.insert(s.ip.value).second) << s.name;
  }
  EXPECT_EQ(ids.size(), 58u);
}

TEST_F(PaperTopology, AuxiliarySubstationsHaveNoGenerator) {
  EXPECT_FALSE(topo.substations[1].has_generator);  // S2
  int aux = 0;
  for (const auto& s : topo.substations) {
    if (!s.has_generator) ++aux;
  }
  EXPECT_EQ(aux, 3);  // "a few" auxiliary substations
}

TEST_F(PaperTopology, BackupRtuShareMatchesFig17) {
  // Pure backup RTUs (types 3 and 7) should be roughly a third of the
  // fleet, with type 7 about a quarter of the backups.
  int type3 = 0, type7 = 0;
  for (const auto& o : topo.outstations) {
    if (o.type == OutstationType::kType3_BackupOnly) ++type3;
    if (o.type == OutstationType::kType7_ResetBackup) ++type7;
  }
  double backup_share = static_cast<double>(type3 + type7) / 58.0;
  EXPECT_NEAR(backup_share, 0.45, 0.12);
  double type7_share = static_cast<double>(type7) / (type3 + type7);
  EXPECT_NEAR(type7_share, 0.25, 0.08);
}

}  // namespace
}  // namespace uncharted::sim
