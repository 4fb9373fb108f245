#include "analysis/physical.hpp"

#include <gtest/gtest.h>

#include "tests/analysis/testlib.hpp"

namespace uncharted::analysis {
namespace {

using testlib::CaptureBuilder;
using testlib::float_asdu;
using testlib::i_apdu;
using testlib::ip;

TimeSeries series_from(std::initializer_list<std::pair<double, double>> pts,
                       std::uint8_t type = 13) {
  TimeSeries s;
  s.type_id = type;
  for (const auto& [t, v] : pts) {
    s.points.push_back(SeriesPoint{from_seconds(t), v});
  }
  return s;
}

TEST(Physical, ExtractsSeriesFromMonitorTraffic) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  for (int i = 0; i < 5; ++i) {
    cb.apdu(static_cast<Timestamp>(i) * 2'000'000, server, station, true,
            i_apdu(float_asdu(5, 1001, 130.0f + static_cast<float>(i)),
                   static_cast<std::uint16_t>(i), 0));
  }
  // Command traffic must not create series.
  iec104::Asdu sp;
  sp.type = iec104::TypeId::C_SE_NC_1;
  sp.cot.cause = iec104::Cause::kActivation;
  sp.common_address = 5;
  sp.objects.push_back({9001, iec104::SetpointFloat{42.0f, 0}, std::nullopt});
  cb.apdu(11'000'000, server, station, false, i_apdu(sp));

  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto series = extract_time_series(ds);
  ASSERT_EQ(series.size(), 1u);
  const auto& ts = series.begin()->second;
  EXPECT_EQ(ts.type_id, 13);
  ASSERT_EQ(ts.points.size(), 5u);
  EXPECT_EQ(ts.points.front().value, 130.0);
  EXPECT_EQ(ts.points.back().value, 134.0);
  EXPECT_EQ(ts.min_value(), 130.0);
  EXPECT_EQ(ts.max_value(), 134.0);

  auto setpoints = extract_setpoint_series(ds);
  ASSERT_EQ(setpoints.size(), 1u);
  EXPECT_EQ(setpoints.begin()->first, station);
  EXPECT_EQ(setpoints.begin()->second.points[0].value, 42.0);
}

TEST(Physical, TimeTagPreferredOverCaptureTime) {
  CaptureBuilder cb;
  auto server = ip(10, 0, 0, 1);
  auto station = ip(10, 1, 0, 5);
  iec104::Asdu tf = float_asdu(5, 1001, 1.0f, iec104::TypeId::M_ME_TF_1);
  Timestamp tagged = 1560556800ULL * 1'000'000;
  tf.objects[0].time = iec104::Cp56Time2a::from_timestamp(tagged);
  cb.apdu(999, server, station, true, i_apdu(tf));
  auto ds = CaptureDataset::build(net::as_frame_views(cb.packets()));
  auto series = extract_time_series(ds);
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series.begin()->second.points[0].ts, tagged);
}

TEST(Physical, NormalizedVarianceRankingFlagsTheMover) {
  std::map<SeriesKey, TimeSeries> series;
  SeriesKey stable{ip(10, 1, 0, 5), 1};
  SeriesKey mover{ip(10, 1, 0, 6), 2};
  series[stable] = series_from({{0, 100}, {1, 100.1}, {2, 99.9}, {3, 100},
                                {4, 100.05}, {5, 99.95}, {6, 100}, {7, 100}});
  series[mover] = series_from({{0, 0}, {1, 0}, {2, 0}, {3, 60}, {4, 120},
                               {5, 120}, {6, 121}, {7, 119}});
  auto ranking = rank_by_normalized_variance(series, 8);
  ASSERT_EQ(ranking.size(), 2u);
  EXPECT_EQ(ranking[0].key, mover);
  EXPECT_GT(ranking[0].normalized_variance, 10 * ranking[1].normalized_variance);
}

TEST(Physical, RankingSkipsShortSeries) {
  std::map<SeriesKey, TimeSeries> series;
  series[SeriesKey{ip(10, 1, 0, 5), 1}] = series_from({{0, 1}, {1, 2}});
  EXPECT_TRUE(rank_by_normalized_variance(series, 8).empty());
}

TEST(Physical, GeneratorActivationSignatureDetected) {
  // The Fig 20 trajectory.
  TimeSeries voltage = series_from({{0, 0},    {10, 0},   {20, 40},  {30, 80},
                                    {40, 120}, {50, 130}, {60, 130}, {70, 130},
                                    {80, 130}, {90, 130}});
  TimeSeries status = series_from({{0, 0}, {75, 2}}, 31);
  TimeSeries power = series_from({{0, 0}, {40, 0}, {60, 0}, {78, 5}, {85, 25}});
  auto result = detect_generator_activation(voltage, status, power, 130.0);
  EXPECT_TRUE(result.complete);
  EXPECT_LT(result.voltage_ramp_at, result.synchronized_at);
  EXPECT_LT(result.synchronized_at, result.breaker_closed_at);
  EXPECT_LE(result.breaker_closed_at, result.power_ramp_at);
  // Trajectory walks the full legal order.
  ASSERT_EQ(result.trajectory.size(), 5u);
  EXPECT_EQ(result.trajectory.front(), SignatureState::kIdle);
  EXPECT_EQ(result.trajectory.back(), SignatureState::kPowerRamp);
}

TEST(Physical, ActivationIncompleteWithoutBreakerClose) {
  TimeSeries voltage = series_from({{0, 0}, {20, 60}, {40, 130}, {60, 130}, {80, 130}});
  TimeSeries status = series_from({{0, 0}}, 31);  // never closes
  TimeSeries power = series_from({{0, 0}, {80, 0}});
  auto result = detect_generator_activation(voltage, status, power, 130.0);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.trajectory.back(), SignatureState::kSynchronized);
}

TEST(Physical, ActivationRejectsPowerBeforeBreaker) {
  // Power appearing while the breaker reads open is NOT the legal
  // signature: the machine must stall before kPowerRamp.
  TimeSeries voltage = series_from({{0, 0}, {20, 130}, {40, 130}, {60, 130}});
  TimeSeries status = series_from({{0, 0}}, 31);
  TimeSeries power = series_from({{0, 0}, {30, 50}});
  auto result = detect_generator_activation(voltage, status, power, 130.0);
  EXPECT_FALSE(result.complete);
}

TEST(Physical, SetpointResponseCorrelation) {
  // Power follows setpoints with ~10 s lag.
  TimeSeries setpoints = series_from({{0, 100}, {30, 120}, {60, 90}, {90, 140},
                                      {120, 80}, {150, 130}},
                                     50);
  TimeSeries power;
  power.type_id = 13;
  for (const auto& sp : setpoints.points) {
    power.points.push_back(SeriesPoint{sp.ts + from_seconds(10.0), sp.value + 0.5});
  }
  double r = setpoint_response_correlation(setpoints, power, 10.0);
  EXPECT_GT(r, 0.95);

  // Uncorrelated response.
  TimeSeries flat = series_from({{10, 100}, {40, 100}, {70, 100}, {100, 100},
                                 {130, 100}, {160, 100}});
  EXPECT_LT(setpoint_response_correlation(setpoints, flat, 10.0), 0.5);
}

TEST(Physical, LargestStepFindsTheJump) {
  TimeSeries v = series_from({{0, 0.2}, {10, 0.3}, {20, 120.0}, {30, 120.4}});
  auto step = largest_step(v);
  ASSERT_TRUE(step.has_value());
  EXPECT_NEAR(step->delta, 119.7, 1e-9);
  EXPECT_EQ(step->at, from_seconds(20.0));
  EXPECT_FALSE(largest_step(series_from({{0, 1}})).has_value());
}

}  // namespace
}  // namespace uncharted::analysis
