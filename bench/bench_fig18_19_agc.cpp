// E11 — Figs 18-19: the unmet-load event and the AGC response, recovered
// purely from the network tap via deep packet inspection.
#include "analysis/physical.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E11: Unmet load and AGC response", "Fig 18, Fig 19");

  auto y1 = bench::y1_capture();
  core::NameMap names = core::name_map(y1.topology);
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  auto series = analysis::extract_time_series(ds);
  auto setpoints = analysis::extract_setpoint_series(ds);

  std::printf("ground truth: load lost at t=%.0fs, restored at t=%.0fs\n\n",
              y1.truth.load_loss_at_s, y1.truth.load_restore_at_s);

  // Normalized-variance screen (the paper's method for finding the event).
  auto ranking = analysis::rank_by_normalized_variance(series);
  std::printf("top movers by normalized variance (the paper's event screen):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, ranking.size()); ++i) {
    const auto& r = ranking[i];
    std::printf("  %-18s ioa=%-6u I%-3d nvar=%.4f (%zu samples)\n",
                core::name_of(names, r.key.station).c_str(), r.key.ioa, r.type_id,
                r.normalized_variance, r.samples);
  }

  // Fig 19: AGC setpoint series vs generator active-power response.
  std::printf("\nFig 19: AGC set points and generator response\n");
  Timestamp t0 = y1.truth.start_ts;
  for (const auto& [station_ip, sp] : setpoints) {
    if (sp.points.size() < 3) continue;
    std::printf("  %s AGC-SP series (%zu commands):", core::name_of(names, station_ip).c_str(),
                sp.points.size());
    for (std::size_t i = 0; i < std::min<std::size_t>(6, sp.points.size()); ++i) {
      std::printf(" %.0fs:%.1fMW", to_seconds(static_cast<DurationUs>(sp.points[i].ts - t0)),
                  sp.points[i].value);
    }
    std::printf("\n");

    // Correlate with the station's best-matching P series.
    double best_corr = 0.0;
    for (const auto& [key, ts] : series) {
      if (key.station != station_ip || ts.points.size() < 5) continue;
      double corr = analysis::setpoint_response_correlation(sp, ts, 10.0);
      if (corr > best_corr) best_corr = corr;
    }
    std::printf("    best setpoint->telemetry correlation (10 s lag): %.3f\n", best_corr);
  }

  // Frequency trace around the event: generators react to the load loss.
  std::printf("\nFig 18 (shape): a frequency series around the load-loss event\n");
  for (const auto& [key, ts] : series) {
    // Frequency series hover near 60.
    if (ts.points.size() < 20) continue;
    if (ts.min_value() < 59.0 || ts.max_value() > 61.5) continue;
    if (ts.max_value() - ts.min_value() < 0.02) continue;
    double before = 0, during = 0;
    int nb = 0, nd = 0;
    for (const auto& p : ts.points) {
      double rel = to_seconds(static_cast<DurationUs>(p.ts - t0));
      if (rel < y1.truth.load_loss_at_s) {
        before += p.value;
        ++nb;
      } else if (rel < y1.truth.load_restore_at_s) {
        during += p.value;
        ++nd;
      }
    }
    if (nb < 3 || nd < 3) continue;
    std::printf("  %s ioa=%u: mean f before=%.4f Hz, during unmet load=%.4f Hz (%+.4f)\n",
                core::name_of(names, key.station).c_str(), key.ioa, before / nb,
                during / nd, during / nd - before / nb);
    break;
  }
  std::printf("\n(paper: lost load raises frequency; AGC asks generators to reduce "
              "output until the load reconnects)\n");
  return 0;
}
