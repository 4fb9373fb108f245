// E12 — Figs 20-21: the generator-synchronization signature, detected from
// the tap with the Fig 21 state machine.
#include "analysis/physical.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E12: Generator synchronization signature", "Fig 20, Fig 21");

  auto y1 = bench::y1_capture();
  core::NameMap names = core::name_map(y1.topology);
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  auto series = analysis::extract_time_series(ds);

  const auto* o31 = y1.topology.find_outstation(31);
  std::printf("ground truth: O31's generator begins startup at t=%.0fs\n\n",
              y1.truth.generator_online_at_s);

  // Gather O31's voltage / status / power series.
  const analysis::TimeSeries* voltage = nullptr;
  const analysis::TimeSeries* status = nullptr;
  const analysis::TimeSeries* power = nullptr;
  std::map<std::uint32_t, power::PhysicalSymbol> sig_map;
  for (const auto& sig : y1.truth.signals) {
    if (sig.outstation_id == 31) sig_map[sig.ioa] = sig.symbol;
  }
  for (const auto& [key, ts] : series) {
    if (key.station != o31->ip) continue;
    auto it = sig_map.find(key.ioa);
    if (it == sig_map.end()) continue;
    switch (it->second) {
      case power::PhysicalSymbol::kVoltage:
        if (!voltage || ts.points.size() > voltage->points.size()) voltage = &ts;
        break;
      case power::PhysicalSymbol::kStatus:
        if (!status || ts.points.size() > status->points.size()) status = &ts;
        break;
      case power::PhysicalSymbol::kActivePower:
        if (!power || ts.points.size() > power->points.size()) power = &ts;
        break;
      default:
        break;
    }
  }
  if (!voltage || !status || !power) {
    std::printf("missing series: voltage=%p status=%p power=%p\n",
                static_cast<const void*>(voltage), static_cast<const void*>(status),
                static_cast<const void*>(power));
    return 1;
  }

  Timestamp t0 = y1.truth.start_ts;
  auto rel = [&](Timestamp ts) {
    return to_seconds(static_cast<DurationUs>(ts - t0));
  };

  // Fig 20: print the three aligned series (decimated).
  std::printf("Fig 20 series for O31 (time, value) — decimated:\n");
  auto dump = [&](const char* label, const analysis::TimeSeries& ts) {
    std::printf("  %-8s", label);
    std::size_t step = std::max<std::size_t>(1, ts.points.size() / 10);
    for (std::size_t i = 0; i < ts.points.size(); i += step) {
      std::printf(" %.0fs:%.1f", rel(ts.points[i].ts), ts.points[i].value);
    }
    std::printf("\n");
  };
  dump("U [kV]", *voltage);
  dump("status", *status);
  dump("P [MW]", *power);

  // Fig 21: run the signature state machine.
  auto activation = analysis::detect_generator_activation(*voltage, *status, *power);
  std::printf("\nFig 21 state machine trajectory:\n  ");
  for (std::size_t i = 0; i < activation.trajectory.size(); ++i) {
    std::printf("%s%s", i ? " -> " : "",
                analysis::signature_state_name(activation.trajectory[i]).c_str());
  }
  std::printf("\n");
  if (activation.complete) {
    std::printf("legal activation detected:\n");
    std::printf("  voltage ramp at   t=%.0fs\n", rel(activation.voltage_ramp_at));
    std::printf("  synchronized at   t=%.0fs\n", rel(activation.synchronized_at));
    std::printf("  breaker closed at t=%.0fs (status 0 -> 2)\n",
                rel(activation.breaker_closed_at));
    std::printf("  power ramp at     t=%.0fs\n", rel(activation.power_ramp_at));
  } else {
    std::printf("no complete activation signature found\n");
  }

  auto cmp = bench::comparison_table("\nPaper vs measured");
  bench::compare_row(cmp, "voltage jump", "0 -> ~120-130 kV",
                     format_double(voltage->min_value(), 1) + " -> " +
                         format_double(voltage->max_value(), 1) + " kV");
  bench::compare_row(cmp, "breaker status transition", "0 -> 2",
                     format_double(status->min_value(), 0) + " -> " +
                         format_double(status->max_value(), 0));
  bench::compare_row(cmp, "P before breaker close", "unchanged (0)",
                     activation.complete ? "0 until breaker-closed" : "n/a");
  bench::compare_row(cmp, "sequence order", "V ramp -> sync -> close -> P ramp",
                     activation.complete ? "same (state machine completed)" : "incomplete");
  std::printf("%s\n", cmp.render().c_str());
  return activation.complete ? 0 : 1;
}
