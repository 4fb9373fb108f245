// E1 — Table 2 + Fig 6: year-over-year topology change.
//
// Generates the Y1 and Y2 captures, infers the outstation inventory from
// traffic alone (as the paper did before interviewing the operator), and
// prints the Table 2 adds/removes plus the stability headline ("14
// outstations / 26% of substations unchanged").
#include "analysis/topology_diff.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E1: Topology change Y1 -> Y2", "Table 2, Fig 6, Hypothesis 1");

  auto y1 = bench::y1_capture();
  auto y2 = bench::y2_capture();
  core::NameMap names = core::name_map(y1.topology);

  auto ds1 = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  auto ds2 = analysis::CaptureDataset::build(net::as_frame_views(y2.packets));
  auto diff = analysis::diff_topology(ds1, ds2);

  TextTable table("Inferred outstation changes (Table 2)");
  table.header({"outstation", "change", "IOAs Y1", "IOAs Y2"});
  for (const auto& e : diff.entries) {
    if (e.change == analysis::StationChange::kUnchanged) continue;
    table.row({core::name_of(names, e.station), station_change_name(e.change),
               std::to_string(e.ioas_before), std::to_string(e.ioas_after)});
  }
  std::printf("%s\n", table.render().c_str());

  std::size_t both_years = 0, unchanged = 0;
  for (const auto& e : diff.entries) {
    if (e.change != analysis::StationChange::kAdded &&
        e.change != analysis::StationChange::kRemoved) {
      ++both_years;
    }
    if (e.change == analysis::StationChange::kUnchanged) ++unchanged;
  }

  std::size_t y1_count = analysis::station_inventory(ds1).size();
  std::size_t y2_count = analysis::station_inventory(ds2).size();
  auto cmp = bench::comparison_table("Paper vs measured");
  bench::compare_row(cmp, "outstations observed Y1", "49", std::to_string(y1_count));
  bench::compare_row(cmp, "outstations observed Y2", "51", std::to_string(y2_count));
  bench::compare_row(cmp, "outstations added", "9", std::to_string(diff.added));
  bench::compare_row(cmp, "outstations removed", "7", std::to_string(diff.removed));
  bench::compare_row(cmp, "unchanged outstations", "14 (25%)",
                     std::to_string(unchanged) + " (" +
                         format_percent(static_cast<double>(unchanged) /
                                            static_cast<double>(58),
                                        0) +
                         " of 58; " + std::to_string(diff.unchanged_reporting) +
                         " of them report telemetry)");
  std::printf("%s\n", cmp.render().c_str());
  std::printf("note: keep-alive-only backup RTUs expose no IOAs in either year, so\n"
              "traffic-only inference counts them as unchanged; the paper's count came\n"
              "from operator-confirmed IOA totals (our ground truth below).\n");

  // Ground truth check: the inferred diff against what the operator told us.
  int truth_unchanged = 0;
  for (const auto& os : y1.topology.outstations) {
    if (os.in_y1 && os.in_y2 && os.ioa_count_y1 == os.ioa_count_y2) ++truth_unchanged;
  }
  std::printf("ground truth: %d outstations unchanged (inferred %zu)\n", truth_unchanged,
              unchanged);
  return 0;
}
