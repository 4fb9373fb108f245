// E9 — Table 7: ASDU typeID distribution across both capture years.
#include "analysis/typeid_stats.hpp"
#include "bench/common.hpp"
#include "iec104/constants.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E9: ASDU typeID distribution", "Table 7");

  auto y1 = bench::y1_capture();
  auto y2 = bench::y2_capture();
  auto ds1 = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  auto ds2 = analysis::CaptureDataset::build(net::as_frame_views(y2.packets));

  // The paper reports the distribution over all datasets combined.
  analysis::TypeIdDistribution combined;
  for (const auto* ds : {&ds1, &ds2}) {
    auto d = analysis::typeid_distribution(*ds);
    for (const auto& [t, c] : d.counts) combined.counts[t] += c;
    combined.total += d.total;
  }

  // Paper Table 7 values for comparison.
  const std::map<int, double> kPaper = {
      {36, 65.1322}, {13, 31.6959}, {9, 2.6960},  {50, 0.2330}, {3, 0.1427},
      {5, 0.0893},   {100, 0.0080}, {103, 0.0011}, {30, 0.0005}, {70, 0.0005},
      {31, 0.0005},  {1, 0.0004},   {7, 0.00004}};

  TextTable table("Table 7: observed ASDU typeID distribution (Y1+Y2)");
  table.header({"typeID", "acronym", "count", "measured", "paper"});
  for (const auto& [type, count] : combined.sorted()) {
    auto paper_it = kPaper.find(type);
    table.row({std::string("I").append(std::to_string(type)),
               iec104::type_acronym(static_cast<iec104::TypeId>(type)),
               format_count(count), format_percent(combined.percentage(type)),
               paper_it != kPaper.end() ? format_double(paper_it->second, 4) + "%"
                                        : "-"});
  }
  std::printf("%s", table.render().c_str());
  std::printf("total I-format ASDUs: %s\n", format_count(combined.total).c_str());
  std::printf("observed distinct typeIDs: %zu (paper: 13 of the 54 supported)\n\n",
              combined.counts.size());

  double top2 = combined.percentage(36) + combined.percentage(13);
  std::printf("I36+I13 share: %s (paper: ~97%%)\n", format_percent(top2, 1).c_str());
  return 0;
}
