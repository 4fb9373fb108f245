// E3/E4 — Table 3 + Fig 8 + Fig 9: TCP flow lifetimes and the
// reset-backup behaviour.
#include "analysis/flows.hpp"
#include "bench/common.hpp"

using namespace uncharted;

namespace {

analysis::FlowAnalysis analyze_year(const sim::CaptureResult& capture) {
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(capture.packets));
  return analysis::analyze_flows(ds.flow_table());
}

void print_fig8(const analysis::FlowAnalysis& fa, const char* label) {
  std::printf("\nFig 8 (%s): short-lived flow duration histogram (log10 bins)\n", label);
  const auto& h = fa.short_lived_durations;
  std::uint64_t max_count = 1;
  for (std::size_t b = 0; b < h.bin_count(); ++b) max_count = std::max(max_count, h.count_at(b));
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    if (h.count_at(b) == 0) continue;
    int bar = static_cast<int>(50.0 * static_cast<double>(h.count_at(b)) /
                               static_cast<double>(max_count));
    std::printf("  %10s .. %-10s %6s %s\n", format_duration(h.edge(b)).c_str(),
                format_duration(h.edge(b + 1)).c_str(),
                format_count(h.count_at(b)).c_str(), std::string(static_cast<std::size_t>(bar), '#').c_str());
  }
}

}  // namespace

int main() {
  bench::print_header("E3/E4: TCP flow lifetimes and reset-backup behaviour",
                      "Table 3, Fig 8, Fig 9, Hypothesis 3");

  auto y1 = bench::y1_capture();
  auto y2 = bench::y2_capture();
  core::NameMap names = core::name_map(y1.topology);
  auto f1 = analyze_year(y1);
  auto f2 = analyze_year(y2);

  auto row = [](const analysis::FlowSummary& s) {
    return std::tuple{s.short_under_1s, s.short_over_1s, s.short_lived, s.long_lived,
                      s.total};
  };
  (void)row;

  TextTable table("Table 3: flow lifetime buckets");
  table.header({"metric", "paper Y1", "measured Y1", "paper Y2", "measured Y2"});
  auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole ? format_percent(static_cast<double>(part) / static_cast<double>(whole), 1)
                 : "0%";
  };
  table.row({"<1s short-lived flows", "31,614 (99.8%)",
             format_count(f1.summary.short_under_1s) + " (" +
                 pct(f1.summary.short_under_1s, f1.summary.short_lived) + ")",
             "7,937 (93.5%)",
             format_count(f2.summary.short_under_1s) + " (" +
                 pct(f2.summary.short_under_1s, f2.summary.short_lived) + ")"});
  table.row({">=1s short-lived flows", "63 (0.2%)",
             format_count(f1.summary.short_over_1s) + " (" +
                 pct(f1.summary.short_over_1s, f1.summary.short_lived) + ")",
             "549 (6.5%)",
             format_count(f2.summary.short_over_1s) + " (" +
                 pct(f2.summary.short_over_1s, f2.summary.short_lived) + ")"});
  table.row({"short-lived flows", "31,677 (74.4%)",
             format_count(f1.summary.short_lived) + " (" +
                 format_percent(f1.summary.short_fraction(), 1) + ")",
             "8,486 (93.8%)",
             format_count(f2.summary.short_lived) + " (" +
                 format_percent(f2.summary.short_fraction(), 1) + ")"});
  table.row({"long-lived flows", "10,898 (25.6%)",
             format_count(f1.summary.long_lived) + " (" +
                 format_percent(f1.summary.long_fraction(), 1) + ")",
             "560 (6.2%)",
             format_count(f2.summary.long_lived) + " (" +
                 format_percent(f2.summary.long_fraction(), 1) + ")"});
  std::printf("%s", table.render().c_str());
  std::printf("(absolute counts scale with capture duration: bench runs %.0fx shorter "
              "captures than the paper's 8h/3h)\n",
              24.0 / bench::bench_scale());

  print_fig8(f1, "Y1");

  std::printf("\nFig 9: outstations mishandling backup connection attempts (Y1)\n");
  TextTable rejects("");
  rejects.header({"outstation", "SYN->RST refused", "SYN ignored", "established->RST"});
  for (const auto& r : f1.reject_behaviours) {
    rejects.row({core::name_of(names, r.responder), format_count(r.rst_refused),
                 format_count(r.syn_ignored), format_count(r.reset_midway)});
  }
  std::printf("%s\n", rejects.render().c_str());
  return 0;
}
