// E15 (extension) — Fig 5: the other protocols on the tap.
//
// The paper notes the capture "included other industrial protocols over
// TCP/IP such as ICCP ... and C37.118" and leaves their analysis to future
// studies. This bench performs the first pass: protocol mix, synchrophasor
// stream inventory, and ICCP data-set activity.
#include "analysis/background.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E15 (extension): background protocols on the tap",
                      "Fig 5 (ICCP and C37.118, 'future studies')");

  auto y1 = bench::y1_capture();
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(y1.packets));
  auto background = analysis::analyze_background(net::as_frame_views(y1.packets));

  TextTable mix("Protocol mix (by TCP packets)");
  mix.header({"protocol", "port", "packets", "share"});
  auto total = static_cast<double>(ds.stats().tcp_packets);
  std::uint64_t iec104 = ds.stats().tcp_packets - ds.stats().c37118_packets -
                         ds.stats().iccp_packets - ds.stats().other_tcp_packets;
  mix.row({"IEC 104", "2404", format_count(iec104),
           format_percent(static_cast<double>(iec104) / total, 1)});
  mix.row({"C37.118", "4712", format_count(ds.stats().c37118_packets),
           format_percent(static_cast<double>(ds.stats().c37118_packets) / total, 1)});
  mix.row({"ICCP (ISO-TSAP)", "102", format_count(ds.stats().iccp_packets),
           format_percent(static_cast<double>(ds.stats().iccp_packets) / total, 1)});
  mix.row({"other", "-", format_count(ds.stats().other_tcp_packets),
           format_percent(static_cast<double>(ds.stats().other_tcp_packets) / total, 1)});
  std::printf("%s\n", mix.render().c_str());

  TextTable pmus("C37.118 synchrophasor streams");
  pmus.header({"stream", "station", "idcode", "channels", "cfg rate", "measured rate",
               "data frames", "mean df [mHz]"});
  for (const auto& s : background.pmu_streams) {
    pmus.row({s.source.str() + " -> " + s.sink.str(), s.station_name,
              std::to_string(s.idcode), join(s.channels, "/"),
              std::to_string(s.configured_rate) + " fps",
              format_double(s.measured_rate_fps, 1) + " fps",
              format_count(s.data_frames), format_double(s.mean_freq_deviation_mhz, 1)});
  }
  std::printf("%s\n", pmus.render().c_str());

  TextTable links("ICCP control-center links");
  links.header({"link", "associations", "reports", "reads", "points"});
  for (const auto& l : background.iccp_links) {
    links.row({l.a.str() + " <-> " + l.b.str(), join(l.associations, ","),
               format_count(l.reports), format_count(l.reads), format_count(l.points)});
  }
  std::printf("%s\n", links.render().c_str());

  if (!background.iccp_links.empty()) {
    std::printf("most transferred ICCP points:\n");
    const auto& names = background.iccp_links[0].point_names;
    int shown = 0;
    for (const auto& [name, count] : names) {
      std::printf("  %-24s %s\n", name.c_str(), format_count(count).c_str());
      if (++shown >= 4) break;
    }
  }

  std::printf("\n(the PMU streams' frequency deviation tracks the same grid the\n"
              " IEC 104 telemetry reports — cross-protocol consistency a future\n"
              " SOC could exploit)\n");
  return 0;
}
