// E8 — Table 6 + Fig 17: outstation interaction-type classification.
#include "analysis/classify.hpp"
#include "bench/common.hpp"

using namespace uncharted;

int main() {
  bench::print_header("E8: Outstation classification", "Table 6, Fig 17");

  // The paper classifies each outstation across ALL captures: type 4 (the
  // station that talked to a different server in each year) is invisible in
  // any single capture, so we classify over Y1 and Y2 combined.
  auto y1 = bench::y1_capture();
  auto y2 = bench::y2_capture();
  core::NameMap names = core::name_map(y1.topology);
  auto packets = y1.packets;
  packets.insert(packets.end(), y2.packets.begin(), y2.packets.end());
  auto ds = analysis::CaptureDataset::build(net::as_frame_views(packets));
  auto stations = analysis::classify_stations(ds);
  auto hist = analysis::type_histogram(stations);

  TextTable table("Fig 17: outstation types (Y1+Y2)");
  table.header({"type", "description", "count", "share"});
  std::size_t total = stations.size();
  for (const auto& [type, count] : hist) {
    table.row({std::to_string(static_cast<int>(type)),
               analysis::station_type_description(type), std::to_string(count),
               format_percent(static_cast<double>(count) / static_cast<double>(total), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("classified %zu outstations\n\n", total);

  std::printf("Per-station assignments:\n");
  std::map<int, std::vector<std::string>> by_type;
  for (const auto& s : stations) {
    by_type[static_cast<int>(s.type)].push_back(core::name_of(names, s.station));
  }
  for (auto& [type, members] : by_type) {
    std::sort(members.begin(), members.end());
    std::printf("  type %d: %s\n", type, join(members, ", ").c_str());
  }

  auto cmp = bench::comparison_table("\nPaper vs measured");
  auto share = [&](analysis::StationType t) {
    auto it = hist.find(t);
    std::size_t c = it == hist.end() ? 0 : it->second;
    return format_percent(static_cast<double>(c) / static_cast<double>(total), 1);
  };
  bench::compare_row(cmp, "most common type", "type 3 (34.3%)",
                     "type 3 (" + share(analysis::StationType::kType3) + ")");
  bench::compare_row(cmp, "type 5 (stale spontaneous)", "1 outstation",
                     std::to_string(hist[analysis::StationType::kType5]));
  bench::compare_row(cmp, "type 4 (I to both servers)", "1 outstation",
                     std::to_string(hist[analysis::StationType::kType4]));
  bench::compare_row(cmp, "type 7 share of backups", "~1/4",
                     format_percent(static_cast<double>(hist[analysis::StationType::kType7]) /
                                    static_cast<double>(hist[analysis::StationType::kType3] +
                                                        hist[analysis::StationType::kType7]),
                                    0));
  std::printf("%s\n", cmp.render().c_str());

  // Ground truth confusion: simulator type vs inferred type.
  std::printf("Ground-truth check (simulated type -> inferred type):\n");
  int agree = 0, totaled = 0;
  for (const auto& s : stations) {
    for (const auto& os : y1.topology.outstations) {
      if (os.ip == s.station) {
        ++totaled;
        if (static_cast<int>(os.type) == static_cast<int>(s.type)) {
          ++agree;
        } else {
          std::printf("  %s: simulated type %d, inferred type %d\n", os.name().c_str(),
                      static_cast<int>(os.type), static_cast<int>(s.type));
        }
      }
    }
  }
  std::printf("agreement: %d/%d\n", agree, totaled);
  return 0;
}
