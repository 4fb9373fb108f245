// network_profiler: the full measurement pipeline over a pcap file —
// what you would run against a real tap. Prints the §6 report plus
// per-connection Markov chains and the outstation classification.
//
//   ./network_profiler [capture.pcap] [--export DIR]
//
// Without a pcap, self-demos on a synthetic Y1 capture. With --export,
// writes redrawable artifacts into DIR: the Fig 10 cluster scatter CSV,
// the Fig 8 histogram CSV, and a Graphviz .dot per interesting Markov
// chain (render with `dot -Tpng`).
//
// Exit codes: 0 done, 1 unreadable or truncated input, or a usage error
// (an unknown option, or --export without its directory).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/markov.hpp"
#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "net/mapping.hpp"
#include "sim/capture.hpp"

using namespace uncharted;

namespace {

int usage_error(const char* argv0, const std::string& why) {
  std::fprintf(stderr, "%s\nusage: %s [capture.pcap] [--export DIR]\n", why.c_str(),
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  core::NameMap names;
  std::string pcap_path;
  std::string export_dir;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--export") {
      if (i + 1 >= argc) return usage_error(argv[0], "--export needs a directory");
      export_dir = argv[++i];
    } else if (arg.size() > 1 && arg[0] == '-') {
      return usage_error(argv[0], "unknown option " + arg);
    } else {
      pcap_path = arg;
    }
  }

  // Frames are views: into the mmap'd pcap, or into the synthetic packets.
  std::optional<net::PcapMapping> mapping;
  std::vector<net::CapturedPacket> packets;
  std::vector<net::FrameView> frames;
  if (!pcap_path.empty()) {
    auto cannot_read = [&](const Error& error) {
      std::fprintf(stderr, "cannot read %s: %s\n", pcap_path.c_str(),
                   error.str().c_str());
      return 1;
    };
    auto mapped = net::PcapMapping::open(pcap_path);
    if (!mapped) return cannot_read(mapped.error());
    mapping.emplace(std::move(mapped).take());
    auto cursor = net::PcapCursor::open(mapping->bytes());
    if (!cursor) return cannot_read(cursor.error());
    net::FrameView frame;
    while (cursor->next(frame)) frames.push_back(frame);
    if (cursor->truncated_tail()) return cannot_read(Err("truncated", cursor->warning()));
    std::printf("loaded %zu packets from %s\n", frames.size(), pcap_path.c_str());
  } else {
    std::printf("no pcap given; generating a synthetic Year-1 capture...\n");
    auto capture = sim::generate_capture(sim::CaptureConfig::y1(600.0));
    packets = std::move(capture.packets);
    frames = net::as_frame_views(packets);
    names = core::name_map(capture.topology);
  }

  auto report = core::CaptureAnalyzer::analyze(frames, {});
  // The synthetic capture's names come from its topology; only a pcap's
  // are inferred, from the report's flows.
  if (names.empty()) names = core::infer_names(report.flows.flows);

  std::printf("\n%s", core::render_report(report, names).c_str());

  // Outstation classification detail (Table 6 / Fig 17).
  std::printf("\n== Outstation classification detail ==\n");
  for (const auto& sc : report.station_types) {
    std::printf("%-12s type %d  (%s)\n", core::name_of(names, sc.station).c_str(),
                static_cast<int>(sc.type),
                analysis::station_type_description(sc.type).c_str());
    for (const auto& conn : sc.connections) {
      std::printf("    <-> %-10s I(out/in)=%llu/%llu U16=%llu U32=%llu%s\n",
                  core::name_of(names, conn.server).c_str(),
                  static_cast<unsigned long long>(conn.i_from_station),
                  static_cast<unsigned long long>(conn.i_from_server),
                  static_cast<unsigned long long>(conn.u16),
                  static_cast<unsigned long long>(conn.u32),
                  conn.has_i100 ? "  [I100]" : "");
    }
  }

  // One interesting Markov chain, rendered.
  std::printf("\n== Largest Markov chain ==\n");
  const analysis::ConnectionChain* biggest = nullptr;
  for (const auto& c : report.chains) {
    if (!biggest || c.edges > biggest->edges) biggest = &c;
  }
  if (biggest) {
    std::printf("%s <-> %s (%zu nodes, %zu edges, cluster %s)\n%s",
                core::name_of(names, biggest->pair.a).c_str(),
                core::name_of(names, biggest->pair.b).c_str(), biggest->nodes,
                biggest->edges, analysis::chain_cluster_name(biggest->cluster).c_str(),
                biggest->chain.str().c_str());
  }

  if (!export_dir.empty()) {
    std::printf("\nexporting artifacts to %s/ ...\n", export_dir.c_str());
    auto check = [](Status st, const char* what) {
      if (!st.ok()) std::fprintf(stderr, "  %s failed: %s\n", what, st.error().str().c_str());
    };
    check(core::write_text_file(export_dir + "/fig10_clusters.csv",
                                core::clusters_to_csv(report.clustering)),
          "cluster CSV");
    check(core::write_text_file(export_dir + "/fig8_durations.csv",
                                core::histogram_to_csv(report.flows.short_lived_durations)),
          "histogram CSV");
    int exported = 0;
    for (const auto& c : report.chains) {
      if (c.cluster == analysis::ChainCluster::kSquare && c.edges < 4) continue;
      std::string name = core::name_of(names, c.pair.a) + "-" +
                         core::name_of(names, c.pair.b);
      check(core::write_text_file(export_dir + "/chain_" + name + ".dot",
                                  core::markov_to_dot(c.chain, name)),
            "chain DOT");
      if (++exported >= 12) break;
    }
    std::printf("  wrote fig10_clusters.csv, fig8_durations.csv and %d chain .dot files\n",
                exported);
  }
  return 0;
}
