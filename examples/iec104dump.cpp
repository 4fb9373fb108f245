// iec104dump: a tshark-style line printer for IEC 104 traffic — the tool
// you reach for when Wireshark calls the packets malformed.
//
//   ./iec104dump capture.pcap [--strict] [--limit N] [--conformance]
//               [--profile]
//
// Prints one line per APDU with the tolerant parse, marking non-compliant
// frames with the legacy profile that explains them. With --conformance,
// also runs the conformance state machine over every connection and prints
// per-connection profiles plus a violation summary. Without a pcap,
// self-demos on a short synthetic capture. Ingest runs on one lane on the
// caller's thread: with no §6 analytics to fan out, extra lanes never paid.
//
// Exit codes: 0 clean, 1 unreadable input or a usage error (an unknown
// option, or --limit without its count), 2 degraded (the pcap tail was
// truncated or the capture carried damage the pipeline had to skip), 3
// hostile conformance profiles present (--conformance only; wins over 2) —
// the partial report is still printed in every case.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "analysis/conformance_audit.hpp"
#include "analysis/dataset.hpp"
#include "core/names.hpp"
#include "core/profiler.hpp"
#include "net/mapping.hpp"
#include "sim/capture.hpp"
#include "util/strings.hpp"

using namespace uncharted;

namespace {

int usage_error(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: %s [capture.pcap] [--strict] [--limit N] [--conformance] "
               "[--profile]\n",
               why.c_str(), argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool strict = false;
  bool conformance = false;
  bool profile = false;
  long limit = 40;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--conformance") {
      conformance = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--limit") {
      if (i + 1 >= argc) return usage_error(argv[0], "--limit needs a count");
      limit = std::atol(argv[++i]);
    } else if (arg.size() > 1 && arg[0] == '-') {
      return usage_error(argv[0], "unknown option " + arg);
    } else {
      path = arg;
    }
  }

  // Frames are views: into the mmap'd pcap, or into the synthetic packets.
  std::optional<net::PcapMapping> mapping;
  std::vector<net::CapturedPacket> packets;
  std::vector<net::FrameView> frames;
  core::NameMap names;
  bool pcap_truncated = false;
  if (!path.empty()) {
    auto cannot_read = [&](const Error& error) {
      std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(), error.str().c_str());
      return 1;
    };
    auto mapped = net::PcapMapping::open(path);
    if (!mapped) return cannot_read(mapped.error());
    mapping.emplace(std::move(mapped).take());
    auto cursor = net::PcapCursor::open(mapping->bytes());
    if (!cursor) return cannot_read(cursor.error());
    net::FrameView frame;
    while (cursor->next(frame)) frames.push_back(frame);
    if (cursor->truncated_tail()) {
      std::fprintf(stderr, "warning: %s: %s; dumping the complete prefix\n",
                   path.c_str(), cursor->warning().c_str());
      pcap_truncated = true;
    }
  } else {
    std::printf("(no pcap given; using a 30 s synthetic capture)\n");
    auto capture = sim::generate_capture(sim::CaptureConfig::y1(30.0));
    packets = std::move(capture.packets);
    frames = net::as_frame_views(packets);
    names = core::name_map(capture.topology);
  }

  analysis::CaptureDataset::Options opts;
  opts.parser_mode = strict ? iec104::ApduStreamParser::Mode::kStrict
                            : iec104::ApduStreamParser::Mode::kTolerant;
  core::StageTimings timings;
  auto ds = [&] {
    core::ScopedStageTimer t(&timings, "ingest");
    return analysis::CaptureDataset::build(frames, opts);
  }();
  if (names.empty()) names = core::infer_names(ds.flow_table().flows());

  Timestamp t0 = ds.records().empty() ? 0 : ds.records().front().ts;
  long printed = 0;
  for (const auto& rec : ds.records()) {
    if (limit > 0 && printed >= limit) {
      std::printf("... (%zu more APDUs; raise --limit)\n",
                  ds.records().size() - static_cast<std::size_t>(printed));
      break;
    }
    double t = to_seconds(static_cast<DurationUs>(rec.ts - t0));
    std::string flag = rec.apdu.compliant ? "" : "  [LEGACY " + rec.apdu.profile().str() + "]";
    std::printf("%10.6f  %-12s -> %-12s  %-5s %s%s\n", t,
                core::name_of(names, rec.flow.src_ip).c_str(),
                core::name_of(names, rec.flow.dst_ip).c_str(),
                rec.apdu.token().c_str(),
                rec.apdu.is_i() ? rec.apdu.asdu().str().c_str() : "",
                flag.c_str());
    ++printed;
  }

  std::printf("\n%s APDUs (%s non-compliant), %s parse failures\n",
              format_count(ds.stats().apdus).c_str(),
              format_count(ds.stats().non_compliant_apdus).c_str(),
              format_count(ds.stats().apdu_failures).c_str());

  bool hostile = false;
  if (conformance) {
    auto report = analysis::audit_conformance(ds);
    hostile = report.any_hostile();
    std::printf("\n== conformance ==\n");
    std::printf("connections: %s clean, %s legacy, %s suspect, %s hostile\n",
                format_count(report.clean_connections).c_str(),
                format_count(report.legacy_connections).c_str(),
                format_count(report.suspect_connections).c_str(),
                format_count(report.hostile_connections).c_str());
    for (const auto& entry : report.entries) {
      std::printf("%-12s <-> %-12s  %-7s  %s\n",
                  core::name_of(names, entry.pair.a).c_str(),
                  core::name_of(names, entry.pair.b).c_str(),
                  iec104::verdict_name(entry.verdict).c_str(),
                  entry.profile.summary().c_str());
    }
    if (hostile) {
      std::printf("violation summary (hostile connections):\n");
      for (const auto& entry : report.entries) {
        if (entry.verdict != iec104::Verdict::kHostile) continue;
        for (const auto& v : entry.profile.violations) {
          if (v.severity != iec104::Severity::kHostile &&
              v.severity != iec104::Severity::kWarn) {
            continue;
          }
          std::printf("  %s <-> %s: %s x%s (%s) -- %s\n",
                      core::name_of(names, entry.pair.a).c_str(),
                      core::name_of(names, entry.pair.b).c_str(),
                      iec104::violation_code_name(v.code).c_str(),
                      format_count(v.count).c_str(),
                      iec104::severity_name(v.severity).c_str(), v.detail.c_str());
        }
      }
    }
  }

  const auto& deg = ds.stats().degradation;
  bool degraded = pcap_truncated || deg.any();
  if (degraded) {
    std::fprintf(stderr,
                 "degraded: %s resyncs, %s garbage bytes, %s truncated tail "
                 "bytes, %s quarantined connections%s\n",
                 format_count(deg.parser_resyncs).c_str(),
                 format_count(deg.garbage_bytes).c_str(),
                 format_count(deg.truncated_tail_bytes).c_str(),
                 format_count(deg.quarantined_connections).c_str(),
                 pcap_truncated ? ", pcap tail truncated" : "");
  }
  if (profile) {
    std::printf("\n== stage timings ==\n");
    for (const auto& s : timings.stages) {
      std::printf("%-14s %10.2f ms\n", s.stage.c_str(), s.wall_ms);
    }
  }

  if (hostile) return 3;  // hostile wins: an attacker also causes damage
  if (degraded) return 2;
  return 0;
}
