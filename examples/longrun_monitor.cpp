// longrun_monitor: streaming analysis with checkpoint/restore.
//
//   ./longrun_monitor --pcap y1.pcap --checkpoint mon.ckpt --interval 500
//
// Consumes a capture the way a permanent monitor would: one frame at a
// time, straight off the mmap'd pcap, under resource budgets, writing a
// crash-safe checkpoint every N packets. Re-running after a crash (or
// `--kill-after N`, which simulates one by exiting mid-stream) resumes
// from the last good checkpoint instead of starting over — the soak
// harness in scripts/soak.sh kills and restarts this binary repeatedly
// and asserts the final report matches the batch analyzer.
//
// Exit codes: 0 clean, 1 a usage error, unreadable input or a checkpoint
// cursor beyond the end of the capture, 2 degraded, 3 hostile.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/export.hpp"
#include "core/streaming.hpp"
#include "net/mapping.hpp"
#include "net/pcap.hpp"
#include "util/strings.hpp"

using namespace uncharted;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --pcap FILE [--checkpoint FILE] [--interval PACKETS]\n"
               "          [--max-flows N] [--max-reassembly-bytes N] [--max-records N]\n"
               "          [--max-parsers N] [--reassembled] [--kill-after PACKETS]\n"
               "          [--quiet] [--threads N] [--report FILE]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string pcap_path;
  core::StreamingOptions options;
  options.checkpoint_every_packets = 1000;
  options.analyze.threads = 0;  // one worker per hardware thread
  std::uint64_t kill_after = 0;
  bool quiet = false;
  std::string report_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--pcap") {
      pcap_path = next();
    } else if (arg == "--checkpoint") {
      options.checkpoint_path = next();
    } else if (arg == "--interval") {
      options.checkpoint_every_packets =
          static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--max-flows") {
      options.budgets.max_flow_entries = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-reassembly-bytes") {
      options.budgets.max_reassembly_bytes =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-records") {
      options.budgets.max_records = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-parsers") {
      options.budgets.max_parsers = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--reassembled") {
      options.analyze.mode = analysis::ParseMode::kReassembled;
    } else if (arg == "--threads") {
      options.analyze.threads = static_cast<unsigned>(std::atoll(next()));
    } else if (arg == "--kill-after") {
      kill_after = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--report") {
      report_path = next();
    } else {
      usage(argv[0]);
      return 1;
    }
  }
  if (pcap_path.empty()) {
    usage(argv[0]);
    return 1;
  }

  // The capture is mmap'd (read only when unmappable) and every frame is
  // fed straight off the mapping: no per-packet copy is held.
  auto mapping = net::PcapMapping::open(pcap_path);
  if (!mapping) {
    std::fprintf(stderr, "read failed: %s\n", mapping.error().str().c_str());
    return 1;
  }
  auto cursor = net::PcapCursor::open(mapping->bytes());
  if (!cursor) {
    std::fprintf(stderr, "read failed: %s\n", cursor.error().str().c_str());
    return 1;
  }

  core::StreamingAnalyzer analyzer(options);
  std::uint64_t skip = 0;
  if (analyzer.try_restore()) {
    skip = analyzer.packets_consumed();
    std::printf("resumed from checkpoint: %s packets already consumed\n",
                format_count(skip).c_str());
  }

  net::FrameView frame;
  while (cursor->records() < skip && cursor->next(frame)) {}
  if (cursor->records() < skip) {
    std::fprintf(stderr, "checkpoint cursor beyond end of input; starting over\n");
    return 1;
  }
  while (cursor->next(frame)) {
    analyzer.add_packet(frame);
    if (kill_after > 0 && analyzer.packets_consumed() >= kill_after) {
      // Simulated crash: no shutdown checkpoint, no destructors — the
      // next run must survive on the last periodic checkpoint alone.
      std::printf("simulated crash at %s packets\n",
                  format_count(analyzer.packets_consumed()).c_str());
      std::fflush(stdout);
      std::_Exit(42);
    }
  }

  auto report = analyzer.finalize();
  if (cursor->truncated_tail()) {
    report.degradation.pcap_truncated = true;
    report.degradation.warnings.insert(report.degradation.warnings.begin(),
                                       cursor->warning());
  }

  if (!report_path.empty()) {
    // The full report as deterministic JSON, the form iec104d --report
    // writes: the soak byte-compares the two.
    if (auto st = core::write_text_file(report_path, core::report_to_json(report));
        !st) {
      std::fprintf(stderr, "cannot write %s: %s\n", report_path.c_str(),
                   st.error().str().c_str());
      return 1;
    }
  }
  if (quiet) {
    // Headline metrics only — what the soak harness diffs against batch.
    std::printf("packets=%llu apdus=%llu stations=%zu flows=%llu clusters=%zu\n",
                static_cast<unsigned long long>(report.stats.packets),
                static_cast<unsigned long long>(report.stats.apdus),
                report.station_types.size(),
                static_cast<unsigned long long>(report.flows.summary.total),
                report.clustering.profiles.size());
  } else {
    core::NameMap names;  // no topology at hand: raw addresses
    std::printf("%s\n", core::render_report(report, names).c_str());
  }
  // The uniform CLI exit-code contract (README "Exit codes").
  if (report.conformance.any_hostile()) return 3;
  if (report.degradation.degraded()) return 2;
  return 0;
}
