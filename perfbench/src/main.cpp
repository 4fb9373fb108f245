// perfbench: the repository benchmark program.
//
//   perfbench --workload file_y1|live_y1 --seed N
//             --seconds S --trace 0|1 --workdir DIR
//
// Generates the workload's inputs from the seed, checks every output
// against the batch in-memory report, and prints build and host facts
// followed, as the last line, by one JSON object:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// perfbench/run.py builds this binary and is the intended entry point.
#include <malloc.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "core/export.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncharted;

void RunResult::fail(const std::string& why) {
  if (correct) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  correct = false;
}

void reset_peak_rss_or_warn() {
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "perfbench: warning: cannot reset the peak RSS; "
                         "peak_rss_mb includes set-up\n");
  }
}

core::CaptureAnalyzer::Options analyzer_options() {
  core::CaptureAnalyzer::Options opts;
  opts.threads = 1;
  return opts;
}

sim::CaptureConfig capture_config(std::uint64_t seed) {
  sim::CaptureConfig c = sim::CaptureConfig::y1(kCaptureSeconds);
  c.seed += seed;
  return c;
}

sim::FleetScriptConfig fleet_config(std::uint64_t seed) {
  sim::FleetScriptConfig c;
  c.seed += seed;
  return c;
}

std::string oracle_report(const std::vector<net::CapturedPacket>& packets) {
  return core::report_to_json(core::CaptureAnalyzer::analyze(packets, analyzer_options()));
}

namespace {

/// Fixed integer kernel for the effective-parallelism probe.
double kernel_seconds(unsigned threads) {
  constexpr std::uint64_t kIters = 40'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
      for (std::uint64_t i = 0; i < kIters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (auto& th : pool) th.join();
  return seconds_between(t0, Clock::now());
}

void print_host_facts() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const double one = kernel_seconds(1);
  const double all = kernel_seconds(nproc);
  std::printf("build: type=%s compiler=\"%s\"\n", PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::printf("host: nproc=%u effective_parallelism=%.2f (kernel %.3f s at 1 thread, "
              "%.3f s at %u)\n",
              nproc, nproc * one / all, one, all, nproc);
}

bool known_workload(const std::string& w) {
  return w == "file_y1" || w == "live_y1";
}

/// Builds the workload's inputs (both workloads' when tracing) into `in`,
/// with the pcap as `pcap_name` in the workdir, and the capture into
/// `capture`. Returns the seconds it took.
double time_set_up(const std::string& workload, const Settings& s,
                   const std::string& pcap_name, Inputs& in, sim::CaptureResult& capture) {
  const bool file = workload == "file_y1" || s.trace;
  const bool live = workload == "live_y1" || s.trace;
  const auto t0 = Clock::now();
  capture = sim::generate_capture(capture_config(s.seed));
  if (file) {
    in.pcap_path = s.workdir + "/" + pcap_name;
    if (auto st = sim::write_capture_pcap(capture, in.pcap_path); !st) {
      std::fprintf(stderr, "perfbench: cannot write %s: %s\n", in.pcap_path.c_str(),
                   st.error().str().c_str());
      std::exit(1);
    }
  }
  if (live) in.script = sim::build_fleet_script(capture.packets, fleet_config(s.seed));
  in.frames = capture.packets.size();
  return seconds_between(t0, Clock::now());
}

void print_result(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload file_y1|live_y1 --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               argv0);
  return 2;
}

}  // namespace

int run(int argc, char** argv) {
  std::string workload;
  Settings s;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      s.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      s.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      s.trace = val == "1";
    } else if (key == "--workdir") {
      s.workdir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !known_workload(workload) || !have_seed || s.workdir.empty() ||
      !(s.seconds > 0)) {
    return usage(argv[0]);
  }
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to measure a build with assertions on\n");
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build (need Release)\n",
                 PERFBENCH_BUILD_TYPE[0] ? PERFBENCH_BUILD_TYPE : "untyped");
    return 3;
  }
  std::signal(SIGPIPE, SIG_IGN);
  print_host_facts();

  std::filesystem::create_directories(s.workdir);
  Inputs in;
  std::vector<double> setup_secs;
  {
    sim::CaptureResult capture;
    setup_secs.push_back(time_set_up(workload, s, "y1.pcap", in, capture));
    in.oracle_json = oracle_report(capture.packets);
  }
  // Hand the capture's and the oracle's freed heap back to the kernel, so
  // peak_rss_mb sees what the workload itself holds.
  malloc_trim(0);

  // Other tenants of the host slow set-up (mostly small allocations) more
  // than the trials, in episodes longer than a few set-ups, so repeats in a
  // row measure the episode. The later set-ups are spread over the run
  // instead: after each trial, every set-up whose share of --seconds has
  // passed is timed, and its inputs are thrown away.
  const auto start = Clock::now();
  const AfterTrial after_trial = [&] {
    while (setup_secs.size() < kSetupRepeats &&
           seconds_between(start, Clock::now()) >=
               s.seconds * static_cast<double>(setup_secs.size()) / kSetupRepeats) {
      Inputs spare;
      sim::CaptureResult capture;
      setup_secs.push_back(time_set_up(workload, s, "spare.pcap", spare, capture));
    }
  };

  RunResult r;
  if (s.trace) {
    trace_file(in, r);
    trace_live(in, s, r);
  } else {
    if (workload == "file_y1") {
      run_file(in, s, after_trial, r);
    } else {
      run_live(in, s, after_trial, r);
    }
    r.add("setup_s", best(setup_secs), "s");
    std::fprintf(stderr, "perfbench: %zu set-ups\n", setup_secs.size());
  }
  std::filesystem::remove_all(s.workdir);
  print_result(r);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
