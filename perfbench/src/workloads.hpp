// The benchmark's inputs and workloads. See perfbench/README.md for why
// each workload exists and which layer metric moves which end-to-end one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "measure.hpp"
#include "sim/capture.hpp"
#include "sim/fleet.hpp"

namespace perfbench {

namespace core = uncharted::core;
namespace net = uncharted::net;
namespace sim = uncharted::sim;

/// Y1 capture length in seconds (326,868 frames at the default seed).
inline constexpr double kCaptureSeconds = 1200.0;
/// Live replay speed: capture time / pace = wall time (~6 s, ~54.5k frames/s).
/// The pace cliff in README.md was found by changing it and rebuilding.
inline constexpr double kPace = 200.0;
/// Set-up is timed this many times per run, spread over the run (see
/// AfterTrial); setup_s is the best one.
inline constexpr std::size_t kSetupRepeats = 9;

/// Everything a workload consumes, generated from --seed alone. The
/// in-memory capture itself is dropped once these are built.
struct Inputs {
  std::size_t frames = 0;   ///< frames in the capture
  std::string pcap_path;    ///< the capture written as a pcap (file path)
  sim::FleetScript script;  ///< the capture as a 91-stream fleet (live path)
  std::string oracle_json;  ///< report_to_json of the batch in-memory analysis
};

struct Settings {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for pcaps and checkpoints
};

/// Every analysis in the benchmark runs single-threaded.
core::CaptureAnalyzer::Options analyzer_options();

sim::CaptureConfig capture_config(std::uint64_t seed);
sim::FleetScriptConfig fleet_config(std::uint64_t seed);

/// The batch report of `packets`, the reference every output must equal.
std::string oracle_report(const std::vector<net::CapturedPacket>& packets);

/// Restarts the peak resident set count from what the process holds now;
/// peak_rss_mb is then read after the workload's first trial (see README.md).
void reset_peak_rss_or_warn();

/// Called by a workload after each timed trial (a pass or a replay); the
/// run times its later set-ups there.
using AfterTrial = std::function<void()>;

/// file_y1: closed loop of analyze_file passes over the pcap.
void run_file(const Inputs& in, const Settings& s, const AfterTrial& after_trial,
              RunResult& r);
/// Traced file layers: cumulative ingest prefixes and every §6 stage.
void trace_file(const Inputs& in, RunResult& r);

/// live_y1: paced open-loop fleet replays into an in-process daemon.
void run_live(const Inputs& in, const Settings& s, const AfterTrial& after_trial,
              RunResult& r);
/// One traced replay: reactor turns, merge lags, state costs, counters.
void trace_live(const Inputs& in, const Settings& s, RunResult& r);

}  // namespace perfbench
