// Measurement helpers shared by the benchmark workloads: clocks, quantiles,
// and the result record printed as the final JSON line.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_since(Clock::time_point t0) {
  return 1000.0 * seconds_between(t0, Clock::now());
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Restarts the kernel's peak resident set (VmHWM) from the current one.
inline bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5" << std::flush;
  return static_cast<bool>(f);
}

/// Peak resident set in MB since the last reset_peak_rss(), from VmHWM.
inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// The best trial of a run, for a lower-is-better time. Other tenants of a
/// shared host only ever add time, in episodes that last minutes, so the
/// fastest of many trials is the steadiest estimate of the code's own cost.
inline double best(const std::vector<double>& v) { return quantile(v, 0.0); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One benchmark run: correctness verdict, work attempted and failed (in
/// frames), and the metrics in the order they are printed.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& why);
};

}  // namespace perfbench
