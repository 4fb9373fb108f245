// live_y1: the operator's always-on path. The Y1 capture,
// partitioned into a 91-stream fleet script, is replayed by a
// netd::FleetClient on its own thread and reactor at pace 200 (an open
// loop: frames are sent on the capture's schedule, whatever the daemon
// does). The daemon — a core::LiveIngestDaemon on the main thread —
// ingests over loopback until every stream has finished, then finalize()
// writes the final report.
//
// Lateness is measured on cumulative-count curves: frames are due in
// capture-time order (the release order of the watermark merge), so when a
// counter (sent, received, released, ingested) first reaches k+1, frame k
// is late by the time elapsed past its due time.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stop_token>
#include <string>
#include <thread>

#include "core/export.hpp"
#include "core/liveingest.hpp"
#include "netd/client.hpp"
#include "netd/reactor.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncharted;

namespace {

constexpr int kEndProbes = 6;  ///< state probes after each replay
/// Hard wall-clock deadline of one replay: twice its schedule plus this.
constexpr double kDeadlineSlackS = 20.0;
/// A replay is invalid when the generator, not the daemon, ran late: its
/// send lag p99 passed this while the fleet thread was busy for most of
/// the replay (a starved daemon leaves the fleet idle, blocked on sends).
constexpr double kGeneratorLateMs = 100.0;
constexpr double kGeneratorBusyShare = 0.9;

/// Due offsets (seconds after the fleet starts) of every frame, in
/// capture-time order. kPace <= 0 (full speed) makes every frame due at once.
std::vector<double> make_schedule(const sim::FleetScript& script) {
  std::vector<Timestamp> ts;
  for (const auto& stream : script.streams) {
    for (const auto& frame : stream.frames) ts.push_back(frame.ts);
  }
  std::sort(ts.begin(), ts.end());
  std::vector<double> due;
  due.reserve(ts.size());
  for (Timestamp t : ts) {
    due.push_back(kPace > 0 ? static_cast<double>(t - ts.front()) / 1e6 / kPace : 0.0);
  }
  return due;
}

/// Lateness of each frame as a cumulative counter passes it.
struct LagCurve {
  std::vector<double> lag_ms;
  double complete_s = 0.0;  ///< when the counter covered the last frame

  void advance(std::uint64_t count, double now_s, const std::vector<double>& due) {
    const std::size_t upto = std::min<std::size_t>(count, due.size());
    if (lag_ms.size() >= upto) return;
    while (lag_ms.size() < upto) lag_ms.push_back(1000.0 * (now_s - due[lag_ms.size()]));
    if (lag_ms.size() == due.size()) complete_s = now_s;
  }
};

/// The fleet thread's side of one replay.
struct FleetRun {
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  Clock::time_point t0;  ///< published by `started`
  std::string error;     ///< what escaped the fleet thread, if anything
  LagCurve send;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  netd::FleetStats stats;
};

void fleet_main(std::stop_token stop, const sim::FleetScript& script, std::uint16_t port,
                std::uint64_t seed, const std::vector<double>& due, FleetRun& run) {
  try {
    netd::Reactor reactor;
    netd::FleetConfig fc;
    fc.port = port;
    fc.pace = kPace;
    fc.seed = seed;
    netd::FleetClient fleet(reactor, fc, script.streams);
    const double cpu0 = thread_cpu_s();
    run.t0 = Clock::now();
    run.started.store(true, std::memory_order_release);
    fleet.start();
    while (!fleet.all_done() && !stop.stop_requested()) {
      reactor.run_once(5);
      run.send.advance(fleet.stats().frames_sent, seconds_between(run.t0, Clock::now()),
                       due);
    }
    run.cpu_s = thread_cpu_s() - cpu0;
    run.wall_s = seconds_between(run.t0, Clock::now());
    run.stats = fleet.stats();
  } catch (const std::exception& e) {
    run.error = e.what();
    run.started.store(true, std::memory_order_release);
  }
  run.done.store(true, std::memory_order_release);
}

struct Replay {
  bool timed_out = false;
  bool matches = false;
  bool generator_late = false;
  std::uint64_t report_packets = 0;
  double ingest_s = 0.0;     ///< fleet start until the last frame was ingested
  double ingest_cpu_s = 0.0; ///< daemon thread, until the replay ended
  double daemon_cpu_s = 0.0; ///< ingest plus finalize
  double finalize_ms = 0.0;
  LagCurve ingest;
  std::vector<double> query_ms;
  std::vector<double> checkpoint_ms;
  std::uint64_t checkpoint_bytes = 0;
  // Fleet thread.
  std::vector<double> send_lag_ms;
  double fleet_cpu_s = 0.0;
  netd::FleetStats fleet;
  // Traced only.
  std::vector<double> turn_ms;  ///< CPU busy time of each reactor turn
  LagCurve recv;
  LagCurve release;
  std::vector<double> backlog;
  double trace_overhead_ms = 0.0;
  netd::ServerStats server;
  std::uint64_t recoveries = 0;
};

void time_query(core::LiveIngestDaemon& daemon, Replay& out) {
  const auto t0 = Clock::now();
  const std::string json = daemon.report_json();
  out.query_ms.push_back(ms_since(t0));
  if (json.empty()) std::fprintf(stderr, "perfbench: empty report query\n");
}

void time_checkpoint(core::LiveIngestDaemon& daemon, const std::string& path,
                     Replay& out) {
  const auto t0 = Clock::now();
  const bool ok = daemon.checkpoint_now().ok();
  out.checkpoint_ms.push_back(ms_since(t0));
  std::error_code ec;
  if (ok) out.checkpoint_bytes = std::filesystem::file_size(path, ec);
  if (!ok) std::fprintf(stderr, "perfbench: live checkpoint write failed\n");
}

Replay replay(const Inputs& in, const Settings& s, const std::vector<double>& due,
              std::uint64_t index) {
  Replay out;
  const std::string ckpt = s.workdir + "/live.ckpt";
  core::LiveIngestOptions opt;
  opt.streaming.analyze = analyzer_options();
  // A checkpoint ends in fsync, whose time on a shared disk is too unsteady
  // to bound, so only the traced replay writes any (its probes, and the
  // final one in finalize); untraced replays run as a daemon without a
  // checkpoint path does.
  opt.streaming.checkpoint_path = s.trace ? ckpt : "";
  opt.checkpoint_every_s = 0.0;
  opt.server.expect_streams = in.script.streams.size();

  netd::Reactor reactor;
  core::LiveIngestDaemon daemon(reactor, opt);
  if (auto st = daemon.start(false); !st) {
    std::fprintf(stderr, "perfbench: daemon start failed: %s\n", st.error().str().c_str());
    out.timed_out = true;
    return out;
  }
  const double cpu0 = thread_cpu_s();
  FleetRun fleet;
  // A jthread asks the fleet to stop and joins it on every way out.
  std::jthread fleet_thread(fleet_main, std::cref(in.script), daemon.server().port(),
                           fleet_config(s.seed).seed + index, std::cref(due),
                           std::ref(fleet));
  while (!fleet.started.load(std::memory_order_acquire)) reactor.run_once(1);
  const auto t0 = fleet.t0;
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(2.0 * due.back() + kDeadlineSlackS));

  for (;;) {
    const double turn_cpu0 = s.trace ? thread_cpu_s() : 0.0;
    reactor.run_once(5);
    const auto turn_end = Clock::now();
    const double now_s = seconds_between(t0, turn_end);
    out.ingest.advance(daemon.frames_ingested(), now_s, due);
    if (s.trace) {
      const netd::ServerStats& st = daemon.server().stats();
      out.turn_ms.push_back(1000.0 * (thread_cpu_s() - turn_cpu0));
      out.recv.advance(st.frames_received, now_s, due);
      out.release.advance(st.frames_released, now_s, due);
      out.backlog.push_back(static_cast<double>(st.frames_received - st.frames_released));
      out.trace_overhead_ms += ms_since(turn_end);
    }
    if (fleet.done.load(std::memory_order_acquire) &&
        daemon.server().all_expected_finished()) {
      break;
    }
    if (turn_end > deadline) {
      out.timed_out = true;
      std::fprintf(stderr, "perfbench: replay %llu hit its deadline with %llu of %zu "
                   "frames ingested\n", static_cast<unsigned long long>(index),
                   static_cast<unsigned long long>(daemon.frames_ingested()), due.size());
      break;
    }
  }
  fleet_thread.request_stop();
  fleet_thread.join();
  if (!fleet.error.empty()) {
    std::fprintf(stderr, "perfbench: fleet thread failed: %s\n", fleet.error.c_str());
    out.timed_out = true;
  }
  out.ingest_cpu_s = thread_cpu_s() - cpu0;
  out.ingest_s = out.timed_out ? seconds_between(t0, Clock::now()) : out.ingest.complete_s;
  out.send_lag_ms = std::move(fleet.send.lag_ms);
  out.fleet_cpu_s = fleet.cpu_s;
  out.fleet = fleet.stats;
  out.generator_late = quantile(out.send_lag_ms, 0.99) > kGeneratorLateMs &&
                       fleet.cpu_s > kGeneratorBusyShare * fleet.wall_s;

  // The replay issues no queries while it runs; its query cost (and, when
  // traced, its checkpoint cost) is sampled on the full state.
  for (int i = 0; i < kEndProbes; ++i) time_query(daemon, out);
  for (int i = 0; s.trace && i < kEndProbes; ++i) time_checkpoint(daemon, ckpt, out);
  out.server = daemon.server().stats();
  out.recoveries = daemon.health().total_recoveries();

  const double fcpu0 = thread_cpu_s();
  const auto f0 = Clock::now();
  const core::AnalysisReport report = daemon.finalize();
  out.finalize_ms = ms_since(f0);
  out.daemon_cpu_s = out.ingest_cpu_s + (thread_cpu_s() - fcpu0);
  out.report_packets = report.stats.packets;
  out.matches = core::report_to_json(report) == in.oracle_json;
  return out;
}

/// Folds one replay's outcome into the run's correctness ledger.
void account(const Replay& rp, std::uint64_t frames, RunResult& r) {
  r.attempted += frames;
  const std::uint64_t lost = frames - std::min(frames, rp.report_packets);
  if (!rp.matches) {
    r.failed += frames;
    r.fail(rp.timed_out ? "replay stalled past its deadline"
                        : "live report differs from the batch report");
  } else {
    r.failed += lost;
  }
  if (rp.generator_late) r.fail("invalid run: the load generator ran late");
}

}  // namespace

void run_live(const Inputs& in, const Settings& s, const AfterTrial& after_trial,
              RunResult& r) {
  const std::vector<double> due = make_schedule(in.script);
  const std::uint64_t frames = due.size();

  // Replays run back to back while another one, as long as the longest so
  // far, still fits in --seconds. A replay that hit its deadline ends the
  // run, so a stall costs at most one deadline beyond --seconds. The peak
  // resident set is that of the first replay.
  std::vector<Replay> replays;
  double longest_s = 0.0, peak_mb = 0.0;
  const auto start = Clock::now();
  reset_peak_rss_or_warn();
  do {
    const auto t0 = Clock::now();
    replays.push_back(replay(in, s, due, replays.size()));
    longest_s = std::max(longest_s, seconds_between(t0, Clock::now()));
    if (replays.size() == 1) peak_mb = peak_rss_mb();
    account(replays.back(), frames, r);
    after_trial();
  } while (!replays.back().timed_out &&
           seconds_between(start, Clock::now()) + longest_s <= s.seconds);

  // A trial is one replay: each metric is computed per replay (a p50 over
  // that replay's frames) and the run reports its best replay.
  std::vector<double> fps, cpu_us, lag_p50, lag_p99, query_p50, send_p99;
  double delivered = 1.0;
  for (const auto& rp : replays) {
    const double ingested = static_cast<double>(rp.ingest.lag_ms.size());
    fps.push_back(rp.ingest_s > 0 ? ingested / rp.ingest_s : 0.0);
    cpu_us.push_back(1e6 * rp.daemon_cpu_s / static_cast<double>(frames));
    lag_p50.push_back(quantile(rp.ingest.lag_ms, 0.5));
    lag_p99.push_back(quantile(rp.ingest.lag_ms, 0.99));
    // Every end probe sees the same full state, so each is a trial of its own.
    query_p50.push_back(best(rp.query_ms));
    send_p99.push_back(quantile(rp.send_lag_ms, 0.99));
    delivered = std::min(delivered, static_cast<double>(rp.report_packets) /
                                        static_cast<double>(frames));
  }
  r.add("frames_per_s", quantile(fps, 1.0), "1/s");  // the highest rate
  r.add("cpu_us_per_frame", best(cpu_us), "us");
  r.add("lag_ms_p50", best(lag_p50), "ms");
  r.add("lag_ms_p99", best(lag_p99), "ms");
  r.add("query_ms_p50", best(query_p50), "ms");
  r.add("frames_delivered_frac", delivered, "frac");
  r.add("peak_rss_mb", peak_mb, "MB");
  std::fprintf(stderr, "perfbench: %zu replays, worst send lag p99 %.1f ms\n",
               replays.size(), quantile(send_p99, 1.0));
}

void trace_live(const Inputs& in, const Settings& s, RunResult& r) {
  const std::vector<double> due = make_schedule(in.script);
  const Replay rp = replay(in, s, due, 0);
  account(rp, due.size(), r);

  std::vector<double> hold_ms;
  const std::size_t n = std::min(rp.recv.lag_ms.size(), rp.release.lag_ms.size());
  for (std::size_t i = 0; i < n; ++i) {
    hold_ms.push_back(rp.release.lag_ms[i] - rp.recv.lag_ms[i]);
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  r.add("netd.turn_ms_p50", quantile(rp.turn_ms, 0.5), "ms");
  r.add("netd.turn_ms_p99", quantile(rp.turn_ms, 0.99), "ms");
  r.add("netd.turns", count(rp.turn_ms.size()), "count");
  r.add("netd.recv_lag_ms_p50", quantile(rp.recv.lag_ms, 0.5), "ms");
  r.add("netd.recv_lag_ms_p99", quantile(rp.recv.lag_ms, 0.99), "ms");
  r.add("netd.release_lag_ms_p99", quantile(rp.release.lag_ms, 0.99), "ms");
  r.add("netd.merge_hold_ms_p99", quantile(hold_ms, 0.99), "ms");
  r.add("netd.merge_backlog_frames_p99", quantile(rp.backlog, 0.99), "count");
  r.add("core.ingest_cpu_ms", 1000.0 * rp.ingest_cpu_s, "ms");
  r.add("core.query_ms", median(rp.query_ms), "ms");
  r.add("core.checkpoint_ms", median(rp.checkpoint_ms), "ms");
  r.add("core.checkpoint_bytes", count(rp.checkpoint_bytes), "bytes");
  r.add("core.finalize_ms", rp.finalize_ms, "ms");
  r.add("netd.duplicate_frames_dropped", count(rp.server.duplicate_frames_dropped), "count");
  r.add("netd.shed_connections", count(rp.server.shed_connections), "count");
  r.add("netd.paused_reads", count(rp.server.paused_reads), "count");
  r.add("netd.forced_releases", count(rp.server.forced_releases), "count");
  r.add("netd.evicted_hostile", count(rp.server.evicted_hostile), "count");
  r.add("netd.evicted_warn", count(rp.server.evicted_warn), "count");
  r.add("netd.rejected_busy", count(rp.server.rejected_busy), "count");
  r.add("netd.peak_queued_bytes", count(rp.server.peak_queued_bytes), "bytes");
  r.add("client.send_lag_ms_p99", quantile(rp.send_lag_ms, 0.99), "ms");
  r.add("client.cpu_ms", 1000.0 * rp.fleet_cpu_s, "ms");
  r.add("client.reconnects", count(rp.fleet.reconnects), "count");
  r.add("client.busy_retries", count(rp.fleet.busy_retries), "count");
  r.add("client.failed_streams", count(rp.fleet.failed_streams), "count");
  r.add("health.recoveries", count(rp.recoveries), "count");
  r.add("trace.live_overhead_ms", rp.trace_overhead_ms, "ms");
}

}  // namespace perfbench
