// bench_throughput: machine-readable packets/sec and APDUs/sec for the
// parallel flow-sharded pipeline at 1, 2, 4 and hardware_concurrency
// threads, over the Y1 and Y2 synthetic captures.
//
//   ./bench_throughput [--out BENCH_throughput.json] [--reps N]
//
// Three stages are timed per (capture, thread-count) pair:
//   ingest      — the ingest engine's add_packets over the whole capture
//                 (one lane on this thread at 1 thread, one per pool
//                 worker above that) plus the one query into a
//                 DatasetView that ends a batch run,
//   analyze     — query + analyze_view over one kept, fully ingested
//                 engine: every §6 computation, the lanes read in place,
//   end_to_end  — CaptureAnalyzer::analyze, both of the above (and the
//                 bandwidth accounting ingest feeds).
// Two more, at threads 1 only:
//   query       — StreamingAnalyzer::report_snapshot() once the whole
//                 capture is ingested: a live daemon's report query;
//   live        — Y1 only: a netd::FleetClient at pace 0 streams the
//                 capture over loopback into a core::LiveIngestDaemon on
//                 the same thread and reactor, timed until finalize()
//                 returns. The bench fails (exit 1) when that report
//                 differs from the batch report of the capture.
// Each stage runs --reps times (default 3) and reports the fastest wall
// time: the pipeline is deterministic, so the minimum is the measurement
// and the rest is scheduler noise.
//
// Output schema (one JSON object):
//   { "scale": S, "hardware_threads": H,
//     "results": [ {"capture": "y1", "stage": "ingest", "threads": T,
//                   "wall_ms": W, "packets_per_s": P, "apdus_per_s": A}, … ],
//     "speedup": [ {"capture": "y1", "stage": "end_to_end",
//                   "threads": T, "vs_1_thread": X}, … ] }
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/sharded.hpp"
#include "bench/common.hpp"
#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "core/liveingest.hpp"
#include "core/streaming.hpp"
#include "exec/pool.hpp"
#include "netd/client.hpp"
#include "sim/fleet.hpp"

using namespace uncharted;

namespace {

using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& fn) {
  auto start = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double best_of(int reps, const std::function<void()>& fn) {
  double best = time_ms(fn);
  for (int i = 1; i < reps; ++i) best = std::min(best, time_ms(fn));
  return best;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct Entry {
  std::string capture;
  std::string stage;
  unsigned threads;
  double wall_ms;
  std::uint64_t packets;
  std::uint64_t apdus;
};

double per_second(std::uint64_t count, double wall_ms) {
  return wall_ms > 0 ? static_cast<double>(count) / (wall_ms / 1000.0) : 0.0;
}

/// A live replay that does not finish by then is a stall, not a slow run.
constexpr double kLiveDeadlineS = 300.0;

/// One live replay of `script` at threads 1: the fleet at pace 0 and the
/// daemon share this thread and one reactor, so the cell's time is the
/// client's and the daemon's work added up, whatever the host's
/// parallelism. Returns the wall ms from the fleet's start until
/// finalize() returns, or a negative value when the replay stalled or the
/// daemon did not start; `json` receives the report.
double live_replay_ms(const sim::FleetScript& script, std::string& json) {
  core::LiveIngestOptions opt;
  opt.streaming.analyze.threads = 1;
  opt.checkpoint_every_s = 0.0;
  opt.server.expect_streams = script.streams.size();
  netd::Reactor reactor;
  core::LiveIngestDaemon daemon(reactor, opt);
  if (auto st = daemon.start(false); !st) {
    std::fprintf(stderr, "live: daemon start failed: %s\n", st.error().str().c_str());
    return -1.0;
  }
  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  fc.pace = 0.0;
  std::vector<netd::ReplayStream> streams = script.streams;  // copied untimed

  const auto start = Clock::now();
  netd::FleetClient fleet(reactor, fc, std::move(streams));
  fleet.start();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(kLiveDeadlineS));
  while (!(fleet.all_done() && daemon.server().all_expected_finished())) {
    if (Clock::now() > deadline) {
      std::fprintf(stderr, "live: replay stalled past %.0f s\n", kLiveDeadlineS);
      return -1.0;
    }
    reactor.run_once(5);
  }
  json = core::report_to_json(daemon.finalize());
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE] [--reps N]\n", argv[0]);
      return 2;
    }
  }

  unsigned hw = exec::Pool::default_threads();
  std::vector<unsigned> thread_counts = {1, 2, 4};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  bench::print_header("Pipeline throughput",
                      "parallel flow-sharded ingest + §6 analytics");
  std::printf("hardware threads: %u, reps: %d, scale: %s\n\n", hw, reps,
              json_num(bench::bench_scale()).c_str());

  std::vector<Entry> entries;
  struct CaptureCase {
    const char* name;
    sim::CaptureResult cap;
  };
  std::vector<CaptureCase> cases;
  cases.push_back({"y1", bench::y1_capture()});
  cases.push_back({"y2", bench::y2_capture()});

  for (auto& c : cases) {
    const auto& packets = c.cap.packets;
    analysis::CaptureDataset::Options ds_opts;
    // APDU count for the throughput denominator (thread-invariant).
    std::uint64_t apdus =
        analysis::CaptureDataset::build(packets, ds_opts).stats().apdus;
    std::printf("%s: %zu packets, %llu apdus\n", c.name, packets.size(),
                static_cast<unsigned long long>(apdus));

    const auto frames = net::as_frame_views(packets);
    for (unsigned t : thread_counts) {
      core::CaptureAnalyzer::Options opts;
      opts.threads = t;
      auto pool = exec::Pool::for_threads(t);

      double ingest_ms = best_of(reps, [&] {
        analysis::ShardedDatasetBuilder engine(ds_opts, {}, pool.get());
        engine.add_packets(frames, nullptr);
        analysis::DatasetView view;
        engine.query(view);
      });
      entries.push_back(
          {c.name, "ingest", t, ingest_ms, packets.size(), apdus});

      analysis::ShardedDatasetBuilder engine(ds_opts, {}, pool.get());
      analysis::BandwidthAccumulator bandwidth;
      engine.add_packets(frames, &bandwidth);
      double analyze_ms = best_of(reps, [&] {
        analysis::DatasetView view;
        engine.query(view);
        auto report = core::analyze_view(view, bandwidth.finish(), pool.get());
        (void)report;
      });
      entries.push_back(
          {c.name, "analyze", t, analyze_ms, packets.size(), apdus});

      double e2e_ms = best_of(reps, [&] {
        auto report = core::CaptureAnalyzer::analyze(packets, opts);
        (void)report;
      });
      entries.push_back(
          {c.name, "end_to_end", t, e2e_ms, packets.size(), apdus});

      std::printf(
          "  %u thread(s): ingest %8.1f ms (%s pkt/s)  analyze %8.1f ms  "
          "end-to-end %8.1f ms\n",
          t, ingest_ms, json_num(per_second(packets.size(), ingest_ms)).c_str(),
          analyze_ms, e2e_ms);
    }

    core::StreamingOptions live;
    live.analyze.threads = 1;
    core::StreamingAnalyzer analyzer(live);
    analyzer.add_packets(net::as_frame_views(packets));
    double query_ms = best_of(reps, [&] {
      auto report = analyzer.report_snapshot();
      (void)report;
    });
    entries.push_back({c.name, "query", 1, query_ms, packets.size(), apdus});
    std::printf("  1 thread(s): query %8.1f ms\n", query_ms);

    if (std::string(c.name) != "y1") continue;
    core::CaptureAnalyzer::Options batch_opts;
    batch_opts.threads = 1;
    const std::string oracle =
        core::report_to_json(core::CaptureAnalyzer::analyze(packets, batch_opts));
    const sim::FleetScript script = sim::build_fleet_script(packets, {});
    double live_ms = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      std::string json;
      const double ms = live_replay_ms(script, json);
      if (ms < 0.0) return 1;
      if (json != oracle) {
        std::fprintf(stderr, "live: %s report differs from the batch report\n", c.name);
        return 1;
      }
      live_ms = rep == 0 ? ms : std::min(live_ms, ms);
    }
    entries.push_back({c.name, "live", 1, live_ms, packets.size(), apdus});
    std::printf("  1 thread(s): live %8.1f ms (report == batch)\n", live_ms);
  }

  // Speedups vs the 1-thread run of the same capture and stage.
  std::string json = "{";
  json += "\"scale\":" + json_num(bench::bench_scale());
  json += ",\"hardware_threads\":" + std::to_string(hw);
  json += ",\"results\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    if (i) json += ",";
    json += "{\"capture\":\"" + e.capture + "\"";
    json += ",\"stage\":\"" + e.stage + "\"";
    json += ",\"threads\":" + std::to_string(e.threads);
    json += ",\"wall_ms\":" + json_num(e.wall_ms);
    json += ",\"packets_per_s\":" + json_num(per_second(e.packets, e.wall_ms));
    json += ",\"apdus_per_s\":" + json_num(per_second(e.apdus, e.wall_ms)) + "}";
  }
  json += "],\"speedup\":[";
  bool first = true;
  for (const auto& e : entries) {
    if (e.threads == 1) continue;
    auto base = std::find_if(entries.begin(), entries.end(), [&](const Entry& b) {
      return b.capture == e.capture && b.stage == e.stage && b.threads == 1;
    });
    if (base == entries.end() || e.wall_ms <= 0) continue;
    double speedup = base->wall_ms / e.wall_ms;
    if (!first) json += ",";
    first = false;
    json += "{\"capture\":\"" + e.capture + "\"";
    json += ",\"stage\":\"" + e.stage + "\"";
    json += ",\"threads\":" + std::to_string(e.threads);
    json += ",\"vs_1_thread\":" + json_num(speedup) + "}";
    std::printf("%s %-10s @%u threads: %.2fx vs 1 thread\n", e.capture.c_str(),
                e.stage.c_str(), e.threads, speedup);
  }
  json += "]}";

  if (auto st = core::write_text_file(out_path, json + "\n"); !st) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 st.error().str().c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
