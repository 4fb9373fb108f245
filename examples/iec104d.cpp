// iec104d: the always-on live-ingest daemon.
//
//   ./iec104d --port 0 --checkpoint live.ckpt --threads 8
//             --expect-streams 70 --drain-when-done --report report.json
//
// Accepts tapstream connections (see src/netd/wire.hpp) from fleet
// clients, merges them into one deterministic frame order, and feeds the
// streaming analyzer continuously. SIGTERM/SIGINT drain gracefully (final
// composed checkpoint + full report); SIGKILL at any point is recovered by
// restarting with --restore — the watermark merge plus cursor-based client
// resume make the final report byte-identical to an uninterrupted run.
//
// Exit codes: 0 clean, 1 usage or startup failure, 2 degraded (analyzer
// degradation warnings or forced releases), 3 hostile (conformance
// verdicts in the report, or transport-hostile peers evicted by netd;
// wins over 2), 4 self-terminate (the health watchdog ladder exhausted
// its recovery rungs; a process supervisor should restart with --restore).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "core/export.hpp"
#include "core/liveingest.hpp"
#include "faultinject/sysfault.hpp"
#include "health/health.hpp"
#include "util/strings.hpp"

using namespace uncharted;

namespace {

netd::Reactor* g_reactor = nullptr;
volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) {
  g_signal = sig;
  if (g_reactor != nullptr) g_reactor->notify_from_signal();
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--checkpoint FILE] [--restore]\n"
      "          [--threads N] [--interval SECONDS] [--report FILE]\n"
      "          [--expect-streams N] [--drain-when-done] [--run-for SECONDS]\n"
      "          [--kill-after-frames N] [--max-conns N] [--accept-rate R]\n"
      "          [--max-buffered-bytes N] [--per-conn-buffer N]\n"
      "          [--no-forced-release] [--handshake-timeout S]\n"
      "          [--read-timeout S] [--idle-timeout S] [--query-sock PATH]\n"
      "          [--max-flows N] [--max-reassembly-bytes N] [--max-records N]\n"
      "          [--max-parsers N] [--reassembled] [--quiet]\n"
      "          [--sysfault-rate R] [--sysfault-seed N]\n"
      "          [--sysfault-mode network|storage|compound]\n"
      "          [--no-watchdog] [--watchdog-poll S] [--watchdog-reactor S]\n"
      "          [--watchdog-merge S] [--watchdog-lane S]\n"
      "          [--watchdog-checkpoint S] [--breaker-max N]\n"
      "          [--breaker-window S] [--stall-checkpoint]\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  core::LiveIngestOptions options;
  options.streaming.analyze.threads = 1;
  bool restore = false;
  bool drain_when_done = false;
  bool quiet = false;
  double run_for = 0.0;
  std::uint64_t kill_after_frames = 0;
  std::string report_path;
  double sysfault_rate = 0.0;
  std::uint64_t sysfault_seed = 1;
  std::string sysfault_mode = "compound";

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      options.server.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--bind") {
      options.server.bind_addr = next();
    } else if (arg == "--checkpoint") {
      options.streaming.checkpoint_path = next();
    } else if (arg == "--restore") {
      restore = true;
    } else if (arg == "--threads") {
      options.streaming.analyze.threads = static_cast<unsigned>(std::atoll(next()));
    } else if (arg == "--interval") {
      options.checkpoint_every_s = std::atof(next());
    } else if (arg == "--report") {
      report_path = next();
    } else if (arg == "--expect-streams") {
      options.server.expect_streams = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--drain-when-done") {
      drain_when_done = true;
    } else if (arg == "--run-for") {
      run_for = std::atof(next());
    } else if (arg == "--kill-after-frames") {
      kill_after_frames = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--max-conns") {
      options.server.max_connections = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--accept-rate") {
      options.server.accept_rate = std::atof(next());
    } else if (arg == "--max-buffered-bytes") {
      options.server.max_buffered_bytes = static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--per-conn-buffer") {
      options.server.per_conn_buffered_bytes =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--no-forced-release") {
      options.server.allow_forced_release = false;
    } else if (arg == "--handshake-timeout") {
      options.server.handshake_timeout_s = std::atof(next());
    } else if (arg == "--read-timeout") {
      options.server.read_timeout_s = std::atof(next());
    } else if (arg == "--idle-timeout") {
      options.server.idle_timeout_s = std::atof(next());
    } else if (arg == "--query-sock") {
      options.server.query_sock_path = next();
    } else if (arg == "--max-flows") {
      options.streaming.budgets.max_flow_entries =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-reassembly-bytes") {
      options.streaming.budgets.max_reassembly_bytes =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-records") {
      options.streaming.budgets.max_records =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--max-parsers") {
      options.streaming.budgets.max_parsers =
          static_cast<std::size_t>(std::atoll(next()));
    } else if (arg == "--reassembled") {
      options.streaming.analyze.mode = analysis::ParseMode::kReassembled;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--sysfault-rate") {
      sysfault_rate = std::atof(next());
    } else if (arg == "--sysfault-seed") {
      sysfault_seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--sysfault-mode") {
      sysfault_mode = next();
    } else if (arg == "--no-watchdog") {
      options.watchdog.poll_s = 0.0;
    } else if (arg == "--watchdog-poll") {
      options.watchdog.poll_s = std::atof(next());
    } else if (arg == "--watchdog-reactor") {
      options.watchdog.reactor_deadline_s = std::atof(next());
    } else if (arg == "--watchdog-merge") {
      options.watchdog.merge_deadline_s = std::atof(next());
    } else if (arg == "--watchdog-lane") {
      options.watchdog.lane_deadline_s = std::atof(next());
    } else if (arg == "--watchdog-checkpoint") {
      options.watchdog.checkpoint_deadline_s = std::atof(next());
    } else if (arg == "--breaker-max") {
      options.watchdog.breaker.max_recoveries =
          static_cast<std::uint32_t>(std::atoll(next()));
    } else if (arg == "--breaker-window") {
      options.watchdog.breaker.window_s = std::atof(next());
    } else if (arg == "--stall-checkpoint") {
      // Test knob: wedge the checkpoint writer to drive the recovery
      // ladder (restart-checkpoint ×2 → self-terminate, exit 4).
      options.stall_checkpoint = true;
    } else {
      usage(argv[0]);
      return 1;
    }
  }

  // Self-chaos: one FaultySysOps shared by the reactor, the ingest
  // server, and the checkpoint writer — the soak script's in-binary knob.
  std::unique_ptr<faultinject::FaultySysOps> sysfault;
  if (sysfault_rate > 0.0) {
    faultinject::SysFaultPlan plan;
    if (sysfault_mode == "network") {
      plan = faultinject::SysFaultPlan::network(sysfault_rate, sysfault_seed);
    } else if (sysfault_mode == "storage") {
      plan = faultinject::SysFaultPlan::storage(sysfault_rate, sysfault_seed);
    } else if (sysfault_mode == "compound") {
      plan = faultinject::SysFaultPlan::compound(sysfault_rate, sysfault_seed);
    } else {
      usage(argv[0]);
      return 1;
    }
    sysfault = std::make_unique<faultinject::FaultySysOps>(plan);
    options.server.sys = sysfault.get();
    options.sys = sysfault.get();
  }

  netd::Reactor reactor(netd::Reactor::default_backend(), sysfault.get());
  g_reactor = &reactor;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  reactor.set_wakeup_callback([&reactor] {
    if (g_signal != 0) reactor.stop();
  });

  core::LiveIngestDaemon daemon(reactor, options);
  // Every recovery action lands on stderr (the health JSON keeps the full
  // ledger); the ladder's final rung stops the loop for the exit-4 path.
  daemon.set_recovery_hook([&](const health::StallEvent& ev, bool ok,
                               const std::string& detail) {
    std::fprintf(stderr, "health: %s %s: %s (%s)\n", ev.subsystem.c_str(),
                 health::action_name(ev.action), detail.c_str(),
                 ok ? "ok" : "failed");
    std::fflush(stderr);
    if (daemon.terminate_requested()) reactor.stop();
  });
  if (auto st = daemon.start(restore); !st) {
    std::fprintf(stderr, "start failed: %s\n", st.error().str().c_str());
    return 1;
  }
  if (daemon.restored()) {
    std::fprintf(stderr, "restored from checkpoint: %s frames already ingested\n",
                 format_count(daemon.frames_ingested()).c_str());
  }
  std::printf("listening on %s:%u\n", options.server.bind_addr.c_str(),
              daemon.server().port());
  std::fflush(stdout);

  if (run_for > 0.0) reactor.add_timer_after(run_for, [&reactor] { reactor.stop(); });
  // Re-arming watcher (declared at function scope: the timer callback
  // re-registers it by reference across fires): simulated SIGKILL (no
  // drain, no checkpoint, no destructors) and/or drain once every expected
  // stream has finished.
  std::function<void()> watch;
  if (kill_after_frames > 0 || drain_when_done) {
    watch = [&] {
      if (kill_after_frames > 0 &&
          daemon.frames_ingested() >= kill_after_frames) {
        std::fprintf(stderr, "simulated crash at %s frames\n",
                     format_count(daemon.frames_ingested()).c_str());
        std::fflush(stderr);
        std::_Exit(42);
      }
      if (drain_when_done && daemon.server().all_expected_finished()) {
        reactor.stop();
        return;
      }
      reactor.add_timer_after(0.01, watch);
    };
    reactor.add_timer_after(0.01, watch);
  }

  reactor.run();
  if (daemon.terminate_requested()) {
    // Controlled self-terminate: no finalize (the daemon is wedged — the
    // last good checkpoint on disk is the restart point). The supervisor
    // contract is exit 4 → restart with --restore.
    std::fprintf(stderr, "self-terminate: %s\n",
                 daemon.terminate_reason().c_str());
    std::fprintf(stderr, "health: %s\n", daemon.health_json().c_str());
    return health::kRecoveryExitCode;
  }
  if (sysfault) {
    // Chaos stops at drain: the final checkpoint and report measure
    // recovery, not luck (inject -> stop -> verify steady state).
    sysfault->set_enabled(false);
    std::fprintf(stderr, "sysfault: %s\n", sysfault->log().summary().c_str());
  }
  if (!quiet) {
    std::fprintf(stderr, "draining: %s\n", daemon.server().stats_line().c_str());
  }

  const netd::ServerStats stats = daemon.server().stats();  // pre-drain copy
  auto report = daemon.finalize();
  const std::string json = core::report_to_json(report);
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
    out.write(json.data(), static_cast<std::streamsize>(json.size()));
    if (!out) {
      std::fprintf(stderr, "cannot write report to %s\n", report_path.c_str());
      return 1;
    }
  }
  if (!quiet) {
    core::NameMap names;
    std::printf("%s\n", core::render_report(report, names).c_str());
  }

  const bool hostile = report.conformance.any_hostile() || stats.evicted_hostile > 0;
  if (hostile) return 3;
  if (report.degradation.degraded()) return 2;
  return 0;
}
