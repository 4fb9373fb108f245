// Self-healing chaos: induce each stall class the health subsystem knows
// about — a wedged shard lane, a checkpoint writer that cannot fsync, a
// registered stream that goes silent and wedges the watermark merge, a
// frozen reactor tick — and assert the daemon recovers on its own ladder
// (restart lane from the last composed checkpoint, restart the checkpoint
// writer, condemn the laggard, observe) with a final report byte-identical
// to an unmolested run at every worker-thread count. The ladder's terminal
// rung (self-terminate for a supervisor restart) and the crash-loop
// circuit breaker are driven in-process via the checkpoint stall knob.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/export.hpp"
#include "core/liveingest.hpp"
#include "faultinject/sysfault.hpp"
#include "health/health.hpp"
#include "netd/client.hpp"
#include "netd/reactor.hpp"
#include "netd/wire.hpp"
#include "sim/capture.hpp"
#include "sim/fleet.hpp"
#include "util/bytes.hpp"

namespace uncharted::core {
namespace {

using netd::MonoClock;
using netd::MonoTime;

constexpr std::size_t kNoVictim = static_cast<std::size_t>(-1);

/// One shared small capture and its fleet partition, replayed identically
/// by the fault-free reference and every chaos run.
const sim::FleetScript& shared_script() {
  static const sim::FleetScript script = [] {
    sim::CaptureConfig cc = sim::CaptureConfig::y1(12.0);
    cc.include_physical_events = false;
    const sim::CaptureResult capture = sim::generate_capture(cc);
    sim::FleetScriptConfig fc;
    fc.clones = 1;
    return sim::build_fleet_script(capture.packets, fc);
  }();
  return script;
}

template <typename Pred>
bool drive(netd::Reactor& reactor, Pred&& done, double timeout_s) {
  const MonoTime deadline =
      MonoClock::now() + std::chrono::duration_cast<MonoClock::duration>(
                             std::chrono::duration<double>(timeout_s));
  while (!done()) {
    if (MonoClock::now() > deadline) return false;
    reactor.run_once(20);
  }
  return true;
}

/// Base options: fast watchdog cadence, but every deadline parked far past
/// the test's runtime. Each test shortens exactly the deadline it means to
/// trip, so a slow CI host can never cross-fire another watchdog.
LiveIngestOptions chaos_options(unsigned threads, std::uint64_t streams,
                                const std::string& checkpoint) {
  LiveIngestOptions opt;
  opt.streaming.analyze.threads = threads;
  opt.streaming.checkpoint_path = checkpoint;
  opt.checkpoint_every_s = 0.0;
  opt.server.expect_streams = streams;
  opt.server.tick_s = 0.02;
  opt.server.allow_forced_release = false;  // byte-identity is asserted
  opt.watchdog.poll_s = 0.02;
  opt.watchdog.reactor_deadline_s = 1000.0;
  opt.watchdog.merge_deadline_s = 1000.0;
  opt.watchdog.lane_deadline_s = 1000.0;
  opt.watchdog.checkpoint_deadline_s = 0.0;  // off while the cadence is off
  return opt;
}

/// Fault-free uninterrupted run: the reference report.
AnalysisReport reference_analysis(unsigned threads) {
  const sim::FleetScript& script = shared_script();
  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor,
                          chaos_options(threads, script.streams.size(), ""));
  EXPECT_TRUE(daemon.start(false).ok());
  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();
  EXPECT_TRUE(drive(reactor, [&] {
    return fleet.all_done() && daemon.server().all_expected_finished();
  }, 120.0));
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(daemon.health().total_recoveries(), 0u)
      << "a healthy run tripped a watchdog: " << daemon.health_json();
  return daemon.finalize();
}

std::string reference_report(unsigned threads) {
  return report_to_json(reference_analysis(threads));
}

/// Serves the supervision JSON over the live query socket. fetch_health
/// blocks, so it runs on a helper thread while this thread keeps driving
/// the reactor.
std::string fetch_health_live(netd::Reactor& reactor, LiveIngestDaemon& daemon) {
  const std::uint16_t port = daemon.server().port();
  const std::uint64_t before = daemon.server().stats().queries_served;
  Result<std::string> got = Error{"health", "never ran"};
  std::thread asker([&got, port] {
    got = netd::fetch_health("127.0.0.1", port, 10.0);
  });
  EXPECT_TRUE(drive(reactor, [&] {
    return daemon.server().stats().queries_served > before;
  }, 20.0));
  asker.join();
  EXPECT_TRUE(got.ok()) << (got.ok() ? "" : got.error().str());
  return got.ok() ? *got : std::string();
}

class HealthChaos : public ::testing::TestWithParam<unsigned> {};

// Stall class 1: a shard lane stops ingesting while packets queue behind
// it. The ladder quarantine-restarts the whole engine from the last
// composed checkpoint on the same port; clients resume from the restored
// cursors (the kill/restore contract, executed in-process) and the final
// report is byte-identical.
TEST_P(HealthChaos, WedgedLaneRestartsFromCheckpointByteIdentical) {
  const unsigned threads = GetParam();
  const std::string reference = reference_report(threads);
  ASSERT_FALSE(reference.empty());
  const sim::FleetScript& script = shared_script();
  const std::string checkpoint = testing::TempDir() + "/health_chaos_lane_t" +
                                 std::to_string(threads) + ".ckpt";

  // The wedge: once armed, the first shard that sees traffic stops
  // ingesting (its packets park in the deferral queue) until cleared.
  bool wedged = false;
  std::size_t victim = kNoVictim;
  LiveIngestOptions opt =
      chaos_options(threads, script.streams.size(), checkpoint);
  opt.watchdog.lane_deadline_s = 0.4;
  opt.streaming.stall_hook = [&](std::size_t shard) {
    if (!wedged) return false;
    if (victim == kNoVictim) victim = shard;
    return shard == victim;
  };

  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  fc.pace = 8.0;  // spread delivery so the wedge lands mid-stream
  fc.linger = true;
  fc.linger_recheck_s = 0.05;
  fc.retry_initial_s = 0.02;
  fc.retry_for_s = 300.0;
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();

  // A quarter in, land the checkpoint that the recovery will restore from,
  // then wedge a lane.
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.frames_ingested() >= script.total_frames / 4;
  }, 120.0));
  ASSERT_TRUE(daemon.checkpoint_now().ok());
  wedged = true;

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.health().total_recoveries() >= 1;
  }, 30.0)) << "the lane watchdog never fired";
  wedged = false;

  ASSERT_NE(victim, kNoVictim);
  const std::string lane = "lane/" + std::to_string(victim);
  const auto& ledger = daemon.health().ledger();
  ASSERT_FALSE(ledger.empty());
  EXPECT_EQ(ledger[0].subsystem, lane);
  EXPECT_EQ(ledger[0].action, health::Action::kRestartLane);
  EXPECT_TRUE(ledger[0].ok) << ledger[0].detail;
  EXPECT_NE(ledger[0].detail.find("from checkpoint"), std::string::npos)
      << ledger[0].detail;
  EXPECT_GE(daemon.health().recoveries(lane), 1u);

  // The recovery is visible over the (rebuilt) query socket mid-run.
  const std::string health = fetch_health_live(reactor, daemon);
  EXPECT_NE(health.find("\"action\":\"restart-lane\""), std::string::npos);
  EXPECT_NE(health.find("\"" + lane + "\""), std::string::npos);

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().all_expected_finished() && fleet.all_done();
  }, 120.0)) << "drain never completed after the lane restart";
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(reference, report_to_json(daemon.finalize()))
      << "the lane restart changed the final report";
}

// Stall class 2: the checkpoint writer stops landing snapshots (every
// fsync fails). The watchdog restarts the writer; once the storm lifts the
// next write succeeds, the degradation flag clears, and the report is
// byte-identical — durability degraded, analysis never did.
TEST_P(HealthChaos, CheckpointFsyncStormRestartsWriterByteIdentical) {
  const unsigned threads = GetParam();
  const std::string reference = reference_report(threads);
  ASSERT_FALSE(reference.empty());
  const sim::FleetScript& script = shared_script();
  const std::string checkpoint = testing::TempDir() + "/health_chaos_ckpt_t" +
                                 std::to_string(threads) + ".ckpt";

  faultinject::SysFaultPlan plan;
  plan.fsync_fail_p = 1.0;  // a storm, not a roll of the dice
  faultinject::FaultySysOps sys(plan);

  LiveIngestOptions opt =
      chaos_options(threads, script.streams.size(), checkpoint);
  opt.sys = &sys;  // the storm hits only the checkpoint writer's syscalls
  opt.checkpoint_every_s = 0.05;
  opt.watchdog.checkpoint_deadline_s = 0.4;

  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());
  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.health().recoveries("checkpoint") >= 1;
  }, 30.0)) << "the checkpoint watchdog never fired";
  EXPECT_GE(daemon.checkpoint_failures(), 1u);
  EXPECT_FALSE(daemon.checkpoint_error().empty());

  bool saw_restart = false;
  for (const auto& e : daemon.health().ledger()) {
    if (e.action != health::Action::kRestartCheckpoint) continue;
    saw_restart = true;
    EXPECT_FALSE(e.ok) << "a retry under a total fsync storm cannot succeed";
  }
  EXPECT_TRUE(saw_restart);

  // Lift the storm: the rearmed periodic writer lands a snapshot, progress
  // resumes, and the subsystem walks back to healthy.
  sys.set_enabled(false);
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.checkpoint_error().empty() &&
           daemon.health().state("checkpoint") == health::State::kHealthy;
  }, 30.0)) << "the writer never recovered after the storm lifted";

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().all_expected_finished() && fleet.all_done();
  }, 120.0));
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_FALSE(daemon.terminate_requested());
  EXPECT_EQ(reference, report_to_json(daemon.finalize()))
      << "a checkpoint-writer stall leaked into the analysis";
}

// Stall class 3: a registered stream says hello and then goes silent. Its
// watermark bound gates every release, so the merge starves with frames
// queued; the ladder condemns the laggard (kWarn eviction, finished) and
// the drain completes. The silent stream contributed no frames, so the
// report is the reference byte for byte plus exactly one warning: a
// condemned stream may have lost frames, and the report says so.
TEST_P(HealthChaos, SilentMergeLaggardIsCondemned) {
  const unsigned threads = GetParam();
  AnalysisReport expected = reference_analysis(threads);
  ASSERT_TRUE(expected.degradation.warnings.empty());
  expected.degradation.warnings.push_back(
      "live ingest lost frames: 1 stream condemned as watermark laggard; "
      "frames not yet sent are missing from the report");
  const std::string reference = report_to_json(expected);
  const sim::FleetScript& script = shared_script();

  LiveIngestOptions opt =
      chaos_options(threads, script.streams.size() + 1, "");
  opt.watchdog.merge_deadline_s = 0.4;

  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  // The laggard: a raw peer that completes the hello handshake for stream
  // 9000 and never sends a frame (or a fin).
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.server().port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ByteWriter hello;
  netd::wire::encode_hello(hello, {netd::wire::HelloKind::kData, 9000, 0});
  ASSERT_EQ(::send(fd, hello.view().data(), hello.size(), 0),
            static_cast<ssize_t>(hello.size()));

  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().all_expected_finished() && fleet.all_done();
  }, 120.0)) << "the merge never unwedged — was the laggard condemned?";
  ::close(fd);

  bool condemned = false;
  for (const auto& e : daemon.health().ledger()) {
    if (e.action != health::Action::kCondemnStream || !e.ok) continue;
    condemned = true;
    EXPECT_NE(e.detail.find("9000"), std::string::npos) << e.detail;
    EXPECT_EQ(e.subsystem, "merge");
  }
  EXPECT_TRUE(condemned) << daemon.health_json();
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(reference, report_to_json(daemon.finalize()))
      << "condemning an empty-handed laggard changed the report beyond its warning";
}

// Stall class 4: the reactor's housekeeping tick stops advancing. Nothing
// can be restarted from inside the loop, so the ladder's rung is observe:
// one ledger entry per deadline, a rearm, and no escalation. Runs on the
// injected virtual clock so the stall is exact, not slept-for.
TEST_P(HealthChaos, FrozenReactorTickIsObservedNotEscalated) {
  const unsigned threads = GetParam();
  const std::string reference = reference_report(threads);
  ASSERT_FALSE(reference.empty());
  const sim::FleetScript& script = shared_script();

  double vt = 0.0;
  LiveIngestOptions opt = chaos_options(threads, script.streams.size(), "");
  opt.server.tick_s = 10.0;  // the tick never fires inside this test
  opt.watchdog.reactor_deadline_s = 5.0;  // virtual seconds
  opt.watchdog.clock = [&vt] { return vt; };

  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());
  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();

  // The whole ingest happens at virtual time zero: a frozen tick with no
  // virtual time elapsed is not yet a stall.
  ASSERT_TRUE(drive(reactor, [&] {
    return fleet.all_done() && daemon.server().all_expected_finished();
  }, 120.0));
  EXPECT_EQ(daemon.health().total_recoveries(), 0u);

  vt = 6.0;  // one deadline-and-change with zero tick progress
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.health().total_recoveries() >= 1;
  }, 10.0)) << "the reactor watchdog never fired";
  const auto& ledger = daemon.health().ledger();
  ASSERT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger[0].subsystem, "reactor");
  EXPECT_EQ(ledger[0].action, health::Action::kObserve);
  EXPECT_TRUE(ledger[0].ok);
  EXPECT_NE(ledger[0].detail.find("observing"), std::string::npos);

  // Firing rearms for a full deadline: no re-fire two virtual seconds on.
  vt = 8.0;
  (void)drive(reactor, [] { return false; }, 0.3);
  EXPECT_EQ(daemon.health().total_recoveries(), 1u);
  EXPECT_FALSE(daemon.terminate_requested());
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(reference, report_to_json(daemon.finalize()));
}

INSTANTIATE_TEST_SUITE_P(Threads, HealthChaos, ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<unsigned>& param) {
                           std::string name = "t";
                           name += std::to_string(param.param);
                           return name;
                         });

// The terminal rung: a checkpoint writer wedged beyond both restart rungs
// asks the driver to exit health::kRecoveryExitCode so a supervisor can
// restart the process into --restore. The watchdog stands down afterwards.
TEST(HealthRecovery, LadderExhaustionRequestsSelfTerminate) {
  netd::Reactor reactor;
  LiveIngestOptions opt =
      chaos_options(1, 0, testing::TempDir() + "/health_terminate.ckpt");
  opt.checkpoint_every_s = 0.05;
  opt.stall_checkpoint = true;  // every write fails, deterministically
  opt.watchdog.checkpoint_deadline_s = 0.15;

  LiveIngestDaemon daemon(reactor, opt);
  std::vector<health::Action> hooked;
  daemon.set_recovery_hook(
      [&](const health::StallEvent& ev, bool, const std::string&) {
        hooked.push_back(ev.action);
      });
  ASSERT_TRUE(daemon.start(false).ok());

  ASSERT_TRUE(drive(reactor, [&] { return daemon.terminate_requested(); }, 30.0))
      << "the ladder never reached self-terminate";
  EXPECT_NE(daemon.terminate_reason().find("checkpoint stalled"),
            std::string::npos)
      << daemon.terminate_reason();
  EXPECT_NE(daemon.terminate_reason().find("ladder exhausted"),
            std::string::npos);

  const auto& ledger = daemon.health().ledger();
  ASSERT_EQ(ledger.size(), 3u);
  EXPECT_EQ(ledger[0].action, health::Action::kRestartCheckpoint);
  EXPECT_FALSE(ledger[0].ok);
  EXPECT_EQ(ledger[1].action, health::Action::kRestartCheckpoint);
  EXPECT_FALSE(ledger[1].ok);
  EXPECT_EQ(ledger[2].action, health::Action::kSelfTerminate);
  EXPECT_TRUE(ledger[2].ok);
  EXPECT_EQ(hooked.size(), 3u);  // every recovery reached the driver hook
  EXPECT_NE(daemon.health_json().find("\"action\":\"self-terminate\""),
            std::string::npos);

  // Once termination is requested the poll timer stops rearming: no
  // further recoveries accrue while the driver unwinds.
  (void)drive(reactor, [] { return false; }, 0.2);
  EXPECT_EQ(daemon.health().total_recoveries(), 3u);
}

// The crash-loop circuit breaker: with only two attempts allowed in the
// window, a permanently wedged writer is marked failed after two restarts
// and the daemon neither flaps nor self-terminates — degraded but honest,
// and still serving.
TEST(HealthRecovery, BreakerHaltsACrashLoopingRecovery) {
  netd::Reactor reactor;
  LiveIngestOptions opt =
      chaos_options(1, 0, testing::TempDir() + "/health_breaker.ckpt");
  opt.checkpoint_every_s = 0.05;
  opt.stall_checkpoint = true;
  opt.watchdog.checkpoint_deadline_s = 0.15;
  opt.watchdog.breaker = {2, 60.0};

  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.health().recoveries("checkpoint") >= 2;
  }, 30.0));
  // Two more deadline periods pass: the breaker holds, nothing escalates.
  (void)drive(reactor, [] { return false; }, 0.6);
  EXPECT_FALSE(daemon.terminate_requested());
  EXPECT_EQ(daemon.health().recoveries("checkpoint"), 2u);
  EXPECT_TRUE(daemon.health().breaker_open("checkpoint"));
  EXPECT_EQ(daemon.health().state("checkpoint"), health::State::kFailed);
  EXPECT_NE(daemon.health_json().find("\"state\":\"failed\""),
            std::string::npos);
  EXPECT_NE(daemon.health_json().find("\"breaker_open\":true"),
            std::string::npos);
}

}  // namespace
}  // namespace uncharted::core
