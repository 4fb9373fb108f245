// Compound syscall-chaos soak: the live-ingest daemon under simultaneous
// network faults (EINTR/EAGAIN storms, short reads/writes, connection
// resets, EMFILE, delayed readiness) AND storage faults (ENOSPC, EIO,
// failed fsync, torn rename) — plus a mid-soak SIGKILL and restore — must
// still produce a final report byte-identical to an uninterrupted
// fault-free run, drop zero benign streams, and keep buffered bytes
// bounded. Repeated across seeds and worker-thread counts; the fault
// ledger proves the chaos actually happened.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/export.hpp"
#include "core/liveingest.hpp"
#include "faultinject/sysfault.hpp"
#include "netd/client.hpp"
#include "netd/reactor.hpp"
#include "sim/capture.hpp"
#include "sim/fleet.hpp"

namespace uncharted::core {
namespace {

using netd::MonoClock;
using netd::MonoTime;

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

LiveIngestOptions daemon_options(unsigned threads, std::uint64_t streams,
                                 const std::string& checkpoint,
                                 faultinject::SysOps* sys) {
  LiveIngestOptions opt;
  opt.streaming.analyze.threads = threads;
  opt.streaming.checkpoint_path = checkpoint;
  opt.checkpoint_every_s = 0.0;  // the soak drives checkpoints explicitly
  opt.server.expect_streams = streams;
  opt.server.tick_s = 0.02;
  opt.server.allow_forced_release = false;  // byte-identity is asserted
  opt.server.sys = sys;
  opt.sys = sys;
  return opt;
}

/// Fault-free uninterrupted run: the reference report.
std::string reference_report(unsigned threads) {
  const sim::FleetScript& script = shared_script();
  netd::Reactor reactor;
  LiveIngestDaemon daemon(
      reactor, daemon_options(threads, script.streams.size(), "", nullptr));
  EXPECT_TRUE(daemon.start(false).ok());
  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();
  EXPECT_TRUE(drive(reactor, [&] {
    return fleet.all_done() && daemon.server().all_expected_finished();
  }, 120.0));
  EXPECT_TRUE(fleet.all_benign_ok());
  return report_to_json(daemon.finalize());
}

struct ChaosOutcome {
  std::string report;
  faultinject::SysFaultLog faults;
  std::size_t peak_queued_bytes = 0;
  std::uint64_t checkpoint_failures = 0;
};

/// The chaos run: compound faults on EVERY syscall surface (reactor,
/// server, fleet client, checkpoint writer), a kill a quarter of the way
/// in, restore from the last checkpoint that landed, then faults off for
/// the drain so the final comparison measures recovery, not luck.
ChaosOutcome chaos_run(unsigned threads, std::uint64_t seed,
                       const std::string& checkpoint) {
  const sim::FleetScript& script = shared_script();
  faultinject::FaultySysOps sys(faultinject::SysFaultPlan::compound(0.02, seed));

  netd::Reactor reactor(netd::Reactor::default_backend(), &sys);
  auto daemon = std::make_unique<LiveIngestDaemon>(
      reactor,
      daemon_options(threads, script.streams.size(), checkpoint, &sys));
  EXPECT_TRUE(daemon->start(false).ok());
  const std::uint16_t port = daemon->server().port();

  netd::FleetConfig fc;
  fc.port = port;
  fc.pace = 8.0;  // spread delivery so the kill lands mid-stream
  fc.linger = true;
  fc.linger_recheck_s = 0.05;
  fc.retry_initial_s = 0.02;
  fc.retry_for_s = 300.0;  // chaos slows everything; never give up benign
  fc.sys = &sys;
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();

  ChaosOutcome out;

  // Ingest a quarter of the capture under fire, then checkpoint. Storage
  // faults fail individual writes (each failure leaves the previous
  // generation restorable); retry until one lands, as the daemon's
  // periodic timer would across intervals.
  const std::uint64_t kill_at = script.total_frames / 4;
  EXPECT_TRUE(drive(
      reactor, [&] { return daemon->frames_ingested() >= kill_at; }, 120.0))
      << "seed " << seed << ": ingest stalled under chaos";
  bool checkpointed = false;
  for (int attempt = 0; attempt < 500 && !checkpointed; ++attempt) {
    checkpointed = daemon->checkpoint_now().ok();
  }
  EXPECT_TRUE(checkpointed) << "seed " << seed
                            << ": no checkpoint landed in 500 attempts";
  out.checkpoint_failures = daemon->checkpoint_failures();

  // Keep ingesting past the checkpoint (cursor resume must re-send it),
  // then SIGKILL: destroy without finalize.
  const std::uint64_t past = daemon->frames_ingested() + 50;
  (void)drive(reactor, [&] { return daemon->frames_ingested() >= past; }, 5.0);
  out.peak_queued_bytes = daemon->server().stats().peak_queued_bytes;
  daemon.reset();

  // Restore on the same port, still under fire.
  LiveIngestOptions opt2 =
      daemon_options(threads, script.streams.size(), checkpoint, &sys);
  opt2.server.port = port;
  auto restored = std::make_unique<LiveIngestDaemon>(reactor, opt2);
  EXPECT_TRUE(restored->start(true).ok());
  EXPECT_TRUE(restored->restored())
      << "seed " << seed << ": checkpoint did not survive the storage chaos";

  // Let chaos keep running for half the remaining frames, then lift it and
  // drain clean: inject → stop → verify steady state.
  const std::uint64_t chaos_until =
      restored->frames_ingested() +
      (script.total_frames - restored->frames_ingested()) / 2;
  (void)drive(reactor,
              [&] { return restored->frames_ingested() >= chaos_until; }, 60.0);
  out.faults = sys.log();
  sys.set_enabled(false);

  EXPECT_TRUE(drive(reactor, [&] {
    return restored->server().all_expected_finished() && fleet.all_done();
  }, 120.0)) << "seed " << seed << ": drain never completed after chaos";
  EXPECT_TRUE(fleet.all_benign_ok())
      << "seed " << seed << ": a benign stream was dropped";
  out.peak_queued_bytes =
      std::max(out.peak_queued_bytes,
               restored->server().stats().peak_queued_bytes);
  out.report = report_to_json(restored->finalize());
  return out;
}

class SysFaultSoak : public ::testing::TestWithParam<unsigned> {};

TEST_P(SysFaultSoak, CompoundChaosPreservesEveryInvariant) {
  const unsigned threads = GetParam();
  const std::string reference = reference_report(threads);
  ASSERT_FALSE(reference.empty());

  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::string checkpoint =
        testing::TempDir() + "/sysfault_soak_t" + std::to_string(threads) +
        "_s" + std::to_string(seed) + ".ckpt";
    const ChaosOutcome out = chaos_run(threads, seed, checkpoint);

    // PR-7 acceptance invariant, now under syscall chaos: byte-identical.
    EXPECT_EQ(reference, out.report)
        << "seed " << seed << ", threads " << threads
        << ": chaos changed the final report";

    // The chaos must have actually happened, across several fault classes.
    EXPECT_GT(out.faults.total(), 0u) << "seed " << seed << " injected nothing";
    EXPECT_GE(out.faults.classes_fired(), 3)
        << "seed " << seed << " fired too few fault classes: "
        << out.faults.summary();

    // Bounded memory: buffered bytes never exceeded the admission budget.
    EXPECT_LE(out.peak_queued_bytes, LiveIngestOptions{}.server.max_buffered_bytes)
        << "seed " << seed << ": buffered bytes escaped the budget";
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SysFaultSoak, ::testing::Values(1u, 8u),
                         [](const ::testing::TestParamInfo<unsigned>& param) {
                           std::string name = "t";
                           name += std::to_string(param.param);
                           return name;
                         });

}  // namespace
}  // namespace uncharted::core
