// OS-fault resilience of the netd layer: accept() dying with EMFILE —
// injected AND real (soft RLIMIT_NOFILE) — must shed and recover at tick
// cadence without busy-looping, and checkpoint ENOSPC must surface as a
// degradation warning in the query-socket report while the previous
// snapshot stays restorable.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/liveingest.hpp"
#include "faultinject/sysfault.hpp"
#include "netd/client.hpp"
#include "netd/reactor.hpp"
#include "netd/server.hpp"

// Genuine fd exhaustion starves the sanitizer runtimes themselves: with
// zero free descriptors, libubsan's vptr check cannot open /proc/self/mem
// to probe the object and reports a spurious "invalid vptr" on the first
// polymorphic call made inside the exhausted window. The injected-EMFILE
// test keeps this code path under sanitizer coverage; the real-RLIMIT
// test runs in the plain and release configurations.
#if defined(__SANITIZE_ADDRESS__)
#define UNCHARTED_SANITIZERS_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define UNCHARTED_SANITIZERS_ACTIVE 1
#endif
#endif
#ifndef UNCHARTED_SANITIZERS_ACTIVE
#define UNCHARTED_SANITIZERS_ACTIVE 0
#endif

namespace uncharted::netd {
namespace {

net::CapturedPacket make_frame(Timestamp ts, std::uint8_t tag) {
  net::CapturedPacket pkt;
  pkt.ts = ts;
  pkt.data.assign(64, tag);
  pkt.original_length = 64;
  return pkt;
}

ReplayStream make_stream(std::uint64_t id, Timestamp first_ts, int frames) {
  ReplayStream s;
  s.id = id;
  for (int i = 0; i < frames; ++i) {
    s.frames.push_back(make_frame(first_ts + static_cast<Timestamp>(i) * 10,
                                  static_cast<std::uint8_t>(id & 0xFF)));
  }
  return s;
}

template <typename Pred>
bool drive(Reactor& reactor, Pred&& done, double timeout_s = 30.0) {
  const MonoTime deadline =
      MonoClock::now() + std::chrono::duration_cast<MonoClock::duration>(
                             std::chrono::duration<double>(timeout_s));
  while (!done()) {
    if (MonoClock::now() > deadline) return false;
    reactor.run_once(20);
  }
  return true;
}

TEST(SysFaultNetd, InjectedEmfileStormShedsAndRecovers) {
  // Every accept attempt fails with EMFILE at first; the plan's seeded
  // stream lets later attempts through. The server must mute the listener
  // on each failure (no spin), re-arm on tick, and finish every stream.
  faultinject::SysFaultPlan plan;
  plan.seed = 11;
  plan.accept_emfile_p = 0.7;
  faultinject::FaultySysOps sys(plan);

  Reactor reactor;
  ServerConfig cfg;
  cfg.expect_streams = 3;
  cfg.tick_s = 0.02;
  cfg.sys = &sys;
  std::uint64_t released = 0;
  IngestServer server(reactor, cfg,
                      [&](std::uint64_t, const net::FrameView&) {
                        ++released;
                      });
  ASSERT_TRUE(server.start().ok());

  FleetConfig fc;
  fc.port = server.port();
  fc.retry_for_s = 30.0;
  std::vector<ReplayStream> streams = {make_stream(1, 0, 30),
                                       make_stream(2, 3, 30),
                                       make_stream(3, 6, 30)};
  FleetClient fleet(reactor, fc, streams);
  fleet.start();

  ASSERT_TRUE(drive(reactor, [&] {
    return fleet.all_done() && server.all_expected_finished();
  })) << server.stats_line();
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(released, 90u);
  EXPECT_GE(server.stats().accept_fd_exhausted, 1u)
      << "the storm never actually hit accept";
}

/// Lowers the soft RLIMIT_NOFILE for the test body and restores it on
/// destruction, whatever the test's outcome.
struct ScopedNofileLimit {
  rlimit saved{};
  bool armed = false;
  explicit ScopedNofileLimit(rlim_t soft) {
    if (::getrlimit(RLIMIT_NOFILE, &saved) != 0) return;
    rlimit lowered = saved;
    lowered.rlim_cur = soft;
    armed = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  void restore() {
    if (armed) ::setrlimit(RLIMIT_NOFILE, &saved);
    armed = false;
  }
  ~ScopedNofileLimit() { restore(); }
};

TEST(SysFaultNetd, RealFdExhaustionShedsThenRecoversWhenLimitLifts) {
  // Genuine kernel EMFILE, no injection: burn every descriptor below a
  // lowered soft limit except ONE, so the client's socket() succeeds and
  // the server's accept() cannot. The server must shed (mute + count),
  // keep the loop responsive, and complete once descriptors free up.
  if (UNCHARTED_SANITIZERS_ACTIVE) {
    GTEST_SKIP() << "fd exhaustion starves the sanitizer runtime (see top "
                    "of file); the injected-EMFILE test covers this path";
  }
  Reactor reactor;
  ServerConfig cfg;
  cfg.expect_streams = 1;
  cfg.tick_s = 0.02;
  std::uint64_t released = 0;
  IngestServer server(reactor, cfg,
                      [&](std::uint64_t, const net::FrameView&) {
                        ++released;
                      });
  ASSERT_TRUE(server.start().ok());

  // Lower the soft limit to just above the current usage so only a
  // handful of descriptors need burning, however many gtest has open.
  std::size_t fds_in_use = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++fds_in_use;
  }
  ScopedNofileLimit limit(static_cast<rlim_t>(fds_in_use + 8));
  ASSERT_TRUE(limit.armed);

  // Burn descriptors until the kernel says EMFILE, then hand back one.
  std::vector<int> burned;
  while (true) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      ASSERT_EQ(EMFILE, errno) << "expected fd exhaustion, got another error";
      break;
    }
    burned.push_back(fd);
  }
  ASSERT_FALSE(burned.empty());
  ::close(burned.back());
  burned.pop_back();

  FleetConfig fc;
  fc.port = server.port();
  fc.retry_for_s = 30.0;
  fc.retry_initial_s = 0.02;
  std::vector<ReplayStream> streams = {make_stream(7, 0, 20)};
  FleetClient fleet(reactor, fc, streams);
  fleet.start();  // takes the last free descriptor; accept() now EMFILEs

  const bool exhausted =
      drive(reactor, [&] { return server.stats().accept_fd_exhausted >= 1; },
            10.0);

  // Lift the pressure and the stream must complete normally.
  for (int fd : burned) ::close(fd);
  burned.clear();
  limit.restore();

  ASSERT_TRUE(drive(reactor, [&] {
    return fleet.all_done() && server.all_expected_finished();
  })) << server.stats_line();
  EXPECT_TRUE(exhausted) << "accept never hit the descriptor wall: "
                         << server.stats_line();
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(released, 20u);
  EXPECT_GE(server.stats().accept_fd_exhausted, 1u);
}

TEST(SysFaultNetd, CheckpointEnospcDegradesQueryReportAndKeepsSnapshot) {
  // ENOSPC on every checkpoint write: the daemon keeps running, the query
  // socket's report JSON carries the degradation warning, the previous
  // snapshot stays restorable, and the first healthy write clears it all.
  const std::string checkpoint =
      testing::TempDir() + "/sysfault_enospc.ckpt";
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(checkpoint + ".1");
  std::filesystem::remove(checkpoint + ".tmp");

  faultinject::SysFaultPlan plan;
  plan.write_enospc_p = 1.0;
  faultinject::FaultySysOps sys(plan);
  sys.set_enabled(false);  // healthy disk first

  Reactor reactor;
  core::LiveIngestOptions opt;
  opt.streaming.checkpoint_path = checkpoint;
  opt.checkpoint_every_s = 0.0;  // driven manually
  opt.server.expect_streams = 0;
  opt.server.tick_s = 0.02;
  opt.sys = &sys;
  core::LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  // Healthy write: one good generation on disk, report clean.
  ASSERT_TRUE(daemon.checkpoint_now().ok());
  EXPECT_EQ(daemon.report_json().find("checkpoint degraded"),
            std::string::npos);

  // The disk fills: writes fail, the daemon degrades instead of dying.
  sys.set_enabled(true);
  EXPECT_FALSE(daemon.checkpoint_now().ok());
  EXPECT_GE(daemon.checkpoint_failures(), 1u);
  EXPECT_NE(daemon.checkpoint_error().find("checkpoint-write"),
            std::string::npos);

  // The degradation warning is part of the query-socket payload.
  Result<std::string> got = Error{"query", "never ran"};
  std::thread asker([&] {
    got = fetch_report("127.0.0.1", daemon.server().port(), 5.0);
  });
  ASSERT_TRUE(
      drive(reactor, [&] { return daemon.server().stats().queries_served >= 1; }));
  asker.join();
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got->find("checkpoint degraded"), std::string::npos)
      << "query report hides the stale-snapshot degradation";
  EXPECT_NE(got->find("last good snapshot retained"), std::string::npos);

  // The last good generation survived every failed write.
  EXPECT_TRUE(core::read_latest_checkpoint(checkpoint).ok());

  // Space comes back: the next write succeeds and the warning clears.
  sys.set_enabled(false);
  ASSERT_TRUE(daemon.checkpoint_now().ok());
  EXPECT_TRUE(daemon.checkpoint_error().empty());
  EXPECT_EQ(daemon.report_json().find("checkpoint degraded"),
            std::string::npos);
}

}  // namespace
}  // namespace uncharted::netd
