// LiveIngestDaemon end-to-end over loopback: the ISSUE's core acceptance
// property — SIGKILL mid-soak + --restore yields a byte-identical final
// report to an uninterrupted run over the same fleet script, at 1 worker
// thread and at 8 — plus restore-from-nothing, the forced-release
// degradation warning, and paced replays whose progress promises keep a
// silent stream from holding the merge.
#include "core/liveingest.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "netd/client.hpp"
#include "passthrough_sysops.hpp"
#include "sim/capture.hpp"
#include "sim/fleet.hpp"

namespace uncharted::core {
namespace {

using netd::MonoClock;
using netd::MonoTime;

/// One shared small Fig-6-style capture and its fleet partition: built
/// once, replayed identically by every run in this file.
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
bool drive(netd::Reactor& reactor, Pred&& done, double timeout_s = 60.0) {
  const MonoTime deadline =
      MonoClock::now() +
        std::chrono::duration_cast<MonoClock::duration>(
            std::chrono::duration<double>(timeout_s));
  while (!done()) {
    if (MonoClock::now() > deadline) return false;
    reactor.run_once(20);
  }
  return true;
}

LiveIngestOptions daemon_options(unsigned threads, std::uint64_t streams,
                                 const std::string& checkpoint) {
  LiveIngestOptions opt;
  opt.streaming.analyze.threads = threads;
  opt.streaming.checkpoint_path = checkpoint;
  opt.checkpoint_every_s = 0.0;  // checkpoints only where the test says so
  opt.server.expect_streams = streams;
  opt.server.tick_s = 0.02;
  opt.server.allow_forced_release = false;  // byte-identity is asserted
  return opt;
}

/// Uninterrupted reference run at full speed.
std::string uninterrupted_report(unsigned threads) {
  const sim::FleetScript& script = shared_script();
  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor,
                          daemon_options(threads, script.streams.size(), ""));
  EXPECT_TRUE(daemon.start(false).ok());

  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();
  EXPECT_TRUE(drive(reactor, [&] {
    return fleet.all_done() && daemon.server().all_expected_finished();
  }));
  EXPECT_TRUE(fleet.all_benign_ok());
  return report_to_json(daemon.finalize());
}

/// Paced run killed mid-stream (checkpoint, keep ingesting, then destroy
/// the daemon without finalize — the in-process stand-in for SIGKILL),
/// restored on the same port under the same still-running fleet.
std::string killed_and_restored_report(unsigned threads,
                                       const std::string& checkpoint) {
  const sim::FleetScript& script = shared_script();
  netd::Reactor reactor;
  auto daemon = std::make_unique<LiveIngestDaemon>(
      reactor, daemon_options(threads, script.streams.size(), checkpoint));
  EXPECT_TRUE(daemon->start(false).ok());
  const std::uint16_t port = daemon->server().port();

  netd::FleetConfig fc;
  fc.port = port;
  fc.pace = 8.0;  // spread delivery so the kill lands mid-stream
  fc.linger = true;
  fc.linger_recheck_s = 0.05;
  fc.retry_initial_s = 0.02;
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();

  const std::uint64_t kill_at = script.total_frames / 4;
  EXPECT_TRUE(
      drive(reactor, [&] { return daemon->frames_ingested() >= kill_at; }));
  EXPECT_TRUE(daemon->checkpoint_now().ok());
  // Keep ingesting past the checkpoint: everything after it must be
  // re-sent by cursor resume, not lost.
  const std::uint64_t past = daemon->frames_ingested() + 50;
  (void)drive(reactor, [&] { return daemon->frames_ingested() >= past; }, 2.0);
  daemon.reset();  // SIGKILL: no finalize, no final checkpoint

  LiveIngestOptions opt2 =
      daemon_options(threads, script.streams.size(), checkpoint);
  opt2.server.port = port;  // the fleet keeps dialing the old port
  auto restored = std::make_unique<LiveIngestDaemon>(reactor, opt2);
  EXPECT_TRUE(restored->start(true).ok());
  EXPECT_TRUE(restored->restored());

  EXPECT_TRUE(drive(reactor, [&] {
    // all_done too: the last fin-ack may still be in flight when the
    // server counts its stream finished.
    return restored->server().all_expected_finished() && fleet.all_done();
  }));
  EXPECT_TRUE(fleet.all_benign_ok());
  return report_to_json(restored->finalize());
}

TEST(LiveIngest, KillRestoreReportByteIdenticalSingleThread) {
  const std::string checkpoint =
      testing::TempDir() + "/liveingest_t1.ckpt";
  const std::string a = uninterrupted_report(1);
  const std::string b = killed_and_restored_report(1, checkpoint);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "restored daemon diverged from uninterrupted run";
}

TEST(LiveIngest, KillRestoreReportByteIdenticalEightThreads) {
  const std::string checkpoint =
      testing::TempDir() + "/liveingest_t8.ckpt";
  const std::string a = uninterrupted_report(8);
  const std::string b = killed_and_restored_report(8, checkpoint);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "restored daemon diverged at --threads 8";
}

/// Holds back one stream's records at the client's send(): while `hold`
/// is set, that stream gets only its hello and its progress promises onto
/// the wire. A connection is recognized by the hello it opens with.
class HoldRecords final : public netd::PassthroughSysOps {
 public:
  explicit HoldRecords(std::uint64_t stream_id) : stream_id_(stream_id) {}
  bool hold = true;

  ssize_t send(int fd, const void* buf, std::size_t n, int flags) override {
    const auto* bytes = static_cast<const std::uint8_t*>(buf);
    if (n >= netd::wire::kHelloSize) {
      ByteReader r(std::span<const std::uint8_t>(bytes, netd::wire::kHelloSize));
      if (auto hello = netd::wire::decode_hello(r); hello.ok()) {
        if (hello->stream_id == stream_id_) {
          held_fds_.insert(fd);
        } else {
          held_fds_.erase(fd);
        }
        return real().send(fd, buf, n, flags);
      }
    }
    if (!hold || held_fds_.count(fd) == 0) return real().send(fd, buf, n, flags);
    std::size_t promises = 0;
    while (promises < n &&
           bytes[promises] == static_cast<std::uint8_t>(netd::wire::Marker::kProgress)) {
      promises += netd::wire::kProgressSize;
    }
    if (promises >= n) return real().send(fd, buf, n, flags);
    if (promises == 0) {
      errno = EAGAIN;
      return -1;
    }
    return real().send(fd, buf, promises, flags);
  }

 private:
  std::uint64_t stream_id_;
  std::set<int> held_fds_;
};

/// Paced, churned replay of a capture that holds C2-O30's keep-alive
/// connection (T3 = 430 s): its first frame comes ~36 s into the capture,
/// so until then it is a registered stream with nothing to send. Its
/// records are held back at the socket until half of the frames before
/// its first one have been released. A stream that gated the merge until
/// its next record would hold every frame until the merge watchdog
/// condemned it, and the report would lose its frames.
std::string promised_replay_report(const sim::CaptureResult& capture,
                                   unsigned threads) {
  sim::FleetScriptConfig sc;
  sc.clones = 1;
  const sim::FleetScript script = sim::build_fleet_script(capture.packets, sc);
  const auto sparse = std::max_element(
      script.streams.begin(), script.streams.end(),
      [](const netd::ReplayStream& a, const netd::ReplayStream& b) {
        return a.frames.front().ts < b.frames.front().ts;
      });
  const Timestamp first_ts = sparse->frames.front().ts;
  EXPECT_GE(first_ts - capture.packets.front().ts, 30 * kMicrosPerSecond)
      << "the capture must hold the long-silent keep-alive stream";
  const auto frames_before = static_cast<std::uint64_t>(std::count_if(
      capture.packets.begin(), capture.packets.end(),
      [&](const net::CapturedPacket& p) { return p.ts < first_ts; }));

  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor,
                          daemon_options(threads, script.streams.size(), ""));
  EXPECT_TRUE(daemon.start(false).ok());

  HoldRecords sys(sparse->id);
  netd::FleetConfig fc;
  fc.port = daemon.server().port();
  fc.pace = 20.0;
  fc.churn = 0.5;
  fc.retry_initial_s = 0.02;
  fc.sys = &sys;
  netd::FleetClient fleet(reactor, fc, script.streams);
  fleet.start();

  EXPECT_TRUE(drive(reactor, [&] {
    return daemon.server().stats().frames_released >= frames_before / 2;
  })) << "frames before the silent stream's first record must release";
  sys.hold = false;
  EXPECT_TRUE(drive(reactor, [&] {
    return fleet.all_done() && daemon.server().all_expected_finished();
  }));
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_GT(fleet.stats().reconnects, 0u) << "churn must have reconnected streams";
  EXPECT_EQ(daemon.server().stats().evicted_hostile, 0u);
  return report_to_json(daemon.finalize());
}

TEST(LiveIngest, PacedChurnReplayWithSilentStreamMatchesBatch) {
  sim::CaptureConfig cc = sim::CaptureConfig::y1(40.0);
  cc.include_physical_events = false;
  const sim::CaptureResult capture = sim::generate_capture(cc);
  for (unsigned threads : {1u, 8u}) {
    CaptureAnalyzer::Options options;
    options.threads = threads;
    const std::string batch =
        report_to_json(CaptureAnalyzer::analyze(capture.packets, options));
    EXPECT_EQ(promised_replay_report(capture, threads), batch)
        << "live report diverged from batch at --threads " << threads;
  }
}

TEST(LiveIngest, RestoreWithoutCheckpointStartsFresh) {
  netd::Reactor reactor;
  LiveIngestDaemon daemon(
      reactor,
      daemon_options(1, 0, testing::TempDir() + "/liveingest_none.ckpt2"));
  ASSERT_TRUE(daemon.start(true).ok()) << "missing checkpoint is never fatal";
  EXPECT_FALSE(daemon.restored());
  EXPECT_EQ(daemon.frames_ingested(), 0u);
}

TEST(LiveIngest, ForcedReleaseDegradesReportWithWarning) {
  netd::Reactor reactor;
  LiveIngestOptions opt = daemon_options(1, 2, "");
  opt.server.allow_forced_release = true;
  opt.server.max_buffered_bytes = 4 * 1024;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  auto dial = [&] {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.server().port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };

  // Gating stream: says hello (opening the expect_streams=2 gate and
  // registering a low watermark bound), then sends nothing.
  int gate_fd = dial();
  {
    netd::wire::Hello hello;
    hello.kind = netd::wire::HelloKind::kData;
    hello.stream_id = 2;
    hello.total_frames = 5;
    ByteWriter w;
    netd::wire::encode_hello(w, hello);
    ASSERT_EQ(::send(gate_fd, w.view().data(), w.view().size(), 0),
              static_cast<ssize_t>(w.view().size()));
  }

  // Fat stream: hello + 40 records (~10 KiB, far over the 4 KiB budget,
  // all timestamped above the gating stream's bound) + fin, written in
  // ONE send so the server sees the finished stream in one read batch —
  // disconnected-but-unreleasable, the exact force_release scenario.
  int fat_fd = dial();
  {
    ByteWriter w;
    netd::wire::Hello hello;
    hello.kind = netd::wire::HelloKind::kData;
    hello.stream_id = 1;
    hello.total_frames = 40;
    netd::wire::encode_hello(w, hello);
    std::vector<std::uint8_t> payload(256, 0xAB);
    for (std::uint64_t i = 0; i < 40; ++i) {
      netd::wire::RecordHeader rec;
      rec.ts = 1'000'000 + i * 10;
      rec.original_length = static_cast<std::uint32_t>(payload.size());
      rec.cap_len = static_cast<std::uint32_t>(payload.size());
      netd::wire::encode_record_header(w, rec);
      w.bytes(payload);
    }
    netd::wire::encode_fin(w, 40);
    ASSERT_EQ(::send(fat_fd, w.view().data(), w.view().size(), 0),
              static_cast<ssize_t>(w.view().size()));
  }

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().stats().forced_releases > 0;
  }, 10.0)) << "budget exhaustion with no sheddable connection must force";
  ::close(gate_fd);
  ::close(fat_fd);

  // A query while the daemon is sampling already says so.
  EXPECT_NE(daemon.report_json().find("degraded to sampling"), std::string::npos);

  AnalysisReport report = daemon.finalize();
  ASSERT_FALSE(report.degradation.warnings.empty());
  bool found = false;
  for (const std::string& warning : report.degradation.warnings) {
    found |= warning.find("degraded to sampling") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace uncharted::core
