// LiveIngestDaemon end-to-end over loopback: the ISSUE's core acceptance
// property — SIGKILL mid-soak + --restore yields a byte-identical final
// report to an uninterrupted run over the same fleet script, at 1 worker
// thread and at 8 — plus restore-from-nothing, the forced-release and
// condemned-stream degradation warnings (both across a lane restart and a
// restore), and paced replays whose progress promises keep a silent
// stream from holding the merge.
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
#include <utility>
#include <vector>

#include "core/analyzer.hpp"
#include "core/export.hpp"
#include "net/frame.hpp"
#include "netd/client.hpp"
#include "passthrough_sysops.hpp"
#include "sim/capture.hpp"
#include "sim/fleet.hpp"
#include "tests/core/reference_report.hpp"

namespace uncharted::core {
namespace {

using netd::MonoClock;
using netd::MonoTime;

/// One shared small Fig-6-style capture and its fleet partition: built
/// once, replayed identically by every run in this file.
const sim::CaptureResult& shared_capture() {
  static const sim::CaptureResult capture = [] {
    sim::CaptureConfig cc = sim::CaptureConfig::y1(12.0);
    cc.include_physical_events = false;
    return sim::generate_capture(cc);
  }();
  return capture;
}

const sim::FleetScript& shared_script() {
  static const sim::FleetScript script = [] {
    sim::FleetScriptConfig fc;
    fc.clones = 1;
    return sim::build_fleet_script(shared_capture().packets, fc);
  }();
  return script;
}

/// What the live-vs-batch tests compare: the report JSON and the §6.4 time
/// series with their variance ranking, which the JSON does not carry.
std::string report_text(const AnalysisReport& report) {
  return report_to_json(report) + testlib::series_text(report);
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
  return report_text(daemon.finalize());
}

/// Paced run killed mid-stream (checkpoint, keep ingesting, then destroy
/// the daemon without finalize — the in-process stand-in for SIGKILL),
/// restored at `restore_threads` on the same port under the same
/// still-running fleet. `health`, when given, receives the restored
/// daemon's health JSON right after its start.
std::string killed_and_restored_report(unsigned threads, unsigned restore_threads,
                                       const std::string& checkpoint,
                                       std::string* health = nullptr) {
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
      daemon_options(restore_threads, script.streams.size(), checkpoint);
  opt2.server.port = port;  // the fleet keeps dialing the old port
  auto restored = std::make_unique<LiveIngestDaemon>(reactor, opt2);
  EXPECT_TRUE(restored->start(true).ok());
  EXPECT_TRUE(restored->restored());
  if (health) *health = restored->health_json();

  EXPECT_TRUE(drive(reactor, [&] {
    // all_done too: the last fin-ack may still be in flight when the
    // server counts its stream finished.
    return restored->server().all_expected_finished() && fleet.all_done();
  }));
  EXPECT_TRUE(fleet.all_benign_ok());
  return report_text(restored->finalize());
}

TEST(LiveIngest, KillRestoreReportByteIdenticalSingleThread) {
  const std::string checkpoint =
      testing::TempDir() + "/liveingest_t1.ckpt";
  const std::string a = uninterrupted_report(1);
  const std::string b = killed_and_restored_report(1, 1, checkpoint);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "restored daemon diverged from uninterrupted run";
}

TEST(LiveIngest, KillRestoreReportByteIdenticalEightThreads) {
  const std::string checkpoint =
      testing::TempDir() + "/liveingest_t8.ckpt";
  const std::string a = uninterrupted_report(8);
  const std::string b = killed_and_restored_report(8, 8, checkpoint);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "restored daemon diverged at --threads 8";
}

TEST(LiveIngest, KillRestoreAcrossThreadCountsKeepsTheCheckpointsLanes) {
  // The engine's lanes come from the writer's --threads and live in the
  // composed checkpoint: a restore under another --threads keeps them,
  // and the restored daemon watches exactly those lanes.
  CaptureAnalyzer::Options batch_options;
  batch_options.threads = 1;
  const std::string batch =
      report_text(CaptureAnalyzer::analyze(shared_capture().packets, batch_options));
  for (auto [write, restore] : {std::pair{1u, 4u}, std::pair{4u, 1u}}) {
    const std::string label =
        std::to_string(write) + " -> " + std::to_string(restore) + " threads";
    std::string health;
    const std::string report = killed_and_restored_report(
        write, restore, testing::TempDir() + "/liveingest_cross.ckpt", &health);
    EXPECT_EQ(report, batch) << label;
    for (unsigned lane = 0; lane <= 4; ++lane) {
      const bool watched = health.find("\"lane/" + std::to_string(lane) + "\"") !=
                           std::string::npos;
      EXPECT_EQ(watched, lane < write) << label << ": lane/" << lane;
    }
  }
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
  return report_text(daemon.finalize());
}

TEST(LiveIngest, PacedChurnReplayWithSilentStreamMatchesBatch) {
  sim::CaptureConfig cc = sim::CaptureConfig::y1(40.0);
  cc.include_physical_events = false;
  const sim::CaptureResult capture = sim::generate_capture(cc);
  for (unsigned threads : {1u, 8u}) {
    CaptureAnalyzer::Options options;
    options.threads = threads;
    const std::string batch =
        report_text(CaptureAnalyzer::analyze(capture.packets, options));
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

/// A raw loopback connection to the daemon's ingest port.
int dial_daemon(LiveIngestDaemon& daemon) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.server().port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// Appends records `from`..`to`-1 of 256 filler bytes each, 10 us apart
/// from ts `t0` on.
void put_filler(ByteWriter& w, Timestamp t0, std::uint64_t from, std::uint64_t to) {
  const std::vector<std::uint8_t> payload(256, 0xAB);
  for (std::uint64_t i = from; i < to; ++i) {
    netd::wire::RecordHeader rec;
    rec.ts = t0 + i * 10;
    rec.original_length = static_cast<std::uint32_t>(payload.size());
    rec.cap_len = static_cast<std::uint32_t>(payload.size());
    netd::wire::encode_record_header(w, rec);
    w.bytes(payload);
  }
}

TEST(LiveIngest, ForcedReleaseDegradesReportWithWarning) {
  netd::Reactor reactor;
  LiveIngestOptions opt = daemon_options(1, 2, "");
  opt.server.allow_forced_release = true;
  opt.server.max_buffered_bytes = 4 * 1024;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  auto dial = [&] { return dial_daemon(daemon); };

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
    put_filler(w, 1'000'000, 0, 40);
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

/// Appends records `from`..`to`-1 of a stream of clean TCP acks, 10 us
/// apart from ts 1 s on.
void put_acks(ByteWriter& w, std::uint64_t from, std::uint64_t to) {
  net::TcpSegmentSpec spec;
  spec.src_ip = net::Ipv4Addr::from_octets(10, 0, 0, 1);
  spec.dst_ip = net::Ipv4Addr::from_octets(10, 1, 0, 1);
  spec.src_port = 40000;
  spec.dst_port = 2404;
  spec.flags = net::kTcpAck;
  const std::vector<std::uint8_t> frame = net::build_tcp_frame(spec);
  for (std::uint64_t i = from; i < to; ++i) {
    netd::wire::RecordHeader rec;
    rec.ts = 1'000'000 + i * 10;
    rec.original_length = static_cast<std::uint32_t>(frame.size());
    rec.cap_len = static_cast<std::uint32_t>(frame.size());
    netd::wire::encode_record_header(w, rec);
    w.bytes(frame);
  }
}

void send_all(int fd, const ByteWriter& w) {
  ASSERT_EQ(::send(fd, w.view().data(), w.view().size(), 0),
            static_cast<ssize_t>(w.view().size()));
}

TEST(LiveIngest, CondemnedStreamDegradesReportWithWarning) {
  // A registered stream that never sends gates the watermark merge; the
  // merge watchdog condemns it. Whatever it had yet to send is lost, so
  // the report must say so, not read as a clean run.
  netd::Reactor reactor;
  LiveIngestOptions opt = daemon_options(1, 2, "");
  opt.watchdog.poll_s = 0.02;
  opt.watchdog.merge_deadline_s = 0.3;
  opt.watchdog.reactor_deadline_s = 1000.0;
  opt.watchdog.lane_deadline_s = 1000.0;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  const int silent_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 2, 5});
    send_all(silent_fd, w);
  }
  // A finished stream of 10 clean TCP acks, all above the silent stream's
  // bound: they release only once the silent stream is condemned.
  const int data_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 1, 10});
    put_acks(w, 0, 10);
    netd::wire::encode_fin(w, 10);
    send_all(data_fd, w);
  }

  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().all_expected_finished();
  }, 10.0)) << "the merge watchdog never condemned the silent stream";
  ::close(silent_fd);
  ::close(data_fd);
  EXPECT_EQ(daemon.server().stats().condemned_streams, 1u);
  EXPECT_EQ(daemon.server().stats().frames_released, 10u);
  EXPECT_EQ(daemon.server().stats().forced_releases, 0u);

  const std::string warning =
      "live ingest lost frames: 1 stream condemned as watermark laggard; "
      "frames not yet sent are missing from the report";
  EXPECT_NE(daemon.report_json().find(warning), std::string::npos);
  const AnalysisReport report = daemon.finalize();
  EXPECT_EQ(report.degradation.warnings, std::vector<std::string>{warning});
}

TEST(LiveIngest, CondemnedStreamLossSurvivesALaneRestartAndARestore) {
  // The checkpoint holds a condemned stream. A lane restart rebuilds the
  // server from it, and so does a process --restore: the loss must still
  // be reported, not read as a clean finish.
  const std::string checkpoint = testing::TempDir() + "/liveingest_condemned.ckpt";
  bool wedged = false;
  LiveIngestOptions opt = daemon_options(1, 2, checkpoint);
  opt.watchdog.poll_s = 0.02;
  opt.watchdog.merge_deadline_s = 0.3;
  opt.watchdog.lane_deadline_s = 0.3;
  opt.watchdog.reactor_deadline_s = 1000.0;
  opt.streaming.stall_hook = [&](std::size_t) { return wedged; };
  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  const int silent_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 2, 5});
    send_all(silent_fd, w);
  }
  const int data_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 1, 20});
    put_acks(w, 0, 10);
    send_all(data_fd, w);
  }
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().stats().condemned_streams == 1 &&
           daemon.frames_ingested() == 10;
  }, 10.0)) << "the merge watchdog never condemned the silent stream";
  ASSERT_TRUE(daemon.checkpoint_now().ok());

  // Frames past the checkpoint wedge their lane; the lane watchdog
  // restarts the engine from the checkpoint, closing every connection.
  wedged = true;
  {
    ByteWriter w;
    put_acks(w, 10, 15);
    send_all(data_fd, w);
  }
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.health().recoveries("lane/0") >= 1;
  }, 10.0)) << "the lane watchdog never fired";
  wedged = false;
  ::close(silent_fd);
  ::close(data_fd);
  ASSERT_TRUE(daemon.restored()) << daemon.health_json();

  // Stream 1 resumes from its checkpointed cursor and finishes.
  const int resume_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 1, 20});
    put_acks(w, 10, 20);
    netd::wire::encode_fin(w, 20);
    send_all(resume_fd, w);
  }
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().all_expected_finished();
  }, 10.0));
  ::close(resume_fd);

  const std::string warning =
      "live ingest lost frames: 1 stream condemned as watermark laggard; "
      "frames not yet sent are missing from the report";
  auto expect_loss_reported = [&](LiveIngestDaemon& d) {
    EXPECT_EQ(d.server().stats().condemned_streams, 1u);
    const AnalysisReport report = d.finalize();
    EXPECT_EQ(report.degradation.warnings, std::vector<std::string>{warning});
    EXPECT_NE(report_to_json(report).find("\"degraded\":true"), std::string::npos);
    // iec104d's exit code: degraded (2), since nothing is hostile.
    EXPECT_TRUE(report.degradation.degraded());
    EXPECT_FALSE(report.conformance.any_hostile());
    EXPECT_EQ(d.server().stats().evicted_hostile, 0u);
    EXPECT_EQ(report.stats.packets, 20u);
  };
  expect_loss_reported(daemon);

  // finalize() wrote the final checkpoint; a process --restore of it
  // finds both streams finished and the loss still on record.
  netd::Reactor reactor2;
  LiveIngestDaemon restored(reactor2, daemon_options(1, 2, checkpoint));
  ASSERT_TRUE(restored.start(true).ok());
  ASSERT_TRUE(restored.restored());
  EXPECT_TRUE(restored.server().all_expected_finished());
  expect_loss_reported(restored);
}

/// A release forced before the checkpoint is part of the checkpointed
/// state, so a lane restart (and a process --restore) must keep its
/// warning. One forced after the checkpoint is rewound with the cursors
/// and must leave none.
void forced_release_across_a_lane_restart(bool force_before_checkpoint) {
  const std::string checkpoint =
      testing::TempDir() + (force_before_checkpoint ? "/liveingest_forced_before.ckpt"
                                                    : "/liveingest_forced_after.ckpt");
  bool wedged = false;
  LiveIngestOptions opt = daemon_options(1, 2, checkpoint);
  opt.server.allow_forced_release = true;
  opt.server.max_buffered_bytes = 4 * 1024;
  opt.watchdog.poll_s = 0.02;
  opt.watchdog.lane_deadline_s = 0.3;
  opt.watchdog.merge_deadline_s = 1000.0;
  opt.watchdog.reactor_deadline_s = 1000.0;
  opt.streaming.stall_hook = [&](std::size_t) { return wedged; };
  netd::Reactor reactor;
  LiveIngestDaemon daemon(reactor, opt);
  ASSERT_TRUE(daemon.start(false).ok());

  // Stream 2 says hello and holds the watermark at 0; stream 1 sends 40
  // frames (~12 KiB, over the 4-KiB budget) and its fin in one send, so
  // the server can only force them out.
  const int gate_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 2, 5});
    send_all(gate_fd, w);
  }
  ASSERT_TRUE(drive(reactor, [&] { return daemon.server().streams_registered() == 1; },
                    10.0));
  if (!force_before_checkpoint) {
    ASSERT_TRUE(daemon.checkpoint_now().ok());
  }
  const int fat_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 1, 40});
    put_filler(w, 1'000'000, 0, 40);
    netd::wire::encode_fin(w, 40);
    send_all(fat_fd, w);
  }
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().stats().forced_releases > 0;
  }, 10.0)) << "budget exhaustion with no sheddable connection must force";
  const std::uint64_t forced = daemon.server().stats().forced_releases;
  const std::uint64_t stream1_cursor = daemon.server().stats().frames_released;
  if (force_before_checkpoint) {
    ASSERT_TRUE(daemon.checkpoint_now().ok());
  }

  // Stream 2's frames sit below the watermark and release into a wedged
  // lane; the lane watchdog restarts the engine from the checkpoint.
  wedged = true;
  {
    ByteWriter w;
    put_filler(w, 500'000, 0, 5);
    send_all(gate_fd, w);
  }
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.health().recoveries("lane/0") >= 1;
  }, 10.0)) << "the lane watchdog never fired";
  wedged = false;
  ::close(gate_fd);
  ::close(fat_fd);
  ASSERT_TRUE(daemon.restored()) << daemon.health_json();

  if (!force_before_checkpoint) {
    EXPECT_EQ(daemon.server().stats().forced_releases, 0u);
    EXPECT_EQ(daemon.report_json().find("degraded to sampling"), std::string::npos);
    return;
  }
  EXPECT_EQ(daemon.server().stats().forced_releases, forced);

  // Both streams resume from their checkpointed cursors and finish.
  const int resume2_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 2, 5});
    put_filler(w, 500'000, 0, 5);
    netd::wire::encode_fin(w, 5);
    send_all(resume2_fd, w);
  }
  const int resume1_fd = dial_daemon(daemon);
  {
    ByteWriter w;
    netd::wire::encode_hello(w, {netd::wire::HelloKind::kData, 1, 40});
    put_filler(w, 1'000'000, stream1_cursor, 40);
    netd::wire::encode_fin(w, 40);
    send_all(resume1_fd, w);
  }
  ASSERT_TRUE(drive(reactor, [&] {
    return daemon.server().all_expected_finished();
  }, 10.0));
  ::close(resume2_fd);
  ::close(resume1_fd);
  EXPECT_EQ(daemon.server().stats().forced_releases, forced);

  auto expect_sampling_reported = [&](LiveIngestDaemon& d) {
    const AnalysisReport report = d.finalize();
    bool found = false;
    for (const std::string& warning : report.degradation.warnings) {
      found |= warning.find("degraded to sampling") != std::string::npos;
    }
    EXPECT_TRUE(found) << report_to_json(report);
    EXPECT_EQ(report.stats.packets, 45u);
  };
  expect_sampling_reported(daemon);

  // finalize() wrote the final checkpoint; a process --restore of it
  // still counts the forced releases.
  netd::Reactor reactor2;
  LiveIngestDaemon restored(reactor2, daemon_options(1, 2, checkpoint));
  ASSERT_TRUE(restored.start(true).ok());
  ASSERT_TRUE(restored.restored());
  EXPECT_EQ(restored.server().stats().forced_releases, forced);
  expect_sampling_reported(restored);
}

TEST(LiveIngest, ForcedReleaseSurvivesALaneRestartAndARestore) {
  forced_release_across_a_lane_restart(true);
}

TEST(LiveIngest, ReleaseForcedAfterTheCheckpointIsRewoundWithoutWarning) {
  forced_release_across_a_lane_restart(false);
}

}  // namespace
}  // namespace uncharted::core
