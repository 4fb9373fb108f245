// IngestServer + FleetClient over real loopback sockets, single-threaded
// on one shared reactor: deterministic watermark merge, admission control,
// the hostile-eviction ladder, overload shedding with lossless resume,
// cursor checkpointing, and the query path.
#include "netd/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "netd/client.hpp"
#include "netd/reactor.hpp"
#include "passthrough_sysops.hpp"

namespace uncharted::netd {
namespace {

using ReleasedKey = std::tuple<Timestamp, std::uint64_t, std::uint64_t>;

net::CapturedPacket make_frame(Timestamp ts, std::uint8_t tag,
                               std::size_t len = 64) {
  net::CapturedPacket pkt;
  pkt.ts = ts;
  pkt.data.assign(len, tag);
  pkt.original_length = static_cast<std::uint32_t>(len);
  return pkt;
}

ReplayStream make_stream(std::uint64_t id, Timestamp first_ts, int frames,
                         Timestamp step = 10,
                         ReplayMode mode = ReplayMode::kBenign) {
  ReplayStream s;
  s.id = id;
  s.mode = mode;
  for (int i = 0; i < frames; ++i) {
    s.frames.push_back(make_frame(
        first_ts + static_cast<Timestamp>(i) * step,
        static_cast<std::uint8_t>(id & 0xFF)));
  }
  return s;
}

/// One server + one fleet on a shared reactor, with a sink recording the
/// release order. drive() pumps until the predicate holds or it times out.
struct Harness {
  Reactor reactor;
  ServerConfig config;
  std::vector<ReleasedKey> released;
  std::vector<std::size_t> released_sizes;
  std::unique_ptr<IngestServer> server;

  explicit Harness(ServerConfig cfg) : config(std::move(cfg)) {
    config.tick_s = 0.02;  // fast housekeeping so timeout tests stay quick
    server = std::make_unique<IngestServer>(
        reactor, config,
        [this](std::uint64_t stream_id, const net::CapturedPacket& pkt) {
          // seq within a stream is implied by arrival order; record enough
          // to assert global sortedness.
          released.push_back(
              ReleasedKey{pkt.ts, stream_id, released_sizes.size()});
          released_sizes.push_back(pkt.data.size());
        });
    EXPECT_TRUE(server->start().ok()) << "listener must open";
  }

  template <typename Pred>
  bool drive(Pred&& done, double timeout_s = 15.0) {
    const MonoTime deadline =
        MonoClock::now() +
        std::chrono::duration_cast<MonoClock::duration>(
            std::chrono::duration<double>(timeout_s));
    while (!done()) {
      if (MonoClock::now() > deadline) {
        ADD_FAILURE() << "drive timeout; server: " << server->stats_line();
        return false;
      }
      reactor.run_once(20);
    }
    return true;
  }

  FleetConfig fleet_config() const {
    FleetConfig fc;
    fc.port = server->port();
    fc.retry_for_s = 15.0;
    return fc;
  }
};

/// Released frames are in merge order: by capture ts, ties by stream id.
bool globally_sorted(const std::vector<ReleasedKey>& keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const auto prev = std::make_pair(std::get<0>(keys[i - 1]), std::get<1>(keys[i - 1]));
    const auto cur = std::make_pair(std::get<0>(keys[i]), std::get<1>(keys[i]));
    if (cur < prev) return false;
  }
  return true;
}

std::size_t released_of(const std::vector<ReleasedKey>& keys, std::uint64_t id) {
  std::size_t n = 0;
  for (const ReleasedKey& k : keys) n += std::get<1>(k) == id ? 1 : 0;
  return n;
}

/// A tapstream peer on a blocking loopback socket that writes exactly the
/// bytes a test scripts: silent, promising and hostile shapes need no
/// client mode.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawPeer() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  /// One send() of everything `w` holds, so the server reads it as one batch.
  void send(const ByteWriter& w) {
    ASSERT_EQ(::send(fd_, w.view().data(), w.view().size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(w.view().size()));
  }

 private:
  int fd_;
};

void put_hello(ByteWriter& w, std::uint64_t id, std::uint64_t total) {
  wire::encode_hello(w, wire::Hello{wire::HelloKind::kData, id, total});
}

void put_record(ByteWriter& w, Timestamp ts) {
  const net::CapturedPacket pkt = make_frame(ts, 0x5A);
  wire::encode_record_header(
      w, wire::RecordHeader{pkt.ts, pkt.original_length,
                            static_cast<std::uint32_t>(pkt.data.size())});
  w.bytes(pkt.data);
}

/// Lets the reactor run a few more turns, so a release that should not
/// happen has the chance to.
void settle(Harness& h) {
  for (int i = 0; i < 10; ++i) h.reactor.run_once(5);
}

bool evicted_for(const IngestServer& server, std::uint64_t id,
                 const std::string& reason) {
  for (const EvictionRecord& ev : server.evictions()) {
    if (ev.stream_id == id && ev.severity == iec104::Severity::kHostile &&
        ev.reason == reason) {
      return true;
    }
  }
  return false;
}

TEST(IngestServer, MergesInterleavedStreamsInTimestampOrder) {
  ServerConfig cfg;
  cfg.expect_streams = 3;
  Harness h(cfg);

  // Interleaved timestamp ranges so socket arrival order cannot by luck
  // coincide with the sorted order.
  std::vector<ReplayStream> streams = {
      make_stream(1, 5, 40), make_stream(2, 0, 40), make_stream(3, 2, 40)};
  FleetClient fleet(h.reactor, h.fleet_config(), std::move(streams));
  fleet.start();

  ASSERT_TRUE(h.drive([&] {
    return fleet.all_done() && h.server->all_expected_finished();
  }));
  EXPECT_TRUE(fleet.all_benign_ok());
  ASSERT_EQ(h.released.size(), 120u);
  EXPECT_TRUE(globally_sorted(h.released));
  EXPECT_EQ(h.server->stats().frames_released, 120u);
  EXPECT_EQ(h.server->stats().streams_finished, 3u);
}

TEST(IngestServer, ExpectStreamsGateHoldsReleaseUntilAllRegister) {
  ServerConfig cfg;
  cfg.expect_streams = 2;
  Harness h(cfg);

  // First stream alone: everything it sends must stay queued.
  FleetClient first(h.reactor, h.fleet_config(),
                    {make_stream(1, 0, 10)});
  first.start();
  ASSERT_TRUE(h.drive([&] { return h.server->stats().frames_received >= 10; }));
  for (int i = 0; i < 10; ++i) h.reactor.run_once(5);
  EXPECT_EQ(h.released.size(), 0u) << "gate must hold with 1/2 streams";

  FleetClient second(h.reactor, h.fleet_config(),
                     {make_stream(2, 100, 10)});
  second.start();
  ASSERT_TRUE(h.drive([&] { return first.all_done() && second.all_done(); }));
  EXPECT_EQ(h.released.size(), 20u);
  EXPECT_TRUE(globally_sorted(h.released));
}

TEST(IngestServer, ConnectionCapBusyAcksExtrasAndClientsRetryLosslessly) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  cfg.expect_streams = 4;
  Harness h(cfg);

  std::vector<ReplayStream> streams;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    streams.push_back(make_stream(id, id * 1000, 25));
  }
  FleetConfig fc = h.fleet_config();
  fc.retry_initial_s = 0.01;  // keep the busy-retry storm fast
  FleetClient fleet(h.reactor, fc, std::move(streams));
  fleet.start();

  ASSERT_TRUE(h.drive([&] { return fleet.all_done(); }));
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_GT(h.server->stats().rejected_busy, 0u);
  // The busy ack is best-effort: if the rejected socket closes before the
  // client's hello hits the wire, the hello draws an RST that flushes the
  // ack out of the client's receive buffer. Either way the client backs
  // off and retries — what matters is that nothing is lost.
  EXPECT_GT(fleet.stats().busy_retries + fleet.stats().reconnects, 0u);
  EXPECT_EQ(h.released.size(), 100u) << "busy acks must lose nothing";
  EXPECT_TRUE(globally_sorted(h.released));
  EXPECT_LE(h.server->stats().peak_connections, 1u);
}

TEST(IngestServer, AcceptRateLimitDefersAcceptsWithoutLosingFlows) {
  ServerConfig cfg;
  cfg.accept_rate = 50.0;
  cfg.accept_burst = 1.0;
  cfg.expect_streams = 5;
  Harness h(cfg);

  std::vector<ReplayStream> streams;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    streams.push_back(make_stream(id, id * 100, 8));
  }
  FleetClient fleet(h.reactor, h.fleet_config(), std::move(streams));
  fleet.start();

  ASSERT_TRUE(h.drive([&] { return fleet.all_done(); }));
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_GT(h.server->stats().rate_deferred_polls, 0u)
      << "5 simultaneous connects against burst=1 must hit the bucket";
  EXPECT_EQ(h.released.size(), 40u);
}

TEST(IngestServer, GarbageHelloEvictedAsHostile) {
  ServerConfig cfg;
  Harness h(cfg);

  ReplayStream garbage = make_stream(9, 0, 1, 10, ReplayMode::kGarbage);
  FleetClient fleet(h.reactor, h.fleet_config(), {garbage});
  fleet.start();

  ASSERT_TRUE(h.drive([&] { return fleet.all_done(); }));
  EXPECT_GE(h.server->stats().evicted_hostile, 1u);
  EXPECT_GE(fleet.stats().hostile_closed, 1u);
  ASSERT_FALSE(h.server->evictions().empty());
  EXPECT_EQ(h.server->evictions().front().severity, iec104::Severity::kHostile);
  EXPECT_EQ(h.released.size(), 0u);
}

TEST(IngestServer, SlowLorisDribbleEvictedWithoutStallingBenignStreams) {
  ServerConfig cfg;
  cfg.read_timeout_s = 0.1;
  cfg.expect_streams = 2;
  Harness h(cfg);

  // The loris completes its handshake (registering stream 7 and opening
  // the expect_streams=2 gate) then leaves a record partial forever. Its
  // eviction must erase the dead stream so the benign stream's frames
  // (timestamped entirely AFTER the loris bound) still release.
  std::vector<ReplayStream> streams = {
      make_stream(7, 0, 4, 10, ReplayMode::kSlowLoris),
      make_stream(1, 50'000, 30)};
  FleetClient fleet(h.reactor, h.fleet_config(), std::move(streams));
  fleet.start();

  ASSERT_TRUE(h.drive([&] {
    return h.server->stats().evicted_hostile >= 1 && fleet.all_done() &&
           h.released.size() >= 30;
  }));
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(h.released.size(), 30u)
      << "hostile stream must be erased, not left gating the watermark";
  EXPECT_TRUE(globally_sorted(h.released));
  bool hostile_seen = false;
  for (const EvictionRecord& ev : h.server->evictions()) {
    hostile_seen |= ev.severity == iec104::Severity::kHostile;
  }
  EXPECT_TRUE(hostile_seen);
}

TEST(IngestServer, IdleConnectionClosedAsInfoAndClientResumes) {
  ServerConfig cfg;
  cfg.idle_timeout_s = 0.05;
  cfg.read_timeout_s = 0.05;
  cfg.handshake_timeout_s = 0.05;
  Harness h(cfg);

  // No client at all: open a raw socket that says nothing. The handshake
  // timeout reaps it as kWarn.
  Reactor& r = h.reactor;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(Reactor::make_nonblocking(fd).ok());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  (void)::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ASSERT_TRUE(h.drive([&] { return h.server->stats().evicted_warn >= 1; }));
  ::close(fd);
  (void)r;
}

TEST(IngestServer, SheddingDropsFattestBufferAndResumeLosesNothing) {
  ServerConfig cfg;
  cfg.expect_streams = 2;
  // Budget far below what stream 2 wants to buffer ahead of stream 1's
  // watermark; per-conn pausing is set even lower so pauses kick first.
  cfg.max_buffered_bytes = 8 * 1024;
  cfg.per_conn_buffered_bytes = 2 * 1024;
  cfg.allow_forced_release = false;
  Harness h(cfg);

  // Stream 2's timestamps all sit after stream 1's, so nothing of stream 2
  // can release until stream 1 finishes: its buffer is pure backpressure.
  std::vector<ReplayStream> streams = {
      make_stream(1, 0, 200, 10),
      make_stream(2, 1'000'000, 200, 10)};
  FleetConfig fc = h.fleet_config();
  fc.retry_initial_s = 0.01;
  FleetClient fleet(h.reactor, fc, std::move(streams));
  fleet.start();

  ASSERT_TRUE(h.drive([&] { return fleet.all_done(); }));
  EXPECT_TRUE(fleet.all_benign_ok());
  EXPECT_EQ(h.released.size(), 400u) << "shedding must be lossless";
  EXPECT_TRUE(globally_sorted(h.released));
  EXPECT_GT(h.server->stats().paused_reads +
                h.server->stats().shed_connections,
            0u)
      << "the tiny budget must have engaged backpressure machinery";
  EXPECT_EQ(h.server->stats().forced_releases, 0u);
  EXPECT_LE(h.server->stats().peak_queued_bytes,
            cfg.max_buffered_bytes + wire::kMaxFrameBytes);
}

TEST(IngestServer, CursorsSurviveServerTeardownAndResumeSkipsReleasedFrames) {
  // Phase 1: deliver the first stream fully, second stream not at all.
  ServerConfig cfg;
  cfg.expect_streams = 2;
  Harness h(cfg);

  FleetConfig fc = h.fleet_config();
  fc.linger = true;
  fc.linger_recheck_s = 0.05;
  FleetClient fleet(h.reactor, fc,
                    {make_stream(1, 0, 30), make_stream(2, 10'000, 30)});
  fleet.start();
  ASSERT_TRUE(h.drive([&] { return h.server->stats().streams_finished >= 2; }));
  const std::size_t released_before = h.released.size();
  EXPECT_EQ(released_before, 60u);

  ByteWriter snapshot;
  h.server->save_cursors(snapshot);
  const std::uint16_t old_port = h.server->port();
  h.server->close_all();
  h.server.reset();

  // Phase 2: a fresh server restored from the cursors, same port. The
  // lingering fleet re-offers both streams; the restored cursors say
  // everything was already released, so nothing is re-sunk.
  ServerConfig cfg2;
  cfg2.expect_streams = 2;
  cfg2.bind_addr = "127.0.0.1";
  cfg2.port = old_port;
  cfg2.tick_s = 0.02;
  std::vector<ReleasedKey> released2;
  IngestServer server2(
      h.reactor, cfg2,
      [&](std::uint64_t stream_id, const net::CapturedPacket& pkt) {
        released2.push_back(ReleasedKey{pkt.ts, stream_id, released2.size()});
      });
  ByteReader r(snapshot.view());
  ASSERT_TRUE(server2.load_cursors(r).ok());
  ASSERT_TRUE(server2.start().ok());

  ASSERT_TRUE(h.drive([&] { return server2.all_expected_finished(); }));
  EXPECT_EQ(released2.size(), 0u)
      << "restored cursors mark all frames released; re-offers are skipped";
  EXPECT_EQ(server2.stats().streams_finished, 2u)
      << "restored fully-released streams count as finished";
}

TEST(IngestServer, SilentStreamPromiseReleasesOthers) {
  ServerConfig cfg;
  cfg.expect_streams = 2;
  Harness h(cfg);

  // B registers and promises nothing before ts 100, then stays silent.
  RawPeer b(h.server->port());
  ByteWriter wb;
  put_hello(wb, 2, 3);
  wire::encode_progress(wb, 100);
  b.send(wb);

  // A's frames run from ts 10 to 200. Those keyed below B's promise
  // (100, 2, 0) are ts 10..100: ten of them.
  RawPeer a(h.server->port());
  ByteWriter wa;
  put_hello(wa, 1, 20);
  for (Timestamp i = 1; i <= 20; ++i) put_record(wa, i * 10);
  a.send(wa);

  ASSERT_TRUE(h.drive([&] { return h.released.size() >= 10; }));
  settle(h);
  EXPECT_EQ(h.released.size(), 10u) << "the promise bounds B at ts 100";
  EXPECT_EQ(released_of(h.released, 1), 10u);

  ByteWriter wb2;
  put_record(wb2, 100);
  put_record(wb2, 150);
  put_record(wb2, 250);
  wire::encode_fin(wb2, 3);
  b.send(wb2);
  ByteWriter wa2;
  wire::encode_fin(wa2, 20);
  a.send(wa2);

  ASSERT_TRUE(h.drive([&] { return h.server->all_expected_finished(); }));
  EXPECT_EQ(h.released.size(), 23u);
  EXPECT_TRUE(globally_sorted(h.released));
  EXPECT_EQ(h.server->stats().evicted_hostile, 0u);
}

/// A streams ts 10..200 and finishes; B says hello, promises ts 100 and
/// then breaks its promise with `breach`. B must be evicted as hostile
/// for `reason` and stop gating, so all of A releases.
void expect_breach_condemned(const std::function<void(ByteWriter&)>& breach,
                             const std::string& reason) {
  ServerConfig cfg;
  cfg.expect_streams = 2;
  Harness h(cfg);

  RawPeer b(h.server->port());
  ByteWriter wb;
  put_hello(wb, 2, 3);
  wire::encode_progress(wb, 100);
  breach(wb);
  b.send(wb);

  RawPeer a(h.server->port());
  ByteWriter wa;
  put_hello(wa, 1, 20);
  for (Timestamp i = 1; i <= 20; ++i) put_record(wa, i * 10);
  wire::encode_fin(wa, 20);
  a.send(wa);

  ASSERT_TRUE(h.drive([&] { return h.server->all_expected_finished(); }));
  EXPECT_TRUE(evicted_for(*h.server, 2, reason));
  EXPECT_EQ(h.server->stats().evicted_hostile, 1u);
  EXPECT_EQ(h.released.size(), 20u) << "the condemned stream must stop gating";
  EXPECT_EQ(released_of(h.released, 1), 20u);
}

TEST(IngestServer, ProgressRegressionEvictedAsHostile) {
  expect_breach_condemned([](ByteWriter& w) { wire::encode_progress(w, 50); },
                          "progress regression");
}

TEST(IngestServer, RecordBelowPromiseEvictedAsHostile) {
  expect_breach_condemned([](ByteWriter& w) { put_record(w, 50); },
                          "timestamp regression");
}

TEST(IngestServer, RecordAfterFinWithQueuedFramesEvictedAsHostile) {
  ServerConfig cfg;
  cfg.expect_streams = 2;
  Harness h(cfg);

  // B holds the merge at its hello bound, so A's frames are still queued
  // when A's Fin arrives, followed in the same write by one more record.
  RawPeer b(h.server->port());
  ByteWriter wb;
  put_hello(wb, 2, 3);
  b.send(wb);

  RawPeer a(h.server->port());
  ByteWriter wa;
  put_hello(wa, 1, 5);
  for (Timestamp i = 1; i <= 5; ++i) put_record(wa, i * 10);
  wire::encode_fin(wa, 5);
  put_record(wa, 60);
  a.send(wa);
  ASSERT_TRUE(h.drive([&] { return h.server->stats().evicted_hostile >= 1; }));
  EXPECT_TRUE(evicted_for(*h.server, 1, "message after fin"));

  // A is condemned, so B alone decides the rest of the merge.
  ByteWriter wb2;
  for (Timestamp ts : {5, 15, 25}) put_record(wb2, ts);
  wire::encode_fin(wb2, 3);
  b.send(wb2);
  ASSERT_TRUE(h.drive([&] { return h.server->all_expected_finished(); }));
  EXPECT_EQ(h.released.size(), 3u);
  EXPECT_EQ(released_of(h.released, 2), 3u);
  EXPECT_EQ(h.server->stats().streams_finished, 2u);
}

/// Answers every FinAck send with EAGAIN while `hold` is set: the server
/// sees a full socket buffer right after it finishes a stream.
class FinAckHold final : public PassthroughSysOps {
 public:
  bool hold = true;

  ssize_t send(int fd, const void* buf, std::size_t n, int flags) override {
    const auto* bytes = static_cast<const std::uint8_t*>(buf);
    if (hold && n == wire::kFinAckSize &&
        bytes[0] == static_cast<std::uint8_t>(wire::Marker::kFinAck)) {
      errno = EAGAIN;
      return -1;
    }
    return real().send(fd, buf, n, flags);
  }
};

TEST(IngestServer, RecordAfterFinishedStreamEvictedAsHostile) {
  FinAckHold sys;
  ServerConfig cfg;
  cfg.sys = &sys;
  Harness h(cfg);

  RawPeer a(h.server->port());
  ByteWriter wa;
  put_hello(wa, 1, 5);
  for (Timestamp i = 1; i <= 5; ++i) put_record(wa, i * 10);
  a.send(wa);
  ASSERT_TRUE(h.drive([&] { return h.released.size() >= 5; }));

  // The Fin finishes A at once (every frame is released), its FinAck
  // cannot be flushed, and the record behind it reaches a finished stream.
  ByteWriter wa2;
  wire::encode_fin(wa2, 5);
  put_record(wa2, 60);
  a.send(wa2);
  ASSERT_TRUE(h.drive([&] { return h.server->stats().evicted_hostile >= 1; }));
  sys.hold = false;
  EXPECT_TRUE(evicted_for(*h.server, 1, "message after fin"));
  EXPECT_EQ(h.server->stats().streams_finished, 1u);

  // A left no bound behind, so B's later frames release.
  RawPeer b(h.server->port());
  ByteWriter wb;
  put_hello(wb, 2, 2);
  put_record(wb, 100);
  put_record(wb, 200);
  wire::encode_fin(wb, 2);
  b.send(wb);
  ASSERT_TRUE(h.drive([&] { return h.server->stats().streams_finished >= 2; }));
  EXPECT_EQ(h.released.size(), 7u);
  EXPECT_EQ(released_of(h.released, 1), 5u) << "nothing after A's Fin is released";
}

/// A releases its first frame, B releases one frame and promises ts 1000,
/// then B's connection drops with its queue empty. While B is offline,
/// A's frames up to its promise keep releasing. Returns with B detached
/// and 12 frames released.
void release_past_detached_promise(Harness& h, RawPeer& a) {
  ByteWriter wa;
  put_hello(wa, 1, 20);
  put_record(wa, 5);
  a.send(wa);

  {
    RawPeer b(h.server->port());
    ByteWriter wb;
    put_hello(wb, 2, 3);
    put_record(wb, 2);
    wire::encode_progress(wb, 1000);
    b.send(wb);
    // A's ts-5 frame passes B's bound only once the promise is in.
    ASSERT_TRUE(h.drive([&] { return h.released.size() >= 2; }));
  }
  ASSERT_TRUE(h.drive([&] { return h.server->stats().connections == 1; }));

  ByteWriter wa2;
  for (Timestamp i = 1; i <= 19; ++i) put_record(wa2, i * 100);
  a.send(wa2);
  // A's ts 100..1000 key below B's resume floor (1000, 2, 1).
  ASSERT_TRUE(h.drive([&] { return h.released.size() >= 12; }));
  settle(h);
  EXPECT_EQ(h.released.size(), 12u);
}

TEST(IngestServer, PromiseStaysResumeFloorAcrossDetach) {
  ServerConfig cfg;
  cfg.expect_streams = 2;
  Harness h(cfg);
  RawPeer a(h.server->port());
  release_past_detached_promise(h, a);

  // B resumes from cursor 1 and re-sends its frames after the promise.
  RawPeer b(h.server->port());
  ByteWriter wb;
  put_hello(wb, 2, 3);
  put_record(wb, 1000);
  put_record(wb, 1500);
  wire::encode_fin(wb, 3);
  b.send(wb);
  ByteWriter wa;
  wire::encode_fin(wa, 20);
  a.send(wa);

  ASSERT_TRUE(h.drive([&] { return h.server->all_expected_finished(); }));
  EXPECT_EQ(h.released.size(), 23u);
  EXPECT_EQ(released_of(h.released, 2), 3u);
  EXPECT_TRUE(globally_sorted(h.released));
  EXPECT_EQ(h.server->stats().evicted_hostile, 0u);
}

TEST(IngestServer, ResentFrameBelowDetachedPromiseEvictedAsHostile) {
  ServerConfig cfg;
  cfg.expect_streams = 2;
  Harness h(cfg);
  RawPeer a(h.server->port());
  release_past_detached_promise(h, a);

  RawPeer b(h.server->port());
  ByteWriter wb;
  put_hello(wb, 2, 3);
  put_record(wb, 900);
  b.send(wb);
  ByteWriter wa;
  wire::encode_fin(wa, 20);
  a.send(wa);

  ASSERT_TRUE(h.drive([&] { return h.server->all_expected_finished(); }));
  EXPECT_TRUE(evicted_for(*h.server, 2, "timestamp regression"));
  EXPECT_EQ(h.released.size(), 21u);
  EXPECT_EQ(released_of(h.released, 2), 1u);
}

TEST(IngestServer, LoadCursorsRejectsGarbage) {
  Reactor reactor;
  ServerConfig cfg;
  IngestServer server(reactor, cfg,
                      [](std::uint64_t, const net::CapturedPacket&) {});
  std::vector<std::uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF};
  ByteReader r(junk);
  EXPECT_FALSE(server.load_cursors(r).ok());
}

TEST(IngestServer, QueryConnectionServesReportJson) {
  ServerConfig cfg;
  Harness h(cfg);
  h.server->set_query_handler([] { return std::string("{\"ok\": true}"); });

  // fetch_report blocks, so it runs on a helper thread while this thread
  // keeps driving the reactor.
  Result<std::string> got = Error{"query", "never ran"};
  std::thread asker([&] {
    got = fetch_report("127.0.0.1", h.server->port(), 5.0);
  });
  ASSERT_TRUE(h.drive([&] { return h.server->stats().queries_served >= 1; }));
  asker.join();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "{\"ok\": true}");
}

}  // namespace
}  // namespace uncharted::netd
