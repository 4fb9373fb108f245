// Seeded sweep of the live watermark merge against a reference model.
//
// Each seed scripts a small fleet over real loopback sockets: how many
// streams, how their records are cut into sends (mid-message cuts
// included), progress promises, peers that disconnect and resume from
// the cursor, condemnation of the watermark laggard, and a tiny buffer
// budget that sheds connections and forces releases. After every send
// the server has read and pumped exactly that send, so the model, fed
// the same messages at the same points, must release the same
// (ts, stream, seq) sequence and count the same forced releases, sheds
// and queued bytes.
//
// The model keeps the merge's original rules on ordered containers: a
// std::multiset of stream bounds and a std::map of queue heads, one
// owning payload per queued frame. The server's own merge must agree
// with it whatever data structures it uses.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "netd/reactor.hpp"
#include "netd/server.hpp"
#include "netd/wire.hpp"
#include "util/rng.hpp"

namespace uncharted::netd {
namespace {

/// (capture_ts, stream_id, seq): the merge order, and what a release is.
using Key = std::tuple<Timestamp, std::uint64_t, std::uint64_t>;

constexpr std::size_t kPerFrameOverhead = 64;  // the server's frame charge
constexpr int kSeedsPerShard = 75;
constexpr int kShards = 4;

// ---------------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------------

struct ModelStream {
  std::uint64_t id = 0;
  std::uint64_t cursor = 0;
  Timestamp released_ts = 0;
  bool finished = false;
  bool connected = false;
  std::uint64_t recv_seq = 0;
  Timestamp last_recv_ts = 0;
  std::deque<std::pair<Timestamp, std::size_t>> q;  ///< (ts, payload bytes)
  std::size_t q_bytes = 0;
  bool fin_seen = false;
  std::uint64_t fin_total = 0;
  Key bound{};
  bool bound_set = false;
};

class MergeModel {
 public:
  MergeModel(std::uint64_t expect_streams, std::size_t budget)
      : expect_(expect_streams), budget_(budget) {}

  /// A data hello; returns the cursor the ack carries.
  std::uint64_t hello(std::uint64_t id) {
    ModelStream& s = streams_[id];
    s.id = id;
    s.connected = true;
    s.recv_seq = s.cursor;
    s.last_recv_ts = std::max(s.last_recv_ts, s.released_ts);
    s.fin_seen = false;
    set_bound(s, Key{s.last_recv_ts, s.id, s.cursor});
    return s.cursor;
  }

  void record(std::uint64_t id, Timestamp ts, std::size_t len) {
    ModelStream& s = streams_.at(id);
    if (s.q.empty()) heads_.emplace(Key{ts, s.id, s.cursor}, s.id);
    s.q.emplace_back(ts, len);
    s.q_bytes += len + kPerFrameOverhead;
    queued += len + kPerFrameOverhead;
    peak_queued = std::max(peak_queued, queued);
    ++received;
    s.last_recv_ts = ts;
    ++s.recv_seq;
    set_bound(s, Key{ts, s.id, s.recv_seq});
  }

  void progress(std::uint64_t id, Timestamp ts) {
    ModelStream& s = streams_.at(id);
    s.last_recv_ts = ts;
    set_bound(s, Key{ts, s.id, s.recv_seq});
  }

  void fin(std::uint64_t id, std::uint64_t total) {
    ModelStream& s = streams_.at(id);
    s.fin_seen = true;
    s.fin_total = total;
    if (s.cursor == s.fin_total && s.q.empty()) finish(s);
  }

  /// The peer closed its connection.
  void close(std::uint64_t id) { close_conn(streams_.at(id)); }

  std::uint64_t condemn() {
    if (!gate_open() || bounds_.empty() || heads_.empty()) return 0;
    ModelStream& s = streams_.at(std::get<1>(*bounds_.begin()));
    if (s.finished || !s.q.empty()) return 0;
    if (s.connected) evict(s);
    if (s.finished) return 0;
    s.fin_seen = false;
    finish(s);
    pump();
    return s.id;
  }

  void pump() {
    if (gate_open()) {
      while (!heads_.empty()) {
        auto head = heads_.begin();
        if (!bounds_.empty() && !(head->first < *bounds_.begin())) break;
        release_front(streams_.at(head->second));
      }
    }
    if (queued > budget_) shed_until(budget_ - budget_ / 4);
    if (queued > budget_) {
      while (queued > budget_ / 2 && !heads_.empty()) {
        ++forced;
        release_front(streams_.at(heads_.begin()->second));
      }
    }
  }

  /// Streams whose connection the server closed since the last call.
  std::vector<std::uint64_t> take_server_closed() {
    std::vector<std::uint64_t> out;
    out.swap(server_closed_);
    return out;
  }

  const ModelStream& stream(std::uint64_t id) const { return streams_.at(id); }
  bool finished(std::uint64_t id) const {
    auto it = streams_.find(id);
    return it != streams_.end() && it->second.finished;
  }
  std::size_t connections() const {
    std::size_t n = 0;
    for (const auto& [id, s] : streams_) n += s.connected ? 1 : 0;
    return n;
  }

  // What the server's sink and ServerStats should show.
  std::vector<Key> released;
  std::uint64_t forced = 0;
  std::uint64_t shed = 0;
  std::uint64_t received = 0;
  std::size_t queued = 0;
  std::size_t peak_queued = 0;

 private:
  bool gate_open() const { return expect_ == 0 || streams_.size() >= expect_; }

  void set_bound(ModelStream& s, Key key) {
    if (s.bound_set) bounds_.erase(bounds_.find(s.bound));
    s.bound = key;
    s.bound_set = true;
    bounds_.insert(key);
  }

  void clear_bound(ModelStream& s) {
    if (!s.bound_set) return;
    bounds_.erase(bounds_.find(s.bound));
    s.bound_set = false;
  }

  void release_front(ModelStream& s) {
    heads_.erase(Key{s.q.front().first, s.id, s.cursor});
    const auto [ts, len] = s.q.front();
    s.q.pop_front();
    s.q_bytes -= len + kPerFrameOverhead;
    queued -= len + kPerFrameOverhead;
    released.emplace_back(ts, s.id, s.cursor);
    ++s.cursor;
    s.released_ts = ts;
    if (!s.q.empty()) heads_.emplace(Key{s.q.front().first, s.id, s.cursor}, s.id);
    if (s.fin_seen && s.cursor == s.fin_total && s.q.empty()) finish(s);
  }

  void finish(ModelStream& s) {
    s.finished = true;
    clear_bound(s);
    if (s.connected) {  // fin ack, then close
      s.connected = false;
      server_closed_.push_back(s.id);
    }
  }

  void detach(ModelStream& s) {
    Timestamp resume_ts = std::max(s.released_ts, s.last_recv_ts);
    if (!s.q.empty()) {
      resume_ts = s.q.front().first;
      heads_.erase(Key{s.q.front().first, s.id, s.cursor});
      queued -= s.q_bytes;
      s.q.clear();
      s.q_bytes = 0;
    }
    s.recv_seq = s.cursor;
    s.last_recv_ts = resume_ts;
    s.fin_seen = false;
    set_bound(s, Key{resume_ts, s.id, s.cursor});
  }

  void close_conn(ModelStream& s) {
    s.connected = false;
    if (!s.finished) detach(s);
  }

  void evict(ModelStream& s) {
    close_conn(s);
    server_closed_.push_back(s.id);
  }

  void shed_until(std::size_t target) {
    while (queued > target) {
      ModelStream* victim = nullptr;
      for (auto& [id, s] : streams_) {
        if (s.q_bytes == 0 || !s.connected) continue;
        if (s.fin_seen && s.recv_seq == s.fin_total) continue;
        if (victim == nullptr || s.q_bytes > victim->q_bytes) victim = &s;
      }
      if (victim == nullptr) break;
      ++shed;
      evict(*victim);
    }
  }

  std::uint64_t expect_;
  std::size_t budget_;
  std::map<std::uint64_t, ModelStream> streams_;
  std::multiset<Key> bounds_;
  std::map<Key, std::uint64_t> heads_;
  std::vector<std::uint64_t> server_closed_;
};

// ---------------------------------------------------------------------------
// Scripted peers
// ---------------------------------------------------------------------------

struct Frame {
  Timestamp ts = 0;
  std::uint32_t original_length = 0;
  std::vector<std::uint8_t> payload;
};

/// A message committed to a connection, applied to the model once all of
/// its bytes are on the wire.
struct Pending {
  enum class Kind { kRecord, kProgress, kFin } kind;
  std::size_t end = 0;  ///< offset just past it in the connection's bytes
  Timestamp ts = 0;
  std::size_t len = 0;
  std::uint64_t total = 0;
};

struct Peer {
  std::uint64_t id = 0;
  std::vector<Frame> frames;
  int fd = -1;  ///< blocking loopback socket, -1 while disconnected
  bool done = false;  ///< finished (or condemned): never reconnects
  std::vector<std::uint8_t> out;  ///< this connection's committed bytes
  std::size_t written = 0;
  std::deque<Pending> pending;
  std::uint64_t next_frame = 0;
  Timestamp floor = 0;  ///< highest ts committed on this connection
  bool fin_committed = false;
};

class Sweep {
 public:
  explicit Sweep(std::uint64_t seed) : rng_(seed) {}

  void run() {
    const std::size_t n = 1 + rng_.below(7);
    std::set<std::uint64_t> ids;
    while (ids.size() < n) ids.insert(1 + rng_.below(900));
    for (std::uint64_t id : ids) peers_.push_back(make_peer(id));

    ServerConfig cfg;
    cfg.expect_streams = rng_.below(3) == 0 ? 0 : n;
    // A tiny budget sheds connections and forces releases.
    const bool tiny = rng_.below(3) == 0;
    cfg.max_buffered_bytes = tiny ? 400 + rng_.below(2000) : cfg.max_buffered_bytes;
    cfg.per_conn_buffered_bytes = std::size_t{1} << 30;  // no read pausing
    cfg.tick_s = 0.002;
    model_ = std::make_unique<MergeModel>(cfg.expect_streams, cfg.max_buffered_bytes);
    server_ = std::make_unique<IngestServer>(
        reactor_, cfg, [this](std::uint64_t id, const auto& frame) { sink(id, frame); });
    ASSERT_TRUE(server_->start().ok());

    const int steps = 10 + static_cast<int>(rng_.below(80));
    for (int i = 0; i < steps && !failed_; ++i) step();
    for (Peer& p : peers_) {
      while (!p.done && !drained(p) && !failed_) drain(p);
    }
    for (Peer& p : peers_) close_socket(p);
    if (failed_) return;

    const ServerStats& st = server_->stats();
    EXPECT_EQ(released_, model_->released) << "release order diverged from the model";
    EXPECT_EQ(st.forced_releases, model_->forced);
    EXPECT_EQ(st.shed_connections, model_->shed);
    EXPECT_EQ(st.frames_received, model_->received);
    EXPECT_EQ(st.queued_bytes, model_->queued);
    EXPECT_EQ(st.peak_queued_bytes, model_->peak_queued);
    EXPECT_EQ(st.streams_finished, peers_.size());
    EXPECT_EQ(payload_mismatches_, 0u) << "a released view carried the wrong bytes";
  }

 private:
  Peer make_peer(std::uint64_t id) {
    Peer p;
    p.id = id;
    Timestamp ts = rng_.below(200);
    const std::size_t frames = 1 + rng_.below(24);
    for (std::size_t i = 0; i < frames; ++i) {
      ts += rng_.below(30);  // equal stamps within a stream happen
      Frame f;
      f.ts = ts;
      const std::size_t len = 8 + rng_.below(113);
      for (std::size_t j = 0; j < len; ++j) {
        f.payload.push_back(static_cast<std::uint8_t>(id * 31 + i * 7 + j));
      }
      f.original_length =
          static_cast<std::uint32_t>(len + (rng_.below(3) == 0 ? 40 : 0));
      p.frames.push_back(std::move(f));
    }
    return p;
  }

  template <typename View>
  void sink(std::uint64_t id, const View& frame) {
    const std::uint64_t seq = release_count_[id]++;
    released_.emplace_back(frame.ts, id, seq);
    const Peer* p = nullptr;
    for (const Peer& q : peers_) p = q.id == id ? &q : p;
    if (p == nullptr || seq >= p->frames.size()) {
      ++payload_mismatches_;
      return;
    }
    const Frame& want = p->frames[seq];
    if (frame.original_length != want.original_length ||
        !std::equal(frame.data.begin(), frame.data.end(), want.payload.begin(),
                    want.payload.end())) {
      ++payload_mismatches_;
    }
  }

  void step() {
    Peer& p = peers_[rng_.below(peers_.size())];
    if (p.done) return;
    const std::uint64_t action = rng_.below(10);
    if (p.fd < 0) {
      connect(p);
    } else if (action < 6) {
      commit(p, 1 + rng_.below(6));
      write(p, false);
    } else if (action < 8) {
      write(p, rng_.below(2) == 0);
    } else if (action < 9) {
      disconnect(p);
    } else {
      condemn();
    }
  }

  /// Everything up to the fin is on the wire: the server never sheds a
  /// drained stream, so it stays connected until it finishes.
  static bool drained(const Peer& p) {
    return p.fd >= 0 && p.fin_committed && p.written == p.out.size();
  }

  /// The peer's remaining frames and its fin, in one send: the stream is
  /// drained as soon as the server has parsed it, so the pump after the
  /// send cannot shed it.
  void drain(Peer& p) {
    if (p.fd < 0) {
      connect(p);
      return;
    }
    while (!p.fin_committed) commit(p, 1);
    write(p, true);
  }

  void connect(Peer& p) {
    p.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(p.fd, 0);
    // Every send leaves at once: Nagle would hold a small one back until
    // the server's delayed ack.
    int one = 1;
    ::setsockopt(p.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(p.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ByteWriter w;
    wire::encode_hello(w, wire::Hello{wire::HelloKind::kData, p.id, p.frames.size()});
    send_bytes(p.fd, w.view());
    if (failed_) return;
    const std::uint64_t cursor = model_->hello(p.id);
    model_->pump();
    // The ack is on its way back already: the server answers a hello as
    // it parses it.
    std::uint8_t ack[wire::kHelloAckSize];
    ssize_t got = 0;
    wait_for([&] {
      const ssize_t r = ::recv(p.fd, ack + got, sizeof ack - static_cast<std::size_t>(got),
                               MSG_DONTWAIT);
      if (r > 0) got += r;
      return got == static_cast<ssize_t>(sizeof ack);
    });
    if (failed_) return;
    ByteReader r(std::span<const std::uint8_t>(ack, sizeof ack));
    auto decoded = wire::decode_hello_ack(r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().status, wire::AckStatus::kAccepted);
    EXPECT_EQ(decoded.value().resume_cursor, cursor) << "stream " << p.id;
    p.next_frame = cursor;
    p.floor = model_->stream(p.id).last_recv_ts;
    p.out.clear();
    p.written = 0;
    p.pending.clear();
    p.fin_committed = false;
    sync_closed();
  }

  /// Commits up to `count` messages: records, promises, and the fin once
  /// every frame is committed.
  void commit(Peer& p, std::size_t count) {
    for (std::size_t i = 0; i < count && !p.fin_committed; ++i) {
      ByteWriter w;
      Pending m{};
      const bool frames_left = p.next_frame < p.frames.size();
      if (rng_.below(4) == 0) {
        // A promise: nothing later on this stream is below it.
        const Timestamp cap =
            frames_left ? p.frames[p.next_frame].ts : p.floor + 50;
        m.kind = Pending::Kind::kProgress;
        m.ts = p.floor + rng_.below(cap - p.floor + 1);
        p.floor = m.ts;
        wire::encode_progress(w, m.ts);
      } else if (frames_left) {
        const Frame& f = p.frames[p.next_frame++];
        m.kind = Pending::Kind::kRecord;
        m.ts = f.ts;
        m.len = f.payload.size();
        p.floor = f.ts;
        wire::encode_record_header(
            w, wire::RecordHeader{f.ts, f.original_length,
                                  static_cast<std::uint32_t>(f.payload.size())});
        w.bytes(f.payload);
      } else {
        m.kind = Pending::Kind::kFin;
        m.total = p.frames.size();
        p.fin_committed = true;
        wire::encode_fin(w, m.total);
      }
      p.out.insert(p.out.end(), w.view().begin(), w.view().end());
      m.end = p.out.size();
      p.pending.push_back(m);
    }
  }

  /// Writes some of the committed bytes (all of them with `all`), waits
  /// for the server to read them, and applies the complete messages.
  void write(Peer& p, bool all) {
    const std::size_t left = p.out.size() - p.written;
    if (left == 0) return;
    const std::size_t n = all ? left : 1 + rng_.below(left);
    send_bytes(p.fd, std::span<const std::uint8_t>(p.out.data() + p.written, n));
    if (failed_) return;
    p.written += n;
    while (!p.pending.empty() && p.pending.front().end <= p.written) {
      const Pending m = p.pending.front();
      p.pending.pop_front();
      switch (m.kind) {
        case Pending::Kind::kRecord: model_->record(p.id, m.ts, m.len); break;
        case Pending::Kind::kProgress: model_->progress(p.id, m.ts); break;
        case Pending::Kind::kFin: model_->fin(p.id, m.total); break;
      }
    }
    model_->pump();
    sync_closed();
  }

  void disconnect(Peer& p) {
    close_socket(p);
    model_->close(p.id);
    const std::size_t want = model_->connections();
    wait_for([&] { return server_->stats().connections == want; });
  }

  void condemn() {
    const std::uint64_t got = server_->condemn_watermark_laggard("sweep");
    EXPECT_EQ(got, model_->condemn());
    sync_closed();
  }

  /// Closes the peers whose connection the server closed (shed,
  /// condemned or finished) and retires every finished stream's peer.
  void sync_closed() {
    for (std::uint64_t id : model_->take_server_closed()) {
      for (Peer& p : peers_) {
        if (p.id == id) close_socket(p);
      }
    }
    for (Peer& p : peers_) p.done = model_->finished(p.id);
  }

  void close_socket(Peer& p) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }

  void send_bytes(int fd, std::span<const std::uint8_t> bytes) {
    const ssize_t sent = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent != static_cast<ssize_t>(bytes.size())) {
      ADD_FAILURE() << "short send to the server";
      failed_ = true;
      return;
    }
    sent_ += bytes.size();
    wait_for([&] { return server_->stats().bytes_received >= sent_; });
  }

  template <typename Pred>
  void wait_for(Pred&& done) {
    const auto deadline = MonoClock::now() + std::chrono::seconds(10);
    while (!done()) {
      if (MonoClock::now() > deadline) {
        ADD_FAILURE() << "server did not catch up: " << server_->stats_line();
        failed_ = true;
        return;
      }
      reactor_.run_once(1);
    }
  }

  Rng rng_;
  Reactor reactor_;
  std::vector<Peer> peers_;
  std::unique_ptr<MergeModel> model_;
  std::unique_ptr<IngestServer> server_;
  std::vector<Key> released_;
  std::map<std::uint64_t, std::uint64_t> release_count_;
  std::uint64_t payload_mismatches_ = 0;
  std::size_t sent_ = 0;
  bool failed_ = false;
};

class MergeModelSweep : public ::testing::TestWithParam<int> {};

TEST_P(MergeModelSweep, ReleasesWhatTheReferenceModelReleases) {
  for (int i = 0; i < kSeedsPerShard; ++i) {
    const auto seed = static_cast<std::uint64_t>(GetParam() * kSeedsPerShard + i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Sweep(seed).run();
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeModelSweep, ::testing::Range(0, kShards));

}  // namespace
}  // namespace uncharted::netd
