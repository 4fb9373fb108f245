#include "netd/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace uncharted::netd {

namespace {

/// Durable-cursor section magic inside the daemon's composed checkpoint.
/// The section carries the forced-release count since "NTD2"; an older
/// ("NTDC") section is refused, and the daemon starts fresh.
constexpr std::uint32_t kCursorMagic = 0x4E544432;  // "NTD2"

/// A cursor entry's end state.
enum CursorEnd : std::uint8_t { kOpen = 0, kFinished = 1, kCondemned = 2 };

/// Accounting charge per queued frame on top of its payload. The budgets,
/// pause points and shedding thresholds are tuned in these units, so it
/// stays fixed whatever a queue entry actually costs.
constexpr std::size_t kPerFrameOverhead = 64;
/// A drained queue keeps buffers up to this size for its next frames, so a
/// stream that drains after every read allocates nothing; larger buffers
/// go back to the allocator.
constexpr std::size_t kRetainQueueBytes = 64 * 1024;

constexpr int kListenBacklog = 4096;
constexpr std::size_t kReadChunk = 64 * 1024;
/// Bytes a connection may accumulate without one complete message: the
/// largest well-formed record plus slack for its header.
constexpr std::size_t kMaxMessageBytes = wire::kMaxFrameBytes + 64;
/// Per-readiness-event read cap so one flooding peer cannot starve the
/// rest of the loop (level-triggered polling re-fires for the remainder).
constexpr std::size_t kReadBudget = 256 * 1024;

std::string describe_peer(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof buf);
  return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

std::size_t frame_cost(std::size_t payload_bytes) {
  return payload_bytes + kPerFrameOverhead;
}

template <typename T>
void give_back(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// Stream queue and merge heaps
// ---------------------------------------------------------------------------

net::FrameView IngestServer::FrameQueue::front() const {
  const QueuedFrame& f = entries_[head_];
  return net::FrameView{
      f.ts, f.original_length,
      std::span<const std::uint8_t>(bytes_.data() + (f.offset - base_), f.len)};
}

void IngestServer::FrameQueue::push(Timestamp ts, std::uint32_t original_length,
                                    std::span<const std::uint8_t> payload) {
  entries_.push_back(QueuedFrame{ts, original_length,
                                 static_cast<std::uint32_t>(payload.size()),
                                 base_ + bytes_.size()});
  bytes_.insert(bytes_.end(), payload.begin(), payload.end());
}

void IngestServer::FrameQueue::reclaim() {
  if (empty()) {
    entries_.clear();
    bytes_.clear();
    head_ = 0;
    base_ = 0;
    if (bytes_.capacity() > kRetainQueueBytes) give_back(bytes_);
    if (entries_.capacity() * sizeof(QueuedFrame) > kRetainQueueBytes) {
      give_back(entries_);
    }
    return;
  }
  const std::size_t consumed = entries_[head_].offset - base_;
  if (consumed * 2 > bytes_.size()) {
    bytes_.erase(bytes_.begin(),
                 bytes_.begin() + static_cast<std::ptrdiff_t>(consumed));
    base_ += consumed;
  }
  if (head_ * 2 > entries_.size()) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void IngestServer::FrameQueue::release() {
  give_back(entries_);
  give_back(bytes_);
  head_ = 0;
  base_ = 0;
}

template <IngestServer::Key IngestServer::Stream::*KeyOf,
          std::size_t IngestServer::Stream::*SlotOf>
void IngestServer::StreamHeap<KeyOf, SlotOf>::set(Stream& s, const Key& key) {
  s.*KeyOf = key;
  if (s.*SlotOf == kNoSlot) {
    s.*SlotOf = heap_.size();
    heap_.push_back(&s);
  }
  sift_down(sift_up(s.*SlotOf));
}

template <IngestServer::Key IngestServer::Stream::*KeyOf,
          std::size_t IngestServer::Stream::*SlotOf>
void IngestServer::StreamHeap<KeyOf, SlotOf>::erase(Stream& s) {
  const std::size_t i = s.*SlotOf;
  if (i == kNoSlot) return;
  s.*SlotOf = kNoSlot;
  Stream* last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // `s` was the last slot
  place(i, last);
  sift_down(sift_up(i));
}

template <IngestServer::Key IngestServer::Stream::*KeyOf,
          std::size_t IngestServer::Stream::*SlotOf>
void IngestServer::StreamHeap<KeyOf, SlotOf>::place(std::size_t i, Stream* s) {
  heap_[i] = s;
  s->*SlotOf = i;
}

template <IngestServer::Key IngestServer::Stream::*KeyOf,
          std::size_t IngestServer::Stream::*SlotOf>
std::size_t IngestServer::StreamHeap<KeyOf, SlotOf>::sift_up(std::size_t i) {
  Stream* s = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(s->*KeyOf < heap_[parent]->*KeyOf)) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, s);
  return i;
}

template <IngestServer::Key IngestServer::Stream::*KeyOf,
          std::size_t IngestServer::Stream::*SlotOf>
void IngestServer::StreamHeap<KeyOf, SlotOf>::sift_down(std::size_t i) {
  Stream* s = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1]->*KeyOf < heap_[child]->*KeyOf) ++child;
    if (!(heap_[child]->*KeyOf < s->*KeyOf)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, s);
}

IngestServer::IngestServer(Reactor& reactor, ServerConfig config, FrameSink sink)
    : reactor_(reactor),
      config_(std::move(config)),
      sys_(config_.sys != nullptr ? *config_.sys : faultinject::real_sys_ops()),
      sink_(std::move(sink)),
      tokens_(config_.accept_burst),
      last_refill_(MonoClock::now()) {}

IngestServer::~IngestServer() { close_all(); }

Status IngestServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Error{"netd-socket", std::strerror(errno)};
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (auto st = Reactor::make_nonblocking(listen_fd_); !st) return st;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    return Error{"netd-bind-addr", "bad bind address " + config_.bind_addr};
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    return Error{"netd-bind", std::string("bind: ") + std::strerror(errno)};
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) {
    return Error{"netd-listen", std::string("listen: ") + std::strerror(errno)};
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  if (auto st = reactor_.add_fd(listen_fd_, kEventRead,
                                [this](std::uint32_t) { on_listener_ready(); });
      !st) {
    return st;
  }

  if (!config_.query_sock_path.empty()) {
    unix_listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listen_fd_ < 0) return Error{"netd-socket", std::strerror(errno)};
    if (auto st = Reactor::make_nonblocking(unix_listen_fd_); !st) return st;
    sockaddr_un uaddr{};
    uaddr.sun_family = AF_UNIX;
    if (config_.query_sock_path.size() >= sizeof uaddr.sun_path) {
      return Error{"netd-unix-path", "query socket path too long"};
    }
    std::strncpy(uaddr.sun_path, config_.query_sock_path.c_str(),
                 sizeof uaddr.sun_path - 1);
    ::unlink(config_.query_sock_path.c_str());
    if (::bind(unix_listen_fd_, reinterpret_cast<const sockaddr*>(&uaddr),
               sizeof uaddr) < 0) {
      return Error{"netd-bind", std::string("bind unix: ") + std::strerror(errno)};
    }
    if (::listen(unix_listen_fd_, 64) < 0) {
      return Error{"netd-listen", std::string("listen unix: ") + std::strerror(errno)};
    }
    if (auto st = reactor_.add_fd(unix_listen_fd_, kEventRead, [this](std::uint32_t) {
          on_unix_listener_ready();
        });
        !st) {
      return st;
    }
  }

  tick_timer_ = reactor_.add_timer_after(config_.tick_s, [this] { on_tick(); });
  tick_armed_ = true;
  return Status::Ok();
}

void IngestServer::stop_accepting() {
  accepting_ = false;
  if (listen_fd_ >= 0) {
    reactor_.remove_fd(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (unix_listen_fd_ >= 0) {
    reactor_.remove_fd(unix_listen_fd_);
    ::close(unix_listen_fd_);
    unix_listen_fd_ = -1;
    ::unlink(config_.query_sock_path.c_str());
  }
}

void IngestServer::close_all() {
  stop_accepting();
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (int fd : fds) close_conn(fd);
  if (tick_armed_) {
    reactor_.cancel_timer(tick_timer_);
    tick_armed_ = false;
  }
}

void IngestServer::set_pressure_level(int level) {
  pressure_level_ = std::clamp(level, 0, 2);
}

std::size_t IngestServer::effective_budget() const {
  return config_.max_buffered_bytes >> static_cast<unsigned>(pressure_level_);
}

bool IngestServer::all_expected_finished() const {
  return config_.expect_streams > 0 &&
         stats_.streams_finished >= config_.expect_streams;
}

bool IngestServer::release_gate_open() const {
  return config_.expect_streams == 0 || streams_.size() >= config_.expect_streams;
}

std::uint64_t IngestServer::condemn_watermark_laggard(const std::string& reason) {
  if (!release_gate_open() || bounds_.empty() || heads_.empty()) return 0;
  Stream& s = bounds_.top();
  const std::uint64_t id = s.id;
  if (s.finished) return 0;
  // A gating stream that still has frames queued is about to release them
  // on its own; only an empty-handed laggard can wedge the merge.
  if (!s.q.empty()) return 0;
  if (s.conn_fd >= 0) evict(s.conn_fd, iec104::Severity::kWarn, reason);
  // Condemn the stream as finished (the same shape as hostile eviction):
  // its bound clears, it still counts toward the expect_streams gate, and
  // a later re-register is answered kFinished. Frames it never sent are
  // lost to the report — which is why this is a ladder action recorded in
  // the degradation ledger, never routine housekeeping.
  if (s.finished) return 0;
  s.fin_seen = false;
  s.condemned = true;
  stats_.condemned_streams++;
  finish_stream(s);
  pump();
  return id;
}

// ---------------------------------------------------------------------------
// Accept path
// ---------------------------------------------------------------------------

void IngestServer::refill_tokens() {
  if (config_.accept_rate <= 0.0) return;
  const MonoTime now = MonoClock::now();
  const double dt = std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(config_.accept_burst, tokens_ + dt * config_.accept_rate);
}

void IngestServer::on_listener_ready() { accept_loop(listen_fd_, false); }

void IngestServer::on_unix_listener_ready() { accept_loop(unix_listen_fd_, true); }

void IngestServer::accept_loop(int listener_fd, bool unix_peer) {
  if (!accepting_ || listener_fd < 0) return;
  refill_tokens();
  while (true) {
    if (!unix_peer && config_.accept_rate > 0.0 && tokens_ < 1.0) {
      // Token bucket dry: stop draining the backlog and mute the listener
      // until the next tick refills (otherwise level-triggered polling
      // would spin on the pending queue).
      stats_.rate_deferred_polls++;
      (void)reactor_.set_interest(listener_fd, 0);
      return;
    }
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const faultinject::AcceptResult ar = faultinject::retry_accept(
        sys_, listener_fd,
        unix_peer ? nullptr : reinterpret_cast<sockaddr*>(&peer),
        unix_peer ? nullptr : &len);
    if (ar.status != faultinject::IoStatus::kOk) {
      if (ar.status == faultinject::IoStatus::kError &&
          faultinject::fd_exhausted(ar.err)) {
        // Out of descriptors. With level-triggered polling the pending
        // backlog would re-fire accept readiness forever; mute the
        // listener and let the next tick re-arm it once fds have freed.
        // Pending clients are effectively shed and resume via their
        // cursors — the same admission-control contract as a busy ack.
        stats_.accept_fd_exhausted++;
        (void)reactor_.set_interest(listener_fd, 0);
      }
      return;  // EAGAIN or transient error: wait for readiness
    }
    const int fd = ar.fd;
    if (!unix_peer && config_.accept_rate > 0.0) tokens_ -= 1.0;
    if (auto st = Reactor::make_nonblocking(fd); !st) {
      ::close(fd);
      continue;
    }
    if (conns_.size() >= config_.max_connections) {
      // A drained connection (fin seen, every frame received, waiting only
      // for the watermark to release it) needs nothing more from the
      // network — its client re-syncs from the cursor on reconnect. At the
      // cap, displace one rather than deadlocking the listener against the
      // expect_streams gate: the waiting stream cannot finish until every
      // expected stream has said hello, which needs a free slot.
      int drained_fd = -1;
      for (const auto& [cfd, c] : conns_) {
        if (!c.got_hello || c.is_query || c.stream == nullptr) continue;
        if (c.stream->fin_seen && c.stream->recv_seq == c.stream->fin_total) {
          drained_fd = cfd;
          break;
        }
      }
      if (drained_fd >= 0) {
        evict(drained_fd, iec104::Severity::kInfo,
              "displaced while awaiting release (admission cap)");
      }
    }
    if (conns_.size() >= config_.max_connections) {
      // Admission control: greet with a busy ack (so the client backs off
      // instead of retrying hot) and close. Best effort — 13 bytes fit any
      // fresh socket buffer.
      ByteWriter w;
      wire::encode_hello_ack(w, wire::HelloAck{wire::AckStatus::kBusy, 0});
      (void)faultinject::retry_send(sys_, fd, w.data().data(), w.data().size(),
                                    MSG_NOSIGNAL);
      // Drain the greeting the peer has already sent before closing:
      // closing with unread data in the socket fires an RST, which would
      // destroy the busy ack sitting in the peer's receive buffer.
      std::uint8_t drain[256];
      while (faultinject::retry_recv(sys_, fd, drain, sizeof drain).status ==
             faultinject::IoStatus::kOk) {
      }
      ::close(fd);
      stats_.rejected_busy++;
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conn.unix_peer = unix_peer;
    conn.remote = unix_peer ? "unix" : describe_peer(peer);
    conn.last_byte = MonoClock::now();
    conn.last_message = conn.last_byte;
    if (auto st = reactor_.add_fd(
            fd, kEventRead, [this, fd](std::uint32_t ev) { on_conn_event(fd, ev); });
        !st) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    stats_.accepted++;
    stats_.connections = conns_.size();
    stats_.peak_connections = std::max(stats_.peak_connections, stats_.connections);
  }
}

// ---------------------------------------------------------------------------
// Connection I/O
// ---------------------------------------------------------------------------

void IngestServer::on_conn_event(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (events & kEventError) {
    close_conn(fd);
    return;
  }
  if (events & kEventWrite) {
    flush_conn(it->second);
    it = conns_.find(fd);
    if (it == conns_.end()) return;
  }
  if (events & kEventRead) read_conn(it->second);
}

void IngestServer::read_conn(Conn& conn) {
  const int fd = conn.fd;
  std::size_t total = 0;
  bool closed = false;
  while (total < kReadBudget) {
    std::uint8_t buf[kReadChunk];
    const faultinject::IoResult r =
        faultinject::retry_recv(sys_, fd, buf, sizeof buf);
    if (r.status == faultinject::IoStatus::kOk) {
      conn.in.insert(conn.in.end(), buf, buf + r.bytes);
      total += r.bytes;
      stats_.bytes_received += r.bytes;
      // A short read emptied the socket. Polling is level-triggered, so
      // whatever arrives next (bytes or EOF) fires again; another recv now
      // would only return EAGAIN.
      if (r.bytes < sizeof buf) break;
      continue;
    }
    if (r.status == faultinject::IoStatus::kWouldBlock) break;
    closed = true;  // kEof or kError: the peer is gone either way
    break;
  }
  if (total > 0) {
    conn.last_byte = MonoClock::now();
    if (!parse_conn(conn)) {
      // Evicted or finished; conn is gone. Its stream's bound may have
      // been what held the other streams' frames back.
      pump();
      return;
    }
    // Per-connection backpressure: a stream buffered too far past the
    // watermark stops being read until the release loop catches up.
    if (conn.stream != nullptr &&
        conn.stream->q_bytes > config_.per_conn_buffered_bytes && !conn.paused) {
      conn.paused = true;
      stats_.paused_reads++;
      (void)reactor_.set_interest(fd, conn.out.size() > conn.out_off ? kEventWrite : 0);
    }
    pump();
    if (conns_.find(fd) == conns_.end()) return;  // shed during pump
  }
  if (closed) close_conn(fd);
}

bool IngestServer::parse_conn(Conn& conn) {
  // Stamped once for the batch: the messages of one batch arrive together.
  bool parsed = false;
  while (true) {
    const std::size_t avail = conn.in.size() - conn.in_off;
    const std::span<const std::uint8_t> view(conn.in.data() + conn.in_off, avail);
    if (!conn.got_hello) {
      if (avail < wire::kHelloSize) break;
      ByteReader r(view.first(wire::kHelloSize));
      auto hello = wire::decode_hello(r);
      if (!hello) {
        evict(conn.fd, iec104::Severity::kHostile,
              "garbage hello: " + hello.error().str());
        return false;
      }
      conn.in_off += wire::kHelloSize;
      conn.got_hello = true;
      parsed = true;
      if (!handle_hello(conn, hello.value())) return false;
      continue;
    }
    if (conn.is_query) break;  // nothing further expected from a query peer
    if (avail < 1) break;
    const auto marker = static_cast<wire::Marker>(view[0]);
    if (marker == wire::Marker::kRecord) {
      if (avail < wire::kRecordHeaderSize) break;
      ByteReader r(view.first(wire::kRecordHeaderSize));
      auto rec = wire::decode_record_header(r);
      if (!rec) {
        evict(conn.fd, iec104::Severity::kHostile,
              "bad record: " + rec.error().str());
        return false;
      }
      const std::size_t need = wire::kRecordHeaderSize + rec.value().cap_len;
      if (avail < need) break;
      if (!handle_record(conn, rec.value(),
                         view.subspan(wire::kRecordHeaderSize, rec.value().cap_len))) {
        return false;
      }
      conn.in_off += need;
      parsed = true;
      // Backpressure must engage mid-batch: one read batch can carry far
      // more than the per-connection budget, and letting it all queue
      // would blow the global budget before pump() ever saw it. Leave the
      // remainder unparsed in conn.in; update_pauses() resumes it.
      if (!conn.paused && conn.stream != nullptr &&
          conn.stream->q_bytes > config_.per_conn_buffered_bytes) {
        conn.paused = true;
        stats_.paused_reads++;
        (void)reactor_.set_interest(
            conn.fd, conn.out.size() > conn.out_off ? kEventWrite : 0u);
        break;
      }
      continue;
    }
    if (marker == wire::Marker::kProgress) {
      if (avail < wire::kProgressSize) break;
      ByteReader r(view.first(wire::kProgressSize));
      auto ts = wire::decode_progress(r);
      if (!ts) {
        evict(conn.fd, iec104::Severity::kHostile, "bad progress");
        return false;
      }
      if (!handle_progress(conn, ts.value())) return false;
      conn.in_off += wire::kProgressSize;
      parsed = true;
      continue;
    }
    if (marker == wire::Marker::kFin) {
      if (avail < wire::kFinSize) break;
      ByteReader r(view.first(wire::kFinSize));
      auto total = wire::decode_fin(r);
      if (!total) {
        evict(conn.fd, iec104::Severity::kHostile, "bad fin");
        return false;
      }
      conn.in_off += wire::kFinSize;
      parsed = true;
      if (!handle_fin(conn, total.value())) return false;
      continue;
    }
    evict(conn.fd, iec104::Severity::kHostile,
          "unknown marker " + std::to_string(view[0]));
    return false;
  }
  if (parsed) conn.last_message = MonoClock::now();
  // A peer accumulating bytes without ever completing a message is abusing
  // the framing (the slow-loris tick handles the time axis). A paused
  // connection is exempt: its backlog is well-framed, just deferred.
  if (!conn.paused && conn.in.size() - conn.in_off > kMaxMessageBytes) {
    evict(conn.fd, iec104::Severity::kHostile, "unframed byte flood");
    return false;
  }
  if (conn.in_off == conn.in.size()) {
    conn.in.clear();
    conn.in_off = 0;
  } else if (conn.in_off > kReadChunk) {
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_off));
    conn.in_off = 0;
  }
  return true;
}

bool IngestServer::handle_hello(Conn& conn, const wire::Hello& hello) {
  if (hello.kind == wire::HelloKind::kQuery ||
      hello.kind == wire::HelloKind::kHealth) {
    conn.is_query = true;
    stats_.queries_served++;
    const QueryHandler& handler =
        hello.kind == wire::HelloKind::kHealth ? health_handler_ : query_handler_;
    ByteWriter w;
    if (handler) {
      const std::string json = handler();
      wire::encode_query_reply_header(w, wire::AckStatus::kAccepted,
                                      static_cast<std::uint32_t>(json.size()));
      w.bytes(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
    } else {
      wire::encode_query_reply_header(w, wire::AckStatus::kBusy, 0);
    }
    conn.close_after_flush = true;
    // queue_bytes may close (and free) conn; only the saved fd is safe after.
    const int fd = conn.fd;
    queue_bytes(conn, w.view());
    return conns_.count(fd) > 0;
  }

  stats_.hellos++;
  auto [it, inserted] = streams_.try_emplace(hello.stream_id);
  Stream& s = it->second;
  if (inserted) s.id = hello.stream_id;

  if (s.finished) {
    ByteWriter w;
    wire::encode_hello_ack(w, wire::HelloAck{wire::AckStatus::kFinished, s.cursor});
    conn.close_after_flush = true;
    const int fd = conn.fd;
    queue_bytes(conn, w.view());
    return conns_.count(fd) > 0;
  }

  if (s.conn_fd >= 0 && s.conn_fd != conn.fd) {
    // A reconnect raced the old connection's teardown: the new hello wins.
    const int old_fd = s.conn_fd;
    evict(old_fd, iec104::Severity::kWarn, "superseded by reconnect");
  }
  s.conn_fd = conn.fd;
  s.recv_seq = s.cursor;
  // Never rewind the resume floor detach_stream tightened: re-sent frames
  // below it are timestamp regressions, not legitimate replays.
  s.last_recv_ts = std::max(s.last_recv_ts, s.released_ts);
  s.fin_seen = false;
  bounds_.set(s, Key{s.last_recv_ts, s.id, s.cursor});
  conn.stream_id = s.id;
  conn.stream = &s;
  if (s.cursor > 0) stats_.resumed_hellos++;

  ByteWriter w;
  wire::encode_hello_ack(w, wire::HelloAck{wire::AckStatus::kAccepted, s.cursor});
  const int fd = conn.fd;
  queue_bytes(conn, w.view());
  return conns_.count(fd) > 0;
}

IngestServer::Stream* IngestServer::open_stream(Conn& conn, const char* what) {
  if (conn.stream == nullptr) {
    evict(conn.fd, iec104::Severity::kHostile, std::string(what) + " without stream");
    return nullptr;
  }
  Stream& s = *conn.stream;
  if (s.fin_seen || s.finished) {
    // Fin closes the stream's message sequence. Anything after it would
    // push recv_seq past fin_total (so release_front never finishes the
    // stream) or re-insert a bound for a finished one.
    evict(conn.fd, iec104::Severity::kHostile, "message after fin");
    return nullptr;
  }
  return &s;
}

bool IngestServer::handle_record(Conn& conn, const wire::RecordHeader& rec,
                                 std::span<const std::uint8_t> payload) {
  Stream* sp = open_stream(conn, "record");
  if (sp == nullptr) return false;
  Stream& s = *sp;
  if (rec.ts < s.last_recv_ts) {
    // Streams replay a time-sorted capture slice, and last_recv_ts also
    // carries the stream's latest promise; a regressing timestamp would
    // poison the deterministic merge.
    evict(conn.fd, iec104::Severity::kHostile, "timestamp regression");
    return false;
  }
  const std::size_t cost = frame_cost(payload.size());
  // An empty queue means every received frame was released: the new
  // frame's seq is the cursor.
  if (s.q.empty()) heads_.set(s, Key{rec.ts, s.id, s.cursor});
  s.q.push(rec.ts, rec.original_length, payload);
  s.q_bytes += cost;
  stats_.queued_bytes += cost;
  stats_.peak_queued_bytes = std::max(stats_.peak_queued_bytes, stats_.queued_bytes);
  stats_.frames_received++;
  s.last_recv_ts = rec.ts;
  s.recv_seq++;
  bounds_.set(s, Key{s.last_recv_ts, s.id, s.recv_seq});
  return true;
}

bool IngestServer::handle_progress(Conn& conn, Timestamp ts) {
  Stream* sp = open_stream(conn, "progress");
  if (sp == nullptr) return false;
  Stream& s = *sp;
  if (ts < s.last_recv_ts) {
    evict(conn.fd, iec104::Severity::kHostile, "progress regression");
    return false;
  }
  // The promise becomes the stream's bound: every later record keys at
  // (>= ts, id, >= recv_seq), so frames of other streams below it release
  // while this one is silent.
  s.last_recv_ts = ts;
  bounds_.set(s, Key{ts, s.id, s.recv_seq});
  return true;
}

bool IngestServer::handle_fin(Conn& conn, std::uint64_t total) {
  Stream* sp = open_stream(conn, "fin");
  if (sp == nullptr) return false;
  Stream& s = *sp;
  if (total != s.recv_seq) {
    evict(conn.fd, iec104::Severity::kHostile,
          "fin count mismatch (declared " + std::to_string(total) + ", received " +
              std::to_string(s.recv_seq) + ")");
    return false;
  }
  s.fin_seen = true;
  s.fin_total = total;
  // finish_stream acks and then closes (frees) conn even on the healthy
  // path; only the saved fd is safe to consult afterwards.
  const int fd = conn.fd;
  if (s.cursor == s.fin_total && s.q.empty()) finish_stream(s);
  return conns_.count(fd) > 0;
}

void IngestServer::queue_bytes(Conn& conn, std::span<const std::uint8_t> bytes) {
  conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
  flush_conn(conn);
}

void IngestServer::flush_conn(Conn& conn) {
  const int fd = conn.fd;
  while (conn.out_off < conn.out.size()) {
    const faultinject::IoResult r =
        faultinject::retry_send(sys_, fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (r.status == faultinject::IoStatus::kOk) {
      conn.out_off += r.bytes;
      continue;
    }
    if (r.status == faultinject::IoStatus::kWouldBlock) {
      (void)reactor_.set_interest(fd,
                                  kEventWrite | (conn.paused ? 0u : kEventRead));
      return;
    }
    close_conn(fd);
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_flush) {
    close_conn(fd);
    return;
  }
  (void)reactor_.set_interest(fd, conn.paused ? 0u : kEventRead);
}

void IngestServer::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Stream* s = it->second.stream;
  reactor_.remove_fd(fd);
  ::close(fd);
  conns_.erase(it);
  stats_.connections = conns_.size();
  if (s != nullptr && s->conn_fd == fd) {
    s->conn_fd = -1;
    if (!s->finished) detach_stream(*s);
  }
}

void IngestServer::evict(int fd, iec104::Severity severity,
                         const std::string& reason) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Stream* s = it->second.stream;
  evictions_.push_back(
      EvictionRecord{it->second.is_query ? 0 : it->second.stream_id,
                     it->second.remote, severity, reason});
  if (severity == iec104::Severity::kHostile) {
    stats_.evicted_hostile++;
  } else if (severity == iec104::Severity::kWarn) {
    stats_.evicted_warn++;
  }
  close_conn(fd);
  if (severity == iec104::Severity::kHostile && s != nullptr) {
    // A hostile peer never comes back to make progress, so its rewound
    // bound would gate the watermark merge forever. Condemn the stream as
    // finished: its bound is cleared, it still counts toward the
    // expect_streams gate and the drain accounting (erasing it would
    // re-close the gate for everyone else), frames it already released
    // stay released in deterministic order, everything still queued was
    // discarded by close_conn, and a re-register under the same id is
    // answered with a kFinished ack.
    if (!s->finished) {
      s->fin_seen = false;
      finish_stream(*s);
    }
  }
}

// ---------------------------------------------------------------------------
// Watermark release, shedding, forced release
// ---------------------------------------------------------------------------

void IngestServer::detach_stream(Stream& s) {
  // The resume floor: the client re-sends from the cursor, and the frame
  // at the cursor — if we ever saw it — cannot legally change timestamp
  // (the regression check on reconnect enforces that). Keeping the bound
  // at the dropped queue head instead of rewinding all the way to the
  // released watermark lets OTHER streams keep releasing while this one
  // is offline, which is what makes cap displacement converge. With an
  // empty queue the client re-sends from recv_seq, after everything this
  // stream ever promised, so the promise stays the floor.
  Timestamp resume_ts = std::max(s.released_ts, s.last_recv_ts);
  if (!s.q.empty()) {
    resume_ts = s.q.front_ts();
    heads_.erase(s);
    stats_.queued_bytes -= s.q_bytes;
    s.q_bytes = 0;
  }
  s.q.release();
  s.recv_seq = s.cursor;
  s.last_recv_ts = resume_ts;
  s.fin_seen = false;
  bounds_.set(s, Key{resume_ts, s.id, s.cursor});
}

void IngestServer::release_front(Stream& s) {
  // The view stays valid through the sink: pop() leaves the bytes in
  // place until reclaim().
  const net::FrameView frame = s.q.front();
  s.q.pop();
  const std::size_t cost = frame_cost(frame.data.size());
  s.q_bytes -= cost;
  stats_.queued_bytes -= cost;
  s.cursor++;
  s.released_ts = frame.ts;
  stats_.frames_released++;
  if (s.q.empty()) {
    heads_.erase(s);
  } else {
    heads_.set(s, Key{s.q.front_ts(), s.id, s.cursor});
  }
  // Sink runs synchronously: when it checkpoints, save_cursors() already
  // counts this frame, matching the analyzer state exactly.
  if (sink_) sink_(s.id, frame);
  s.q.reclaim();
  if (s.fin_seen && s.cursor == s.fin_total && s.q.empty()) finish_stream(s);
}

void IngestServer::finish_stream(Stream& s) {
  s.finished = true;
  bounds_.erase(s);
  s.q.release();
  stats_.streams_finished++;
  if (s.conn_fd >= 0) {
    auto it = conns_.find(s.conn_fd);
    if (it != conns_.end()) {
      ByteWriter w;
      wire::encode_fin_ack(w, s.fin_total);
      it->second.close_after_flush = true;
      queue_bytes(it->second, w.view());
    }
  }
}

void IngestServer::pump() {
  const bool gated =
      config_.expect_streams > 0 && streams_.size() < config_.expect_streams;
  if (!gated) {
    while (!heads_.empty()) {
      Stream& s = heads_.top();
      if (!bounds_.empty() && !(s.head < bounds_.top().bound)) break;
      release_front(s);
    }
  }
  const std::size_t budget = effective_budget();
  if (stats_.queued_bytes > budget) shed_until(budget - budget / 4);
  if (stats_.queued_bytes > budget && config_.allow_forced_release) {
    force_release(budget / 2);
  }
}

void IngestServer::shed_until(std::size_t target_bytes) {
  // Shed the cheapest connections first: the fattest buffers belong to the
  // streams furthest ahead of the watermark, so closing them reclaims the
  // most memory at the least loss of forward progress — and costs no data,
  // because cursor-based resume re-sends everything dropped here.
  while (stats_.queued_bytes > target_bytes) {
    Stream* victim = nullptr;
    for (auto& [id, s] : streams_) {
      if (s.q_bytes == 0 || s.conn_fd < 0) continue;
      // A drained stream's buffer is its complete tail waiting on the
      // watermark: evicting it would only make the client re-send the
      // same bytes into the same gate. force_release is the backstop
      // for that shape, not shedding.
      if (s.fin_seen && s.recv_seq == s.fin_total) continue;
      if (victim == nullptr || s.q_bytes > victim->q_bytes) victim = &s;
    }
    if (victim == nullptr) break;
    stats_.shed_connections++;
    evict(victim->conn_fd, iec104::Severity::kInfo,
          "shed under memory pressure (" + std::to_string(victim->q_bytes) +
              " bytes buffered)");
  }
}

void IngestServer::force_release(std::size_t target_bytes) {
  // Last resort: budget exhausted even with every connection shed (e.g. a
  // single stream larger than the budget while the watermark waits on a
  // disconnected peer). Releasing past the watermark degrades the
  // deterministic merge to sampling — counted, and surfaced as a
  // degradation warning by the daemon — but the process stays bounded.
  while (stats_.queued_bytes > target_bytes && !heads_.empty()) {
    stats_.forced_releases++;
    release_front(heads_.top());
  }
}

void IngestServer::update_pauses() {
  const std::size_t budget = effective_budget();
  if (stats_.queued_bytes > budget - budget / 4) return;
  std::vector<int> resumable;
  for (auto& [fd, conn] : conns_) {
    if (!conn.paused) continue;
    const std::size_t q_bytes = conn.stream == nullptr ? 0 : conn.stream->q_bytes;
    if (q_bytes <= config_.per_conn_buffered_bytes / 2) resumable.push_back(fd);
  }
  for (int fd : resumable) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    it->second.paused = false;
    // Messages left unparsed by a mid-batch pause sit in conn.in and will
    // never raise another read event: resume parsing them here. This can
    // re-pause or even evict the connection.
    if (it->second.in.size() > it->second.in_off && !parse_conn(it->second)) {
      continue;
    }
    it = conns_.find(fd);
    if (it == conns_.end() || it->second.paused) continue;
    (void)reactor_.set_interest(
        fd, kEventRead |
                (it->second.out.size() > it->second.out_off ? kEventWrite : 0u));
  }
}

// ---------------------------------------------------------------------------
// Housekeeping tick
// ---------------------------------------------------------------------------

void IngestServer::on_tick() {
  tick_armed_ = false;
  refill_tokens();
  if (accepting_ && listen_fd_ >= 0) {
    // Un-mute a rate-deferred or fd-exhausted listener once tokens are
    // back. If descriptors are still exhausted the next accept re-mutes
    // it, so recovery polls at tick cadence instead of busy-looping.
    if (config_.accept_rate <= 0.0 || tokens_ >= 1.0) {
      (void)reactor_.set_interest(listen_fd_, kEventRead);
    }
  }
  if (accepting_ && unix_listen_fd_ >= 0) {
    (void)reactor_.set_interest(unix_listen_fd_, kEventRead);
  }

  const MonoTime now = MonoClock::now();
  std::vector<std::tuple<int, iec104::Severity, std::string>> to_evict;
  for (const auto& [fd, conn] : conns_) {
    const double since_byte =
        std::chrono::duration<double>(now - conn.last_byte).count();
    const double since_message =
        std::chrono::duration<double>(now - conn.last_message).count();
    if (!conn.got_hello) {
      if (since_message > config_.handshake_timeout_s) {
        to_evict.emplace_back(fd, iec104::Severity::kWarn, "no hello");
      }
      continue;
    }
    const bool partial = conn.in.size() > conn.in_off;
    if (partial && !conn.paused && since_message > config_.read_timeout_s) {
      // The PR-4 kSlowlorisDribble scenario, at the transport layer: bytes
      // may still trickle in, but no complete message has formed.
      to_evict.emplace_back(fd, iec104::Severity::kHostile, "slow-loris dribble");
      continue;
    }
    if (!partial && !conn.paused && since_byte > config_.idle_timeout_s) {
      to_evict.emplace_back(fd, iec104::Severity::kInfo, "idle timeout");
    }
  }
  for (const auto& [fd, severity, reason] : to_evict) evict(fd, severity, reason);

  update_pauses();
  pump();
  stats_.ticks++;
  tick_timer_ = reactor_.add_timer_after(config_.tick_s, [this] { on_tick(); });
  tick_armed_ = true;
}

// ---------------------------------------------------------------------------
// Durable cursors (the netd half of the composed checkpoint)
// ---------------------------------------------------------------------------

void IngestServer::save_cursors(ByteWriter& w) const {
  w.u32le(kCursorMagic);
  // Every release counted here is behind the cursors below: force_release
  // counts a frame before the sink that may checkpoint runs.
  w.u64le(stats_.forced_releases);
  w.u64le(streams_.size());
  for (const auto& [id, s] : streams_) {
    w.u64le(id);
    w.u64le(s.cursor);
    w.u64le(s.released_ts);
    w.u8(!s.finished ? kOpen : s.condemned ? kCondemned : kFinished);
  }
}

Status IngestServer::load_cursors(ByteReader& r) {
  auto magic = r.u32le();
  if (!magic || magic.value() != kCursorMagic) {
    return Error{"netd-cursors", "cursor section magic mismatch"};
  }
  auto forced = r.u64le();
  auto count = r.u64le();
  if (!count) return Error{"netd-cursors", "cursor section truncated"};
  stats_.forced_releases = forced.value();
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto id = r.u64le();
    auto cursor = r.u64le();
    auto released_ts = r.u64le();
    auto end = r.u8();
    if (!end) return Error{"netd-cursors", "cursor entry truncated"};
    if (end.value() > kCondemned) {
      return Error{"netd-cursors", "unknown stream end state"};
    }
    Stream s;
    s.id = id.value();
    s.cursor = cursor.value();
    s.released_ts = released_ts.value();
    s.finished = end.value() != kOpen;
    s.condemned = end.value() == kCondemned;
    s.recv_seq = s.cursor;
    s.last_recv_ts = s.released_ts;
    auto [it, inserted] = streams_.emplace(s.id, std::move(s));
    if (!inserted) return Error{"netd-cursors", "duplicate stream id"};
    if (it->second.finished) {
      stats_.streams_finished++;
      if (it->second.condemned) stats_.condemned_streams++;
    } else {
      bounds_.set(it->second,
                  Key{it->second.released_ts, it->second.id, it->second.cursor});
    }
  }
  return Status::Ok();
}

std::string IngestServer::stats_line() const {
  return "conns=" + std::to_string(stats_.connections) + "/" +
         std::to_string(stats_.peak_connections) +
         " streams=" + std::to_string(streams_.size()) +
         " finished=" + std::to_string(stats_.streams_finished) +
         " frames=" + std::to_string(stats_.frames_released) + "/" +
         std::to_string(stats_.frames_received) +
         " queued=" + std::to_string(stats_.queued_bytes) + "B(peak " +
         std::to_string(stats_.peak_queued_bytes) +
         "B) busy=" + std::to_string(stats_.rejected_busy) +
         " fdexh=" + std::to_string(stats_.accept_fd_exhausted) +
         " shed=" + std::to_string(stats_.shed_connections) +
         " hostile=" + std::to_string(stats_.evicted_hostile) +
         " warn=" + std::to_string(stats_.evicted_warn) +
         " forced=" + std::to_string(stats_.forced_releases) +
         " condemned=" + std::to_string(stats_.condemned_streams);
}

}  // namespace uncharted::netd
