#include "netd/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace uncharted::netd {

namespace {

/// Cap on the per-connection send backlog before yielding to the reactor.
constexpr std::size_t kOutBacklogCap = 256 * 1024;
constexpr std::size_t kReadChunk = 4096;

/// Ceiling of the doubling reconnect backoff, in seconds.
constexpr double kRetryMaxS = 2.0;

/// Slow-loris abuse: declare this many payload bytes, deliver only a few.
constexpr std::uint32_t kLorisDeclaredBytes = 4096;
constexpr std::size_t kLorisDeliveredBytes = 16;

}  // namespace

FleetClient::FleetClient(Reactor& reactor, FleetConfig config,
                         std::vector<ReplayStream> streams)
    : reactor_(reactor),
      config_(std::move(config)),
      sys_(config_.sys != nullptr ? *config_.sys : faultinject::real_sys_ops()),
      rng_(config_.seed) {
  streams_.reserve(streams.size());
  for (auto& spec : streams) {
    StreamState st;
    st.spec = std::move(spec);
    streams_.push_back(std::move(st));
  }
}

FleetClient::~FleetClient() {
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (streams_[i].pace_timer_armed) {
      reactor_.cancel_timer(streams_[i].pace_timer);
      streams_[i].pace_timer_armed = false;
    }
    close_fd(i);
  }
}

void FleetClient::start() {
  started_ = true;
  epoch_ts_ = 0;
  bool have_epoch = false;
  for (auto& st : streams_) {
    if (st.spec.frames.empty()) continue;
    if (!have_epoch || st.spec.frames.front().ts < epoch_ts_) {
      epoch_ts_ = st.spec.frames.front().ts;
      have_epoch = true;
    }
  }
  wall_epoch_ = MonoClock::now();
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    StreamState& st = streams_[i];
    if (st.spec.mode == ReplayMode::kBenign && config_.churn > 0.0 &&
        st.spec.frames.size() > 1 && rng_.uniform() < config_.churn) {
      st.churn_at =
          1 + rng_.below(static_cast<std::uint64_t>(st.spec.frames.size()) - 1);
      st.churn_armed = true;
    }
    connect_stream(i);
  }
  if (config_.linger) {
    reactor_.add_timer_after(config_.linger_recheck_s, [this] { on_linger_tick(); });
  }
}

bool FleetClient::all_done() const {
  return std::all_of(streams_.begin(), streams_.end(), [](const StreamState& st) {
    return st.counted_done || st.phase == Phase::kFailed;
  });
}

bool FleetClient::all_benign_ok() const {
  return std::all_of(streams_.begin(), streams_.end(), [](const StreamState& st) {
    return st.spec.mode != ReplayMode::kBenign ||
           (st.counted_done && !st.lost && st.phase != Phase::kFailed);
  });
}

MonoTime FleetClient::deadline_for(Timestamp ts) const {
  const double capture_s =
      static_cast<double>(ts - epoch_ts_) / static_cast<double>(kMicrosPerSecond);
  return wall_epoch_ + std::chrono::duration_cast<MonoClock::duration>(
                           std::chrono::duration<double>(capture_s / config_.pace));
}

void FleetClient::connect_stream(std::size_t idx) {
  StreamState& st = streams_[idx];
  st.pace_timer_armed = false;
  if (st.phase == Phase::kDone && !config_.linger) return;
  st.in.clear();
  st.out.clear();
  st.out_off = 0;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    retry_later(idx, false);
    return;
  }
  (void)Reactor::make_nonblocking(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    mark_failed(idx);
    return;
  }
  stats_.connects_attempted++;
  const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    retry_later(idx, false);
    return;
  }
  st.fd = fd;
  st.phase = Phase::kConnecting;
  if (auto status = reactor_.add_fd(
          fd, kEventWrite, [this, idx](std::uint32_t ev) { on_event(idx, ev); });
      !status) {
    close_fd(idx);
    retry_later(idx, false);
  }
}

void FleetClient::on_event(std::size_t idx, std::uint32_t events) {
  StreamState& st = streams_[idx];
  if (st.fd < 0) return;
  if (events & kEventError) {
    if (st.spec.mode != ReplayMode::kBenign && st.loris_sent) {
      stats_.hostile_closed++;
      mark_done(idx);
    } else if (st.phase == Phase::kDone) {
      close_fd(idx);
    } else {
      retry_later(idx, st.phase != Phase::kConnecting);
    }
    return;
  }
  if (events & kEventWrite) {
    if (st.phase == Phase::kConnecting) {
      on_connected(idx);
      if (streams_[idx].fd < 0) return;
    } else {
      flush_out(idx);
      if (streams_[idx].fd < 0) return;
      if (streams_[idx].phase == Phase::kSending &&
          streams_[idx].out.size() == streams_[idx].out_off) {
        pump_send(idx);
      }
    }
  }
  if ((events & kEventRead) && streams_[idx].fd >= 0) on_readable(idx);
}

void FleetClient::on_connected(std::size_t idx) {
  StreamState& st = streams_[idx];
  int err = 0;
  socklen_t len = sizeof err;
  if (::getsockopt(st.fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    retry_later(idx, false);
    return;
  }
  if (st.spec.mode == ReplayMode::kGarbage) {
    // Not even a hello: 64 bytes that cannot start with the magic.
    st.out.reserve(64);
    for (int i = 0; i < 64; ++i) {
      st.out.push_back(static_cast<std::uint8_t>(0x80u | (rng_.next_u64() & 0x7Fu)));
    }
    st.loris_sent = true;
    st.phase = Phase::kAwaitAck;  // nothing valid will come; wait for the boot
    (void)reactor_.set_interest(st.fd, kEventRead);
    flush_out(idx);
    return;
  }
  ByteWriter w;
  wire::encode_hello(w, wire::Hello{wire::HelloKind::kData, st.spec.id,
                                    static_cast<std::uint64_t>(st.spec.frames.size())});
  st.out.assign(w.view().begin(), w.view().end());
  st.phase = Phase::kAwaitAck;
  (void)reactor_.set_interest(st.fd, kEventRead);
  flush_out(idx);
}

void FleetClient::on_readable(std::size_t idx) {
  StreamState& st = streams_[idx];
  bool peer_closed = false;
  while (true) {
    std::uint8_t buf[kReadChunk];
    const faultinject::IoResult r =
        faultinject::retry_recv(sys_, st.fd, buf, sizeof buf);
    if (r.status == faultinject::IoStatus::kOk) {
      st.in.insert(st.in.end(), buf, buf + r.bytes);
      continue;
    }
    if (r.status == faultinject::IoStatus::kWouldBlock) break;
    // Peer closed (or reset). The server flushes its final ack and closes
    // immediately, so the ack and the EOF routinely arrive in one readable
    // event: parse what is buffered below BEFORE interpreting the close,
    // or a racing fin-ack would be discarded and retried forever.
    peer_closed = true;
    break;
  }

  if (st.phase == Phase::kAwaitAck && st.in.size() >= wire::kHelloAckSize) {
    ByteReader r(std::span<const std::uint8_t>(st.in.data(), wire::kHelloAckSize));
    auto ack = wire::decode_hello_ack(r);
    st.in.erase(st.in.begin(),
                st.in.begin() + static_cast<std::ptrdiff_t>(wire::kHelloAckSize));
    if (!ack) {
      retry_later(idx, true);
      return;
    }
    if (!handle_ack(idx, ack.value())) return;
  }
  if (streams_[idx].phase == Phase::kAwaitFinAck &&
      streams_[idx].in.size() >= wire::kFinAckSize) {
    StreamState& cur = streams_[idx];
    ByteReader r(std::span<const std::uint8_t>(cur.in.data(), wire::kFinAckSize));
    auto total = wire::decode_fin_ack(r);
    cur.in.clear();
    if (!total) {
      retry_later(idx, true);
      return;
    }
    if (!cur.counted_done) {
      cur.counted_done = true;
      stats_.finished_streams++;
    }
    mark_done(idx);
  }

  if (!peer_closed) return;
  StreamState& cur = streams_[idx];
  if (cur.fd < 0) return;  // the buffered ack already resolved this connection
  if (cur.spec.mode != ReplayMode::kBenign && cur.loris_sent) {
    stats_.hostile_closed++;
    mark_done(idx);
  } else if (cur.phase == Phase::kDone) {
    close_fd(idx);
  } else {
    retry_later(idx, true);
  }
}

bool FleetClient::handle_ack(std::size_t idx, const wire::HelloAck& ack) {
  StreamState& st = streams_[idx];
  switch (ack.status) {
    case wire::AckStatus::kBusy:
      stats_.busy_retries++;
      retry_later(idx, false);
      return false;
    case wire::AckStatus::kFinished:
      // The server has closed this stream. Unless its fin was already
      // acked, the frames past the server's cursor never reach the report:
      // the stream is lost, not delivered.
      if (!st.counted_done) {
        st.counted_done = true;
        if (ack.resume_cursor < st.spec.frames.size()) {
          st.lost = true;
          stats_.lost_streams++;
        } else {
          stats_.finished_streams++;
        }
      }
      mark_done(idx);
      return false;
    case wire::AckStatus::kAccepted:
      break;
  }
  st.failing = false;
  st.backoff_s = 0.0;
  st.next_frame = ack.resume_cursor;
  st.promised_ts = 0;
  if (st.spec.mode == ReplayMode::kSlowLoris) {
    // A syntactically valid record header, then silence: only the
    // server's read timeout can classify this.
    ByteWriter w;
    wire::RecordHeader rec;
    rec.ts = epoch_ts_;
    rec.original_length = kLorisDeclaredBytes;
    rec.cap_len = kLorisDeclaredBytes;
    wire::encode_record_header(w, rec);
    for (std::size_t i = 0; i < kLorisDeliveredBytes; ++i) w.u8(0x55);
    st.out.insert(st.out.end(), w.view().begin(), w.view().end());
    st.loris_sent = true;
    st.phase = Phase::kSending;  // parked: no more bytes will follow
    flush_out(idx);
    return streams_[idx].fd >= 0;
  }
  st.phase = Phase::kSending;
  pump_send(idx);
  return streams_[idx].fd >= 0;
}

void FleetClient::append_frame(StreamState& st) {
  const net::CapturedPacket& pkt = st.spec.frames[st.next_frame];
  ByteWriter w;
  wire::RecordHeader rec;
  rec.ts = pkt.ts;
  rec.original_length = pkt.original_length;
  rec.cap_len = static_cast<std::uint32_t>(pkt.data.size());
  wire::encode_record_header(w, rec);
  st.out.insert(st.out.end(), w.view().begin(), w.view().end());
  st.out.insert(st.out.end(), pkt.data.begin(), pkt.data.end());
  st.next_frame++;
  stats_.frames_sent++;
}

void FleetClient::pump_send(std::size_t idx) {
  StreamState& st = streams_[idx];
  if (st.phase != Phase::kSending || st.spec.mode == ReplayMode::kSlowLoris) return;
  const auto total = static_cast<std::uint64_t>(st.spec.frames.size());
  while (st.next_frame < total) {
    if (st.churn_armed && st.next_frame >= st.churn_at) {
      // Deliberate mid-stream disconnect; the resume cursor brings the
      // stream back to wherever the server actually got.
      st.churn_armed = false;
      stats_.reconnects++;
      close_fd(idx);
      st.phase = Phase::kIdle;
      st.pace_timer = reactor_.add_timer_after(config_.retry_initial_s,
                                               [this, idx] { connect_stream(idx); });
      st.pace_timer_armed = true;
      return;
    }
    if (st.out.size() - st.out_off >= kOutBacklogCap) break;
    if (config_.pace > 0.0) {
      const Timestamp next_ts = st.spec.frames[st.next_frame].ts;
      const MonoTime due = deadline_for(next_ts);
      if (MonoClock::now() < due) {
        if (st.promised_ts != next_ts) {
          // Nothing before next_ts will follow: say so now, in the same
          // send as the frames before it, so the server's merge does not
          // wait on this stream until the frame falls due.
          ByteWriter w;
          wire::encode_progress(w, next_ts);
          st.out.insert(st.out.end(), w.view().begin(), w.view().end());
          st.promised_ts = next_ts;
        }
        if (!st.pace_timer_armed) {
          st.pace_timer = reactor_.add_timer_at(due, [this, idx] {
            streams_[idx].pace_timer_armed = false;
            if (streams_[idx].phase == Phase::kSending) pump_send(idx);
          });
          st.pace_timer_armed = true;
        }
        break;
      }
    }
    append_frame(st);
  }
  if (st.next_frame == total && st.out.size() - st.out_off < kOutBacklogCap) {
    ByteWriter w;
    wire::encode_fin(w, total);
    st.out.insert(st.out.end(), w.view().begin(), w.view().end());
    st.phase = Phase::kAwaitFinAck;
  }
  flush_out(idx);
}

void FleetClient::flush_out(std::size_t idx) {
  StreamState& st = streams_[idx];
  while (st.out_off < st.out.size()) {
    const faultinject::IoResult r =
        faultinject::retry_send(sys_, st.fd, st.out.data() + st.out_off,
                                st.out.size() - st.out_off, MSG_NOSIGNAL);
    if (r.status == faultinject::IoStatus::kOk) {
      st.out_off += r.bytes;
      continue;
    }
    if (r.status == faultinject::IoStatus::kWouldBlock) {
      (void)reactor_.set_interest(st.fd, kEventRead | kEventWrite);
      return;
    }
    if (st.spec.mode != ReplayMode::kBenign && st.loris_sent) {
      stats_.hostile_closed++;
      mark_done(idx);
    } else {
      retry_later(idx, true);
    }
    return;
  }
  st.out.clear();
  st.out_off = 0;
  // pump_send stops filling at the backlog cap. A stream with frames left
  // and no pace timer has nothing else to wake it once the kernel took the
  // whole backlog, so it keeps write interest: the next writable event
  // pumps it again.
  const bool more = st.phase == Phase::kSending &&
                    st.spec.mode != ReplayMode::kSlowLoris &&
                    st.next_frame < st.spec.frames.size() && !st.pace_timer_armed;
  (void)reactor_.set_interest(st.fd, more ? kEventRead | kEventWrite : kEventRead);
}

void FleetClient::close_fd(std::size_t idx) {
  StreamState& st = streams_[idx];
  if (st.fd < 0) return;
  reactor_.remove_fd(st.fd);
  ::close(st.fd);
  st.fd = -1;
}

void FleetClient::retry_later(std::size_t idx, bool count_reconnect) {
  StreamState& st = streams_[idx];
  close_fd(idx);
  if (count_reconnect) stats_.reconnects++;
  const MonoTime now = MonoClock::now();
  if (!st.failing) {
    st.failing = true;
    st.first_fail = now;
  } else if (std::chrono::duration<double>(now - st.first_fail).count() >
             config_.retry_for_s) {
    mark_failed(idx);
    return;
  }
  st.backoff_s = st.backoff_s <= 0.0
                     ? config_.retry_initial_s
                     : std::min(kRetryMaxS, st.backoff_s * 2.0);
  // Seeded jitter: spreads a thundering herd of retries without breaking
  // run-to-run reproducibility under a fixed seed.
  const double delay = st.backoff_s * (0.75 + 0.5 * rng_.uniform());
  st.phase = Phase::kIdle;
  if (st.pace_timer_armed) reactor_.cancel_timer(st.pace_timer);
  st.pace_timer = reactor_.add_timer_after(delay, [this, idx] { connect_stream(idx); });
  st.pace_timer_armed = true;
}

void FleetClient::mark_done(std::size_t idx) {
  StreamState& st = streams_[idx];
  if (st.pace_timer_armed) {
    reactor_.cancel_timer(st.pace_timer);
    st.pace_timer_armed = false;
  }
  close_fd(idx);
  st.phase = Phase::kDone;
  st.failing = false;
  if (st.spec.mode != ReplayMode::kBenign && !st.counted_done) st.counted_done = true;
}

void FleetClient::mark_failed(std::size_t idx) {
  StreamState& st = streams_[idx];
  if (st.pace_timer_armed) {
    reactor_.cancel_timer(st.pace_timer);
    st.pace_timer_armed = false;
  }
  close_fd(idx);
  if (st.phase != Phase::kFailed) stats_.failed_streams++;
  st.phase = Phase::kFailed;
}

void FleetClient::on_linger_tick() {
  if (!config_.linger) return;
  stats_.linger_rechecks++;
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    StreamState& st = streams_[i];
    if (st.spec.mode != ReplayMode::kBenign) continue;
    if (st.phase == Phase::kDone && st.fd < 0 && !st.pace_timer_armed) {
      connect_stream(i);
    }
  }
  reactor_.add_timer_after(config_.linger_recheck_s, [this] { on_linger_tick(); });
}

// ---------------------------------------------------------------------------
// Blocking report / health queries
// ---------------------------------------------------------------------------

namespace {

Result<std::string> fetch_query_json(wire::HelloKind kind, const std::string& host,
                                     std::uint16_t port, double timeout_s,
                                     faultinject::SysOps* sys) {
  faultinject::SysOps& ops =
      sys != nullptr ? *sys : faultinject::real_sys_ops();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Error{"netd-socket", std::strerror(errno)};
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_s);
  tv.tv_usec = static_cast<suseconds_t>((timeout_s - static_cast<double>(tv.tv_sec)) *
                                        1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Error{"netd-addr", "bad host " + host};
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    const Error err{"netd-connect", std::string("connect: ") + std::strerror(errno)};
    ::close(fd);
    return err;
  }
  ByteWriter w;
  wire::encode_hello(w, wire::Hello{kind, 0, 0});
  std::size_t off = 0;
  while (off < w.view().size()) {
    const faultinject::IoResult r = faultinject::retry_send(
        ops, fd, w.view().data() + off, w.view().size() - off, MSG_NOSIGNAL);
    // Blocking socket: kWouldBlock here means SO_SNDTIMEO expired.
    if (r.status != faultinject::IoStatus::kOk) {
      ::close(fd);
      return Error{"netd-send", "query hello send failed"};
    }
    off += r.bytes;
  }
  std::vector<std::uint8_t> in;
  auto read_until = [&](std::size_t want) -> bool {
    while (in.size() < want) {
      std::uint8_t buf[4096];
      const faultinject::IoResult r =
          faultinject::retry_recv(ops, fd, buf, sizeof buf);
      if (r.status != faultinject::IoStatus::kOk) return false;
      in.insert(in.end(), buf, buf + r.bytes);
    }
    return true;
  };
  if (!read_until(wire::kQueryReplyHeaderSize)) {
    ::close(fd);
    return Error{"netd-recv", "query reply header truncated"};
  }
  ByteReader hr(std::span<const std::uint8_t>(in.data(), wire::kQueryReplyHeaderSize));
  auto status = hr.u8();
  auto json_len = hr.u32le();
  if (!json_len) {
    ::close(fd);
    return Error{"netd-recv", "query reply header unreadable"};
  }
  if (status.value() != static_cast<std::uint8_t>(wire::AckStatus::kAccepted)) {
    ::close(fd);
    return Error{"netd-busy", "daemon has no report yet"};
  }
  if (!read_until(wire::kQueryReplyHeaderSize + json_len.value())) {
    ::close(fd);
    return Error{"netd-recv", "query reply body truncated"};
  }
  ::close(fd);
  return std::string(
      reinterpret_cast<const char*>(in.data()) + wire::kQueryReplyHeaderSize,
      json_len.value());
}

}  // namespace

Result<std::string> fetch_report(const std::string& host, std::uint16_t port,
                                 double timeout_s, faultinject::SysOps* sys) {
  return fetch_query_json(wire::HelloKind::kQuery, host, port, timeout_s, sys);
}

Result<std::string> fetch_health(const std::string& host, std::uint16_t port,
                                 double timeout_s, faultinject::SysOps* sys) {
  return fetch_query_json(wire::HelloKind::kHealth, host, port, timeout_s, sys);
}

}  // namespace uncharted::netd
