#include "faultinject/sysfault.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#if UNCHARTED_SYSFAULT_HAVE_EPOLL
#include <sys/epoll.h>
#endif

namespace uncharted::faultinject {

namespace {

/// EINTR absorption bound: past this, the helper reports kWouldBlock and
/// lets the reactor re-offer readiness rather than spinning in place.
constexpr int kMaxEintrRetries = 64;

/// Injected short transfers deliver at most this many bytes.
constexpr std::size_t kShortChunk = 16;

}  // namespace

// ---------------------------------------------------------------------------
// RealSysOps
// ---------------------------------------------------------------------------

ssize_t RealSysOps::read(int fd, void* buf, std::size_t n) {
  return ::read(fd, buf, n);
}

ssize_t RealSysOps::write(int fd, const void* buf, std::size_t n) {
  return ::write(fd, buf, n);
}

ssize_t RealSysOps::recv(int fd, void* buf, std::size_t n, int flags) {
  return ::recv(fd, buf, n, flags);
}

ssize_t RealSysOps::send(int fd, const void* buf, std::size_t n, int flags) {
  return ::send(fd, buf, n, flags);
}

int RealSysOps::accept(int fd, sockaddr* addr, socklen_t* len) {
  return ::accept(fd, addr, len);
}

int RealSysOps::poll_wait(pollfd* fds, nfds_t nfds, int timeout_ms) {
  return ::poll(fds, nfds, timeout_ms);
}

#if UNCHARTED_SYSFAULT_HAVE_EPOLL
int RealSysOps::epoll_wait(int epfd, epoll_event* events, int maxevents,
                           int timeout_ms) {
  return ::epoll_wait(epfd, events, maxevents, timeout_ms);
}
#endif

int RealSysOps::open(const char* path, int flags, unsigned mode) {
  return ::open(path, flags, static_cast<mode_t>(mode));
}

int RealSysOps::close(int fd) { return ::close(fd); }

int RealSysOps::fsync(int fd) { return ::fsync(fd); }

int RealSysOps::rename(const char* from, const char* to) {
  return ::rename(from, to);
}

SysOps& real_sys_ops() {
  static RealSysOps ops;
  return ops;
}

// ---------------------------------------------------------------------------
// SysFaultPlan factories
// ---------------------------------------------------------------------------

SysFaultPlan SysFaultPlan::network(double rate, std::uint64_t seed) {
  SysFaultPlan p;
  p.seed = seed;
  p.eintr_p = rate;
  p.eagain_p = rate * 0.5;
  p.short_read_p = rate;
  p.short_write_p = rate;
  p.conn_reset_p = rate * 0.25;
  p.accept_emfile_p = rate * 0.5;
  p.delayed_ready_p = rate * 0.5;
  // Correlated bursts: every 257 ops, 5 ops at 8x the base rates.
  p.burst_period = 257;
  p.burst_len = 5;
  p.burst_boost = 8.0;
  return p;
}

SysFaultPlan SysFaultPlan::storage(double rate, std::uint64_t seed) {
  SysFaultPlan p;
  p.seed = seed;
  p.open_fail_p = rate * 0.25;
  p.write_enospc_p = rate;
  p.storage_eio_p = rate * 0.5;
  p.fsync_fail_p = rate;
  p.rename_fail_p = rate * 0.5;
  return p;
}

SysFaultPlan SysFaultPlan::compound(double rate, std::uint64_t seed) {
  SysFaultPlan p = network(rate, seed);
  const SysFaultPlan s = storage(rate, seed);
  p.open_fail_p = s.open_fail_p;
  p.write_enospc_p = s.write_enospc_p;
  p.storage_eio_p = s.storage_eio_p;
  p.fsync_fail_p = s.fsync_fail_p;
  p.rename_fail_p = s.rename_fail_p;
  return p;
}

// ---------------------------------------------------------------------------
// SysFaultLog
// ---------------------------------------------------------------------------

std::string SysFaultLog::summary() const {
  std::string out;
  auto add = [&](const char* name, std::uint64_t v) {
    if (v == 0) return;
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(v);
  };
  add("eintr", eintr);
  add("eagain", spurious_eagain);
  add("short_reads", short_reads);
  add("short_writes", short_writes);
  add("conn_resets", conn_resets);
  add("accept_emfile", accept_emfile);
  add("delayed_ready", delayed_ready);
  add("open_failures", open_failures);
  add("write_enospc", write_enospc);
  add("storage_eio", storage_eio);
  add("fsync_failures", fsync_failures);
  add("rename_failures", rename_failures);
  return out.empty() ? "clean" : out;
}

// ---------------------------------------------------------------------------
// FaultySysOps
// ---------------------------------------------------------------------------

FaultySysOps::FaultySysOps(SysFaultPlan plan, SysOps* inner)
    : plan_(plan),
      inner_(inner != nullptr ? *inner : real_sys_ops()),
      rng_(plan.seed) {}

void FaultySysOps::begin_op() {
  log_.ops++;
  if (plan_.burst_period > 0 && plan_.burst_len > 0 &&
      op_index_ % plan_.burst_period == 0) {
    burst_left_ = plan_.burst_len;
  }
  op_index_++;
  in_burst_ = burst_left_ > 0;
  if (in_burst_) {
    burst_left_--;
    log_.burst_ops++;
  }
}

bool FaultySysOps::roll(double p) {
  if (p <= 0.0) return false;
  const double eff = in_burst_ ? std::min(1.0, p * plan_.burst_boost) : p;
  return rng_.uniform() < eff;
}

std::size_t FaultySysOps::shorten(std::size_t n) {
  const std::size_t cap = std::min(n - 1, kShortChunk);
  return 1 + static_cast<std::size_t>(rng_.below(cap));
}

ssize_t FaultySysOps::read(int fd, void* buf, std::size_t n) {
  if (enabled_) {
    begin_op();
    if (is_storage(fd)) {
      if (roll(plan_.storage_eio_p)) {
        log_.storage_eio++;
        errno = EIO;
        return -1;
      }
    } else {
      if (roll(plan_.eintr_p)) {
        log_.eintr++;
        errno = EINTR;
        return -1;
      }
      if (roll(plan_.eagain_p)) {
        log_.spurious_eagain++;
        errno = EAGAIN;
        return -1;
      }
      if (n > 1 && roll(plan_.short_read_p)) {
        log_.short_reads++;
        n = shorten(n);
      }
    }
  }
  return inner_.read(fd, buf, n);
}

ssize_t FaultySysOps::write(int fd, const void* buf, std::size_t n) {
  if (enabled_) {
    begin_op();
    if (is_storage(fd)) {
      if (roll(plan_.write_enospc_p)) {
        log_.write_enospc++;
        errno = ENOSPC;
        return -1;
      }
      if (roll(plan_.storage_eio_p)) {
        log_.storage_eio++;
        errno = EIO;
        return -1;
      }
    } else {
      if (roll(plan_.eintr_p)) {
        log_.eintr++;
        errno = EINTR;
        return -1;
      }
      if (roll(plan_.eagain_p)) {
        log_.spurious_eagain++;
        errno = EAGAIN;
        return -1;
      }
      if (n > 1 && roll(plan_.short_write_p)) {
        log_.short_writes++;
        n = shorten(n);
      }
    }
  }
  return inner_.write(fd, buf, n);
}

ssize_t FaultySysOps::recv(int fd, void* buf, std::size_t n, int flags) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.eintr_p)) {
      log_.eintr++;
      errno = EINTR;
      return -1;
    }
    if (roll(plan_.eagain_p)) {
      log_.spurious_eagain++;
      errno = EAGAIN;
      return -1;
    }
    if (roll(plan_.conn_reset_p)) {
      log_.conn_resets++;
      errno = ECONNRESET;
      return -1;
    }
    if (n > 1 && roll(plan_.short_read_p)) {
      log_.short_reads++;
      n = shorten(n);
    }
  }
  return inner_.recv(fd, buf, n, flags);
}

ssize_t FaultySysOps::send(int fd, const void* buf, std::size_t n, int flags) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.eintr_p)) {
      log_.eintr++;
      errno = EINTR;
      return -1;
    }
    if (roll(plan_.eagain_p)) {
      log_.spurious_eagain++;
      errno = EAGAIN;
      return -1;
    }
    if (roll(plan_.conn_reset_p)) {
      log_.conn_resets++;
      errno = ECONNRESET;
      return -1;
    }
    if (n > 1 && roll(plan_.short_write_p)) {
      log_.short_writes++;
      n = shorten(n);
    }
  }
  return inner_.send(fd, buf, n, flags);
}

int FaultySysOps::accept(int fd, sockaddr* addr, socklen_t* len) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.eintr_p)) {
      log_.eintr++;
      errno = EINTR;
      return -1;
    }
    if (roll(plan_.accept_emfile_p)) {
      log_.accept_emfile++;
      errno = EMFILE;
      return -1;
    }
  }
  return inner_.accept(fd, addr, len);
}

int FaultySysOps::poll_wait(pollfd* fds, nfds_t nfds, int timeout_ms) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.eintr_p)) {
      log_.eintr++;
      errno = EINTR;
      return -1;
    }
    if (roll(plan_.delayed_ready_p)) {
      // Delayed readiness: wait briefly (so an injected delay cannot turn
      // a sleeping loop into a hot spin), then report nothing ready.
      // Level-triggered callers re-poll and see the events next round.
      log_.delayed_ready++;
      (void)inner_.poll_wait(fds, nfds, std::min(timeout_ms, 1));
      for (nfds_t i = 0; i < nfds; ++i) fds[i].revents = 0;
      return 0;
    }
  }
  return inner_.poll_wait(fds, nfds, timeout_ms);
}

#if UNCHARTED_SYSFAULT_HAVE_EPOLL
int FaultySysOps::epoll_wait(int epfd, epoll_event* events, int maxevents,
                             int timeout_ms) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.eintr_p)) {
      log_.eintr++;
      errno = EINTR;
      return -1;
    }
    if (roll(plan_.delayed_ready_p)) {
      log_.delayed_ready++;
      (void)inner_.epoll_wait(epfd, events, maxevents, std::min(timeout_ms, 1));
      return 0;
    }
  }
  return inner_.epoll_wait(epfd, events, maxevents, timeout_ms);
}
#endif

int FaultySysOps::open(const char* path, int flags, unsigned mode) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.open_fail_p)) {
      log_.open_failures++;
      errno = ENOSPC;
      return -1;
    }
  }
  const int fd = inner_.open(path, flags, mode);
  if (fd >= 0) storage_fds_.insert(fd);
  return fd;
}

int FaultySysOps::close(int fd) {
  // Close is never faulted: injecting EINTR here would leak fds (POSIX
  // leaves the fd state unspecified) — not a failure mode worth modelling.
  storage_fds_.erase(fd);
  return inner_.close(fd);
}

int FaultySysOps::fsync(int fd) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.fsync_fail_p)) {
      log_.fsync_failures++;
      errno = EIO;
      return -1;
    }
  }
  return inner_.fsync(fd);
}

int FaultySysOps::rename(const char* from, const char* to) {
  if (enabled_) {
    begin_op();
    if (roll(plan_.rename_fail_p)) {
      // A failed rename leaves BOTH names as they were (the torn shape the
      // checkpoint rotation must survive: tmp present, primary stale).
      log_.rename_failures++;
      errno = EIO;
      return -1;
    }
  }
  return inner_.rename(from, to);
}

// ---------------------------------------------------------------------------
// Retry helpers
// ---------------------------------------------------------------------------

bool fd_exhausted(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

IoResult retry_read(SysOps& sys, int fd, void* buf, std::size_t n) {
  for (int tries = 0; tries < kMaxEintrRetries; ++tries) {
    const ssize_t r = sys.read(fd, buf, n);
    if (r > 0) return {IoStatus::kOk, static_cast<std::size_t>(r), 0};
    if (r == 0) return {IoStatus::kEof, 0, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0, 0};
    }
    return {IoStatus::kError, 0, errno};
  }
  return {IoStatus::kWouldBlock, 0, 0};
}

IoResult retry_write(SysOps& sys, int fd, const void* buf, std::size_t n) {
  for (int tries = 0; tries < kMaxEintrRetries; ++tries) {
    const ssize_t r = sys.write(fd, buf, n);
    if (r > 0 || n == 0) return {IoStatus::kOk, static_cast<std::size_t>(r), 0};
    // A zero-byte transfer of a nonzero request would loop callers that
    // retry until `bytes` advances: classify as would-block instead.
    if (r == 0) return {IoStatus::kWouldBlock, 0, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0, 0};
    }
    return {IoStatus::kError, 0, errno};
  }
  return {IoStatus::kWouldBlock, 0, 0};
}

IoResult retry_recv(SysOps& sys, int fd, void* buf, std::size_t n, int flags) {
  for (int tries = 0; tries < kMaxEintrRetries; ++tries) {
    const ssize_t r = sys.recv(fd, buf, n, flags);
    if (r > 0) return {IoStatus::kOk, static_cast<std::size_t>(r), 0};
    if (r == 0) return {IoStatus::kEof, 0, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0, 0};
    }
    return {IoStatus::kError, 0, errno};
  }
  return {IoStatus::kWouldBlock, 0, 0};
}

IoResult retry_send(SysOps& sys, int fd, const void* buf, std::size_t n,
                    int flags) {
  for (int tries = 0; tries < kMaxEintrRetries; ++tries) {
    const ssize_t r = sys.send(fd, buf, n, flags);
    if (r > 0 || n == 0) return {IoStatus::kOk, static_cast<std::size_t>(r), 0};
    if (r == 0) return {IoStatus::kWouldBlock, 0, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0, 0};
    }
    return {IoStatus::kError, 0, errno};
  }
  return {IoStatus::kWouldBlock, 0, 0};
}

AcceptResult retry_accept(SysOps& sys, int fd, sockaddr* addr, socklen_t* len) {
  for (int tries = 0; tries < kMaxEintrRetries; ++tries) {
    const int r = sys.accept(fd, addr, len);
    if (r >= 0) return {r, IoStatus::kOk, 0};
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {-1, IoStatus::kWouldBlock, 0};
    }
    return {-1, IoStatus::kError, errno};
  }
  return {-1, IoStatus::kWouldBlock, 0};
}

}  // namespace uncharted::faultinject
